"""Truncated Laurent series in u over F_q with absolute-precision tracking.

The series variable u satisfies theta = -u^{-(q-1)}, so F_q(theta) embeds by
u-expansion and the completion (together with the chosen (q-1)-th root of
-theta, which is u^{-1} itself) is modeled by one series type.  Every value
carries abs_prec: the exponent below which its coefficients are known.
Arithmetic propagates precision pessimistically by the non-archimedean rules;
an exact value has abs_prec = math.inf.

TPoly is a polynomial in t whose coefficients are USeries; it models the
entire-function products.  Their t-expansions mod t^n are Jets of USeries
(TPoly.jet), which multiply and invert by the shared series algebra.

d_theta_useries extends the theta-derivation: on u it acts by
D_theta(u) = u * (1 + X/theta)^(-1/(q-1)), the branch with constant term u,
and as 1/theta = -u^(q-1), on u^e by
D_theta(u^e) = u^e * (1 - X u^(q-1))^(-e/(q-1)).
-e/(q-1) is a p-adic integer, so by Lucas' rule binom(-e/(q-1), m) mod p
depends only on e mod p^L once p^L > m: each residue class of a
coefficient run takes one binomial.
"""

from __future__ import annotations

import math
import sys

from .binomials import binom_mod_p
from .errors import (
    ConstraintViolated,
    DivisionByZero,
    FieldMismatch,
    Frozen,
    PrecisionExhausted,
)
from .gf import Field, FqElem
from .jets import Jet
from .rings import (
    Poly,
    RatFunc,
    _udot,
    _uinverse,
    _uscale_by_binomial,
    pow_base_p,
    series_mul,
)

INF_PREC = math.inf


def _as_prec(p) -> int | float:
    if p == INF_PREC:
        return INF_PREC
    if isinstance(p, bool) or not isinstance(p, int):
        raise ConstraintViolated(f"precision must be an int or inf, got {p!r}")
    return p


class USeries(Frozen):
    """Laurent series in u, known modulo u^abs_prec.

    coeffs is a dense run of field-table indices starting at exponent
    min_exp, trimmed so coeffs[0] != 0 and coeffs[-1] != 0; an empty run
    means the value is zero to the stated precision (exactly zero when
    abs_prec is infinite).
    """

    __slots__ = ("field", "min_exp", "coeffs", "abs_prec")

    def __init__(self, field: Field, min_exp: int, coeffs, abs_prec=INF_PREC):
        abs_prec = _as_prec(abs_prec)
        coeffs = tuple(coeffs)
        end = len(coeffs)
        if abs_prec != INF_PREC and min_exp + end > abs_prec:
            end = max(0, abs_prec - min_exp)
        while end and coeffs[end - 1] == 0:
            end -= 1
        lead = 0
        while lead < end and coeffs[lead] == 0:
            lead += 1
        if lead or end < len(coeffs):
            coeffs = coeffs[lead:end]
            min_exp += lead
        if not coeffs:
            min_exp = 0
        _us_set_field(self, field)
        _us_set_min_exp(self, min_exp)
        _us_set_coeffs(self, coeffs)
        _us_set_abs_prec(self, abs_prec)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, abs_prec=INF_PREC) -> "USeries":
        return cls(field, 0, [], abs_prec)

    @classmethod
    def monomial(cls, field: Field, exp: int, coeff=1, abs_prec=INF_PREC) -> "USeries":
        c = field.elem(coeff)
        if c.is_zero():
            return cls.zero(field, abs_prec)
        return cls(field, exp, [c.idx], abs_prec)

    @classmethod
    def const(cls, field: Field, value, abs_prec=INF_PREC) -> "USeries":
        return cls.monomial(field, 0, value, abs_prec)

    @classmethod
    def one(cls, field: Field) -> "USeries":
        return cls.const(field, 1)

    @classmethod
    def from_coeff_map(cls, field: Field, m: dict, abs_prec=INF_PREC) -> "USeries":
        if not m:
            return cls.zero(field, abs_prec)
        lo = min(m)
        dense = [0] * (max(m) - lo + 1)
        for e, c in m.items():
            dense[e - lo] = field.elem(c).idx
        return cls(field, lo, dense, abs_prec)

    # -- views -----------------------------------------------------------------

    def is_zero(self) -> bool:
        """No known nonzero coefficient (exactly zero if also exact)."""
        return not self.coeffs

    def is_exact(self) -> bool:
        return self.abs_prec == INF_PREC

    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.abs_prec == INF_PREC

    def valuation(self):
        """Order of the leading known term; abs_prec when none is known."""
        return self.min_exp if self.coeffs else self.abs_prec

    def coeff(self, exp: int) -> FqElem:
        if exp >= self.abs_prec:
            raise PrecisionExhausted(
                f"coefficient of u^{exp} is beyond abs_prec {self.abs_prec}"
            )
        i = exp - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.field.from_index(self.coeffs[i])
        return self.field.from_index(0)

    def coeff_items(self):
        return [
            (self.min_exp + i, self.field.from_index(c))
            for i, c in enumerate(self.coeffs)
            if c
        ]

    def with_prec(self, abs_prec) -> "USeries":
        """Cap the precision (never raises it)."""
        abs_prec = _as_prec(abs_prec)
        if abs_prec >= self.abs_prec:
            return self
        return USeries(self.field, self.min_exp, self.coeffs, abs_prec)

    # -- arithmetic -------------------------------------------------------------

    def _compat(self, other: "USeries"):
        if self.field != other.field:
            raise FieldMismatch("series over different fields")

    def _coerce(self, other):
        if isinstance(other, USeries):
            return other
        if isinstance(other, (int, FqElem)):
            return USeries.const(self.field, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._compat(other)
        return _run_sum(self.field, [(self.min_exp, 1, self.coeffs),
                                     (other.min_exp, 1, other.coeffs)],
                        min(self.abs_prec, other.abs_prec))

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg_t
        return USeries(
            self.field, self.min_exp, [neg[c] for c in self.coeffs], self.abs_prec
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, FqElem)):
            return self.scale(other)
        if not isinstance(other, USeries):
            return NotImplemented
        return USeries.sum_of_products([(self, other)])

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs) -> "USeries":
        """sum of x * y over a nonempty list of pairs, as one _udot; x * y
        is the sum over the one pair (x, y).

        Equal to the fold of + over the products, abs_prec included: the
        sum is known below the least precision of its products, and a zero
        product at a finite precision still caps it.
        """
        f = pairs[0][0].field
        prec, lo, parts = INF_PREC, INF_PREC, []
        for x, y in pairs:
            if x.field is not f and x.field != f or y.field is not f and y.field != f:
                raise FieldMismatch("series over different fields")
            prec = min(prec, x.abs_prec + y.valuation(), y.abs_prec + x.valuation())
            if x.coeffs and y.coeffs:
                parts.append((x.min_exp + y.min_exp, x.coeffs, y.coeffs))
                lo = min(lo, x.min_exp + y.min_exp)
        if not parts:
            return USeries.zero(f, prec)
        # _udot caps n at the end of the latest-ending product
        n = min(prec - lo, sys.maxsize)
        return USeries(f, lo, _udot([(e - lo, a, b) for e, a, b in parts], f, n), prec)

    def scale(self, c) -> "USeries":
        c = self.field.elem(c)
        if c.is_zero():
            return USeries.zero(self.field)
        if c.idx == 1:
            return self
        row = self.field.mul_t[c.idx]
        return USeries(
            self.field, self.min_exp, [row[x] for x in self.coeffs], self.abs_prec
        )

    def shift(self, k: int) -> "USeries":
        """Multiply by the exact monomial u^k."""
        if not self.coeffs:
            return USeries(self.field, 0, [], self.abs_prec + k)
        return USeries(self.field, self.min_exp + k, self.coeffs, self.abs_prec + k)

    def inverse(self, abs_prec=None) -> "USeries":
        if not self.coeffs:
            if self.is_exact_zero():
                raise DivisionByZero("inverse of the zero series")
            raise PrecisionExhausted(
                f"cannot invert a series with no known term (O(u^{self.abs_prec}))"
            )
        v = self.min_exp
        natural = self.abs_prec - 2 * v
        if len(self.coeffs) == 1 and self.is_exact():
            # exact monomial: exact inverse
            out = USeries.monomial(
                self.field, -v, self.field.from_index(self.coeffs[0]).inverse()
            )
            return out.with_prec(abs_prec) if abs_prec is not None else out
        if abs_prec is None:
            if self.is_exact():
                raise ConstraintViolated(
                    "inverting an exact multi-term series needs a target precision"
                )
            target = natural
        else:
            target = _as_prec(abs_prec)
            if target > natural:
                raise PrecisionExhausted(
                    f"inverse precision {target} unreachable: input supports {natural}"
                )
        rel = target + v  # relative terms needed in the unit part's inverse
        if rel <= 0:
            return USeries.zero(self.field, target)
        out = _uinverse(self.coeffs[:rel], rel, self.field)
        return USeries(self.field, -v, out, target)

    def frobenius_power(self, k: int = 1) -> "USeries":
        """self**(p^k); exponents stretch, coefficients map by Frobenius."""
        pk = self.field.p ** k
        if not self.coeffs:
            return USeries(self.field, 0, [], self.abs_prec * pk)
        out = [0] * ((len(self.coeffs) - 1) * pk + 1)
        out[::pk] = map(self.field.frob_t[k % self.field.e].__getitem__, self.coeffs)
        return USeries(self.field, self.min_exp * pk, out, self.abs_prec * pk)

    def __pow__(self, k: int):
        return pow_base_p(self, k, self.field.p, lambda: USeries.one(self.field))

    def _key(self) -> tuple:
        return self.field, self.min_exp, self.coeffs, self.abs_prec

    def __repr__(self):
        bits = []
        for e, c in self.coeff_items():
            if self.field.e == 1:
                cs = "" if c.idx == 1 else f"{c.idx}*"
            else:
                cs = f"({c!r})*"
            if e == 0:
                bits.append(cs.rstrip("*") or "1")
            else:
                bits.append(f"{cs}u^{e}")
        body = " + ".join(bits) if bits else "0"
        if self.abs_prec == INF_PREC:
            return body
        return f"{body} + O(u^{self.abs_prec})"


# the slot setters, bound once for the constructor (as in rings.Poly)
_us_set_field, _us_set_min_exp, _us_set_coeffs, _us_set_abs_prec = (
    getattr(USeries, name).__set__ for name in USeries.__slots__)


def useries_agree(a: USeries, b: USeries) -> bool:
    """Equality of all coefficients below the smaller abs_prec."""
    return useries_diff_witness(a, b) is None


def useries_diff_witness(a: USeries, b: USeries):
    """First exponent (with both values) where a and b disagree, else None;
    the walk runs only when the runs differ as slices of the common window."""
    if a.field != b.field:
        raise FieldMismatch("comparing series over different fields")
    prec = min(a.abs_prec, b.abs_prec)
    lo_cands = [s.min_exp for s in (a, b) if s.coeffs]
    if not lo_cands:
        return None
    lo = min(lo_cands)
    hi = max([s.min_exp + len(s.coeffs) for s in (a, b) if s.coeffs])
    if prec != INF_PREC:
        hi = min(hi, prec)
    if a.min_exp == b.min_exp and (a.coeffs[:max(0, hi - a.min_exp)]
                                   == b.coeffs[:max(0, hi - b.min_exp)]):
        return None
    for e in range(lo, hi):
        ca = a.coeffs[e - a.min_exp] if 0 <= e - a.min_exp < len(a.coeffs) else 0
        cb = b.coeffs[e - b.min_exp] if 0 <= e - b.min_exp < len(b.coeffs) else 0
        if ca != cb:
            return (e, a.field.from_index(ca), b.field.from_index(cb))
    return None


# -- the embedding of K = F_q(theta) ------------------------------------------

def theta_series(field: Field) -> USeries:
    """theta = -u^{-(q-1)}, exact."""
    return USeries.monomial(field, -(field.q - 1), field.elem(-1))


def _run_sum(field: Field, parts, prec) -> USeries:
    """sum of c * u^e * run known below prec, over parts (e, c, run) with c
    a nonzero table index: one accumulator, each run shifted and scaled."""
    parts = [part for part in parts if part[2]]
    if not parts:
        return USeries.zero(field, prec)
    lo = min(e for e, _, _ in parts)
    top = min(prec, max(e + len(cs) for e, _, cs in parts))
    dense = [0] * (top - lo)
    add, mul = field.add_t, field.mul_t
    for e, c, cs in parts:
        row = mul[c]
        for i, x in enumerate(cs[:max(0, top - e)], e - lo):
            dense[i] = add[dense[i]][row[x]]
    return USeries(field, lo, dense, prec)


def _theta_sum(field: Field, parts, prec) -> USeries:
    """sum_k c_k theta^k known below prec, from parts (k, min_exp, coeffs) of c_k.

    theta^k = (-1)^k u^(-k(q-1)) is an exact monomial, so the sum shifts
    each coefficient run and negates the runs of odd k.
    """
    s, minus = field.q - 1, field.neg_t[1]
    return _run_sum(field, [(e - k * s, minus if k & 1 else 1, cs)
                            for k, e, cs in parts], prec)


def _poly_series(p, field: Field) -> USeries:
    """p as a Laurent polynomial in u: as theta^k = (-1)^k u^(-k(q-1)), its
    dense list, odd degrees negated, runs backwards at stride q - 1."""
    if not p._dv:  # zero, or sparse above the dense degree bound
        return _theta_sum(field, [(i, 0, (c,)) for (i,), c in p._items()], INF_PREC)
    vals, s = list(p._dv), field.q - 1
    vals[1::2] = map(field.neg_t.__getitem__, vals[1::2])
    out = [0] * ((len(vals) - 1) * s + 1)
    out[::s] = vals[::-1]
    return USeries(field, -(len(vals) - 1) * s, out)


def embed_k(f, prec: int) -> USeries:
    """Laurent expansion of a rational function of theta, exact to u^prec.

    The result's abs_prec is prec unless the value is a Laurent polynomial
    in u (polynomial input, or monomial denominator), which stays exact.
    """
    prec = _as_prec(prec)
    if isinstance(f, Poly):
        f = RatFunc.from_poly(f)
    if not isinstance(f, RatFunc):
        raise ConstraintViolated(
            f"embed_k expects a rational function, got {type(f).__name__}"
        )
    if len(f.vars) != 1:
        raise ConstraintViolated("embed_k expects a univariate rational function of theta")
    return _embed_over([f.num], f.den, prec)[0]


def _embed_over(nums, den, prec) -> list[USeries]:
    """embed_k of num/den for each polynomial num in theta, with no gcd: one
    inverse of den, to the precision that the numerator of least valuation
    needs, serves them all.  A zero, a numerator equal to den and a monomial
    den give exact Laurent polynomials; a monomial c u^v is a scale by 1/c
    and a shift by -v, with no inverse and no product."""
    field = den.field
    series = [_poly_series(c, field) for c in nums]
    d = _poly_series(den, field)
    if len(d.coeffs) == 1:
        unit = field.from_index(d.coeffs[0]).inverse()
        over = lambda s: s.scale(unit).shift(-d.min_exp)
    else:
        vals = [s.valuation() for c, s in zip(nums, series) if not (c.is_zero() or c == den)]
        inv = d.inverse(abs_prec=prec - min(vals)) if vals else None
        over = lambda s: (s * inv).with_prec(prec)
    one = USeries.one(field)
    return [s if c.is_zero() else one if c == den else over(s)
            for c, s in zip(nums, series)]


# -- Hasse derivative in u and the theta-derivation ----------------------------

def hasse_du(f: USeries, k: int) -> USeries:
    """k-th u-hyperderivative: sum_i binom(i, k) c_i u^{i-k}."""
    if k < 0:
        raise ConstraintViolated("derivative order must be >= 0")
    if k == 0:
        return f
    return USeries(f.field, f.min_exp - k,
                   _uscale_by_binomial(f.coeffs, f.min_exp, k, f.field),
                   f.abs_prec - k)


def d_theta_useries(f: USeries, n: int) -> Jet:
    """Jet of D_theta(f) mod X^{n+1}, coefficients in F_q((u)).

    D_theta(u^e) = u^e (1 - X u^(q-1))^(-e/(q-1)), so coefficient m is
    sum_e (-1)^m binom(-e/(q-1), m) c_e u^(e + m(q-1)), known below
    f.abs_prec + m(q-1); (-1)^m binom(x, m) = binom(m - 1 - x, m).
    """
    if n < 0:
        raise ConstraintViolated("jet order must be >= 0")
    field, s = f.field, f.field.q - 1
    out = [f]
    for m in range(1, n + 1):
        run = _uscale_by_binomial(f.coeffs, f.min_exp, m, field, m - 1, s)
        out.append(USeries(field, f.min_exp + m * s, run, f.abs_prec + m * s))
    return Jet(out)


# -- polynomials in t over USeries ---------------------------------------------

class TPoly(Frozen):
    """Polynomial in t whose coefficients are u-series.

    coeffs maps t-degree to USeries; absent degrees are exactly zero.  Each
    coefficient carries its own u-precision.  A t-series mod t^n is the Jet
    of its first n coefficients (jet(n)).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: dict):
        clean = {k: v for k, v in coeffs.items()
                 if v is not None and not v.is_exact_zero()}
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def one(cls, field: Field) -> "TPoly":
        return cls(field, {0: USeries.one(field)})

    def tdegree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def coeff(self, k: int) -> USeries:
        return self.coeffs.get(k, USeries.zero(self.field))

    def _dense(self, n: int) -> list:
        """Coefficients of t^0 .. t^(n-1); None where absent (exactly zero)."""
        return [self.coeffs.get(k) for k in range(n)]

    def jet(self, n: int) -> Jet:
        """The t-series mod t^n: coefficients of t^0 .. t^(n-1), exact zeros
        where a degree is absent."""
        zero = USeries.zero(self.field)
        return Jet([self.coeffs.get(k, zero) for k in range(n)])

    def _compat(self, other: "TPoly"):
        if self.field != other.field:
            raise FieldMismatch("t-polynomials over different fields")

    def __mul__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        self._compat(other)
        n = self.tdegree() + other.tdegree() + 1
        out = series_mul(self._dense(n), other._dense(n), lambda: None)
        return TPoly(self.field, dict(enumerate(out)))

    __rmul__ = __mul__

    def d_t(self, i: int) -> "TPoly":
        """i-th t-hyperderivative (exact binomial transform on t-degrees)."""
        if i == 0:
            return self
        p = self.field.p
        out = {}
        for k, v in self.coeffs.items():
            if k >= i:
                b = binom_mod_p(k, i, p)
                if b:
                    out[k - i] = v.scale(b)
        return TPoly(self.field, out)

    def jet_at_theta(self, order: int) -> Jet:
        """The Jet of d_t^i(self) at t = theta, i = 0..order."""
        return Jet([self.d_t(i).eval_t_at_theta() for i in range(order + 1)])

    def eval_t_at_theta(self) -> USeries:
        """Substitute t = theta."""
        s = self.field.q - 1
        prec = min((c.abs_prec - k * s for k, c in self.coeffs.items()), default=INF_PREC)
        return _theta_sum(self.field, [(k, c.min_exp, c.coeffs)
                                       for k, c in self.coeffs.items()], prec)

    def inverse_tseries(self, t_terms: int) -> Jet:
        """Inverse as a t-power series mod t^t_terms."""
        if 0 not in self.coeffs:
            raise DivisionByZero("t-series inverse needs a nonzero constant term")
        return self.jet(t_terms).inverse()

    def frobenius_power(self, k: int = 1) -> "TPoly":
        """self**(p^k): t^i moves to t^(i p^k), each coefficient to its own
        Frobenius power."""
        pk = self.field.p ** k
        return TPoly(self.field, {i * pk: v.frobenius_power(k)
                                  for i, v in self.coeffs.items()})

    def _key(self) -> tuple:
        return self.field, frozenset(self.coeffs.items())

    def __repr__(self):
        bits = [f"({v!r})*t^{k}" for k, v in sorted(self.coeffs.items())]
        return " + ".join(bits) if bits else "0"
