"""Domain quantities and the identity verification suite.

This module computes the period series, the Omega t-polynomial, the transfer
coefficients b_j, the eta products, the Anderson-Thakur polynomials with their
factorials, and the period coordinates z_1..z_n of tensor powers by three
independent routes.  Everything is exact: Laurent series carry explicit
precision bounds derived from the product cutoff, and polynomial or rational
results are closed-form.

The verifier functions return data (pass/fail cells with witnesses); a failed
identity is never an exception.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache, reduce
from itertools import groupby

from .binomials import binom_mod_p
from .errors import (
    ConstraintViolated,
    Frozen,
    InsufficientL,
    PrecisionExhausted,
)
from .gf import Field
from .jets import Jet, d_t_jet, d_theta_jet
from .rings import (
    VARS_T,
    VARS_TT,
    Poly,
    RatFunc,
    SJet,
    _partition_counts,
    _quotient_jet_numerators,
    poly_divexact,
    poly_gcd,
    pow_base_p,
    series_mul,
)
from .useries import (
    INF_PREC,
    TPoly,
    USeries,
    _embed_over,
    d_theta_useries,
    embed_k,
    theta_series,
    useries_diff_witness,
)


# -- small integer helpers -----------------------------------------------------


def _pow_at_least(base: int, bound: int) -> int:
    """Smallest l >= 0 with base**l >= bound."""
    l, v = 0, 1
    while v < bound:
        l += 1
        v *= base
    return l


def _least_cutoff(q: int, need: int, least: int) -> int:
    """Least J >= least with (q - 1)*(q**(J + 1) - 1) > need; for need >= 0
    that bound is q**(J + 1) >= need // (q - 1) + 2."""
    return max(least, _pow_at_least(q, need // (q - 1) + 2) - 1)


# -- computation context -------------------------------------------------------


class CarlitzCtx(Frozen):
    """Immutable computation context: field, precision target, product cutoff.

    uprec is the absolute u-precision of series outputs; jet_order is the
    largest derivative order the context is sized for; cutoff is the number
    of retained factors J in the defining products.  J must satisfy the
    truncation-soundness bound

        (q - 1)*(q**(J + 1) - 1) > uprec + jet_order*(q - 1)*q

    which makes every retained coefficient below uprec a coefficient of the
    untruncated object.  An omitted cutoff picks the smallest J whose bound
    also clears the worst-case working losses of the derived routes
    (substitution at theta, inversion, jet powering), so coordinate and jet
    outputs reach uprec without tuning.  An explicit cutoff that fails the
    bound above raises PrecisionExhausted (the request is well-formed but
    unattainable with those resources), and one past the least J with
    q**J >= 2**64, where every further factor lies above any 64-bit
    precision, raises ConstraintViolated; derived routes under a tight
    explicit cutoff may themselves raise PrecisionExhausted.
    """

    __slots__ = ("field", "uprec", "jet_order", "cutoff")

    def __init__(self, field: Field, uprec: int = 60, jet_order: int = 1,
                 cutoff: int | None = None):
        if not isinstance(field, Field):
            raise ConstraintViolated("CarlitzCtx needs a Field")
        if uprec < 1:
            raise ConstraintViolated(f"uprec must be positive, got {uprec}")
        if jet_order < 0:
            raise ConstraintViolated(f"jet_order must be >= 0, got {jet_order}")
        q = field.q
        if cutoff is None:
            # margin: the soundness requirement itself, or the largest
            # working loss of any derived route (eval at theta costs
            # jet_order*(q-1), inversion 2q, jet powering jet_order*q,
            # plus the period's own shift q), whichever is bigger
            margin = max(max(1, jet_order) * (q - 1) * q,
                         3 * q + jet_order * (2 * q - 1) + 1)
            cutoff = _least_cutoff(q, uprec + margin, 1)
        else:
            if cutoff < 1:
                raise ConstraintViolated("cutoff must retain at least one factor")
            if cutoff > (top := _pow_at_least(q, 2 ** 64)):
                raise ConstraintViolated(f"cutoff {cutoff} exceeds {top}: over F_{q} "
                                         f"every factor past it lies above u^(2^64)")
            bound = (q - 1) * (q ** (cutoff + 1) - 1)
            need = uprec + jet_order * (q - 1) * q
            if bound <= need:
                raise PrecisionExhausted(
                    f"cutoff {cutoff} gives truncation bound {bound}, but "
                    f"uprec {uprec} at jet order {jet_order} needs > {need}"
                )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "uprec", uprec)
        object.__setattr__(self, "jet_order", jet_order)
        object.__setattr__(self, "cutoff", cutoff)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def work_prec(self) -> int:
        """Internal series precision; sized so outputs clear uprec."""
        q = self.q
        return self.uprec + self.cutoff * (q - 1) + (self.jet_order + 2) * q + 24

    @property
    def pit_cap(self) -> int:
        """Largest exponent at which the cutoff determines the period."""
        q = self.q
        return -q + (q - 1) * (q ** (self.cutoff + 1) - 1)

    def omega_cap(self, k: int):
        """Largest honest exponent of the t^k coefficient of the cutoff Omega."""
        if k == 0:
            return INF_PREC
        q = self.q
        return q + (q - 1) * (q ** (self.cutoff + 1) + (k - 1) * q)

    def _key(self) -> tuple:
        return self.field, self.uprec, self.jet_order, self.cutoff

    def replace(self, **kw) -> "CarlitzCtx":
        """Copy with replacements; cutoff=None re-derives the automatic choice."""
        return CarlitzCtx(**{**dict(zip(self.__slots__, self._key())), **kw})

    def __repr__(self):
        return (f"CarlitzCtx(q={self.q}, uprec={self.uprec}, "
                f"jet_order={self.jet_order}, cutoff={self.cutoff})")


# -- the period and the Omega polynomial ----------------------------------------


@lru_cache(maxsize=None)
def pitilde(ctx: CarlitzCtx) -> USeries:
    """The period as a u-Laurent series; leading term -1 at u^{-q}.

    Each factor 1 - theta^{1-q^j} is 1 - u^{(q^j-1)(q-1)}, so the inverse
    of the cutoff product, to working precision, is a series of partition
    counts mod p.  It is shifted, negated and capped at the truncation-
    soundness bound, so no later step relies on a coefficient the cutoff
    does not determine.
    """
    F, q = ctx.field, ctx.q
    n = ctx.work_prec + q
    # the parts past j = _pow_at_least(q, n) are all >= n
    parts = [(q ** j - 1) * (q - 1)
             for j in range(1, min(ctx.cutoff, _pow_at_least(q, n)) + 1)]
    pit = USeries(F, 0, _partition_counts(parts, n, F.p), n).shift(-q).scale(F.elem(-1))
    pit = pit.with_prec(ctx.pit_cap)
    if pit.abs_prec < ctx.uprec:
        raise PrecisionExhausted(
            f"period attained O(u^{pit.abs_prec}) < requested O(u^{ctx.uprec}); "
            f"raise the cutoff"
        )
    return pit


def _omega_capped(ctx: CarlitzCtx, budget: int) -> TPoly:
    """The cutoff Omega, its t^k coefficient known below
    min(ctx.omega_cap(k), budget) for k >= 1.

    Each factor 1 - t theta^{-q^j} is 1 + u^{x_j} t, x_j = (q-1)q^j, as
    1 + q^j is even for odd q and -1 = 1 in characteristic 2.  So the t^k
    coefficient is u^q times the sum of u^s over the sums s of k of the x_j;
    they are distinct (base-q digits 0 and 1), and each one below the cap is
    placed as a coefficient 1.
    """
    F, q, J = ctx.field, ctx.q, ctx.cutoff
    caps = [0] + [min(ctx.omega_cap(k), budget) - q for k in range(1, J + 1)]
    # sums[k]: the sums of k of the x_j below caps[k], ascending, as x_j
    # exceeds every sum before it; a sum over its cap has no extension
    # under the next cap, since caps[k+1] - caps[k] <= (q-1)q < x_2
    sums, x = [[0]] + [[] for _ in range(J)], (q - 1) * q
    for j in range(1, J + 1):
        if x >= caps[-1]:
            break
        for k in range(j, 0, -1):
            sums[k] += [s + x for s in sums[k - 1] if s + x < caps[k]]
        x *= q
    coeffs = {0: USeries.monomial(F, q)}
    for k in range(1, J + 1):
        run = sums[k]
        lo = run[0] if run else 0
        dense = [0] * (run[-1] + 1 - lo if run else 0)
        for s in run:
            dense[s - lo] = 1
        coeffs[k] = USeries(F, q + lo, dense, q + caps[k])
    return TPoly(F, coeffs)


@lru_cache(maxsize=None)
def omega_tpoly(ctx: CarlitzCtx) -> TPoly:
    """The cutoff Omega as a t-polynomial over u-series: t^0 is exactly u^q,
    and each t^k is known below ctx.omega_cap(k) and the working precision
    (_omega_capped)."""
    return _omega_capped(ctx, ctx.work_prec)


@lru_cache(maxsize=None)
def omega_theta_eval_jet(ctx: CarlitzCtx, order: int) -> Jet:
    """Jet of t-derivatives of Omega, each substituted at t = theta."""
    return omega_tpoly(ctx).jet_at_theta(order)


# -- product polynomials -------------------------------------------------------


def _brackets(field: Field, vars, pairs) -> Poly:
    """prod (x^a - x^b) over the exponent-tuple pairs (a, b), in order."""
    out = Poly.one(field, vars)
    for a, b in pairs:
        out = out * (Poly.monomial(field, a, vars=vars) - Poly.monomial(field, b, vars=vars))
    return out


@lru_cache(maxsize=None)
def L_poly(field: Field, l: int) -> Poly:
    """prod_{m=1}^{l} (theta^{q^m} - theta)."""
    if l < 0:
        raise ConstraintViolated(f"L_l needs l >= 0, got {l}")
    q = field.q
    return _brackets(field, VARS_T, [((q ** m,), (1,)) for m in range(1, l + 1)])


@lru_cache(maxsize=None)
def curlyL_poly(field: Field, l: int) -> Poly:
    """prod_{m=1}^{l} (theta^{q^m} - t)."""
    if l < 0:
        raise ConstraintViolated(f"the t-product needs l >= 0, got {l}")
    q = field.q
    return _brackets(field, VARS_TT, [((q ** m, 0), (0, 1)) for m in range(1, l + 1)])


@lru_cache(maxsize=None)
def gamma_poly(field: Field, m: int) -> Poly:
    """prod_{k=1}^{m} (theta^{q^m} - t^{q^k})."""
    if m < 0:
        raise ConstraintViolated(f"gamma_m needs m >= 0, got {m}")
    q = field.q
    return _brackets(field, VARS_TT, [((q ** m, 0), (0, q ** k)) for k in range(1, m + 1)])


@lru_cache(maxsize=None)
def D_poly(field: Field, m: int) -> Poly:
    """prod_{k=0}^{m-1} (theta^{q^m} - theta^{q^k})."""
    if m < 0:
        raise ConstraintViolated(f"D_m needs m >= 0, got {m}")
    q = field.q
    return _brackets(field, VARS_T, [((q ** m,), (q ** k,)) for k in range(m)])


def Gamma_poly(field: Field, m: int) -> Poly:
    """Factorial prod_j D_j^{m_j} over the base-q digits of m; m >= 1 only."""
    if m < 1:
        raise ConstraintViolated(f"the factorial is defined for indices >= 1, got {m}")
    out, j = Poly.one(field, VARS_T), 0
    while m:
        m, d = divmod(m, field.q)
        if d:
            out = out * D_poly(field, j) ** d
        j += 1
    return out


_COMBINATORICS = {
    "L": L_poly,
    "curlyL": curlyL_poly,
    "gamma": gamma_poly,
    "D": D_poly,
    "Gamma": Gamma_poly,
}


def carlitz_combinatorics(field: Field, kind: str, index: int) -> Poly:
    """Exact product polynomial by kind: L, curlyL, gamma, D, or Gamma."""
    fn = _COMBINATORICS.get(kind)
    if fn is None:
        raise ConstraintViolated(
            f"unknown kind {kind!r}; expected one of {sorted(_COMBINATORICS)}"
        )
    return fn(field, index)


# -- K-jets times the period-power jet ------------------------------------------
#
# A route's K-jet is raw: numerators N_0..N_order over one denominator in
# F_q[theta], with no gcd, as fractions of equal value embed alike.


def _p_valuation(n: int, p: int) -> int:
    """v with p^v the largest power of p dividing n >= 1."""
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def _frobenius_lift(jet: Jet, order: int, k: int, zero) -> Jet:
    """Frob^k of a jet known mod X^(order // p^k + 1), as a jet of the given
    order: coefficient i goes to its p^k-th power on X^(i p^k), and every
    other slot i holds zero(i).  With k = 0 the jet is only padded."""
    pk = jet[0].field.p ** k
    out = [zero(i) for i in range(order + 1)]
    for i, c in enumerate(jet.coeffs[: order // pk + 1]):
        out[i * pk] = c.frobenius_power(k) if k else c
    return Jet(out)


def _inverse_power(field: Field, jet_at, n: int) -> Jet:
    """jet_at(n - 1) ** (-n), inverting only jet_at(r), r = (n - 1) // p^v.

    For n = p^v m, pow_base_p takes v Frobenius steps before its first
    product, and they read only coefficients 0..r, so the rest is padding.
    """
    inv = jet_at((n - 1) // field.p ** _p_valuation(n, field.p)).inverse()
    return _frobenius_lift(inv, n - 1, 0, lambda i: inv._zero()) ** n


@lru_cache(maxsize=None)
def _period_power_jet(ctx: CarlitzCtx, n: int, order: int) -> Jet:
    """d_theta_useries(pitilde(ctx) ** n, order), from the period^m jet; the
    AT and eta routes and the span combination share it.

    For n = p^v m the theta-jet is Frob^v of the jet of period^m mod
    X^(order // p^v + 1); off the multiples of p^v it holds the zeros that
    d_theta_useries gives period^n, whose precision is p^v times period^m's.
    """
    F = ctx.field
    v = _p_valuation(n, F.p)
    pv = F.p ** v
    base = pitilde(ctx) ** (n // pv)
    prec = base.abs_prec * pv
    return _frobenius_lift(d_theta_useries(base, order // pv), order, v,
                           lambda i: USeries.zero(F, prec + i * (F.q - 1)))


def _times_period_power(ctx: CarlitzCtx, kjet: tuple, n: int) -> Jet:
    """The embedded raw K-jet times the theta-jet of period^n to its order."""
    return Jet(_embed_over(*kjet, ctx.work_prec)) * _period_power_jet(ctx, n, len(kjet[0]) - 1)


# -- transfer coefficients b_j ---------------------------------------------------


@lru_cache(maxsize=None)
def b_rat(field: Field, j: int) -> RatFunc:
    """Transfer coefficient b_j in F_q(theta, t): d^j(Omega^{-1}) = b_j Omega^{-1}.

    With l the least l with q^l > j, P = curlyL_{l-1} and f_i = theta^{q^i} - t,
    b_j = P * d^j(P^{-1}); as (theta + X)^{q^i} = theta^{q^i} + X^{q^i}, that is
    sum_j b_j X^j = P(theta, t)/P(theta + X, t) = prod_{0<i<l} (1 + X^{q^i}/f_i)^{-1}.
    So b_j is the X^j coefficient of its _bracket_series, made canonical by
    peeling the irreducible f_i; b_0 = 1, and b_j = 0 unless q | j.
    """
    if j < 0:
        raise ConstraintViolated(f"b_j needs j >= 0, got {j}")
    return _b_rats(field, j, j)[0]


def _b_rats(field: Field, lo: int, hi: int) -> list[RatFunc]:
    """b_lo, ..., b_hi from one _bracket_series to X^hi."""
    q = field.q
    one = Poly.one(field, VARS_TT)
    pairs = [(q ** i, Poly.monomial(field, (q ** i, 0)) - Poly.monomial(field, (0, 1)))
             for i in range(1, _pow_at_least(q, hi + 1))]
    series, powers = _bracket_series(one, pairs, hi + 1, -1)
    out = []
    for j in range(lo, hi + 1):
        num, den = series.get(j), one
        for f, left in powers if num is not None else ():
            while left:
                try:
                    num = poly_divexact(num, f)
                except ConstraintViolated:
                    break
                left -= 1
            den = den * f ** left
        # coprime and deglex-monic by construction: the raw constructor is safe
        out.append(RatFunc.zero(field, VARS_TT) if num is None else RatFunc(num, den))
    return out


# -- Anderson-Thakur polynomials -------------------------------------------------


@lru_cache(maxsize=None)
def at_poly(field: Field, n: int) -> tuple[Poly, Poly]:
    """(alpha_n, Gamma_n): the recursion cleared to an exact polynomial.

    alpha_n = sum_j gamma_j * alpha_{n-q^j} * Gamma_n / (D_j * Gamma_{n-q^j}).
    Each cofactor Gamma_n / (D_j * Gamma_{n-q^j}) is a product of brackets
    [i] = theta^{q^i} - theta, since D_{i+1} = [i+1] * D_i^q, so its exact
    division IS the integrality check: a non-polynomial cofactor raises.

    The recursion reads the indices n - q^j, and j = 0 steps down by one, so
    n reaches every index in 1..n-1.  Those are filled first, in ascending
    order, so each lookup below is a cache hit and the call depth stays the
    same for every n.
    """
    if n < 1:
        raise ConstraintViolated(f"alpha_n is defined for n >= 1, got {n}")
    if n == 1:
        return Poly.one(field, VARS_TT), Poly.one(field, VARS_T)
    for m in range(2, n):
        at_poly(field, m)
    q = field.q
    gam = Gamma_poly(field, n)
    alpha = Poly.zero(field, VARS_TT)
    for j in range(_pow_at_least(q, n)):
        a_prev, g_prev = at_poly(field, n - q ** j)
        cof = poly_divexact(gam, D_poly(field, j) * g_prev)
        alpha = alpha + a_prev * (gamma_poly(field, j) * cof.lift_tt())
    return alpha, gam


# -- eta products ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _eta_num(field: Field, l: int) -> Poly:
    # prod_{m=1}^{l} (t^{q^m} - theta)
    q = field.q
    return _brackets(field, VARS_TT, [((0, q ** m), (1, 0)) for m in range(1, l + 1)])


# eta_rat's numerator has t-degree q + q^2 + ... + q^l and 2^l terms.  The
# fraction needs no gcd, so its cost is the product and its output size; this
# bound keeps both small and refuses a larger eta_l before any product is
# formed.
ETA_MAX_T_DEGREE = 200


def eta_rat(field: Field, l: int) -> RatFunc:
    """eta_l = prod_{m=1}^{l} (t^{q^m} - theta)/(theta^{q^m} - theta), exact.

    eta_l(theta) = 1 for every l.
    """
    if l < 0:
        raise ConstraintViolated(f"eta_l needs l >= 0, got {l}")
    deg = 0
    for m in range(1, l + 1):
        deg += field.q ** m
        if deg > ETA_MAX_T_DEGREE:
            raise ConstraintViolated(
                f"eta_{l} over F_{field.q} has numerator t-degree above the "
                f"largest supported, {ETA_MAX_T_DEGREE}")
    # the numerator is monic in t, so by Gauss's lemma it has no factor in
    # F_q[theta]; the denominator L_l lies in F_q[theta] and is monic in
    # theta.  The pair is coprime and deglex-monic: already canonical.
    return RatFunc(_eta_num(field, l), L_poly(field, l).lift_tt())


def eta_sjet(field: Field, l: int, M: int) -> SJet:
    """eta_l expanded in s = t - theta, modulo s^M.

    Requires q^l >= M: beyond that bound the missing factors of the full
    product are congruent to 1, so eta_l realizes the limit object mod s^M.
    """
    if M < 1:
        raise ConstraintViolated(f"s-order must be >= 1, got {M}")
    if l < 0:
        raise ConstraintViolated(f"eta_l needs l >= 0, got {l}")
    if field.q ** l < M:
        raise InsufficientL(f"q^l = {field.q ** l} < {M}; increase l")
    return SJet(field, _fractions(*_bracket_product(field, M, 1), M))


def _s_times(a: dict, b: dict, M: int) -> dict:
    """Product mod s^M of polynomials in s over F_q[theta], as maps k -> s^k
    coefficient that hold no zero."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j < M:
                out[i + j] = out[i + j] + x * y if i + j in out else x * y
    return {k: c for k, c in out.items() if not c.is_zero()}


def _fractions(num: dict, den: Poly, M: int) -> list[RatFunc]:
    """The canonical s^k coefficients, k < M, of a numerator over den."""
    zero = Poly.zero(den.field)
    return [RatFunc.make(num.get(k, zero), den) for k in range(M)]


def _bracket_series(one: Poly, pairs, M: int, npow: int,
                    slide: bool = False) -> tuple[dict, list]:
    """prod (1 + X^e/g)^npow mod X^M over the pairs (e, g), e >= 2, or with
    slide prod (1 + X^e/(g - X))^npow: a numerator in X (as _s_times takes
    it) over the product of the powers (g, K) returned, K the largest power
    of 1/g in a term below X^M, so no series inversion is needed.  Term k is
    binom(npow, k) X^{ke}/g^k, with slide times sum_i binom(k+i-1, i) (X/g)^i.
    """
    p = one.field.p
    num, powers = {0: one}, []
    for e, g in pairs:
        terms = {0: {0: 1}}  # x -> {s: the coefficient of X^x/g^s}
        for k in range(1, (M - 1) // e + 1):
            if bk := binom_mod_p(npow, k, p):
                for i in range(M - k * e if slide else 1):
                    if c := bk * binom_mod_p(k + i - 1, i, p) % p:
                        terms.setdefault(k * e + i, {})[k + i] = c
        K = max(max(t) for t in terms.values())
        gpow = [one]
        for _ in range(K):
            gpow.append(gpow[-1] * g)
        num = _s_times(num, {x: sum((gpow[K - s].scale(c) for s, c in t.items()),
                                    one - one) for x, t in terms.items()}, M)
        powers.append((g, K))
    return num, powers


def _bracket_product(field: Field, M: int, npow: int,
                     slide: bool = False) -> tuple[dict, Poly]:
    """The _bracket_series over the brackets [m] = theta^{q^m} - theta with
    q^m < M, as a numerator over one denominator prod [m]^K."""
    q, one = field.q, Poly.one(field)
    pairs = [(q ** m, Poly.monomial(field, (q ** m,)) - Poly.monomial(field, (1,)))
             for m in range(1, _pow_at_least(q, M))]
    num, powers = _bracket_series(one, pairs, M, npow, slide)
    return num, math.prod((g ** K for g, K in powers), start=one)


@lru_cache(maxsize=None)
def _bracket_theta_jet(field: Field, npow: int, order: int) -> tuple:
    """The raw K-jet prod_m (1 + X^{q^m}/([m] - X))^npow over the q^m <= order.

    Under theta -> theta + X at t = theta, factor m of eta_l is
    ([m] - X)/([m] + X^{q^m} - X), 1 mod X^(order+1) once q^m > order: this
    is the jet of eta_l^{-npow} for every l with q^(l+1) > order.  At
    npow = -1 it is the transfer jet P(theta, theta+X)/P(theta+X, theta+X),
    P = curlyL_{l-1}, the total substitution of (b_0, ..., b_order).
    """
    num, den = _bracket_product(field, order + 1, npow, slide=True)
    return tuple(num.get(j, den - den) for j in range(order + 1)), den


def _t_rows(p: Poly) -> dict[int, Poly]:
    """The t-rows of p in F_q[theta, t]: t-degree j to the coefficient of t^j
    in F_q[theta]."""
    rows: dict[int, dict] = {}
    for (i, j), c in p.terms.items():
        rows.setdefault(j, {})[(i,)] = c
    return {j: Poly(p.field, VARS_T, r) for j, r in rows.items()}


def _theta_gcd(gam: Poly, alpha: Poly) -> Poly:
    """gcd of gam in F_q[theta] with alpha in F_q[theta, t]: as gam is free
    of t, the univariate gcd of gam with each t-row of alpha."""
    return reduce(poly_gcd, _t_rows(alpha).values(), gam)


@lru_cache(maxsize=None)
def _at_ratio_theta_jet(field: Field, n: int, order: int) -> tuple:
    """The raw K-jet of alpha_n/Gamma_n, substituted at t = theta.

    alpha_{nq} * Gamma_n^q = alpha_n^q * Gamma_{nq}, so R_{nq} = R_n^q for
    R_n = alpha_n/Gamma_n, and f -> f(theta + X, theta) is a ring map: when
    q | n the jet is the Frobenius image of the jet of R_{n/q} mod
    X^(order // q + 1), and alpha_n is never built.  Otherwise alpha_n and
    Gamma_n lose their common factor before the quotient recurrence, which
    would carry it through every coefficient.
    """
    if n % field.q == 0:
        nums, den = _at_ratio_theta_jet(field, n // field.q, order // field.q)
        lift = _frobenius_lift(Jet(nums), order, field.e, lambda _: Poly.zero(field))
        return lift.coeffs, den.frobenius_power(field.e)
    alpha, gam = at_poly(field, n)
    if not gam.is_constant():
        g = _theta_gcd(gam, alpha)
        alpha, gam = poly_divexact(alpha, g.lift_tt()), poly_divexact(gam, g)
    # the recurrence's C_k / D^(k+1) as C_k D^(order-k) over D^(order+1)
    nums = [c.eval_t_at_theta() for c in d_theta_jet(alpha, order).coeffs]
    dens = list(d_theta_jet(gam, order).coeffs)
    if all(d.is_zero() for d in dens[1:]):
        return tuple(nums), gam
    cs, dpow = _quotient_jet_numerators(nums, dens)
    return tuple(c * dpow(order - k) for k, c in enumerate(cs)), dpow(order + 1)


# -- period coordinates ----------------------------------------------------------


class PeriodCoords(Frozen):
    """Coordinates z_1..z_n of a tensor-power period; z[i] is z_{i+1}.

    The last coordinate equals the n-th power of the period within tracked
    precision, whichever route produced the object.
    """

    __slots__ = ("n", "z", "route")

    def __init__(self, n: int, z: tuple, route: str):
        if n < 1:
            raise ConstraintViolated(f"tensor power must be >= 1, got {n}")
        z = tuple(z)
        if len(z) != n:
            raise ConstraintViolated(f"expected {n} coordinates, got {len(z)}")
        if route not in ("omega", "eta", "at"):
            raise ConstraintViolated(f"unknown route {route!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "route", route)

    def jet(self) -> Jet:
        """Jet (z_n, z_{n-1}, ..., z_1): coefficient j is z_{n-j}."""
        return Jet([self.z[self.n - 1 - j] for j in range(self.n)])

    def _key(self) -> tuple:
        return self.n, self.route, self.z

    def __repr__(self):
        return f"PeriodCoords(n={self.n}, route={self.route!r})"


def _coords_from_jet(ctx: CarlitzCtx, zjet: Jet, route: str) -> PeriodCoords:
    n = zjet.order + 1
    zs = []
    for j, c in enumerate(zjet.coeffs):
        # c is z_{n-j}
        if c.abs_prec < ctx.uprec:
            raise PrecisionExhausted(
                f"{route} route: z_{n - j} attained O(u^{c.abs_prec}) < "
                f"requested O(u^{ctx.uprec}); raise the cutoff"
            )
        zs.append(c.with_prec(ctx.uprec))
    zs.reverse()
    return PeriodCoords(n, tuple(zs), route)


def z_via_omega(ctx: CarlitzCtx, n: int) -> PeriodCoords:
    """Coordinates from the t-jet of Omega: invert, power, sign-adjust.

    Differentiation happens on the t-polynomial; substitution at t = theta
    happens on the finished jet coefficients; inversion and powering happen
    over the Laurent-series ring where the constant term is a unit.
    """
    if n < 1:
        raise ConstraintViolated(f"tensor power must be >= 1, got {n}")
    return _z_omega(ctx, n)


@lru_cache(maxsize=None)
def _z_omega(ctx: CarlitzCtx, n: int) -> PeriodCoords:
    einv = _inverse_power(ctx.field, lambda k: omega_theta_eval_jet(ctx, k), n)
    zjet = einv.scale(ctx.field.elem(-1) ** n)
    return _coords_from_jet(ctx, zjet, "omega")


def minimal_l(q: int, n: int) -> int:
    """Smallest l >= 1 with q^l >= n: the least depth the eta route accepts."""
    if n < 1:
        raise ConstraintViolated(f"tensor power must be >= 1, got {n}")
    return max(1, _pow_at_least(q, n))


def z_via_eta(ctx: CarlitzCtx, n: int, l: int) -> PeriodCoords:
    """Coordinates from jets of eta_{l-1}^{-n} times jets of the period power.

    Valid for l >= 1 with q^l >= n.  z_{n-j} is the order-j coefficient of
    the product jet.  Factor m of eta_{l-1}(theta + X, theta) is 1 mod
    X^{q^m}, so every l >= l_min gives the same K-jet mod X^n: the bracket
    rule over the q^m <= n - 1 (_bracket_theta_jet at npow = n), whose
    denominator, a product of brackets theta^{q^m} - theta, never vanishes.
    So l is only validated (minimal_l refuses n < 1): one value per (ctx, n).
    """
    if l < minimal_l(ctx.q, n):
        raise ConstraintViolated(
            f"need l >= 1 with q^l >= n, got l={l} for n={n}"
        )
    return _coords_from_jet(ctx, _eta_jet(ctx, n), "eta")


@lru_cache(maxsize=None)
def _eta_jet(ctx: CarlitzCtx, n: int) -> Jet:
    """The eta route's product jet, which the span combination shares."""
    return _times_period_power(ctx, _bracket_theta_jet(ctx.field, n, n - 1), n)


def z_via_at(ctx: CarlitzCtx, n: int) -> PeriodCoords:
    """Coordinates from jets of alpha_n/Gamma_n times jets of the period power:
    the raw quotient jet of the AT polynomials (_at_ratio_theta_jet)."""
    if n < 1:
        raise ConstraintViolated(f"tensor power must be >= 1, got {n}")
    ajet = _at_ratio_theta_jet(ctx.field, n, n - 1)
    return _coords_from_jet(ctx, _times_period_power(ctx, ajet, n), "at")


def dtheta_pitilde(ctx: CarlitzCtx, n: int, route: str = "direct") -> Jet:
    """(period, d^1 period, ..., d^n period) by two independent routes.

    direct: the theta-derivation on the Laurent series itself.
    span:   minus the product of the embedded transfer jet (the bracket
            rule at npow = -1) with the inverse of the substituted Omega t-jet.
    """
    if n < 0:
        raise ConstraintViolated(f"jet order must be >= 0, got {n}")
    if route == "direct":
        return d_theta_useries(pitilde(ctx), n)
    if route == "span":
        bjet = Jet(_embed_over(*_bracket_theta_jet(ctx.field, -1, n), ctx.work_prec))
        ejet = omega_theta_eval_jet(ctx, n)
        return (bjet * ejet.inverse()).scale(ctx.field.elem(-1))
    raise ConstraintViolated(f"unknown route {route!r}; expected direct or span")


# -- verification report types ----------------------------------------------------


class CheckCell(Frozen):
    """One verified identity instance: name, parameters, outcome, witness."""

    __slots__ = ("identity", "params", "passed", "witness")
    # equal and hashed by identity: the params dict gives no hashable key
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, identity: str, params: dict, passed: bool,
                 witness: str | None = None):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "params", dict(params))
        object.__setattr__(self, "passed", bool(passed))
        object.__setattr__(self, "witness", witness)

    def to_dict(self) -> dict:
        d = {
            "identity": self.identity,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "pass": self.passed,
        }
        if self.witness is not None:
            d["witness"] = self.witness
        return d

    def __repr__(self):
        mark = "pass" if self.passed else "FAIL"
        return f"[{mark}] {self.identity} {self.params}"


class Report(Frozen):
    """Outcome of a verification run; failures are data, not exceptions."""

    __slots__ = ("cells", "meta")
    # equal and hashed by identity, as a CheckCell: meta is a dict
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, cells, meta: dict | None = None):
        object.__setattr__(self, "cells", tuple(cells))
        object.__setattr__(self, "meta", dict(meta or {}))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cells)

    def failures(self) -> tuple:
        return tuple(c for c in self.cells if not c.passed)

    def to_dict(self) -> dict:
        return {
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "all_passed": self.all_passed,
            "results": [c.to_dict() for c in self.cells],
        }

    def __repr__(self):
        good = sum(1 for c in self.cells if c.passed)
        return f"Report({good}/{len(self.cells)} passed)"


def _first_gap(tag: str, lhs, rhs, uprec: int | None = None) -> str | None:
    """Witness of the first order k with lhs[k] != rhs[k]; None if there is none.

    lhs and rhs are coefficient sequences of one length.  USeries compare on
    their common precision, which must reach O(u^uprec) when uprec is given;
    exact values (Poly, RatFunc) compare with !=.
    """
    for k, (left, right) in enumerate(zip(lhs, rhs, strict=True)):
        if not isinstance(left, USeries):
            if left != right:
                return f"{tag}: order-{k} coefficients differ: {left!r} != {right!r}"
            continue
        lo = min(left.abs_prec, right.abs_prec)
        if uprec is not None and lo < uprec:
            return (f"{tag}: order-{k} known only to O(u^{lo}), below the "
                    f"requested O(u^{uprec})")
        w = useries_diff_witness(left, right)
        if w is not None:
            e, a, b = w
            return f"{tag}: order-{k} first differs at u^{e}: {a!r} != {b!r}"
    return None


# -- verification cells ------------------------------------------------------------


def _cells_omega(ctx: CarlitzCtx, t_terms: int) -> list[CheckCell]:
    """x * x^{-1} = 1 mod t^t_terms for x = Omega and for its unit-series
    partner (t - theta) * Omega, whose constant term is exactly u, so that
    its inverse aw is a genuine t-series."""
    F = ctx.field
    om = omega_tpoly(ctx)
    unit = TPoly(F, {0: -theta_series(F), 1: USeries.one(F)}) * om
    one = TPoly.one(F).jet(t_terms)
    cells = []
    for name, tag, x, inv in (
            ("omega_inverse", "Omega * Omega^-1 vs 1", om, _omega_inverse(ctx, t_terms)),
            ("aw_unit", "(t-theta)*Omega*aw vs 1", unit, unit.inverse_tseries(t_terms))):
        witness = _first_gap(tag, x.jet(t_terms) * inv, one)
        cells.append(CheckCell(name, {"t_terms": t_terms}, witness is None, witness))
    return cells


@lru_cache(maxsize=None)
def _omega_inverse(ctx: CarlitzCtx, t_terms: int) -> Jet:
    """Omega^{-1} mod t^t_terms, which the omega and transfer cells share."""
    return omega_tpoly(ctx).inverse_tseries(t_terms)


def _cell_omega_pow(ctx: CarlitzCtx, n: int) -> CheckCell:
    """Power-then-jet vs jet-then-power for the inverse Omega substitution."""
    q = ctx.q
    # the n-th power loses roughly n times what a single factor loses, so
    # this cell deepens the cutoff for its own computation; the comparison
    # target still comes from the caller's context
    need = ctx.uprec + (n - 1) * (q - 1) + (3 * n + 1) * q + 8
    J2 = _least_cutoff(q, need, ctx.cutoff)
    ctx2 = ctx.replace(cutoff=J2) if J2 != ctx.cutoff else ctx
    budget = need + n * J2 * (q - 1) + n * q
    F = ctx.field
    omn = pow_base_p(_omega_capped(ctx2, budget), n, F.p, lambda: TPoly.one(F))
    zj2 = omn.jet_at_theta(n - 1).inverse().scale(F.elem(-1) ** n)
    witness = _first_gap("jet-then-power vs power-then-jet",
                         z_via_omega(ctx, n).jet(), zj2, ctx.uprec)
    return CheckCell("omega_pow_order", {"n": n}, witness is None, witness)


def _cells_b_transfer(ctx: CarlitzCtx, jmax: int, t_terms: int) -> list[CheckCell]:
    F = ctx.field
    hi = min(F.q - 1, jmax)
    vanish = all(b_rat(F, j).is_zero() for j in range(1, hi + 1))
    cells = [CheckCell("b_vanishing", {"range": f"1..{hi}"}, vanish,
                       None if vanish else "a transfer coefficient below index q is nonzero")]

    # t is theta-free, so d^j acts on each t-coefficient of the inverse
    winv = _omega_inverse(ctx, t_terms)
    lhs = [d_theta_useries(c, jmax) for c in winv]
    for j in range(jmax + 1):
        b = b_rat(F, j)
        witness = _first_gap(f"d^{j}(Omega^-1) vs b_{j}*Omega^-1",
                             [d[j] for d in lhs], _tseries_times_ratfunc(winv, b))
        cells.append(CheckCell("b_transfer", {"j": j}, witness is None, witness))
    return cells


def _tseries_times_ratfunc(tser: Jet, b: RatFunc) -> Jet:
    """A t-series mod t^len(tser) times an exact rational function of
    (theta, t), cut at the same length."""
    n = len(tser)
    prod = tser * _tseries(b.num, n, False)
    return prod if b.den.is_constant() else prod * _tseries(b.den, n, True)


@lru_cache(maxsize=None)
def _tseries(p: Poly, n: int, invert: bool) -> Jet:
    """p, or 1/p with invert, mod t^n with embedded u-series coefficients:
    one per value, as the b_j share the zero numerator and denominators.

    The t^0 coefficient of a b_j denominator is an exact monomial, so the
    t-series inverse needs no precision target.
    """
    tp = TPoly(p.field, {j: embed_k(r, INF_PREC) for j, r in _t_rows(p).items()})
    return tp.inverse_tseries(n) if invert else tp.jet(n)


def _cells_span(ctx: CarlitzCtx, n: int) -> list[CheckCell]:
    witness = _first_gap("direct vs span derivative jet",
                         dtheta_pitilde(ctx, n, "direct"),
                         dtheta_pitilde(ctx, n, "span"), ctx.uprec)
    return [CheckCell("pitilde_span", {"order": n}, witness is None, witness)]


def _cells_eta_quotient(field: Field, lmax: int, order: int) -> list[CheckCell]:
    """theta-jet of eta_l against the t-jet of curlyL_l over the theta-jet of L_l.

    eta_l has numerator prod (t^{q^m} - theta) and denominator L_l, so both
    sides divide by the same theta-jet of L_l, and the cell compares the
    numerator jets N, d_theta^k of that product and d_t^k of curlyL_l at
    t = theta.  The quotient jets' C_k = N_k * D^k - sum_{i>=1} E_i * C_{k-i},
    D = L_l != 0, are triangular, so they first differ where the N do; only
    a failing cell builds the jet of L_l and the C for its witness.
    """
    cells = []
    for l in range(lmax + 1):
        nl, nr = ([c.eval_t_at_theta() for c in jet.coeffs]
                  for jet in (d_theta_jet(_eta_num(field, l), order),
                              d_t_jet(curlyL_poly(field, l), order)))
        witness = None
        if nl != nr:
            den = list(d_theta_jet(L_poly(field, l), order).coeffs)
            witness = _first_gap(f"eta_{l} quotient",
                                 *(_quotient_jet_numerators(n, den)[0] for n in (nl, nr)))
        cells.append(CheckCell("eta_quotient", {"l": l, "order": order},
                               witness is None, witness))
    return cells


def _transfer_jets(field: Field, order: int) -> tuple[list[Poly], list[Poly]]:
    """The total substitution c of (b_0, ..., b_order) as two polynomial jets
    at t = theta, M and Dt with c * Dt = M.

    Every b_j denominator divides D = prod_i (theta^{q^i} - t)^(order // q^i),
    the bracket powers of its _bracket_series, so b_j = N_j/D with no gcd;
    then M_m = sum_{i+j=m} d_t^i N_j and Dt_i = d_t^i D.
    """
    q = field.q
    den = _brackets(field, VARS_TT, [((q ** i, 0), (0, 1))
                                     for i in range(1, _pow_at_least(q, order + 1))
                                     for _ in range(order // q ** i)])
    big_m = [Poly.zero(field)] * (order + 1)
    for j, b in enumerate(_b_rats(field, 0, order)):
        if not b.is_zero():
            nj = b.num * poly_divexact(den, b.den)
            for i, c in enumerate(d_t_jet(nj, order - j).coeffs, j):
                big_m[i] = big_m[i] + c.eval_t_at_theta()
    return big_m, [c.eval_t_at_theta() for c in d_t_jet(den, order).coeffs]


def _cells_bjet_eta(field: Field, nmax: int) -> list[CheckCell]:
    """The total substitution of the b_rat jet against the quotient jet of
    eta_{l-1}: the check that ties b_rat, and so the Omega transfer cells, to
    the bracket rule that the routes run.

    The transfer jet is M/Dt (_transfer_jets) and the eta jet Ntheta/Ltheta,
    the theta-jets of eta_{l-1}'s numerator and of L_{l-1}; Dt_0, Ltheta_0
    are nonzero, so the two agree mod X^n exactly when M * Ltheta =
    Ntheta * Dt mod X^n.  A jet of smaller n is a prefix, so each depth l is
    compared once, at its largest n; only a failing cell builds fractions.
    """
    cells, zero = [], Poly.zero(field)
    big_m, dt = _transfer_jets(field, nmax - 1)
    for l, ns in groupby(range(1, nmax + 1), lambda n: minimal_l(field.q, n)):
        ns = list(ns)
        n = ns[-1]
        nth = [c.eval_t_at_theta() for c in d_theta_jet(_eta_num(field, l - 1), n - 1).coeffs]
        lth = list(d_theta_jet(L_poly(field, l - 1), n - 1).coeffs)
        lhs, rhs = series_mul(big_m[:n], lth, lambda: zero), series_mul(nth, dt[:n], lambda: zero)
        k = next((k for k in range(n) if lhs[k] != rhs[k]), n)
        witness = None if k == n else _first_gap(
            "transfer jet vs eta jet", _quotient_fractions(big_m[:k + 1], dt[:k + 1]),
            _quotient_fractions(nth[:k + 1], lth[:k + 1]))
        cells += [CheckCell("bjet_eta_congruence", {"n": m, "l": l}, k >= m,
                            None if k >= m else witness) for m in ns]
    return cells


def _quotient_fractions(nums: list[Poly], dens: list[Poly]) -> list[RatFunc]:
    """The quotient jet of two polynomial jets as canonical C_k / D^(k+1)."""
    cs, dpow = _quotient_jet_numerators(nums, dens)
    return [RatFunc.make(c, dpow(k + 1)) for k, c in enumerate(cs)]


def _cell_eta_sum(field: Field, M: int) -> CheckCell:
    """sum_j (gamma_j/D_j) * eta_l^{q^j} = 1 modulo s^M, with q^l >= M.

    With t = theta + s and x_i = theta^{q^i}, gamma_j = prod_{k=1..j}
    (x_j - x_k - s^{q^k}), 0 if q^j >= M, and eta_l^{q^j} = prod_{j<i<l}
    (x_i - x_j + s^{q^i})/(x_i - x_j).  Term j is thus a polynomial in s over
    the gaps x_b - x_a, a < b < l, that contain j, and the cell checks
    sum_j cofactor_j * num_j = Delta, the product of all gaps, with the gaps
    without j as cofactor (and cofactor_j times term j's denominator, D_j
    from D_poly, is Delta).  Canonical fractions decide a failing cell.
    """
    q = field.q
    l = _pow_at_least(q, M)
    one = Poly.one(field)
    x = [Poly.monomial(field, (q ** i,)) for i in range(l + 1)]
    gaps = {(a, b): x[b] - x[a] for b in range(l) for a in range(b)}
    delta, total, terms = math.prod(gaps.values(), start=one), {}, []
    for j in range(l + 1):
        num, den = {0: one}, D_poly(field, j)
        for k in range(1, j + 1):
            num = _s_times(num, {0: x[j] - x[k], q ** k: -one}, M)
        for i in range(j + 1, l):
            num = _s_times(num, {0: gaps[j, i], q ** i: one}, M)
            den = den * gaps[j, i]
        if num:
            cof = math.prod((g for key, g in gaps.items() if j not in key), start=one)
            terms.append((num, den, cof * den == delta))
            for k, c in num.items():
                total[k] = total[k] + cof * c if k in total else cof * c
    if (all(ok for *_, ok in terms)
            and {k: c for k, c in total.items() if not c.is_zero()} == {0: delta}):
        return CheckCell("eta_sum_one", {"M": M, "terms": l + 1}, True)
    sums = [sum(col, RatFunc.zero(field))
            for col in zip(*(_fractions(num, den, M) for num, den, _ in terms))]
    witness = _first_gap("s-expansion of the sum vs 1", sums,
                         [RatFunc.one(field)] + [RatFunc.zero(field)] * (M - 1))
    return CheckCell("eta_sum_one", {"M": M, "terms": l + 1}, witness is None, witness)


def _cells_eta_alpha(field: Field, nmax: int) -> list[CheckCell]:
    """eta_l^{-n} = alpha_n/Gamma_n modulo s^{n+1}, l the least with q^l > n.

    A deeper eta_{l'} adds factors 1 + s^{q^m}/[m] with q^m > n, the same
    jet, so eta_l alone is compared.  With eta_l^{-n} = N/E and alpha_k the
    Taylor coefficients of alpha_n, N_k * Gamma_n = alpha_k * E decides;
    only a failing cell builds fractions.
    """
    cells = []
    q = field.q
    for n in range(1, nmax + 1):
        M = n + 1
        l = _pow_at_least(q, n + 1)
        num, den = _bracket_product(field, M, -n)
        alpha, gam = at_poly(field, n)
        jet = [c.eval_t_at_theta() for c in d_t_jet(alpha, M - 1).coeffs]
        shifted = {k: c for k, c in enumerate(jet) if not c.is_zero()}
        witness = None
        if {k: c * gam for k, c in num.items()} != {k: c * den for k, c in shifted.items()}:
            witness = _first_gap(f"eta_{l}^-{n} vs alpha_{n}/Gamma_{n}",
                                 _fractions(num, den, M), _fractions(shifted, gam, M))
        cells.append(CheckCell("eta_inv_alpha", {"n": n, "l": l}, witness is None, witness))
    return cells


def _cells_alpha(field: Field, nmax: int) -> list[CheckCell]:
    cells, q, e = [], field.q, field.e
    for n in range(1, nmax + 1):
        try:
            a_n, g_n = at_poly(field, n)
            a_nq, g_nq = at_poly(field, n * q)
        except ConstraintViolated as exc:
            cells.append(CheckCell("alpha_integrality", {"n": n}, False, str(exc)))
            continue
        cells.append(CheckCell("alpha_integrality", {"n": n}, True))
        lhs = a_nq * g_n.frobenius_power(e).lift_tt()
        rhs = a_n.frobenius_power(e) * g_nq.lift_tt()
        witness = _first_gap(f"alpha_{n * q}*Gamma_{n}^q vs alpha_{n}^q*Gamma_{n * q}",
                             [lhs], [rhs])
        cells.append(CheckCell("alpha_q_power", {"n": n}, witness is None, witness))
    return cells


def _cells_coords(ctx: CarlitzCtx, n: int) -> list[CheckCell]:
    lmin = minimal_l(ctx.q, n)
    base, witness = z_via_omega(ctx, n), None
    # both eta legs read one value (z_via_eta); the report keeps them both
    for label, other in ((f"eta(l={lmin})", z_via_eta(ctx, n, lmin)),
                         (f"eta(l={lmin + 1})", z_via_eta(ctx, n, lmin + 1)),
                         ("at", z_via_at(ctx, n))):
        witness = witness or _first_gap(f"(z_n..z_1) omega vs {label}",
                                        base.jet(), other.jet(), ctx.uprec)
    last = _first_gap("z_n vs period^n", [base.z[-1]],
                      [(pitilde(ctx) ** n).with_prec(ctx.uprec)], ctx.uprec)
    return [CheckCell("coords_cross_route", {"n": n, "l": [lmin, lmin + 1]},
                      witness is None, witness),
            CheckCell("coords_last_power", {"n": n}, last is None, last)]


def _cell_span_combination(ctx: CarlitzCtx, n: int) -> CheckCell:
    """Coordinates as an explicit K-combination of derivative monomials.

    The order-b coefficient of the n-th power of the derivative jet of the
    period is the sum of all monomials prod_j d^{m_j}(period) with
    m_1+...+m_n = b, so multiplying by the inverse n-th power of the
    transfer jet exhibits z_{n-j} as a K-linear combination of those
    monomials; the check requires the residual against the omega-route
    coordinates to vanish on all retained coefficients.  That inverse power
    is the bracket rule at npow = n, the eta route's K-jet (_eta_jet).
    """
    co = z_via_omega(ctx, n)
    witness = _first_gap("combination vs (z_n..z_1)", _eta_jet(ctx, n), co.jet(), ctx.uprec)
    if witness is not None:
        nums, den = _bracket_theta_jet(ctx.field, n, n - 1)
        witness += f"; K-coefficients: {tuple(RatFunc.make(c, den) for c in nums)!r}"
    return CheckCell("coords_span_combination",
                     {"n": n, "monomial_orders": f"0..{n - 1}"}, witness is None, witness)


# -- suite driver ------------------------------------------------------------------


# selector -> its cells, from the context and the run's ranges; in report order
_SELECTORS = {
    "omega": lambda ctx, r: [*_cells_omega(ctx, r["t_terms"]), _cell_omega_pow(ctx, r["n"])],
    "b_transfer": lambda ctx, r: _cells_b_transfer(ctx, r["jmax"], r["t_terms"]),
    "pitilde_span": lambda ctx, r: _cells_span(ctx, r["n"]),
    "eta_quotient": lambda ctx, r: _cells_eta_quotient(ctx.field, r["lmax"], r["n"]),
    "bjet_eta": lambda ctx, r: _cells_bjet_eta(ctx.field, r["n"]),
    "eta_sum": lambda ctx, r: [_cell_eta_sum(ctx.field, r["sum_order"])],
    "eta_alpha": lambda ctx, r: _cells_eta_alpha(ctx.field, r["n"]),
    "alpha": lambda ctx, r: _cells_alpha(ctx.field, r["n"]),
    "coords": lambda ctx, r: _cells_coords(ctx, r["n"]),
    "span_combination": lambda ctx, r: [_cell_span_combination(ctx, r["n"])],
}
VERIFY_SELECTORS = tuple(_SELECTORS)


def verify_suite(ctx: CarlitzCtx, which="all", *, n: int | None = None,
                 jmax: int | None = None, lmax: int = 3, sum_order: int = 32,
                 t_terms: int | None = None) -> Report:
    """Run the selected identity cells and collect pass/fail data.

    which is "all", one selector name, or an iterable of names from
    VERIFY_SELECTORS.  n defaults to ctx.jet_order (coordinate and jet
    ranges), jmax to ctx.jet_order (transfer index range), t_terms to
    cutoff + 1.
    """
    if isinstance(which, str):
        names = VERIFY_SELECTORS if which == "all" else (which,)
    else:
        names = tuple(which)
    for nm in names:
        if nm not in VERIFY_SELECTORS:
            raise ConstraintViolated(
                f"unknown selector {nm!r}; expected one of {VERIFY_SELECTORS}")
    n = ctx.jet_order if n is None else n
    jmax = ctx.jet_order if jmax is None else jmax
    t_terms = (ctx.cutoff + 1) if t_terms is None else t_terms
    if n < 1:
        raise ConstraintViolated(f"the suite needs n >= 1, got {n}")
    # a cell over an empty range, or a run with no cells, would pass without
    # checking anything
    if not names:
        raise ConstraintViolated("no selector given; the suite would run no cells")
    if ("omega" in names or "b_transfer" in names) and t_terms < 1:
        raise ConstraintViolated(f"t_terms must be >= 1, got {t_terms}")
    if "b_transfer" in names and jmax < 1:
        raise ConstraintViolated(f"the transfer cells need jmax >= 1, got {jmax}")
    if "eta_quotient" in names and lmax < 0:
        raise ConstraintViolated(f"the eta quotient cells need lmax >= 0, got {lmax}")
    if "eta_sum" in names and sum_order < 2:
        raise ConstraintViolated(
            f"the eta sum needs sum_order >= 2 (mod s^1 it holds trivially), "
            f"got {sum_order}")

    ranges = {"n": n, "jmax": jmax, "lmax": lmax, "sum_order": sum_order, "t_terms": t_terms}
    cells = [c for nm in VERIFY_SELECTORS if nm in names for c in _SELECTORS[nm](ctx, ranges)]
    field = ctx.field
    meta = {
        "p": field.p, "e": field.e, "q": field.q,
        "uprec": ctx.uprec, "jet_order": ctx.jet_order, "cutoff": ctx.cutoff,
        **ranges, "selectors": list(names),
    }
    return Report(cells, meta)


# -- alternating interpolation identity ---------------------------------------------


_LAGRANGE_NOTE = (
    "a published statement of this identity prints the constant 1; direct "
    "evaluation (and every use made of the identity) gives 0, which is what "
    "this check asserts"
)


def verify_lagrange(field: Field, s: int = 3, trials: int = 50,
                    seed: int = 1729, max_degree: int = 2) -> Report:
    """Evaluate the alternating interpolation expression on random tuples.

    E = prod_i 1/(a_i - b) - sum_i 1/(a_i - b) * prod_{k != i} 1/(a_k - a_i)
    over pairwise-distinct polynomials a_1..a_s, b of degree <= max_degree.
    The asserted value is E = 0; see the note carried by every cell.  It is
    decided on E's numerator; only a failing trial builds the fraction E.
    """
    if s < 1:
        raise ConstraintViolated(f"need s >= 1 interpolation nodes, got {s}")
    if trials < 1:
        raise ConstraintViolated(f"need at least one trial, got {trials}")
    pool = field.q ** (max_degree + 1)
    if pool <= s:
        raise ConstraintViolated(
            f"need more than s={s} distinct samples, pool holds {pool}")
    cells = []
    for trial, (a, b) in enumerate(
            _lagrange_tuples(field, s, trials, seed, max_degree)):
        to_b, gaps = _lagrange_differences(a, b)
        num = _lagrange_numerator(to_b, gaps)
        witness = None if num.is_zero() else (
            f"evaluates to {RatFunc.make(num, math.prod([*to_b, *gaps.values()]))!r}")
        cells.append(CheckCell(
            "lagrange",
            {"trial": trial, "s": s, "note": _LAGRANGE_NOTE},
            witness is None, witness))
    return Report(cells, {"q": field.q, "s": s, "trials": trials, "seed": seed,
                          "max_degree": max_degree})


def _lagrange_tuples(field: Field, s: int, trials: int, seed: int, max_degree: int):
    """The nodes a_1..a_s and the point b of each trial: s + 1 pairwise
    distinct polynomials, each drawn as max_degree + 1 random table indices,
    low degree first."""
    rng = random.Random(seed)
    for _ in range(trials):
        chosen: list[Poly] = []
        while len(chosen) < s + 1:
            cand = Poly.from_dense(
                field, [rng.randrange(field.q) for _ in range(max_degree + 1)])
            if cand not in chosen:
                chosen.append(cand)
        yield chosen[:s], chosen[s]


def _lagrange_differences(a: list[Poly], b: Poly) -> tuple[list[Poly], dict]:
    """Every difference of a trial, formed once: a_i - b for each i, and
    a_k - a_i keyed (i, k) for each i < k."""
    return ([ai - b for ai in a],
            {(i, k): a[k] - a[i] for i in range(len(a)) for k in range(i + 1, len(a))})


def _lagrange_numerator(to_b: list[Poly], gaps: dict) -> Poly:
    """E * P * V for P = prod_i (a_i - b), V = prod_{i<k} (a_k - a_i): the
    product side gives V, and term i of the sum, as prod_{k != i} (a_k - a_i)
    is (-1)^i times the gaps with i, gives (-1)^i times the a_k - b, k != i,
    and the gaps without i.  Each product multiplies only its real factors,
    with no product by one."""
    one = to_b[0] ** 0

    def prod(fs):
        return math.prod(fs[1:], start=fs[0]) if fs else one

    num = prod([*gaps.values()])
    for i in range(len(to_b)):
        term = prod([d for k, d in enumerate(to_b) if k != i]
                    + [g for key, g in gaps.items() if i not in key])
        num = num + term if i % 2 else num - term
    return num
