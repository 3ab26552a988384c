"""Test-only oracles for the series algebra of `carlitzhd`.

A jet (c_0, ..., c_n) acts on jets of the same order as the upper-triangular
Toeplitz matrix with entry (i, j) = c_{j-i}, so jet products are matrix
products; the tests check `carlitzhd.jets` against this plain matrix
product.  The jet of a fraction in (theta, t), kept bivariate, is the
reference for the jets of fractions at t = theta.  `carlitzhd` forms no jet
of fractions; the canonical quotient jet at t = theta
(`quotient_jet_at_theta`) and the total substitution of a theta-jet
(`compose_substitute`), which it ran before, are kept here.

`carlitzhd` builds a fraction in F_q(theta, t) canonical by construction
and never combines it with another, so its `poly_gcd`, `RatFunc.make`, +
and * refuse bivariate operands.  The primitive polynomial-remainder-sequence
gcd that `rings` ran before is kept here as the reference gcd (`prs_gcd`);
`prs_make` makes a pair canonical through it, and `PrsFrac` is a `RatFunc`
whose +, -, * and / run through `prs_make` in either variable set.

An `SJet` expansion of a rational function around t = theta and the series
inverse of an `SJet` serve as references for `eta_sjet` and the
quotient-jet recurrence.  The factor-by-factor evaluation of the alternating
interpolation expression, with its own sampler, is the reference for
`verify_lagrange`.

Five verify checks (`eta_quotient`, `bjet_eta_congruence`, `eta_sum_one`,
`eta_inv_alpha` and the Lagrange check) decide on numerator polynomials;
their earlier forms, which decide in canonical F_q(theta) with a gcd per
sum and product, are kept here as references for their cells.  They read
their inputs through the `carlitz` module, so an input replaced there
reaches the reference too.

The period and Omega are built from their factors only up to the precision
used; their earlier forms, the full cutoff product of u-series binomials
inverted by `USeries.inverse`, and the exact product of t-binomials capped
afterwards, are the references for `pitilde` and `carlitz._omega_capped`.

The theta-derivation of a u-series takes one binomial per residue class of
its exponents; its earlier form, the Taylor identity
D_theta(f) = sum_k d_u^(k)(f) * (D_theta(u) - u)^k over a scalar triangle
and a base-q digit rule, is the reference for `d_theta_useries`.

The transfer coefficient b_j is the X^j coefficient of a product of bracket
series; its earlier form, the quotient-jet numerator of 1/P over P^j for
P = curlyL_{l-1}, peeled back by trial division, is the reference for
`b_rat`.

The routes hold their K-jets raw, as numerators over one denominator.  The
canonical builders they ran before are the references for them: the quotient
jet of num/den in canonical fractions, the eta K-jet as a product of
Frobenius images of base-p digit jets, the AT K-jet as canonical quotient
jets after a bivariate gcd, the transfer jet as the
total substitution of (b_0, ..., b_order), and the embedding of each
canonical coefficient by its own `embed_k`.  `raw_jet_gap` compares a raw
jet with a canonical one in K, by cross-multiplication.
"""

import random
from functools import lru_cache

from carlitzhd import (
    VARS_T,
    VARS_TT,
    CheckCell,
    DegreeMismatch,
    DivisionByZero,
    FqElem,
    Jet,
    NonUnitConstantTerm,
    Poly,
    RatFunc,
    Report,
    SJet,
    TPoly,
    USeries,
    binom_mod_p,
    carlitz,
    embed_k,
    hasse_du,
    poly_divexact,
    poly_gcd,
    taylor_shift,
)
from carlitzhd.carlitz import _LAGRANGE_NOTE, _first_gap, _pow_at_least
from carlitzhd.cli import parse_poly
from carlitzhd.errors import ConstraintViolated, PoleAtTheta, PrecisionExhausted
from carlitzhd.jets import _ring_is_zero, d_t_jet, d_theta_jet
from carlitzhd.rings import (
    _dense,
    _exact_zero,
    _poly_hasse,
    _quotient_jet_numerators,
    _uadd,
    _udivexact,
    _ugcd,
    _umul,
    _uscale,
    series_inverse,
)


def _ring_exact_zero(a):
    """The exact zero of a's ring (a ** 0 is the exact identity)."""
    one = a ** 0
    return one - one


class RhoMatrix:
    """The (n+1)x(n+1) matrix of a jet: entry (i, j) = coefficient j - i."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise DegreeMismatch("matrix must be square")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("RhoMatrix is immutable")

    @classmethod
    def from_jet(cls, jet: Jet) -> "RhoMatrix":
        n = len(jet.coeffs)
        zero = _ring_exact_zero(jet[0])
        rows = []
        for i in range(n):
            rows.append([zero] * i + list(jet.coeffs[: n - i]))
        return cls(rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def top_row(self):
        return self.entries[0]

    def __mul__(self, other):
        if not isinstance(other, RhoMatrix):
            return NotImplemented
        n = self.size
        if n != other.size:
            raise DegreeMismatch("matrix sizes differ")
        # the series zero rule: skip a term only for an exact-zero factor, so
        # an entry known only up to precision caps every entry it enters;
        # a sum with no term left is exactly zero
        zero = None
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for k in range(n):
                    a, b = self.entries[i][k], other.entries[k][j]
                    if _exact_zero(a) or _exact_zero(b):
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                if acc is None:
                    if zero is None:
                        zero = _ring_exact_zero(self.entries[0][0])
                    acc = zero
                row.append(acc)
            rows.append(row)
        return RhoMatrix(rows)

    def is_upper_toeplitz(self) -> bool:
        n = self.size
        for i in range(n):
            for j in range(n):
                if j < i:
                    if not _ring_is_zero(self.entries[i][j]):
                        return False
                elif i > 0:
                    if self.entries[i][j] != self.entries[0][j - i]:
                        return False
        return True

    def __eq__(self, other):
        return isinstance(other, RhoMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "RhoMatrix(" + repr([list(r) for r in self.entries]) + ")"


def to_rho_matrix(jet: Jet) -> RhoMatrix:
    return RhoMatrix.from_jet(jet)


# -- bivariate fractions: the reference gcd and arithmetic ------------------------


def _bi_view(p: Poly, mv: int) -> dict[int, list[int]]:
    """View a bivariate polynomial as main-var dict of dense other-var polys."""
    rows: dict[int, dict[int, int]] = {}
    for e, c in p.terms.items():
        rows.setdefault(e[mv], {})[e[1 - mv]] = c
    return {m: _dense(row) for m, row in rows.items()}


def _bi_unview(view: dict[int, list[int]], mv: int, field) -> Poly:
    terms = {}
    for m, dense in view.items():
        for j, c in enumerate(dense):
            if c:
                e = (m, j) if mv == 0 else (j, m)
                terms[e] = c
    return Poly(field, VARS_TT, terms)


def _bi_content(view: dict[int, list[int]], f) -> list[int]:
    g: list[int] = []
    for dense in view.values():
        g = _ugcd(g, dense, f)
        if g == [1]:
            break
    return g


def _bi_pp(view, content, f):
    if content == [1]:
        return view
    return {m: _udivexact(dense, content, f) for m, dense in view.items()}


def _bi_prem(a: dict[int, list[int]], b: dict[int, list[int]], f):
    """Pseudo-remainder of a by b in the main variable (views)."""
    db = max(b)
    lb = b[db]
    r = {m: list(c) for m, c in a.items()}
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r.pop(dr)
        nr: dict[int, list[int]] = {}
        for m, c in r.items():
            nr[m] = _umul(c, lb, f)
        for m, c in b.items():
            if m == db:
                continue
            tgt = m + dr - db
            prod = _umul(c, lr, f)
            nr[tgt] = _uadd(nr.get(tgt, []), _uscale(prod, f.neg_t[1], f), f)
        r = {m: c for m, c in nr.items() if c}
    return r


def prs_gcd(a: Poly, b: Poly) -> Poly:
    """Monic (deglex) gcd: `poly_gcd` in F_q[theta], and in F_q[theta, t] the
    primitive PRS on the univariate-in-main-variable view, with the content
    split off by univariate gcds."""
    if a.vars == VARS_T:
        return poly_gcd(a, b)
    f = a.field
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return Poly.one(f, a.vars)
    # pick the main variable with the smaller worst-case degree
    d0 = max(a.degree(0), b.degree(0))
    d1 = max(a.degree(1), b.degree(1))
    mv = 0 if d0 <= d1 else 1
    va, vb = _bi_view(a, mv), _bi_view(b, mv)
    ca, cb = _bi_content(va, f), _bi_content(vb, f)
    gc = _ugcd(ca, cb, f)
    pa, pb = _bi_pp(va, ca, f), _bi_pp(vb, cb, f)
    while pb:
        r = _bi_prem(pa, pb, f)
        if r:
            r = _bi_pp(r, _bi_content(r, f), f)
        pa, pb = pb, r
    if gc != [1]:
        pa = {m: _umul(row, gc, f) for m, row in pa.items()}
    return _bi_unview(pa, mv, f).monic()


def prs_make(num: Poly, den: Poly) -> "PrsFrac":
    """The canonical fraction num/den through `prs_gcd`, in either variable set."""
    if den.is_zero():
        raise DivisionByZero("rational function with zero denominator")
    if num.is_zero():
        return PrsFrac(num, Poly.one(num.field, num.vars))
    g = prs_gcd(num, den)
    if not g.is_constant():
        num, den = poly_divexact(num, g), poly_divexact(den, g)
    return PrsFrac._monic(num, den)


class PrsFrac(RatFunc):
    """A canonical fraction whose +, -, * and / run through `prs_make`.

    It equals and hashes as the `RatFunc` with the same numerator and
    denominator; the gcd-free operations are those of `RatFunc`, with the
    result kept a `PrsFrac`.
    """

    __slots__ = ()

    @classmethod
    def of(cls, x) -> "PrsFrac":
        if isinstance(x, RatFunc):
            return cls(x.num, x.den)
        return cls.from_poly(x)

    def _coerce(self, other):
        if isinstance(other, (RatFunc, Poly)):
            return PrsFrac.of(other)
        if isinstance(other, (int, FqElem)):
            return PrsFrac.const(self.field, other, self.vars)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return prs_make(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return PrsFrac(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return prs_make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "PrsFrac":
        return PrsFrac.of(RatFunc.inverse(self))

    def __pow__(self, k: int):
        return PrsFrac.of(RatFunc.__pow__(self, k))

    def frobenius_power(self, k: int = 1) -> "PrsFrac":
        return PrsFrac.of(RatFunc.frobenius_power(self, k))


def parse_ratfunc(field, d: dict) -> PrsFrac:
    """The inverse of `cli.ser_ratfunc`, canonical through `prs_make`."""
    return prs_make(parse_poly(field, d["num"]), parse_poly(field, d["den"]))


# -- jets of fractions at t = theta -----------------------------------------------


def quotient_jet_at_theta(nums: list, dens: list) -> list:
    """The jet N/D at t = theta, for polynomial jets N, D of one derivation:
    the canonical C_k / D^{k+1} of the recurrence on the substituted
    coefficients, which is the substituted jet of N/D (a ring homomorphism).
    PoleAtTheta if D(theta, theta) = 0, for D = dens[0]; empty jets give an
    empty jet."""
    den = [d.eval_t_at_theta() for d in dens]
    if den and den[0].is_zero():
        raise PoleAtTheta(f"denominator {dens[0]!r} vanishes at t = theta")
    num = [n.eval_t_at_theta() for n in nums]
    if all(d.is_zero() for d in den[1:]):  # then c_k = N_k / D: no D^k to cancel
        return [RatFunc.make(n, den[0]) for n in num]
    cs, dpow = _quotient_jet_numerators(num, den)
    zero = RatFunc.zero(den[0].field, VARS_T)
    return [zero if c.is_zero() else RatFunc.make(c, dpow(k + 1))
            for k, c in enumerate(cs)]


def compose_substitute(f_jet_theta: Jet) -> Jet:
    """Jet of theta |-> f(theta, theta) from the theta-jet of f(theta, t).

    The total substitution: coefficient m is the sum over
    i + j = m of d_t^i(d_theta^j f) at t = theta.  For each RatFunc or Poly
    coefficient, quotient_jet_at_theta forms the t-jet from its substituted
    numerator and denominator jets, so no bivariate fraction is built.
    """
    order = f_jet_theta.order
    field = f_jet_theta[0].field
    out = [RatFunc.zero(field, VARS_T) for _ in range(order + 1)]
    for j in range(order + 1):
        cj = f_jet_theta[j]
        if cj.is_zero():
            continue
        if isinstance(cj, Poly):
            cj = RatFunc.from_poly(cj)
        num, den = ([_poly_hasse(g, 1, i) for i in range(order - j + 1)]
                    for g in (cj.num, cj.den))
        for i, term in enumerate(quotient_jet_at_theta(num, den)):
            if not term.is_zero():
                out[i + j] = out[i + j] + term
    return Jet(out)


def fraction_jet(f, var: int, order: int) -> Jet:
    """Jet of a fraction (or polynomial) of F_q[theta, t] under d_theta (var
    0) or d_t (var 1), kept in F_q(theta, t).

    The bivariate route, which `carlitzhd` never takes: the series product of
    the numerator's jet and the inverse of the denominator's, each
    coefficient a canonical `PrsFrac`.
    """
    f = PrsFrac.of(f)
    num, den = (Jet([PrsFrac.from_poly(_poly_hasse(g, var, k)) for k in range(order + 1)])
                for g in (f.num, f.den))
    return num * den.inverse()


def sjet_from_ratfunc(f: RatFunc, order: int) -> SJet:
    """Expansion of a rational function around t = theta (no pole allowed).

    The Taylor coefficients d_t^k of numerator and denominator go through
    quotient_jet_at_theta, so the expansion never inverts a series.
    """
    num, den = ([_poly_hasse(g, 1, k) for k in range(order)] for g in (f.num, f.den))
    return SJet(f.field, quotient_jet_at_theta(num, den))


def sjet_inverse(s: SJet) -> SJet:
    """1/s modulo s^order by the series recurrence."""
    c0 = s.coeffs[0]
    if c0.is_zero():
        raise NonUnitConstantTerm("sjet inversion needs a unit constant term")
    return SJet(s.field, series_inverse(s.coeffs, c0.inverse(), s._zero))


def lagrange_factorwise(field, s: int, trials: int, seed: int, max_degree: int):
    """Per trial, (a, b, product side, alternating sum) of the interpolation
    expression, each side a product of the canonical fractions 1/(a_i - b)
    and 1/(a_k - a_i), one RatFunc product per factor; the nodes are drawn
    term by term through Poly.from_items."""
    rng = random.Random(seed)
    one = Poly.one(field, VARS_T)
    out = []
    for _ in range(trials):
        chosen = []
        while len(chosen) < s + 1:
            cand = Poly.from_items(
                field,
                [((d,), field.from_index(rng.randrange(field.q)))
                 for d in range(max_degree + 1)],
                VARS_T,
            )
            if cand not in chosen:
                chosen.append(cand)
        a, b = chosen[:s], chosen[s]
        prod = RatFunc.one(field)
        for ai in a:
            prod = prod * RatFunc.make(one, ai - b)
        total = RatFunc.zero(field)
        for i, ai in enumerate(a):
            term = RatFunc.make(one, ai - b)
            for k, ak in enumerate(a):
                if k != i:
                    term = term * RatFunc.make(one, ak - ai)
            total = total + term
        out.append((a, b, prod, total))
    return out


# -- canonical-fraction references for five verify checks ------------------------


def eta_inv_pow_sjet(field, l: int, M: int, npow: int) -> SJet:
    """eta_l^{-npow} mod s^M as a product of SJets, one per factor
    1 + s^{q^m}/[m] with q^m < M, each the closed binomial expansion of its
    -npow power in canonical fractions."""
    p, q = field.p, field.q
    out = SJet.constant(field, M, 1)
    one, zero = RatFunc.one(field), RatFunc.zero(field)
    for m in range(1, l + 1):
        e = q ** m
        if e >= M:
            break
        base = RatFunc.make(Poly.one(field),
                            Poly.monomial(field, (e,)) - Poly.monomial(field, (1,)))
        coeffs = [one] + [zero] * (M - 1)
        for k in range(1, (M - 1) // e + 1):
            bc = binom_mod_p(-npow, k, p)
            if bc:
                coeffs[k * e] = RatFunc.const(field, bc) * base ** k
        out = out * SJet(field, coeffs)
    return out


def bjet_eta_cells(field, nmax: int) -> list:
    """The bjet_eta cells from the total substitution of the b jet and the
    quotient jet of eta_{l-1}, both in canonical fractions, one per cell."""
    cells = []
    big = compose_substitute(Jet(carlitz._b_rats(field, 0, nmax - 1))) if nmax >= 1 else None
    for n in range(1, nmax + 1):
        l = carlitz.minimal_l(field.q, n)
        rhs = quotient_jet_at_theta(
            d_theta_jet(carlitz._eta_num(field, l - 1), n - 1).coeffs,
            d_theta_jet(carlitz.L_poly(field, l - 1), n - 1).coeffs)
        witness = _first_gap("transfer jet vs eta jet", big.truncated(n - 1), rhs)
        cells.append(CheckCell("bjet_eta_congruence", {"n": n, "l": l},
                               witness is None, witness))
    return cells


def eta_quotient_cells(field, lmax: int, order: int) -> list:
    """The eta_quotient cells from the quotient-jet numerators C_k of both
    sides over the theta-jet of L_l."""
    cells = []
    for l in range(lmax + 1):
        den = list(d_theta_jet(carlitz.L_poly(field, l), order).coeffs)
        lhs = d_theta_jet(carlitz._eta_num(field, l), order)
        rhs = d_t_jet(carlitz.curlyL_poly(field, l), order)
        cl, cr = (_quotient_jet_numerators([c.eval_t_at_theta() for c in j.coeffs],
                                           den)[0] for j in (lhs, rhs))
        witness = _first_gap(f"eta_{l} quotient", cl, cr)
        cells.append(CheckCell("eta_quotient", {"l": l, "order": order},
                               witness is None, witness))
    return cells


def eta_sum_cell(field, M: int):
    """The eta_sum_one cell as a sum of SJets of canonical fractions."""
    q = field.q
    l = _pow_at_least(q, M)
    etaj = eta_inv_pow_sjet(field, l, M, -1)
    total = None
    for j in range(l + 1):
        gd = taylor_shift(carlitz.gamma_poly(field, j), M)
        gd = gd.scale(RatFunc.make(Poly.one(field), carlitz.D_poly(field, j)))
        term = gd * etaj.frobenius_power(j * field.e)
        total = term if total is None else total + term
    witness = _first_gap("s-expansion of the sum vs 1", total.coeffs,
                         SJet.constant(field, M, 1).coeffs)
    return CheckCell("eta_sum_one", {"M": M, "terms": l + 1}, witness is None, witness)


def eta_alpha_cells(field, nmax: int) -> list:
    """The eta_inv_alpha cells from the SJets of eta_l^{-n} and of
    alpha_n/Gamma_n in canonical fractions."""
    cells = []
    for n in range(1, nmax + 1):
        M = n + 1
        l = _pow_at_least(field.q, n + 1)
        alpha, gam = carlitz.at_poly(field, n)
        leg_at = taylor_shift(alpha, M).scale(RatFunc.make(Poly.one(field), gam))
        witness = _first_gap(f"eta_{l}^-{n} vs alpha_{n}/Gamma_{n}",
                             eta_inv_pow_sjet(field, l, M, n).coeffs, leg_at.coeffs)
        cells.append(CheckCell("eta_inv_alpha", {"n": n, "l": l}, witness is None, witness))
    return cells


def lagrange_sides(a: list, b) -> tuple:
    """The product side and the alternating sum of the interpolation
    expression as canonical fractions: one fraction 1/den per side term, with
    den multiplied out from carlitz._lagrange_differences, added by RatFunc's +."""
    one = Poly.one(b.field, VARS_T)
    to_b, gaps = carlitz._lagrange_differences(a, b)
    den = to_b[0]
    for x in to_b[1:]:
        den = den * x
    prod = RatFunc.make(one, den)
    total = RatFunc.zero(b.field)
    for i in range(len(a)):
        # prod_{k != i} (a_k - a_i)
        #     = (-1)^i prod_{k < i} (a_i - a_k) prod_{k > i} (a_k - a_i)
        den = to_b[i]
        for k in range(len(a)):
            if k != i:
                den = den * gaps[min(i, k), max(i, k)]
        total = total + RatFunc.make(one, -den if i % 2 else den)
    return prod, total


def verify_lagrange_cells(field, s: int, trials: int, seed: int, max_degree: int = 2) -> Report:
    """verify_lagrange's report, each trial decided as prod - total."""
    cells = []
    for trial, (a, b) in enumerate(
            carlitz._lagrange_tuples(field, s, trials, seed, max_degree)):
        prod, total = lagrange_sides(a, b)
        expr = prod - total
        cells.append(CheckCell(
            "lagrange", {"trial": trial, "s": s, "note": _LAGRANGE_NOTE},
            expr.is_zero(), None if expr.is_zero() else f"evaluates to {expr!r}"))
    return Report(cells, {"q": field.q, "s": s, "trials": trials, "seed": seed,
                          "max_degree": max_degree})


# -- the period and Omega as full products of their factors ----------------------


def pitilde_by_inverse(ctx):
    """The period from the product of its ctx.cutoff factors
    1 + (-1)^{q^j} u^{(q^j - 1)(q - 1)}, inverted by USeries.inverse at
    working precision, shifted, negated and capped."""
    F, q = ctx.field, ctx.q
    prod = USeries.one(F)
    for j in range(1, ctx.cutoff + 1):
        c = F.elem(-1) ** (q ** j)
        prod = prod * (USeries.one(F) + USeries.monomial(F, (q ** j - 1) * (q - 1), c))
    pit = prod.inverse(abs_prec=ctx.work_prec + q).shift(-q).scale(F.elem(-1))
    pit = pit.with_prec(ctx.pit_cap)
    if pit.abs_prec < ctx.uprec:
        raise PrecisionExhausted(
            f"period attained O(u^{pit.abs_prec}) < requested O(u^{ctx.uprec}); "
            f"raise the cutoff")
    return pit


def omega_by_product(ctx, budget: int):
    """u^q prod_{j=1}^{J} (1 + (-1)^{1+q^j} u^{q^j(q-1)} t) as an exact
    product of TPolys, then each t^k coefficient, k >= 1, capped at
    min(ctx.omega_cap(k), budget)."""
    F, q = ctx.field, ctx.q
    om = TPoly.one(F)
    for j in range(1, ctx.cutoff + 1):
        c = F.elem(-1) ** (1 + q ** j)
        om = om * TPoly(F, {0: USeries.one(F),
                            1: USeries.monomial(F, q ** j * (q - 1), c)})
    om = om * TPoly(F, {0: USeries.monomial(F, q)})
    return TPoly(F, {k: v if k == 0 else v.with_prec(min(ctx.omega_cap(k), budget))
                     for k, v in om.coeffs.items()})


# -- the theta-derivation by the Taylor identity ----------------------------------


def binom_neg_inv(j: int, q: int) -> int:
    """binom(-1/(q-1), j) mod p: 1 if every base-q digit of j is 0 or 1."""
    while j:
        j, d = divmod(j, q)
        if d > 1:
            return 0
    return 1


def delta_scalars(field, n: int) -> list[list[int]]:
    """c[k][m]: X^m coefficient of Delta^k where Delta = D_theta(u) - u.

    Delta's X^j coefficient (j >= 1) is the monomial
    binom(-1/(q-1), j) * (-1)^j * u^{1 + j(q-1)}; all u-exponents in Delta^k
    at X^m collapse to k + m(q-1), so only the scalar triangle is needed.
    """
    p = field.p
    b = [0] * (n + 1)
    for j in range(1, n + 1):
        if binom_neg_inv(j, field.q):
            b[j] = p - 1 if j & 1 else 1
    c = [[0] * (n + 1) for _ in range(n + 1)]
    c[0][0] = 1
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            acc = 0
            for j in range(1, m - k + 2):
                if b[j] and c[k - 1][m - j]:
                    acc = (acc + b[j] * c[k - 1][m - j]) % p
            c[k][m] = acc
    return c


def d_theta_by_taylor(f: USeries, n: int) -> Jet:
    """Jet of D_theta(f) mod X^{n+1} by the Taylor identity
    D_theta(f) = sum_k d_u^(k)(f) * Delta^k, Delta = D_theta(u) - u:
    coefficient m is the fold of + over the u-hyperderivatives scaled by
    c[k][m] and shifted by k + m(q-1), known below f.abs_prec + m(q-1)."""
    field, s = f.field, f.field.q - 1
    c = delta_scalars(field, n)
    out = [f]
    for m in range(1, n + 1):
        acc = USeries.zero(field, f.abs_prec + m * s)
        for k in range(1, m + 1):
            if c[k][m]:
                acc = acc + hasse_du(f, k).scale(c[k][m]).shift(k + m * s)
        out.append(acc)
    return Jet(out)


# -- the transfer coefficients by the quotient-jet recurrence ----------------------


def b_rat_by_recurrence(field, j: int):
    """b_j = P * d^j(P^{-1}) = n_j / P^j, P = curlyL_{l-1} with l the least l
    with q^l > j and n_j the quotient-jet numerator of 1/P on the theta-jet
    of P, reduced by peeling each factor theta^{q^i} - t off n_j."""
    if j == 0:
        return RatFunc.one(field, VARS_TT)
    q = field.q
    l = _pow_at_least(q, j + 1)
    if l == 1:
        # both products are empty: derivative of the constant 1
        return RatFunc.zero(field, VARS_TT)
    pjet = d_theta_jet(carlitz.curlyL_poly(field, l - 1), j).coeffs
    ones = [Poly.one(field, VARS_TT)] + [Poly.zero(field, VARS_TT)] * j
    num = _quotient_jet_numerators(ones, pjet)[0][j]
    if num.is_zero():
        return RatFunc.zero(field, VARS_TT)
    den = Poly.one(field, VARS_TT)
    for i in range(1, l):
        f = Poly.monomial(field, (q ** i, 0)) - Poly.monomial(field, (0, 1))
        left = j
        while left:
            try:
                num = poly_divexact(num, f)
            except ConstraintViolated:
                break
            left -= 1
        if left:
            den = den * f ** left
    return RatFunc(num, den)


# -- canonical K-jets, the references for the raw ones ---------------------------


def ratio_theta_jet(num, den, order: int):
    """theta-jet of num/den to the given order at t = theta, in canonical
    fractions: one quotient jet of the polynomial jets."""
    return Jet(quotient_jet_at_theta(d_theta_jet(num, order).coeffs,
                                      d_theta_jet(den, order).coeffs))


def raw_jet_gap(kjet, jet):
    """The first order k at which the raw K-jet (numerators, denominator)
    and the jet of canonical fractions differ in K, by cross-multiplication;
    None if they are equal."""
    nums, den = kjet
    if len(nums) != len(jet):
        return -1
    for k, (num, c) in enumerate(zip(nums, jet.coeffs)):
        if num * c.den != c.num * den:
            return k
    return None


def embed_jet(jet, prec: int):
    """A jet of canonical fractions embedded coefficient by coefficient."""
    return Jet([embed_k(c, prec) for c in jet.coeffs])


def raw_to_fractions(kjet):
    """The raw K-jet as a jet of canonical fractions."""
    nums, den = kjet
    return Jet([RatFunc.make(c, den) for c in nums])


@lru_cache(maxsize=None)
def eta_inv_pow_theta_jet(field, lm: int, npow: int, order: int):
    """Jet of eta_{lm}^{-npow} at t = theta in canonical fractions: over the
    base-p digits d_i of npow, the product of Frob^i of the jet of
    eta^{-d_i} mod X^(order // p^i + 1), each digit one quotient jet of
    L^d / eta_num^d."""
    p = field.p
    if lm == 0:  # eta_0 = 1
        npow = 0
    if npow < p:
        return ratio_theta_jet(carlitz.L_poly(field, lm) ** npow,
                               carlitz._eta_num(field, lm) ** npow, order)
    out, i, pi = None, 0, 1
    while npow and pi <= order:
        npow, d = divmod(npow, p)
        if d:
            jet = eta_inv_pow_theta_jet(field, lm, d, order // pi)
            if i:
                jet = carlitz._frobenius_lift(jet, order, i,
                                              lambda _: RatFunc.zero(field, VARS_T))
            out = jet if out is None else out * jet
        i, pi = i + 1, pi * p
    if out is None:
        return eta_inv_pow_theta_jet(field, lm, 0, order)
    return out


@lru_cache(maxsize=None)
def at_ratio_theta_jet(field, n: int, order: int):
    """Jet of alpha_n/Gamma_n at t = theta in canonical fractions: the
    Frobenius image of the jet of R_{n/q} when q | n, else the quotient jet
    after the reference gcd of alpha_n with Gamma_n."""
    if n % field.q == 0:
        jet = at_ratio_theta_jet(field, n // field.q, order // field.q)
        return carlitz._frobenius_lift(jet, order, field.e,
                                       lambda _: RatFunc.zero(field, VARS_T))
    alpha, gam = carlitz.at_poly(field, n)
    if not gam.is_constant():
        g = prs_gcd(alpha, gam.lift_tt())
        alpha, gam = poly_divexact(alpha, g), poly_divexact(gam, g.drop_t())
    return ratio_theta_jet(alpha, gam, order)


@lru_cache(maxsize=None)
def b_theta_jet(field, order: int):
    """The transfer jet as the total substitution of (b_0, ..., b_order),
    each b_j from b_rat."""
    return compose_substitute(Jet([carlitz.b_rat(field, j) for j in range(order + 1)]))
