"""Differential tests of the rings kernels against independent references.

The packed product of univariate Polys over prime fields, the table loop
that runs every bivariate Poly product, and exact division through the
Kronecker map are checked against a plain dict convolution written here,
and poly_gcd / poly_divexact against sympy over GF(p) where sympy is
installed, with the oracles' reference PRS gcd (prs_gcd) in place of
poly_gcd on bivariate operands.  Dense USeries products and Newton
inverses are checked against the table loop and the recurrence they
replace, the support-only product and inverse against a plain
convolution and the dense recurrence, the residue-class hyperderivatives
of USeries and univariate Polys against per-coefficient binomials, and
the period against the dict-series oracle.  Sums of products (_udot,
USeries.sum_of_products) are checked against the fold of + over
schoolbook products, and their slot width against a mutant that sizes it
from one part.
"""

import random

import pytest

from conftest import oracle_pitilde_prefix
from oracles import prs_gcd

from carlitzhd import (
    INF_PREC,
    CarlitzCtx,
    ConstraintViolated,
    Poly,
    USeries,
    VARS_T,
    VARS_TT,
    binom_mod_p,
    field_new,
    hasse_du,
    pitilde,
    poly_divexact,
    poly_gcd,
    useries_agree,
)
from carlitzhd import rings, useries

SEED = 1729


def rand_terms(rng, field, vars, nterms, max_deg, max_tdeg=0):
    """A polynomial with exactly nterms terms, exponents drawn at random."""
    terms = {}
    while len(terms) < nterms:
        if vars == VARS_T:
            e = (rng.randrange(max_deg + 1),)
        else:
            e = (rng.randrange(max_deg + 1), rng.randrange(max_tdeg + 1))
        terms[e] = rng.randrange(1, field.q)
    return Poly(field, vars, terms)


def ref_mul(a: Poly, b: Poly) -> Poly:
    """Schoolbook convolution through FqElem arithmetic; shares no kernel."""
    f = a.field
    out = {}
    for ea, ca in a.terms.items():
        x = f.from_index(ca)
        for eb, cb in b.terms.items():
            k = tuple(i + j for i, j in zip(ea, eb))
            out[k] = out.get(k, f.zero) + x * f.from_index(cb)
    return Poly(f, a.vars, {k: c.idx for k, c in out.items() if not c.is_zero()})


def takes_packed_path(a: Poly, b: Poly) -> bool:
    """Whether a*b runs the packer and the packer takes the product."""
    results = []
    real = rings._packed_dense_mul

    def wrapper(*args):
        results.append(real(*args))
        return results[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rings, "_packed_dense_mul", wrapper)
        a * b
    return any(r is not None for r in results)


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_packed_univariate_products_match_convolution(p):
    f = field_new(p)
    rng = random.Random(SEED + p)
    for nterms, max_deg in ((60, 80), (40, 45), (200, 260), (12, 600)):
        a = rand_terms(rng, f, VARS_T, nterms, max_deg)
        b = rand_terms(rng, f, VARS_T, max(8, nterms // 2), max_deg)
        if nterms * max(8, nterms // 2) >= 2 * max_deg + 49:
            assert takes_packed_path(a, b)
        assert a * b == ref_mul(a, b)
        assert b * a == ref_mul(a, b)


def no_packing(*args):
    raise AssertionError("a bivariate product reached the packed kernel")


@pytest.mark.parametrize("q", [2, 3, 5, 257])
def test_bivariate_products_run_the_table_loop(q, monkeypatch):
    f = field_new(q)
    rng = random.Random(SEED * 3 + q)
    monkeypatch.setattr(rings, "_packed_dense_mul", no_packing)
    for nterms, max_deg, max_tdeg in ((60, 15, 6), (120, 30, 3), (30, 4, 12)):
        a = rand_terms(rng, f, VARS_TT, nterms, max_deg, max_tdeg)
        b = rand_terms(rng, f, VARS_TT, nterms, max_deg, max_tdeg)
        assert a * b == ref_mul(a, b)
        assert b * a == ref_mul(a, b)


def test_extension_field_products_keep_the_table_loop(monkeypatch):
    f = field_new(3, 2)
    rng = random.Random(SEED)
    a = rand_terms(rng, f, VARS_TT, 60, 15, 6)
    b = rand_terms(rng, f, VARS_TT, 60, 15, 6)
    monkeypatch.setattr(rings, "_packed_dense_mul", no_packing)
    assert a * b == ref_mul(a, b)


def test_sparse_wide_products_keep_the_table_loop(monkeypatch):
    # 126 term pairs whose product spans about 4 * 10^5 Kronecker keys
    f = field_new(3)
    a = Poly(f, VARS_TT, {(0, 0): 1, (5000, 0): 2, (0, 40): 1})
    b = Poly(f, VARS_TT, {(i, i % 3): 1 for i in range(0, 4000, 97)})
    monkeypatch.setattr(rings, "_packed_dense_mul", no_packing)
    assert a * b == ref_mul(a, b)
    assert b * a == ref_mul(a, b)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_packed_slot_width_holds_the_largest_coefficient_sum(n, monkeypatch):
    # n ones over F_2, dense or 8 apart: the middle slot sums n products,
    # which needs a 16-bit slot from n = 256 on; the width follows that count
    # and not the 8n-slot dense image of the spaced operand
    f = field_new(2)
    real, widths = rings._slot_type, []
    monkeypatch.setattr(rings, "_slot_type",
                        lambda *args: widths.append(real(*args)) or widths[-1])
    for gap in (1, 8):
        ones = Poly(f, VARS_T, {(gap * i,): 1 for i in range(n)})
        assert takes_packed_path(ones, ones)
        del widths[:]
        prod = ones * ones
        assert [w for w, _ in widths] == [1 if n < 256 else 2]
        assert prod.coeff((gap * (n - 1),)).idx == n % 2
        assert prod == ref_mul(ones, ones)


# -- exact division through the Kronecker map --------------------------------------


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (257, 1)])
def test_divexact_by_theta_only_divisor(p, e):
    f = field_new(p, e)
    rng = random.Random(SEED + f.q)
    for _ in range(20):
        quo = rand_terms(rng, f, VARS_TT, rng.randrange(1, 40), 20, 8)
        div = rand_terms(rng, f, VARS_T, rng.randrange(1, 8), 12)
        num = quo * div.lift_tt()
        assert poly_divexact(num, div.lift_tt()) == quo
        assert poly_divexact(num.eval_t_at_theta(), div) == quo.eval_t_at_theta()


def test_divexact_by_theta_only_divisor_rejects_a_remainder():
    f = field_new(5)
    rng = random.Random(SEED)
    quo = rand_terms(rng, f, VARS_TT, 30, 20, 6)
    div = Poly.monomial(f, (3, 0)) + Poly.monomial(f, (1, 0)) + Poly.one(f, VARS_TT)
    num = quo * div + Poly.monomial(f, (0, 2))
    with pytest.raises(ConstraintViolated):
        poly_divexact(num, div)
    with pytest.raises(ConstraintViolated):
        poly_divexact(num.eval_t_at_theta(), div.drop_t())


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_divexact_by_theta_power_minus_t(p, e):
    f = field_new(p, e)
    rng = random.Random(SEED + f.q)
    for i in range(3):
        div = Poly.monomial(f, (f.q ** i, 0)) - Poly.monomial(f, (0, 1))
        for _ in range(5):
            quo = rand_terms(rng, f, VARS_TT, rng.randrange(1, 30), 20, 8)
            assert poly_divexact(quo * div, div) == quo
            with pytest.raises(ConstraintViolated):
                poly_divexact(quo * div + Poly.one(f, VARS_TT), div)


def test_divexact_rejects_an_image_quotient_above_the_t_degree_bound():
    # at stride 3 the images divide exactly, x^8 + x^6 = x^4 (x^4 + x^2), but
    # x^2 maps back to t^2, above deg_t(a) - deg_t(b) = 1: theta t does not
    # divide theta^2 t^2 + theta^2
    f = field_new(2)
    a = Poly(f, VARS_TT, {(2, 2): 1, (2, 0): 1})
    b = Poly(f, VARS_TT, {(1, 1): 1})
    with pytest.raises(ConstraintViolated):
        poly_divexact(a, b)


# -- sums, differences and hyperderivatives of Polys ------------------------------


def ref_sub(a: Poly, b: Poly) -> Poly:
    """a - b term by term through FqElem arithmetic; shares no kernel."""
    f = a.field
    out = {e: f.from_index(c) for e, c in a.terms.items()}
    for e, c in b.terms.items():
        out[e] = out.get(e, f.zero) - f.from_index(c)
    return Poly(f, a.vars, {e: c.idx for e, c in out.items() if not c.is_zero()})


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (257, 1), (2, 2), (3, 2)])
def test_dense_subtraction_takes_one_pass(p, e, monkeypatch):
    # a - b on dense operands negates inside the one add pass, with no
    # negated temporary; the top terms may cancel, and either side may be
    # the longer
    f = field_new(p, e)
    rng = random.Random(SEED + 7 * f.q)
    pairs = []
    for la, lb in ((30, 30), (40, 12), (12, 40), (1, 25), (25, 1)):
        a = rand_terms(rng, f, VARS_T, rng.randrange(1, la + 1), la - 1)
        b = rand_terms(rng, f, VARS_T, rng.randrange(1, lb + 1), lb - 1)
        pairs += [(a, b), (a, a - Poly.monomial(f, (0,)))]
    pairs.append((pairs[0][0], pairs[0][0]))
    want = [ref_sub(a, b) for a, b in pairs]
    def no_negation(self):
        raise AssertionError("a dense difference built a negated temporary")

    monkeypatch.setattr(Poly, "__neg__", no_negation)
    got = [a - b for a, b in pairs]
    assert got == want
    assert got[-1].is_zero()


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_sparse_subtraction_matches_term_by_term(p, e):
    f = field_new(p, e)
    rng = random.Random(SEED + 11 * f.q)
    for _ in range(10):
        a = rand_terms(rng, f, VARS_TT, rng.randrange(1, 30), 12, 6)
        b = rand_terms(rng, f, VARS_TT, rng.randrange(1, 30), 12, 6)
        assert a - b == ref_sub(a, b)
        assert (a - b) + b == a


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (3, 2)])
def test_bivariate_hasse_takes_one_binomial_per_exponent(p, e, monkeypatch):
    # the k-th hyperderivative in one variable scales term e by
    # binom(e[var], k); the binomial is computed once per distinct e[var]
    f = field_new(p, e)
    rng = random.Random(SEED + 13 * f.q)
    calls, real = [], rings.binom_mod_p
    monkeypatch.setattr(rings, "binom_mod_p",
                        lambda n, k, m: calls.append((n, k)) or real(n, k, m))
    for _ in range(5):
        g = rand_terms(rng, f, VARS_TT, 40, 3 * p + 6, 3 * p + 6)
        for var in (0, 1):
            for k in (1, p - 1, p, p + 1):
                want = {}
                for ex, c in g.terms.items():
                    if ex[var] >= k and (b := real(ex[var], k, p)):
                        want[tuple(x - k * (i == var) for i, x in enumerate(ex))] = (
                            f.from_index(c) * b).idx
                calls.clear()
                assert rings._poly_hasse(g, var, k) == Poly(f, VARS_TT, want)
                assert sorted(calls) == sorted({(ex[var], k) for ex in g.terms
                                                if ex[var] >= k})


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (3, 2)])
def test_univariate_hasse_matches_per_coefficient_binomials(p, e):
    # the dense list takes one binomial per residue class of the degree
    f = field_new(p, e)
    rng = random.Random(SEED + 17 * f.q)
    for _ in range(5):
        g = rand_terms(rng, f, VARS_T, rng.randrange(1, 40), 3 * p * p + 40)
        for k in (1, p - 1, p, p + 1, p * p, 3 * p * p + 41):
            want = {(i - k,): (f.from_index(c) * binom_mod_p(i, k, p)).idx
                    for (i,), c in g.terms.items() if i >= k}
            assert rings._poly_hasse(g, 0, k) == Poly(
                f, VARS_T, {ex: c for ex, c in want.items() if c})


def test_exact_zero_reads_no_missing_poly_attribute(monkeypatch):
    # the zero rule looks its tests up on the type, so a zero Poly costs no
    # AttributeError raised and caught in Poly.__getattr__
    f = field_new(3)
    real = Poly.__getattr__

    def strict(self, name):
        if name != "terms":
            raise AssertionError(f"looked up the missing attribute {name}")
        return real(self, name)

    monkeypatch.setattr(Poly, "__getattr__", strict)
    assert rings._exact_zero(Poly.zero(f)) and rings._exact_zero(None)
    assert not rings._exact_zero(Poly.one(f))
    assert rings._exact_zero(USeries.zero(f))
    assert not rings._exact_zero(USeries.zero(f, 4))


# -- sympy over GF(p) -------------------------------------------------------------


def _to_sympy(sympy, poly: Poly, gens, p):
    expr = sum(c * sympy.Mul(*(g ** e for g, e in zip(gens, exps)))
               for exps, c in poly.terms.items())
    return sympy.Poly(expr, *gens, modulus=p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gcd_and_divexact_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("theta t")
    f = field_new(p)
    rng = random.Random(SEED + 7 * p)
    for trial in range(25):
        vars = VARS_T if trial % 5 == 0 else VARS_TT
        g_ = gens[:len(vars)]
        a = rand_terms(rng, f, vars, rng.randrange(1, 6), 5, 3)
        b = rand_terms(rng, f, vars, rng.randrange(1, 6), 5, 3)
        c = rand_terms(rng, f, vars, rng.randrange(1, 5), 4, 2)
        x, y = a * c, b * c
        gcd = poly_gcd if vars == VARS_T else prs_gcd  # poly_gcd refuses (theta, t)
        ours = _to_sympy(sympy, gcd(x, y), g_, p)
        theirs = _to_sympy(sympy, x, g_, p).gcd(_to_sympy(sympy, y, g_, p))
        assert ours.monic() == theirs.monic()
        quo, rem = sympy.div(_to_sympy(sympy, x, g_, p), _to_sympy(sympy, c, g_, p))
        assert rem.is_zero
        assert _to_sympy(sympy, poly_divexact(x, c), g_, p) == quo


# -- dense USeries products and inverses -------------------------------------------


def rand_series(rng, field, length, min_exp=0, abs_prec=INF_PREC, nonzero=None):
    """A series with exactly length terms from min_exp, both ends nonzero;
    with nonzero given, only that many of them are nonzero."""
    if nonzero is None:
        inner = [rng.randrange(field.q) for _ in range(length - 2)]
    else:
        inner = [0] * (length - 2)
        for i in rng.sample(range(length - 2), nonzero - 2):
            inner[i] = rng.randrange(1, field.q)
    ends = [rng.randrange(1, field.q) for _ in range(2)]
    return USeries(field, min_exp, [ends[0], *inner, ends[1]][:length], abs_prec)


def ref_series_mul(a: USeries, b: USeries) -> USeries:
    """Schoolbook product through FqElem arithmetic; shares no kernel."""
    f = a.field
    out = {}
    for ea, ca in a.coeff_items():
        for eb, cb in b.coeff_items():
            out[ea + eb] = out.get(ea + eb, f.zero) + ca * cb
    prec = min(a.abs_prec + b.valuation(), b.abs_prec + a.valuation())
    return USeries.from_coeff_map(f, {e: c for e, c in out.items() if e < prec}, prec)


def spy(monkeypatch, name):
    """Record the calls of rings.<name> from here on."""
    calls, real = [], getattr(rings, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rings, name, wrapper)
    return calls


def on_table_loop(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(rings, "_packs", lambda *args: False)
        return fn()


# (len(a), len(b), nonzero terms of each or None for all random, packed):
# the short shapes stay below the cost model, and so does the sparse one,
# which runs the table loop over the 7 nonzero terms of each operand
USERIES_SHAPES = ((2, 3, None, False), (5, 5, None, False),
                  (12, 40, None, True), (300, 200, None, True),
                  (900, 700, None, True), (1153, 1153, 7, False))


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_packed_useries_products_match_the_table_loop(p, monkeypatch):
    f = field_new(p)
    rng = random.Random(SEED + 11 * p)
    packed = spy(monkeypatch, "_packed_dense_mul")
    for la, lb, nonzero, packs in USERIES_SHAPES:
        for exact in (True, False):
            va, vb = rng.randrange(-5, 6), rng.randrange(-5, 6)
            a = rand_series(rng, f, la, va,
                            INF_PREC if exact else va + la + rng.randrange(3),
                            nonzero)
            b = rand_series(rng, f, lb, vb, vb + lb + rng.randrange(3), nonzero)
            before = len(packed)
            got = a * b
            assert (len(packed) > before) == packs
            assert got == on_table_loop(monkeypatch, lambda: a * b)
            assert got == b * a
        x, y = list(a.coeffs), list(b.coeffs)
        assert rings._umul(x, y, f) == on_table_loop(
            monkeypatch, lambda: rings._umul(x, y, f))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_packed_useries_slot_width_at_the_8_to_16_bit_boundary(p, monkeypatch):
    # all-(p-1) operands: below u^(3n) every product slot from n-1 on sums n
    # products (p-1)^2, which needs a 16-bit slot from n = top + 1 on
    f = field_new(p)
    top = 255 // (p - 1) ** 2
    packed = spy(monkeypatch, "_packed_dense_mul")
    for n in (top, top + 1):
        assert rings._slot_type(n, p)[0] == (1 if n == top else 2)
        a = USeries(f, 0, [p - 1] * n)
        b = USeries(f, 0, [p - 1] * (3 * n), 3 * n)
        before = len(packed)
        prod = a * b
        assert len(packed) == before + 1
        assert prod == USeries(f, 0, [min(k + 1, n) % p for k in range(3 * n)], 3 * n)
        assert prod == on_table_loop(monkeypatch, lambda: a * b)


@pytest.mark.parametrize("p", [2, 5, 257])
def test_truncated_useries_product_equals_the_capped_full_product(p):
    f = field_new(p)
    rng = random.Random(SEED + 13 * p)
    truncated = 0
    for _ in range(30):
        la, lb = rng.randrange(2, 400), rng.randrange(2, 400)
        va, vb = rng.randrange(-20, 20), rng.randrange(-20, 20)
        a = rand_series(rng, f, la, va, va + la + rng.randrange(4))
        b = rand_series(rng, f, lb, vb, vb + lb + rng.randrange(4))
        prec = min(a.abs_prec + b.valuation(), b.abs_prec + a.valuation())
        full = USeries(f, va, a.coeffs) * USeries(f, vb, b.coeffs)
        assert a * b == full.with_prec(prec)
        truncated += prec - va - vb < la + lb - 1
    assert truncated >= 25


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_newton_inverse_matches_the_recurrence(p, monkeypatch):
    f = field_new(p)
    rng = random.Random(SEED + 17 * p)
    short = list(rand_series(rng, f, 50).coeffs)
    cases = (
        (rand_series(rng, f, 600, -3, 597), None),
        # fewer known terms than the inverse needs: an exact 40-term series,
        # a series whose last 250 known terms are zero, and 1 + c*u
        (rand_series(rng, f, 40, 2), 500),
        (USeries(f, 0, short + [0] * 250, 300), None),
        (rand_series(rng, f, 2), 2000),
    )
    newton = spy(monkeypatch, "_umul")
    for s, target in cases:
        with monkeypatch.context() as m:
            # Newton for every g that reaches _NEWTON_MIN_PAIRS support pairs
            m.setattr(rings, "_NEWTON_PAIRS_PER_TERM", 0)
            before = len(newton)
            inv = s.inverse(target)
            assert len(newton) > before
        with monkeypatch.context() as m:
            m.setattr(rings, "_NEWTON_MIN_PAIRS", float("inf"))
            assert inv == s.inverse(target)
        assert inv == s.inverse(target)
        assert inv.abs_prec == (s.abs_prec - 2 * s.valuation() if target is None
                                else target)
        assert useries_agree(s * inv, USeries.one(f))


def test_sparse_inverse_takes_the_support_recurrence(monkeypatch):
    # 7 nonzero terms in 1153 slots: the cost model keeps the support
    # recurrence over a prime field, so no Newton product runs
    for p in (2, 3, 257):
        f = field_new(p)
        rng = random.Random(SEED + 19 * p)
        s = rand_series(rng, f, 1153, 0, INF_PREC, 7)
        with monkeypatch.context() as m:
            newton = spy(m, "_umul")
            inv = s.inverse(4000)
        assert not newton
        assert useries_agree(s * inv, USeries.one(f))
        with monkeypatch.context() as m:
            m.setattr(rings, "_NEWTON_PAIRS_PER_TERM", 0)
            assert inv == s.inverse(4000)


def ref_inverse(g, n, f):
    """The dense recurrence h_j = -(1/g_0) sum_(1 <= i <= j) g_i h_(j-i)."""
    inv0 = f.inv_t[g[0]]
    h = [inv0] + [0] * (n - 1)
    for j in range(1, n):
        acc = 0
        for i in range(1, min(j, len(g) - 1) + 1):
            acc = f.add_t[acc][f.mul_t[g[i]][h[j - i]]]
        h[j] = f.mul_t[f.neg_t[acc]][inv0]
    return h


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2),
                                 (7, 2), (257, 1)])
def test_support_recurrence_matches_the_dense_recurrence(p, e, monkeypatch):
    f = field_new(p, e)
    rng = random.Random(SEED + 23 * f.q)
    unit = rng.randrange(1, f.q)
    cases = (
        (list(rand_series(rng, f, 1153, 0, INF_PREC, 7).coeffs), 1400),
        (list(rand_series(rng, f, 60).coeffs), 300),       # dense, len(g) < n
        (list(rand_series(rng, f, 500).coeffs), 120),      # len(g) > n
        ([unit], 40),                                      # len(g) = 1
        ([unit, 0, 0, 0, rng.randrange(1, f.q), 0, rng.randrange(1, f.q)]
         + [0] * 50 + [rng.randrange(1, f.q)], 250),      # zeros near the front
        ([unit, rng.randrange(1, f.q)], 200),              # 1 + c u
    )
    for g, n in cases:
        want = ref_inverse(g, n, f)
        with monkeypatch.context() as m:
            m.setattr(rings, "_NEWTON_MIN_PAIRS", float("inf"))
            assert rings._uinverse(tuple(g), n, f) == want
        assert rings._uinverse(tuple(g), n, f) == want


def ref_umul(a, b, f, n):
    """The first n coefficients of a*b by a dict convolution over FqElem."""
    out = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y and i + j < n:
                out[i + j] = out.get(i + j, f.zero) + f.from_index(x) * f.from_index(y)
    dense = [0] * n
    for k, c in out.items():
        dense[k] = c.idx
    while dense and not dense[-1]:
        dense.pop()
    return dense


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (257, 1), (2, 2), (3, 2)])
def test_support_products_match_convolution(p, e):
    f = field_new(p, e)
    rng = random.Random(SEED + 29 * f.q)
    sparse = [list(rand_series(rng, f, 1153, 0, INF_PREC, 7).coeffs)
              for _ in range(2)]
    dense = list(rand_series(rng, f, 90).coeffs)
    single = [rng.randrange(1, f.q)]
    # empty operands, and one whose cut at n = 1 holds no nonzero entry
    pairs = ((single, dense), (dense, single), (single, sparse[0]),
             (single, [rng.randrange(1, f.q)]), (sparse[0], sparse[1]),
             (sparse[0], dense), (dense, dense[:37]), ([], dense), (single, []),
             ([], []), ([0, 0] + single, dense), (dense, [0] + single))
    for a, b in pairs:
        full = len(a) + len(b) - 1
        for n in (full, full - 1, max(1, full // 2), 1, len(a), full + 5, 0, -1):
            assert rings._umul(a, b, f, n) == ref_umul(a, b, f, n)
            assert rings._umul(tuple(b), tuple(a), f, n) == ref_umul(a, b, f, n)
        assert rings._umul(a, b, f) == ref_umul(a, b, f, full)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_hasse_du_matches_per_coefficient_binomials(p, e):
    f = field_new(p, e)
    rng = random.Random(SEED + 31 * f.q)
    for min_exp in (-3 * p * p - 7, -p, 0, 5):
        s = rand_series(rng, f, 4 * p * p + 20, min_exp, min_exp + 4 * p * p + 25,
                        2 * p * p)
        for k in (1, p - 1, p, p * p - 1, p * p):
            want = {ex - k: c * binom_mod_p(ex, k, p) for ex, c in s.coeff_items()}
            assert hasse_du(s, k) == USeries.from_coeff_map(f, want, s.abs_prec - k)


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2)])
def test_extension_field_series_never_reach_the_packed_path(p, e, monkeypatch):
    f = field_new(p, e)
    rng = random.Random(SEED + f.q)

    def no_packing(*args):
        raise AssertionError("the packed product ran over an extension field")

    monkeypatch.setattr(rings, "_packed_dense_mul", no_packing)
    a = rand_series(rng, f, 300, -2, 298)
    b = rand_series(rng, f, 250, 1)
    assert a * b == ref_series_mul(a, b)
    inv = a.inverse()
    assert inv.abs_prec == 302
    assert useries_agree(a * inv, USeries.one(f))


def test_pitilde_matches_the_dict_series_oracle_to_1000_terms():
    nterms = 1000
    pt = pitilde(CarlitzCtx(field_new(2), uprec=nterms - 2))
    got = [pt.coeff(e).idx for e in range(-2, nterms - 2)]
    assert got == oracle_pitilde_prefix(2, nterms)


# -- sums of products: _udot and USeries.sum_of_products -----------------------------


def ref_fold(pairs):
    """acc = acc + x*y over the pairs, each product the schoolbook reference."""
    acc = None
    for x, y in pairs:
        term = ref_series_mul(x, y)
        acc = term if acc is None else acc + term
    return acc


def rand_pairs(rng, f, npairs, exact):
    """Random pairs with negative and positive min_exp, some runs empty."""
    pairs = []
    for _ in range(npairs):
        pair = []
        for _ in range(2):
            length, v = rng.randrange(1, 30), rng.randrange(-12, 12)
            prec = INF_PREC if exact else v + length + rng.randrange(-3, 4)
            if rng.random() < 0.1:
                pair.append(USeries.zero(f, INF_PREC if exact else v))
            elif length == 1:
                pair.append(USeries.monomial(f, v, rng.randrange(1, f.q), prec))
            else:
                pair.append(rand_series(rng, f, length, v, prec))
        pairs.append(tuple(pair))
    return pairs


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (257, 1)])
def test_sum_of_products_matches_the_fold(p, e, monkeypatch):
    f = field_new(p, e)
    rng = random.Random(SEED + 17 * f.q)
    cases = [rand_pairs(rng, f, npairs, exact) for npairs in (1, 1, 2, 3, 5, 8)
             for exact in (True, False) for _ in range(6)]
    # x * y is the one-pair sum: zero runs at finite precision, one of them
    # below the product's low exponent, exact monomials, negative min_exp
    x, y = rand_series(rng, f, 9, -7, 5), rand_series(rng, f, 14, -3)
    cases += [[(USeries.zero(f, 3), x)], [(y, USeries.zero(f, -100))],
              [(USeries.monomial(f, -4, f.q - 1), x)], [(y, USeries.monomial(f, 2))],
              [(USeries.monomial(f, -1), USeries.monomial(f, -2, f.q - 1))], [(x, y)]]
    cut = 0
    for pairs in cases:
        want = ref_fold(pairs)
        assert USeries.sum_of_products(pairs) == want
        if len(pairs) == 1:
            assert pairs[0][0] * pairs[0][1] == want
        assert on_table_loop(
            monkeypatch, lambda: USeries.sum_of_products(pairs)) == want
        if e == 1:
            with monkeypatch.context() as m:
                m.setattr(rings, "_packs", lambda *args: True)
                assert USeries.sum_of_products(pairs) == want
        full = max((x.min_exp + y.min_exp + len(x.coeffs) + len(y.coeffs) - 1
                    for x, y in pairs if x.coeffs and y.coeffs), default=None)
        cut += full is not None and want.abs_prec < full
    assert cut >= 10


@pytest.mark.parametrize("p,e", [(2, 1), (3, 2), (257, 1)])
def test_sum_of_products_with_only_empty_runs_keeps_their_precision(p, e):
    f = field_new(p, e)
    x = rand_series(random.Random(SEED), f, 9, -4, 20)
    for pairs in ([(USeries.zero(f, 7), x)], [(x, USeries.zero(f, -3)), (USeries.zero(f, 5), x)]):
        got = USeries.sum_of_products(pairs)
        assert got == ref_fold(pairs) and got.is_zero() and not got.is_exact()
    # an empty run at finite precision still caps a sum with known terms
    y = USeries(f, 0, [1, 1], INF_PREC)
    got = USeries.sum_of_products([(y, y), (USeries.zero(f, 1), y)])
    assert got.abs_prec == 1 and got == ref_fold([(y, y), (USeries.zero(f, 1), y)])
    # an empty run can cap the sum below every known product's low exponent
    u5 = USeries.monomial(f, 5)
    for cap in (3, -100):
        pairs = [(u5, u5), (USeries.zero(f, cap), USeries.one(f))]
        assert USeries.sum_of_products(pairs) == USeries.zero(f, cap) == ref_fold(pairs)


def test_udot_slot_width_sums_the_parts(monkeypatch):
    # two all-(p-1) parts of L terms over F_257: slots L-1 and L sum 2L
    # products of 256^2 = 2^16, i.e. 2^32 at L = 2^15, past 32 bits; the
    # width must come from both parts, one part's count would take 32 bits
    p, L = 257, 1 << 15
    f = field_new(p)
    run = [p - 1] * L
    parts = [(0, run, run), (0, run, run)]
    want = [2 * min(k + 1, 2 * L - 1 - k) % p for k in range(2 * L - 1)]
    widths, real = [], rings._slot_type
    monkeypatch.setattr(rings, "_slot_type",
                        lambda n, q: widths.append(n) or real(n, q))
    assert rings._udot(parts, f, 2 * L - 1) == want
    assert widths == [2 * L] and real(2 * L, p)[0] == 8 and real(L, p)[0] == 4
    # the mutant: a slot sized from one part carries into its neighbours
    monkeypatch.setattr(rings, "_slot_type", lambda n, q: real(n // 2, q))
    assert rings._udot(parts, f, 2 * L - 1) != want


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (257, 1)])
def test_udot_matches_separate_products(p, e, monkeypatch):
    # offsets and cuts at n, against a sum of reference products shifted by
    # hand, on the cost model's choice and on each path
    f = field_new(p, e)
    rng = random.Random(SEED + 19 * f.q)
    cases = []
    for _ in range(40):
        n = rng.randrange(1, 120)
        parts = []
        for _ in range(rng.randrange(1, 6)):
            a = list(rand_series(rng, f, rng.randrange(2, 60)).coeffs)
            b = list(rand_series(rng, f, rng.randrange(2, 60)).coeffs)
            parts.append((rng.randrange(0, n + 10), a, b))
        cases.append((parts, n))
    # one-term operands in either position, alone at offset 0 and among other
    # parts; empty operands; operands with no nonzero entry below the cut; n
    # past the natural end (49) and n <= 0
    one, a = [rng.randrange(1, f.q)], list(rand_series(rng, f, 30).coeffs)
    b = [0] * 6 + one
    for n in (-1, 0, 1, 5, 49, 60):
        cases += [([(0, one, a)], n), ([(0, a, one)], n), ([(0, one, one)], n),
                  ([(0, one, a), (3, a, one), (7, a, one)], n), ([(2, one, a)], n),
                  ([(0, [], a)], n), ([(0, a, [])], n), ([(4, [], []), (0, a, a)], n),
                  ([(0, b, a)], n), ([(0, a, b), (1, one, a)], n)]
    for parts, n in cases:
        want = [0] * max(0, n)
        for off, x, y in parts:
            for k, c in enumerate(ref_umul(x, y, f, n - off), off):
                want[k] = f.add_t[want[k]][c]
        want = rings._utrim(want)
        assert rings._udot(parts, f, n) == want
        assert on_table_loop(monkeypatch, lambda: rings._udot(parts, f, n)) == want
        if e == 1:
            with monkeypatch.context() as m:
                m.setattr(rings, "_packs", lambda *args: True)
                assert rings._udot(parts, f, n) == want


def test_jet_products_take_one_sum_per_coefficient(monkeypatch):
    from carlitzhd import Jet, RatFunc

    f = field_new(3)
    rng = random.Random(SEED)
    a = Jet([rand_series(rng, f, 20, -2, 30) for _ in range(4)])
    b = Jet([rand_series(rng, f, 20, 1, 40) for _ in range(4)])
    calls, real = [], useries._udot
    monkeypatch.setattr(useries, "_udot", lambda *args: calls.append(args) or real(*args))
    prod = a * b
    assert len(calls) == 4
    for k in range(4):
        assert prod[k] == ref_fold([(a[i], b[k - i]) for i in range(k + 1)])
    # jets over other rings keep the fold
    r = Jet([RatFunc.const(f, 1), RatFunc.const(f, 2)])
    assert (r * r)[1] == RatFunc.const(f, 1) and len(calls) == 4


def ref_gcd(a, b, f):
    """The monic gcd of two index lists by Euclid on lists of FqElem, each
    remainder by schoolbook long division; shares no dense kernel."""
    def trim(x):
        while x and x[-1].is_zero():
            x.pop()
        return x

    a = trim([f.from_index(c) for c in a])
    b = trim([f.from_index(c) for c in b])
    while b:
        while a and len(a) >= len(b):
            c, shift = a[-1] / b[-1], len(a) - len(b)
            for j, y in enumerate(b):
                a[shift + j] = a[shift + j] - c * y
            trim(a)
        a, b = b, a
    if a:
        lead = a[-1].inverse()
        a = [x * lead for x in a]
    return [x.idx for x in a]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (7, 2), (257, 1)])
def test_gcd_in_place_euclid_matches_a_schoolbook_euclid(p, e):
    f = field_new(p, e)
    rng = random.Random(SEED)

    def rand_dense(deg):
        return rings._utrim([rng.randrange(f.q) for _ in range(deg)] + [rng.randrange(1, f.q)])

    x, x1 = [0, 1], [1, 1]  # theta and theta + 1: coprime
    pairs = [([], []), ([], x1), (x1, []), ([f.q - 1], x1), (x, [1]),
             (x, x1), (x1, x1), ([0, 0, 1], x), (rand_dense(4), rand_dense(5))]
    for _ in range(60):
        g, u, v = (rand_dense(rng.randrange(4)) for _ in range(3))
        pairs.append((rings._umul(g, u, f), rings._umul(g, v, f)))
        a = rand_dense(rng.randrange(8))
        pairs += [(a, rand_dense(rng.randrange(8))), (a, list(a))]
    for a, b in pairs:
        before = (list(a), list(b))
        got = rings._ugcd(a, b, f)
        assert got == ref_gcd(a, b, f), (a, b)
        assert (a, b) == before  # the operands are copied, never reduced
        assert got == rings._ugcd(b, a, f)
