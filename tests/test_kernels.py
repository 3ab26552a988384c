"""Differential tests of the rings kernels against independent references.

The packed product over prime fields and the row-wise exact division are
checked against a plain dict convolution written here, and poly_gcd /
poly_divexact against sympy over GF(p) where sympy is installed.
"""

import random

import pytest

from carlitzhd import (
    ConstraintViolated,
    Poly,
    VARS_T,
    VARS_TT,
    field_new,
    poly_divexact,
    poly_gcd,
)
from carlitzhd import rings

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
    x, y = sorted((a.terms, b.terms), key=len)
    return rings._packed_mul(x, y, len(a.vars), a.field.p) is not None


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


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_packed_bivariate_products_match_convolution(p):
    f = field_new(p)
    rng = random.Random(SEED * 3 + p)
    for nterms, max_deg, max_tdeg in ((60, 15, 6), (120, 30, 3), (30, 4, 12)):
        a = rand_terms(rng, f, VARS_TT, nterms, max_deg, max_tdeg)
        b = rand_terms(rng, f, VARS_TT, nterms, max_deg, max_tdeg)
        assert takes_packed_path(a, b)
        assert a * b == ref_mul(a, b)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_packed_slot_width_holds_the_largest_coefficient_sum(n):
    # all-ones operands over F_2: the middle slot sums n products, which needs
    # a 16-bit slot from n = 256 on
    f = field_new(2)
    ones = Poly(f, VARS_T, {(i,): 1 for i in range(n)})
    prod = ones * ones
    assert takes_packed_path(ones, ones)
    assert prod.coeff((n - 1,)).idx == n % 2
    assert prod == ref_mul(ones, ones)


def test_extension_field_products_keep_the_table_loop(monkeypatch):
    f = field_new(3, 2)
    rng = random.Random(SEED)
    a = rand_terms(rng, f, VARS_TT, 60, 15, 6)
    b = rand_terms(rng, f, VARS_TT, 60, 15, 6)

    def no_packing(*args):
        raise AssertionError("the packed product ran over an extension field")

    monkeypatch.setattr(rings, "_packed_mul", no_packing)
    assert a * b == ref_mul(a, b)


def test_sparse_wide_products_keep_the_table_loop():
    f = field_new(3)
    a = Poly(f, VARS_TT, {(0, 0): 1, (5000, 0): 2, (0, 40): 1})
    b = Poly(f, VARS_TT, {(i, i % 3): 1 for i in range(0, 4000, 97)})
    assert not takes_packed_path(a, b)
    assert a * b == ref_mul(a, b)


# -- exact division by divisors free of t ------------------------------------------


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
        ours = _to_sympy(sympy, poly_gcd(x, y), g_, p)
        theirs = _to_sympy(sympy, x, g_, p).gcd(_to_sympy(sympy, y, g_, p))
        assert ours.monic() == theirs.monic()
        quo, rem = sympy.div(_to_sympy(sympy, x, g_, p), _to_sympy(sympy, c, g_, p))
        assert rem.is_zero
        assert _to_sympy(sympy, poly_divexact(x, c), g_, p) == quo
