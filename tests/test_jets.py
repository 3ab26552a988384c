"""Truncated derivation jets and the matrix view."""

import random

import pytest

from carlitzhd import (
    CarlitzCtx,
    DegreeMismatch,
    Jet,
    Poly,
    RatFunc,
    USeries,
    VARS_T,
    VARS_TT,
    binom_mod_p,
    d_t_jet,
    d_theta_jet,
    field_new,
    omega_theta_eval_jet,
)
from carlitzhd.jets import _ring_zero_like

from oracles import RhoMatrix, compose_substitute, fraction_jet, prs_make, to_rho_matrix

SEED = 1729


def rand_poly(rng, field, vars=VARS_TT, max_deg=3, terms=3):
    items = []
    for _ in range(rng.randrange(terms + 1)):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(len(vars)))
        items.append((exps, field.from_index(rng.randrange(field.q))))
    return Poly.from_items(field, items, vars)


def rand_ratfunc(rng, field):
    num = rand_poly(rng, field)
    while True:
        den = rand_poly(rng, field, max_deg=2, terms=2)
        if not den.is_zero():
            return prs_make(num, den)


# -- container basics ----------------------------------------------------------

def test_jet_requires_at_least_one_coefficient():
    with pytest.raises(DegreeMismatch):
        Jet([])


def test_jet_order_and_indexing():
    f = field_new(3)
    j = Jet([f.elem(1), f.elem(2), f.elem(0)])
    assert j.order == 2
    assert len(j) == 3
    assert j[1] == f.elem(2)


def test_jet_order_mismatch_raises():
    f = field_new(3)
    a = Jet([f.elem(1), f.elem(2)])
    b = Jet([f.elem(1), f.elem(2), f.elem(1)])
    with pytest.raises(DegreeMismatch):
        a + b


def test_jet_truncated():
    f = field_new(3)
    j = Jet([f.elem(1), f.elem(2), f.elem(1)])
    assert j.truncated(1) == Jet([f.elem(1), f.elem(2)])


# -- derivation jets -----------------------------------------------------------

def test_d_theta_jet_explicit_cube():
    f = field_new(5)
    j = d_theta_jet(Poly.monomial(f, (3,)), 3)
    want = [Poly.monomial(f, (3,)), Poly.monomial(f, (2,), 3),
            Poly.monomial(f, (1,), 3), Poly.one(f)]
    assert list(j.coeffs) == want


def test_d_theta_jet_binomial_rule():
    f = field_new(3)
    m, order = 7, 8
    j = d_theta_jet(Poly.monomial(f, (m,)), order)
    for k in range(order + 1):
        b = binom_mod_p(m, k, 3)
        assert j[k] == Poly.monomial(f, (m - k,), b) if b else j[k].is_zero()


def test_d_t_jet_fixes_theta():
    f = field_new(3)
    p = Poly.monomial(f, (2, 0), vars=VARS_TT)  # theta^2, constant in t
    j = d_t_jet(p, 2)
    assert j[0] == p and j[1].is_zero() and j[2].is_zero()


def test_jet_of_product_is_product_of_jets():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(60):
        a, b = rand_poly(rng, f), rand_poly(rng, f)
        n = rng.randrange(1, 5)
        assert d_theta_jet(a * b, n) == d_theta_jet(a, n) * d_theta_jet(b, n)
        assert d_theta_jet(a + b, n) == d_theta_jet(a, n) + d_theta_jet(b, n)


def test_jet_inverse_roundtrip():
    f = field_new(3)
    rng = random.Random(SEED)
    one = RatFunc.one(f, VARS_TT)
    for _ in range(40):
        r = rand_ratfunc(rng, f)
        if r.is_zero():
            continue
        j = fraction_jet(r, 0, 4)
        inv = j.inverse()
        prod = j * inv
        assert prod[0] == one and all(c.is_zero() for c in prod.coeffs[1:])
        # inverse of a jet is the jet of the inverse
        assert inv == fraction_jet(r.inverse(), 0, 4)


def test_jet_pow_matches_repeated_multiplication():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(25):
        r = rand_ratfunc(rng, f)
        if r.is_zero():
            continue
        j = fraction_jet(r, 0, 3)
        acc = fraction_jet(RatFunc.one(f, VARS_TT), 0, 3)
        for k in range(6):
            assert j ** k == acc
            acc = acc * j
        assert j ** -2 == (j ** 2).inverse()


def test_jet_pow_q_spreads_coefficients():
    # (D f)^q has coefficient i*q equal to (d^i f)^q and zeros elsewhere
    for f in (field_new(2), field_new(3)):
        q = f.q
        rng = random.Random(SEED)
        for _ in range(30):
            a = rand_poly(rng, f)
            n = 2
            j = d_theta_jet(a, n * q)
            jq = j ** q
            assert jq == d_theta_jet(a ** q, n * q)
            for i in range(len(jq.coeffs)):
                if i % q:
                    assert jq[i].is_zero()
                elif i // q <= n * q:
                    assert jq[i] == j[i // q] ** q


def test_jet_frobenius_power_matches_pow():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(20):
        a = rand_poly(rng, f)
        j = d_theta_jet(a, 4)
        assert j.frobenius_power(1) == j ** 3


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_frobenius_power_k_equals_k_single_steps(p, k):
    # one value, one precision: Frob^k of a USeries jet fills the slots off
    # the multiples of p^k as k steps of Frob^1 (the route pow_base_p takes)
    # do, with the zero of the order-0 product lifted k - 1 more times
    jet = omega_theta_eval_jet(CarlitzCtx(field_new(p), uprec=12, jet_order=7), 7)
    jet = jet.inverse()
    steps = jet
    for _ in range(k):
        steps = steps.frobenius_power(1)
    direct = jet.frobenius_power(k)
    assert direct == steps
    assert [c.abs_prec for c in direct] == [c.abs_prec for c in steps]
    if (p, k) == (2, 2):  # these slots read O(u^48) against O(u^96) before
        assert [direct[i].abs_prec for i in (1, 2, 3, 5, 6, 7)] == [96] * 6


def test_inexact_zero_coefficient_caps_precision():
    # O(u^5) is zero only up to u^5: skipping it would claim precision
    # that the operands do not have
    f = field_new(3)
    one, lo = USeries.one(f), USeries.zero(f, 5)
    prod = Jet([one, lo]) * Jet([one, USeries.monomial(f, 1).with_prec(100)])
    assert prod[1].abs_prec == 5
    inv = Jet([one, lo]).inverse()
    assert not inv[1].is_exact_zero() and inv[1].abs_prec == 5
    frob = Jet([one, lo, lo, lo]).frobenius_power(1)
    assert frob[3].abs_prec == 15


def test_rho_matrix_product_keeps_inexact_zero_entries():
    # the matrix product follows the jet product's zero rule: O(u^5) caps
    # entry (0, 1) at u^5, and the structural zeros below the diagonal stay
    # exact
    f = field_new(3)
    one, u = USeries.one(f), USeries.monomial(f, 1).with_prec(100)
    a, b = Jet([one, USeries.zero(f, 5)]), Jet([one, u])
    prod = to_rho_matrix(a) * to_rho_matrix(b)
    assert prod.entries[0][1] == (a * b)[1] == u.with_prec(5)
    assert prod.entries[1][0].is_exact_zero()
    assert prod == to_rho_matrix(a * b)


# -- derivation exchange and substitution ---------------------------------------

def test_derivations_commute():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(60):
        r = rand_ratfunc(rng, f)
        n, m = rng.randrange(4), rng.randrange(4)
        a = fraction_jet(fraction_jet(r, 0, m)[m], 1, n)[n]
        b = fraction_jet(fraction_jet(r, 1, n)[n], 0, m)[m]
        assert a == b


def test_compose_substitute_explicit():
    f = field_new(3)
    # f(theta, t) = theta * t; f(theta, theta) = theta^2
    p = RatFunc.from_poly(Poly.monomial(f, (1, 1), vars=VARS_TT))
    j = compose_substitute(fraction_jet(p, 0, 2))
    want = fraction_jet(RatFunc.from_poly(Poly.monomial(f, (2,))), 0, 2)
    assert j == want  # both sides substitute down to functions of theta alone


def test_compose_substitute_chain_rule():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(40):
        r = rand_ratfunc(rng, f)
        if r.den.eval_t_at_theta().is_zero():
            continue
        n = rng.randrange(1, 4)
        direct = fraction_jet(r.eval_t_at_theta(), 0, n)
        composed = compose_substitute(fraction_jet(r, 0, n))
        assert direct == composed


# -- matrix view -----------------------------------------------------------------

def test_rho_matrix_shape_and_top_row():
    f = field_new(3)
    j = d_theta_jet(Poly.monomial(f, (3,)), 3)
    m = to_rho_matrix(j)
    assert m.size == 4
    assert tuple(m.top_row()) == j.coeffs
    assert m.is_upper_toeplitz()
    # entry (i, k) is coefficient k - i
    for i in range(4):
        for k in range(4):
            if k >= i:
                assert m.entries[i][k] == j[k - i]


def test_rho_matrix_multiplicative():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(40):
        a, b = rand_poly(rng, f), rand_poly(rng, f)
        n = rng.randrange(1, 4)
        ja, jb = d_theta_jet(a, n), d_theta_jet(b, n)
        assert to_rho_matrix(ja) * to_rho_matrix(jb) == to_rho_matrix(ja * jb)


def test_rho_matrix_rejects_non_square():
    f = field_new(3)
    with pytest.raises(DegreeMismatch):
        RhoMatrix([[f.elem(1), f.elem(2)], [f.elem(0)]])


def test_is_upper_toeplitz_detects_violations():
    f = field_new(3)
    one, zero, two = f.elem(1), f.elem(0), f.elem(2)
    assert RhoMatrix([[one, two], [zero, one]]).is_upper_toeplitz()
    assert not RhoMatrix([[one, two], [one, one]]).is_upper_toeplitz()
    assert not RhoMatrix([[one, two], [zero, two]]).is_upper_toeplitz()


def rand_series_or_monomial(rng, f):
    if rng.random() < 0.2:  # an exact monomial, or an exact or inexact zero
        return rng.choice([USeries.monomial(f, rng.randrange(-5, 5), rng.randrange(1, f.q)),
                           USeries.zero(f), USeries.zero(f, rng.randrange(-5, 20))])
    m = {e: rng.randrange(f.q) for e in range(rng.randrange(-5, 5), rng.randrange(5, 15))}
    s = USeries.from_coeff_map(f, m)
    return s if rng.random() < 0.3 else s.with_prec(rng.randrange(-3, 25))


@pytest.mark.parametrize("q,e", [(2, 1), (3, 1), (2, 2)])
def test_ring_zero_like_is_the_difference_of_products(q, e):
    f = field_new(q, e)
    rng = random.Random(SEED + q * e)
    for _ in range(200):
        a, b = rand_series_or_monomial(rng, f), rand_series_or_monomial(rng, f)
        want = a * b - a * b
        got = _ring_zero_like(a, b)
        assert got == want and got.abs_prec == want.abs_prec, (a, b)
    for vars in (VARS_T, VARS_TT):
        a, b = rand_poly(rng, f, vars), rand_poly(rng, f, vars)
        assert _ring_zero_like(a, b) == a * b - a * b == Poly.zero(f, vars)
        r = prs_make(a, b if not b.is_zero() else Poly.one(f, vars))
        assert _ring_zero_like(r, r) == r * r - r * r == RatFunc.zero(f, vars)
        assert _ring_zero_like(r, r).vars == vars
