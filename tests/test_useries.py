"""Laurent series in u, the theta-embedding, and Hasse derivations."""

import math
import random

import pytest

from carlitzhd import (
    DivisionByZero,
    FieldMismatch,
    INF_PREC,
    Jet,
    Poly,
    RatFunc,
    TPoly,
    USeries,
    binom_mod_p,
    d_theta_useries,
    embed_k,
    field_new,
    hasse_du,
    theta_series,
    useries_agree,
    useries_diff_witness,
)
from carlitzhd.carlitz import CarlitzCtx, _first_gap, pitilde

from oracles import binom_neg_inv, d_theta_by_taylor, delta_scalars, fraction_jet

SEED = 1729


def rand_useries(rng, field, lo=-6, hi=10, prec=None):
    m = {e: rng.randrange(field.q) for e in range(lo, hi) if rng.random() < 0.5}
    s = USeries.from_coeff_map(field, m)
    return s if prec is None else s.with_prec(prec)


def rand_poly(rng, field, max_deg=4, terms=4):
    items = [((rng.randrange(max_deg + 1),), field.from_index(rng.randrange(field.q)))
             for _ in range(rng.randrange(terms + 1))]
    return Poly.from_items(field, items)


# -- normalization and container behavior ---------------------------------------

def test_useries_trims_and_canonicalizes():
    f = field_new(3)
    s = USeries(f, -2, [0, 1, 2, 0, 0])
    assert s.min_exp == -1
    assert s.coeffs == (1, 2)
    z = USeries(f, 5, [0, 0])
    assert z.is_zero() and z.min_exp == 0


def test_useries_truncates_to_abs_prec():
    f = field_new(3)
    s = USeries(f, 0, [1, 1, 1, 1], abs_prec=2)
    assert s.coeffs == (1, 1)
    assert s.abs_prec == 2
    assert not s.is_exact()


def test_useries_trims_zeros_exposed_by_truncation():
    f = field_new(3)
    s = USeries(f, 1, (0, 2, 0, 0, 1), abs_prec=5)
    assert (s.min_exp, s.coeffs, s.abs_prec) == (2, (2,), 5)
    z = USeries(f, 4, iter([1, 2]), abs_prec=3)
    assert z.is_zero() and z.min_exp == 0 and z.coeffs == () and z.abs_prec == 3
    g = USeries(f, -1, (x for x in (0, 1, 0)))
    assert (g.min_exp, g.coeffs) == (0, (1,))


def test_useries_coeff_and_valuation():
    f = field_new(5)
    s = USeries.from_coeff_map(f, {-3: 2, 4: 1})
    assert s.valuation() == -3
    assert s.coeff(-3) == f.elem(2)
    assert s.coeff(0) == f.zero
    assert s.coeff(4) == f.one


def test_useries_coeff_beyond_precision_raises():
    f = field_new(3)
    s = USeries(f, 0, [1], abs_prec=3)
    with pytest.raises(Exception):
        s.coeff(5)


def test_useries_equality_and_agreement():
    f = field_new(3)
    a = USeries.from_coeff_map(f, {0: 1, 2: 2})
    b = USeries.from_coeff_map(f, {0: 1, 2: 2}).with_prec(10)
    assert a != b  # different precision, different object value
    assert useries_agree(a, b)  # but equal on every retained coefficient
    c = USeries.from_coeff_map(f, {0: 1, 2: 1}).with_prec(10)
    assert not useries_agree(a, c)
    assert useries_diff_witness(a, c) == (2, f.elem(2), f.one)
    # disagreement hidden beyond the precision window is invisible
    d = USeries.from_coeff_map(f, {0: 1, 2: 2, 12: 1}).with_prec(10)
    assert useries_agree(b, d)


def walk_diff_witness(a, b):
    """The comparison walk: every exponent of the common window, one at a time."""
    prec = min(a.abs_prec, b.abs_prec)
    runs = [s for s in (a, b) if s.coeffs]
    if not runs:
        return None
    lo = min(s.min_exp for s in runs)
    hi = max(s.min_exp + len(s.coeffs) for s in runs)
    hi = min(hi, prec) if prec != math.inf else hi
    for e in range(lo, hi):
        ca, cb = (s.coeffs[e - s.min_exp] if 0 <= e - s.min_exp < len(s.coeffs) else 0
                  for s in (a, b))
        if ca != cb:
            return (e, a.field.from_index(ca), b.field.from_index(cb))
    return None


def test_useries_diff_witness_matches_the_walk():
    f = field_new(5)
    base = {-3: 1, 0: 2, 4: 3, 9: 4}
    a = USeries.from_coeff_map(f, base)

    def varied(e, c):
        return USeries.from_coeff_map(f, {**base, e: c})

    cases = [
        (a, a),                                       # equal runs
        (a, a.with_prec(5)),                          # equal below a smaller abs_prec
        (a.with_prec(20), a.with_prec(7)),
        (a, varied(-3, 4)),                           # differ at the first exponent
        (a, varied(2, 1)),                            # in the middle, at a zero of a
        (a, varied(4, 1)),
        (a, varied(9, 1)),                            # at the last exponent
        (a, varied(9, 0)),                            # the last term dropped
        (a.with_prec(9), varied(9, 1)),               # a difference at abs_prec is invisible
        (a, varied(12, 1).with_prec(11)),             # one run longer than the other
        (a, USeries.from_coeff_map(f, {-5: 1, **base})),   # min_exp differ
        (USeries.from_coeff_map(f, {1: 2}), USeries.from_coeff_map(f, {2: 2})),
        (USeries.zero(f), USeries.zero(f, 4)),        # empty runs
        (USeries.zero(f, 4), a),                      # one empty run, differing below 4
        (USeries.zero(f, -4), a),                     # empty run whose abs_prec is below a
        (USeries.zero(f), USeries.monomial(f, 7, 1, 7)),  # a term at abs_prec
    ]
    rng = random.Random(SEED)
    for _ in range(200):
        m = {e: rng.randrange(5) for e in range(rng.randrange(-4, 4), rng.randrange(4, 12))}
        x = USeries.from_coeff_map(f, m, rng.choice([math.inf, 6, 11]))
        m[rng.randrange(-4, 12)] = rng.randrange(5)
        y = USeries.from_coeff_map(f, m, rng.choice([math.inf, 4, 9]))
        cases.append((x, y))
    for x, y in cases:
        for left, right in ((x, y), (y, x)):
            assert useries_diff_witness(left, right) == walk_diff_witness(left, right), (
                left, right)
    assert useries_diff_witness(a, varied(-3, 4)) == (-3, f.one, f.elem(4))
    assert useries_diff_witness(a, varied(9, 1)) == (9, f.elem(4), f.one)
    assert useries_diff_witness(a, a.with_prec(5)) is None


def test_useries_cross_field_rejected():
    a = USeries.one(field_new(2))
    b = USeries.one(field_new(3))
    with pytest.raises(FieldMismatch):
        a + b


# -- arithmetic and precision tracking --------------------------------------------

def test_useries_ring_axioms_sampled():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(120):
        a, b, c = (rand_useries(rng, f) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - b) + b == a


def test_useries_add_takes_min_precision():
    f = field_new(3)
    a = USeries.from_coeff_map(f, {0: 1}).with_prec(5)
    b = USeries.from_coeff_map(f, {1: 2}).with_prec(9)
    assert (a + b).abs_prec == 5
    assert (a + USeries.one(f)).abs_prec == 5


def test_useries_mul_precision_shifts_by_valuation():
    f = field_new(3)
    a = USeries.from_coeff_map(f, {2: 1}).with_prec(7)   # val 2, prec 7
    b = USeries.from_coeff_map(f, {3: 1}).with_prec(11)  # val 3, prec 11
    # min(7 + 3, 11 + 2) = 10
    assert (a * b).abs_prec == 10


def test_useries_scale_shift():
    f = field_new(5)
    s = USeries.from_coeff_map(f, {1: 2, 3: 1}).with_prec(8)
    assert s.scale(2) == USeries.from_coeff_map(f, {1: 4, 3: 2}).with_prec(8)
    sh = s.shift(-4)
    assert sh.valuation() == -3
    assert sh.abs_prec == 4
    assert sh.coeff(-1) == f.one


def test_useries_inverse_roundtrip():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(60):
        s = rand_useries(rng, f, prec=12)
        if s.is_zero():
            continue
        inv = s.inverse()
        prod = s * inv
        one = USeries.one(f)
        assert useries_agree(prod, one)
        assert prod.abs_prec != INF_PREC


def test_useries_inverse_of_monomial_stays_exact():
    f = field_new(3)
    s = USeries.monomial(f, -4, 2)
    inv = s.inverse()
    assert inv.is_exact()
    assert inv == USeries.monomial(f, 4, 2)  # 2 is its own inverse mod 3


def test_useries_inverse_of_zero_raises():
    f = field_new(3)
    with pytest.raises(DivisionByZero):
        USeries.zero(f).inverse()


def test_useries_frobenius_power():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(40):
        a = rand_useries(rng, f, prec=15)
        b = rand_useries(rng, f, prec=15)
        assert (a * b).frobenius_power(1) == a.frobenius_power(1) * b.frobenius_power(1)
    s = USeries.from_coeff_map(f, {-1: 2, 2: 1})
    fs = s.frobenius_power(1)
    assert fs.coeff(-3) == f.elem(2) ** 3 and fs.coeff(6) == f.one


# -- the embedding of K -----------------------------------------------------------

def test_theta_series_value():
    for q in (2, 3, 5):
        f = field_new(q)
        th = theta_series(f)
        assert th == USeries.monomial(f, -(q - 1), f.elem(-1))
        assert th.is_exact()


def test_embed_k_theta_and_polynomials_exact():
    for q in (2, 3):
        assert embed_k(Poly.monomial(field_new(q), (1,)), 50) == theta_series(field_new(q))
    f = field_new(3)
    p = Poly.from_items(f, [((2,), 1), ((0,), 2)])
    s = embed_k(p, 50)
    assert s.is_exact()
    assert s == theta_series(f) * theta_series(f) + USeries.const(f, 2)


def test_embed_k_geometric_series_oracle():
    # 1/(theta + 1) = sum_{i >= 1} (-1)^{i+1} theta^{-i}, checked against
    # an independently built partial sum
    for q in (2, 3):
        f = field_new(q)
        prec = 40
        r = RatFunc.make(Poly.one(f), Poly.monomial(f, (1,)) + Poly.one(f))
        got = embed_k(r, prec)
        thinv = theta_series(f).inverse()  # exact: monomial inverse
        acc = USeries.zero(f)
        powt = thinv
        for i in range(1, prec + q):
            acc = acc + powt.scale(f.elem(-1) ** (i + 1))
            powt = powt * thinv
        assert got.abs_prec == prec
        assert useries_agree(got, acc.with_prec(prec))


def test_embed_k_is_ring_homomorphism_sampled():
    f = field_new(3)
    rng = random.Random(SEED)
    prec = 30
    for _ in range(60):
        num1, num2 = rand_poly(rng, f), rand_poly(rng, f)
        den1, den2 = rand_poly(rng, f, 3, 3), rand_poly(rng, f, 3, 3)
        if den1.is_zero() or den2.is_zero():
            continue
        a = RatFunc.make(num1, den1)
        b = RatFunc.make(num2, den2)
        ea, eb = embed_k(a, prec), embed_k(b, prec)
        assert useries_agree(embed_k(a + b, prec), ea + eb)
        assert useries_agree(embed_k(a * b, prec), ea * eb)


# -- Hasse derivative in u ---------------------------------------------------------

def test_hasse_du_frozen_examples():
    f3 = field_new(3)
    assert hasse_du(USeries.monomial(f3, 5), 2) == USeries.monomial(f3, 3)
    for q in (2, 3, 5):
        f = field_new(q)
        got = hasse_du(USeries.monomial(f, -1), 1)
        assert got == USeries.monomial(f, -2, f.elem(-1))


def test_hasse_du_binomial_rule():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(100):
        e = rng.randrange(-20, 20)
        k = rng.randrange(8)
        got = hasse_du(USeries.monomial(f, e), k)
        b = binom_mod_p(e, k, 3)
        assert got == USeries.monomial(f, e - k, b)
    # series whose derivative starts and ends in runs of zero binomials
    for _ in range(100):
        s = rand_useries(rng, f, prec=rng.choice([None, 8]))
        k = rng.randrange(1, 10)
        want = {e - k: c * binom_mod_p(e, k, 3) for e, c in s.coeff_items()}
        assert hasse_du(s, k) == USeries.from_coeff_map(f, want, s.abs_prec - k)


def test_hasse_du_composition_rule():
    # d^i d^j = binom(i + j, i) d^{i+j}
    f = field_new(2)
    rng = random.Random(SEED)
    for _ in range(80):
        s = rand_useries(rng, f, prec=20)
        i, j = rng.randrange(5), rng.randrange(5)
        lhs = hasse_du(hasse_du(s, j), i)
        rhs = hasse_du(s, i + j).scale(binom_mod_p(i + j, i, 2))
        assert useries_agree(lhs, rhs)


def test_hasse_du_leibniz_rule():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(60):
        a = rand_useries(rng, f, prec=18)
        b = rand_useries(rng, f, prec=18)
        k = rng.randrange(1, 5)
        lhs = hasse_du(a * b, k)
        rhs = USeries.zero(f)
        for i in range(k + 1):
            rhs = rhs + hasse_du(a, i) * hasse_du(b, k - i)
        assert useries_agree(lhs, rhs)


def test_hasse_du_zero_order_is_identity():
    f = field_new(3)
    s = USeries.from_coeff_map(f, {-2: 1, 5: 2})
    assert hasse_du(s, 0) == s


# -- the theta-derivation on series -------------------------------------------------

@pytest.mark.parametrize("q,K", [(2, 10), (3, 6), (4, 5), (5, 4), (7, 3), (8, 3),
                                 (9, 3), (25, 2), (49, 2)])
def test_binom_neg_inv_digit_rule(q, K):
    # D_theta(u) = u (1 - X u^(q-1))^(-1/(q-1)), and (q^K - 1)/(q - 1) =
    # 1 + q + ... + q^(K-1) is -1/(q-1) mod q^K, so below q^K its binomials
    # mod p are those of -1/(q-1) by Lucas' rule: the X^j coefficient is
    # (-1)^j u^(1 + j(q-1)) when every base-q digit of j is 0 or 1, else 0
    p = next(d for d in range(2, q + 1) if q % d == 0)
    f = field_new(p, round(math.log(q, p)))
    n = (q ** K - 1) // (q - 1)
    rule = [binom_neg_inv(j, q) for j in range(q ** K)]
    assert rule == [binom_mod_p(n, j, p) for j in range(q ** K)]
    assert sum(rule) == 2 ** K  # base-q digits in {0, 1}
    jet = d_theta_useries(USeries.monomial(f, 1), q ** K - 1)
    assert jet.coeffs == tuple(
        USeries.monomial(f, 1 + j * (q - 1), (-1) ** j) if b else USeries.zero(f)
        for j, b in enumerate(rule))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_d_theta_of_theta_is_theta_plus_x(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    f = field_new(p, round(math.log(q, p)))
    th = theta_series(f)
    for n in (1, 2, 7):
        assert d_theta_useries(th, n) == Jet(
            [th, USeries.one(f)] + [USeries.zero(f)] * (n - 1))


def test_d_theta_useries_of_u_is_minus_u_q():
    for q in (2, 3, 5):
        f = field_new(q)
        u = USeries.monomial(f, 1)
        j = d_theta_useries(u, 1)
        assert j[0] == u
        assert j[1] == USeries.monomial(f, q, f.elem(-1))


def test_d_theta_useries_matches_embedded_jet():
    # the derivation on series extends the derivation on K through embed_k
    f = field_new(3)
    rng = random.Random(SEED)
    prec = 30
    for _ in range(40):
        num = rand_poly(rng, f)
        den = rand_poly(rng, f, 3, 3)
        if den.is_zero():
            continue
        r = RatFunc.make(num, den)
        n = rng.randrange(1, 4)
        js = d_theta_useries(embed_k(r, prec), n)
        jk = fraction_jet(r, 0, n)
        for k in range(n + 1):
            assert useries_agree(js[k], embed_k(jk[k], prec - k))


def test_d_theta_useries_k_infinity_formula():
    # on sum c_i theta^{-i}: coefficient n is sum c_i binom(-i, n) theta^{-i-n}
    for q in (2, 3):
        f = field_new(q)
        rng = random.Random(SEED)
        thinv = theta_series(f).inverse()
        for _ in range(30):
            terms = {i: f.from_index(rng.randrange(f.q)) for i in range(1, 9)
                     if rng.random() < 0.6}
            if not terms:
                continue
            s = USeries.zero(f)
            for i, c in terms.items():
                s = s + (thinv ** i).scale(c)
            s = s.with_prec(25)
            n = rng.randrange(1, 5)
            got = d_theta_useries(s, n)[n]
            want = USeries.zero(f)
            for i, c in terms.items():
                b = binom_mod_p(-i, n, f.p)
                if b:
                    want = want + (thinv ** (i + n)).scale(c * f.elem(b))
            assert useries_agree(got, want.with_prec(got.abs_prec))


def test_d_theta_useries_uniformizer_relation():
    # with lambda = 1/u and lambda^{q-1} = -theta:
    # (D(u)^{-1})^{q-1} * (-1) equals the jet theta + X; the same expression
    # without the inner inverse is its reciprocal jet
    for q in (2, 3):
        f = field_new(q)
        n = 3
        u = USeries.monomial(f, 1).with_prec(40)
        Du = d_theta_useries(u, n)
        lhs = (Du.inverse() ** (q - 1)).scale(f.elem(-1))
        rhs = Jet([theta_series(f), USeries.one(f)]
                  + [USeries.zero(f)] * (n - 1))
        assert all(useries_agree(a, b) for a, b in zip(lhs.coeffs, rhs.coeffs))
        literal = (Du ** (q - 1)).scale(f.elem(-1))
        prod = literal * lhs
        assert useries_agree(prod[0], USeries.one(f))
        assert all(useries_agree(c, USeries.zero(f)) for c in prod.coeffs[1:])


def test_d_theta_useries_recompute_overlap():
    f = field_new(2)
    s = embed_k(RatFunc.make(Poly.one(f), Poly.monomial(f, (1,)) + Poly.one(f)), 20)
    s2 = embed_k(RatFunc.make(Poly.one(f), Poly.monomial(f, (1,)) + Poly.one(f)), 45)
    j1 = d_theta_useries(s, 3)
    j2 = d_theta_useries(s2, 3)
    for k in range(4):
        assert useries_agree(j1[k], j2[k])
        assert j2[k].abs_prec > j1[k].abs_prec



@pytest.mark.parametrize("q,e", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)])
def test_d_theta_useries_matches_the_sum_of_shifted_derivatives(q, e):
    # the Taylor identity's fold of + over scaled, shifted u-derivatives,
    # exact and at finite precision
    f = field_new(q, e)
    rng = random.Random(SEED + q)
    for prec in (None, 14, 3, -2):
        s = rand_useries(rng, f, -6, 12, prec)
        n = 4
        c = delta_scalars(f, n)
        got = d_theta_useries(s, n)
        assert got[0] == s
        for m in range(1, n + 1):
            want = USeries.zero(f, s.abs_prec + m * (f.q - 1))
            for k in range(1, m + 1):
                if c[k][m]:
                    want = want + hasse_du(s, k).scale(c[k][m]).shift(k + m * (f.q - 1))
            assert got[m] == want


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (13, 1)])
def test_d_theta_useries_matches_the_taylor_oracle(p, e):
    # one binomial per residue class against the Taylor identity, on random
    # Laurent runs (exact and at finite precision), the period and its cube,
    # zero series and monomials; every order up to 17 is a prefix of order 17
    f = field_new(p, e)
    rng = random.Random(SEED + 17 * f.q)
    series = []
    for _ in range(20):
        lo = rng.randrange(-4 * f.q, 8)
        s = rand_useries(rng, f, lo, lo + rng.randrange(1, 40))
        series.append(s if rng.random() < 0.4 else s.with_prec(
            rng.randrange(lo - 2, lo + 45)))
    period = pitilde(CarlitzCtx(f, uprec=40))
    series += [period, period ** 3, USeries.zero(f), USeries.zero(f, 9),
               USeries.monomial(f, -7, f.q - 1), USeries.monomial(f, 5, 1, 12)]
    for s in series:
        want = d_theta_by_taylor(s, 17).coeffs
        for n in (0, 1, 2, 5, 9, 17):
            assert d_theta_useries(s, n).coeffs == want[:n + 1], (s, n)


# -- truncated t-expansions ----------------------------------------------------------

def test_tpoly_construction_and_coeff():
    f = field_new(2)
    p = TPoly(f, {0: USeries.one(f), 2: theta_series(f)})
    assert p.tdegree() == 2
    assert p.coeff(0) == USeries.one(f)
    assert p.coeff(1).is_zero()
    # exact zero coefficients are dropped
    p2 = TPoly(f, {0: USeries.one(f), 5: USeries.zero(f)})
    assert p2.tdegree() == 0
    # the t-series mod t^n is the Jet of the first n coefficients, with
    # exact zeros where a degree is absent
    assert p.jet(2) == Jet([USeries.one(f), USeries.zero(f)])
    assert p.jet(4) == Jet([USeries.one(f), USeries.zero(f), theta_series(f),
                            USeries.zero(f)])
    assert all(c.is_exact_zero() for c in p.jet(4)[1::2])


def test_tpoly_mul_matches_convolution():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(30):
        a = TPoly(f, {k: rand_useries(rng, f, -3, 6, prec=15) for k in range(3)})
        b = TPoly(f, {k: rand_useries(rng, f, -3, 6, prec=15) for k in range(3)})
        prod = a * b
        for k in range(7):
            want = USeries.zero(f)
            for i in range(k + 1):
                want = want + a.coeff(i) * b.coeff(k - i)
            assert useries_agree(prod.coeff(k), want)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_tpoly_frobenius_power_is_the_p_power(p, e):
    f = field_new(p, e)
    rng = random.Random(SEED)
    for _ in range(10):
        exact = TPoly(f, {k: rand_useries(rng, f, -3, 6) for k in (0, 1, 3)})
        prod = TPoly.one(f)
        for _ in range(p):
            prod = prod * exact
        assert exact.frobenius_power(1) == prod
        twice = TPoly.one(f)
        for _ in range(p):
            twice = twice * prod
        assert exact.frobenius_power(2) == twice
        # a coefficient known below N has its p-th power known below pN,
        # at least as far as the product knows it
        capped = TPoly(f, {k: rand_useries(rng, f, -3, 6, prec=12) for k in range(3)})
        prod = TPoly.one(f)
        for _ in range(p):
            prod = prod * capped
        frob = capped.frobenius_power(1)
        assert sorted(frob.coeffs) == [0, p, 2 * p]
        for k, c in prod.coeffs.items():
            assert useries_agree(frob.coeff(k), c)
            assert frob.coeff(k).abs_prec >= c.abs_prec


def test_tpoly_d_t_binomial():
    f = field_new(3)
    c = theta_series(f)
    p = TPoly(f, {4: c})
    d = p.d_t(1)
    assert useries_agree(d.coeff(3), c.scale(binom_mod_p(4, 1, 3)))
    assert p.d_t(0) == p


def test_tpoly_eval_t_at_theta_frozen():
    # 1 - t * theta^{-q} at t = theta over F_2 gives 1 + u
    f = field_new(2)
    th = theta_series(f)
    thminusq = (th ** 2).inverse()
    p = TPoly(f, {0: USeries.one(f), 1: thminusq.scale(f.elem(-1))})
    got = p.eval_t_at_theta()
    assert got == USeries.from_coeff_map(f, {0: 1, 1: 1})


def test_tpoly_eval_t_at_theta_matches_substitution():
    f = field_new(3)
    rng = random.Random(SEED)
    th = theta_series(f)
    for _ in range(30):
        coeffs = {k: rand_useries(rng, f, -3, 6, prec=20) for k in range(4)}
        p = TPoly(f, coeffs)
        want = USeries.zero(f)
        for k, c in coeffs.items():
            want = want + c * th ** k
        assert useries_agree(p.eval_t_at_theta(), want)


def horner_eval_t_at_theta(p: TPoly) -> USeries:
    """t = theta by Horner through USeries products, as the shifted sum replaced."""
    f = p.field
    if not p.coeffs:
        return USeries.zero(f)
    th, deg = theta_series(f), p.tdegree()
    acc = p.coeffs.get(deg, USeries.zero(f))
    for k in range(deg - 1, -1, -1):
        acc = acc * th
        if k in p.coeffs:
            acc = acc + p.coeffs[k]
    return acc


@pytest.mark.parametrize("q,e", [(2, 1), (3, 1), (2, 2), (7, 1)])
def test_tpoly_eval_t_at_theta_matches_horner(q, e):
    # equal as values, abs_prec included: truncated and exact coefficients,
    # absent degrees, inexact zeros, and coefficients that lie entirely above
    # the result's precision (a high-degree term caps it low)
    f = field_new(q, e)
    rng = random.Random(SEED + q * e)
    for _ in range(150):
        coeffs = {}
        for k in range(rng.randrange(6)):
            if rng.random() < 0.3:
                continue
            prec = rng.choice([None, None, rng.randrange(-4, 30)])
            c = rand_useries(rng, f, rng.randrange(-8, 4), rng.randrange(4, 24), prec)
            if rng.random() < 0.1:
                c = USeries.zero(f, rng.randrange(-4, 12))
            coeffs[k] = c
        p = TPoly(f, coeffs)
        assert p.eval_t_at_theta() == horner_eval_t_at_theta(p), coeffs
    p = TPoly(f, {0: USeries.from_coeff_map(f, {20: 1, 25: 1}), 3: USeries.one(f).with_prec(0)})
    got = p.eval_t_at_theta()
    assert got == horner_eval_t_at_theta(p) and got.is_zero()
    assert got.abs_prec == -3 * (f.q - 1)


def test_tpoly_inverse_tseries_geometric():
    # (1 - t u)^{-1} = sum_k t^k u^k
    f = field_new(3)
    u = USeries.monomial(f, 1)
    p = TPoly(f, {0: USeries.one(f), 1: u.scale(f.elem(-1))})
    inv = p.inverse_tseries(6)
    assert inv == Jet([USeries.monomial(f, k) for k in range(6)])
    # and the product is 1 mod t^6
    prod = p.jet(6) * inv
    assert prod == TPoly.one(f).jet(6)


def test_tpoly_inverse_tseries_needs_a_constant_term():
    f = field_new(3)
    with pytest.raises(DivisionByZero):
        TPoly(f, {1: USeries.one(f)}).inverse_tseries(4)
    with pytest.raises(DivisionByZero):
        TPoly(f, {}).inverse_tseries(1)


def test_tpoly_inverse_tseries_with_absent_degrees():
    # (1 + t^2)^{-1} = 1 - t^2 + t^4 mod t^6: degrees 1, 3, 5 are exact zeros
    f = field_new(3)
    one, zero = USeries.one(f), USeries.zero(f)
    inv = TPoly(f, {0: one, 2: one}).inverse_tseries(6)
    assert inv == Jet([one, zero, -one, zero, one, zero])
    assert all(c.is_exact_zero() for c in inv[1::2])


def test_tpoly_agree_and_witness():
    # t-series jets compare through _first_gap, on the common u-precision
    f = field_new(2)
    a = TPoly(f, {0: USeries.one(f), 1: theta_series(f)}).jet(3)
    b = TPoly(f, {0: USeries.one(f), 1: theta_series(f).with_prec(10)}).jet(3)
    assert _first_gap("x", a, b) is None
    c = TPoly(f, {0: USeries.one(f), 1: theta_series(f) + USeries.one(f)}).jet(3)
    assert _first_gap("x", a, c) == "x: order-1 first differs at u^0: 0 != 1"


def test_tpoly_d_theta_jet_leibniz_with_t_coeff():
    # t is theta-free, so the theta-derivation acts on each t-coefficient of
    # a t-series jet, and by Leibniz on a product of those coefficients
    f = field_new(2)
    th = theta_series(f)
    per_coeff = [d_theta_useries(c, 2) for c in TPoly(f, {1: th}).jet(3)]
    assert all(c.is_exact_zero() for k in (0, 2) for c in per_coeff[k])
    assert per_coeff[1][0] == th
    assert useries_agree(per_coeff[1][1], USeries.one(f))
    assert per_coeff[1][2].is_zero()
    # theta * theta at t^1 * t^1: the jet of the t^2 coefficient of the square
    sq = TPoly(f, {1: th}) * TPoly(f, {1: th})
    assert d_theta_useries(sq.jet(3)[2], 2) == per_coeff[1] * per_coeff[1]
