"""The exact quotient builders against independent references.

Every jet of a quotient runs one fraction-free recurrence at t = theta,
`rings._quotient_jet_numerators`.  Its canonical form
(`oracles.quotient_jet_at_theta`), the `eta_quotient` cell and
`sjet_from_ratfunc` are checked against the generic route, a jet of
`RatFunc` coefficients times the series inverse of another, and `at_poly`
(one exact cofactor per term) against the recursion that carries
alpha_n/Gamma_n as one unreduced fraction.  Product counts pin the
recurrence's cost.  `b_rat`, the X^j coefficient of a product of bracket
series, is checked against frozen values, against the quotient-jet
recurrence it replaced and against the Omega transfer cells.  The
canonical eta K-jet of tests/oracles.py, a product of Frobenius images of
base-p digit jets, is checked against the single quotient jet of
L^n / eta_num^n, and the canonical AT K-jet, a Frobenius image of a smaller
one when q | n, against the single quotient jet of alpha_n / Gamma_n; the
raw K-jets that the routes run must equal both in K.
"""

import random

import pytest

from carlitzhd import (
    CarlitzCtx,
    ConstraintViolated,
    D_poly,
    Gamma_poly,
    Jet,
    L_poly,
    Poly,
    RatFunc,
    VARS_T,
    VARS_TT,
    at_poly,
    b_rat,
    curlyL_poly,
    eta_rat,
    field_new,
    gamma_poly,
    minimal_l,
    poly_divexact,
    taylor_shift,
    verify_suite,
)
from carlitzhd import carlitz
from carlitzhd.carlitz import (
    _at_ratio_theta_jet,
    _bracket_theta_jet,
    _eta_num,
)
from carlitzhd.jets import d_t_jet, d_theta_jet

from oracles import (
    at_ratio_theta_jet,
    b_rat_by_recurrence,
    eta_inv_pow_theta_jet,
    prs_make,
    quotient_jet_at_theta,
    ratio_theta_jet,
    raw_jet_gap,
    sjet_from_ratfunc,
    sjet_inverse,
)

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
          9: (3, 2)}


def generic_ratio(num_jet: Jet, den_jet: Jet) -> Jet:
    """num/den at t = theta as RatFunc jets: the series product and inverse."""
    num = Jet([RatFunc.from_poly(c.eval_t_at_theta()) for c in num_jet.coeffs])
    den = Jet([RatFunc.from_poly(c.eval_t_at_theta()) for c in den_jet.coeffs])
    return num * den.inverse()


def ratio(num_jet: Jet, den_jet: Jet) -> Jet:
    """num/den at t = theta by the recurrence, for two polynomial jets."""
    return Jet(quotient_jet_at_theta(num_jet.coeffs, den_jet.coeffs))


def at_jets(q: int, n: int) -> tuple[Jet, Jet]:
    alpha, gam = at_poly(field_new(*FIELDS[q]), n)
    return d_theta_jet(alpha, n - 1), d_theta_jet(gam, n - 1)


def count_products(monkeypatch, fn, *args) -> int:
    calls = []
    real = Poly.__mul__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    fn(*args)
    monkeypatch.setattr(Poly, "__mul__", real)
    return len(calls)


def dense_jets(p: int, order: int, seed: int) -> tuple[Jet, Jet]:
    """Two jets of univariate polynomials with no zero coefficient."""
    f = field_new(p)
    rng = random.Random(seed)

    def rand_poly():
        exps = rng.sample(range(30), 8)
        return Poly(f, VARS_T, {(e,): rng.randrange(1, p) for e in exps})

    return (Jet([rand_poly() for _ in range(order + 1)]),
            Jet([rand_poly() for _ in range(order + 1)]))


# -- the quotient jet against the generic jet route ------------------------------

@pytest.mark.parametrize("q,n", [(2, 12), (3, 9), (4, 6), (5, 6), (9, 4)])
def test_ratio_jet_matches_generic_route_on_at_jets(q, n):
    num_jet, den_jet = at_jets(q, n)
    assert ratio(num_jet, den_jet) == generic_ratio(num_jet, den_jet)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_ratio_jet_matches_generic_route_on_eta_quotients(q, l):
    f = field_new(*FIELDS[q])
    order = 5
    eta_num, big_l = _eta_num(f, l), L_poly(f, l).lift_tt()
    eta, big_l_jet = d_theta_jet(eta_num, order), d_theta_jet(big_l, order)
    assert ratio_theta_jet(eta_num, big_l, order) == generic_ratio(eta, big_l_jet)
    assert ratio_theta_jet(big_l, eta_num, order) == generic_ratio(big_l_jet, eta)


def test_ratio_jet_matches_generic_route_with_exact_zeros():
    # in characteristic 2 most hyperderivatives of theta^4 + ... vanish, so
    # both input jets have exact-zero coefficients in the middle
    f = field_new(2)
    x = Poly.monomial(f, (0, 1), vars=VARS_TT)
    num = Poly.monomial(f, (4, 1), vars=VARS_TT) + x + Poly.one(f, VARS_TT)
    den = Poly.monomial(f, (8, 0), vars=VARS_TT) + Poly.monomial(f, (2, 0), vars=VARS_TT) + x
    for order in (3, 6, 9):
        num_jet, den_jet = d_theta_jet(num, order), d_theta_jet(den, order)
        assert any(c.is_zero() for c in num_jet.coeffs[1:])
        assert any(c.is_zero() for c in den_jet.coeffs[1:])
        got = ratio_theta_jet(num, den, order)
        assert got == generic_ratio(num_jet, den_jet)
        assert any(c.is_zero() for c in got.coeffs)


def test_ratio_jet_matches_generic_route_on_dense_jets():
    num_jet, den_jet = dense_jets(3, 6, seed=5)
    assert ratio(num_jet, den_jet) == generic_ratio(num_jet, den_jet)


# -- the eta_quotient cell -----------------------------------------------------------

def old_eta_rhs(f, l: int, order: int) -> Jet:
    """The cell's right-hand side as it was built before the recurrence."""
    rhs_num = Jet([RatFunc.from_poly(c.eval_t_at_theta())
                   for c in d_t_jet(curlyL_poly(f, l), order).coeffs])
    rhs_den = Jet([RatFunc.from_poly(c)
                   for c in d_theta_jet(L_poly(f, l), order).coeffs])
    return rhs_num * rhs_den.inverse()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_eta_quotient_rhs_matches_generic_route(q):
    # every field of the benchmark's verify grid, l <= 3, order <= 6
    f = field_new(*FIELDS[q])
    for l in range(4):
        for order in (0, 3, 6):
            new = ratio(d_t_jet(curlyL_poly(f, l), order),
                        d_theta_jet(L_poly(f, l), order))
            assert new == old_eta_rhs(f, l, order), (l, order)


@pytest.mark.parametrize("bad_l", [0, 2, 3])
def test_eta_quotient_cell_fails_on_a_perturbed_numerator(monkeypatch, bad_l):
    ctx = CarlitzCtx(field_new(3), uprec=20, jet_order=4)
    clean = verify_suite(ctx, "eta_quotient", lmax=3)
    real = carlitz.curlyL_poly

    def perturbed(field, l):
        out = real(field, l)
        return out + Poly.monomial(field, (1, 1)) if l == bad_l else out

    monkeypatch.setattr(carlitz, "curlyL_poly", perturbed)
    faulted = verify_suite(ctx, "eta_quotient", lmax=3)
    bad = [c for c in faulted.cells if not c.passed]
    assert clean.all_passed and len(faulted.cells) == len(clean.cells) == 4
    assert [c.params["l"] for c in bad] == [bad_l]
    assert bad[0].witness.startswith(f"eta_{bad_l} quotient: order-0 ")


# -- the eta K-jet by base-p digits ---------------------------------------------------

def single_quotient_eta_jet(f, lm: int, n: int, order: int) -> Jet:
    """The jet of eta_lm^(-n) as one quotient jet of L^n / eta_num^n."""
    return ratio_theta_jet(L_poly(f, lm) ** n, _eta_num(f, lm) ** n, order)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 49])
def test_eta_jet_by_digits_matches_single_quotient(q):
    f = field_new(*FIELDS.get(q, (7, 2)))
    cells = [(n, lm) for n in range(1, 13)
             for lm in (minimal_l(q, n) - 1, minimal_l(q, n))]
    # n = 20 is 202 in base 3: a Frobenius-squared digit jet
    cells += {3: [(20, 2)], 9: [(20, 1)]}.get(q, [])
    for n, lm in cells:
        got = eta_inv_pow_theta_jet(f, lm, n, n - 1)
        want = single_quotient_eta_jet(f, lm, n, n - 1)
        assert got == want and repr(got) == repr(want), (n, lm)
        assert raw_jet_gap(_bracket_theta_jet(f, n, n - 1), want) is None, (n, lm)


# -- the AT K-jet by the q-power identity --------------------------------------------

def single_quotient_at_jet(f, n: int, order: int) -> Jet:
    """The jet of alpha_n/Gamma_n as one quotient jet of the unreduced pair."""
    alpha, gam = at_poly(f, n)
    return ratio_theta_jet(alpha, gam, order)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_at_jet_matches_single_quotient(q):
    f = field_new(*FIELDS[q])
    ns = set(range(1, 3 * q + 3)) | {n for n in (q * q, 2 * q * q) if n <= 40}
    ns |= {2: {24, 31}, 3: {26, 27}}.get(q, set())
    # R_n = 1 for n < q, so these are the cells where the Frobenius image of
    # a nontrivial jet is taken at every q, e > 1 included
    ns |= {q * (q + 1), q * (q + 2)}
    for n in sorted(ns):
        got = at_ratio_theta_jet(f, n, n - 1)
        want = single_quotient_at_jet(f, n, n - 1)
        assert got == want and repr(got) == repr(want), n
        assert raw_jet_gap(_at_ratio_theta_jet(f, n, n - 1), want) is None, n


@pytest.mark.parametrize("q,n,largest", [(2, 24, 3), (3, 27, 1)])
def test_at_jet_at_q_multiples_builds_only_the_q_free_part(monkeypatch, q, n, largest):
    # 24 = 3 * 2^3 and 27 = 1 * 3^3: only alpha_3 and alpha_1 are needed
    f = field_new(*FIELDS[q])
    built = []
    real = carlitz.at_poly

    def recording(field, m):
        built.append(m)
        return real(field, m)

    at_poly.cache_clear()
    carlitz._at_ratio_theta_jet.cache_clear()
    monkeypatch.setattr(carlitz, "at_poly", recording)
    try:
        _at_ratio_theta_jet(f, n, n - 1)
    finally:
        carlitz._at_ratio_theta_jet.cache_clear()
    assert max(built) == largest


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_alpha_q_power_identity_over_larger_fields(q):
    # the AT K-jet at q | n rests on alpha_{nq} Gamma_n^q = alpha_n^q Gamma_{nq}
    f = field_new(*FIELDS[q])
    for n in range(1, 60 // q + 1):
        a_n, g_n = at_poly(f, n)
        a_nq, g_nq = at_poly(f, n * q)
        assert a_nq * g_n.lift_tt() ** q == a_n ** q * g_nq.lift_tt(), n


# -- product counts ----------------------------------------------------------------

@pytest.mark.parametrize("q,n", [(2, 12), (2, 16), (3, 9), (4, 6), (5, 6)])
def test_ratio_jet_product_count_on_at_jets(monkeypatch, q, n):
    # the two-pass route it replaced made about 2 m^2 products here
    num_jet, den_jet = at_jets(q, n)
    m = num_jet.order
    products = count_products(monkeypatch, ratio, num_jet, den_jet)
    assert products <= m * (m + 1) // 2 + 2 * m + 2


@pytest.mark.parametrize("m", [3, 6, 10])
def test_ratio_jet_product_count_on_dense_jets(monkeypatch, m):
    # m(m+1)/2 products E_i * C_{k-i}, m products N_k * D^k, m - 1 products
    # E_i = D_i * D^{i-1} and m powers D^2..D^{m+1}
    num_jet, den_jet = dense_jets(3, m, seed=m)
    products = count_products(monkeypatch, ratio, num_jet, den_jet)
    assert products == m * (m + 1) // 2 + 3 * m - 1


# -- sjet_from_ratfunc on the same recurrence ----------------------------------------

def generic_sjet(r: RatFunc, order: int):
    """The expansion as it was built before: a Taylor jet times an inverse."""
    return (taylor_shift(r.num.lift_tt(), order)
            * sjet_inverse(taylor_shift(r.den.lift_tt(), order)))


def rand_tt(rng, f, deg: int, terms: int) -> Poly:
    return Poly.from_items(f, [((rng.randrange(deg + 1), rng.randrange(deg + 1)),
                                f.from_index(rng.randrange(1, f.q)))
                               for _ in range(terms)], VARS_TT)


@pytest.mark.parametrize("q", [2, 3, 9])
def test_sjet_from_ratfunc_matches_generic_route(q):
    f = field_new(*FIELDS[q])
    rng = random.Random(q)
    checked = 0
    while checked < 6:
        den = rand_tt(rng, f, 4, 5)
        if den.degree(1) < 1 or den.eval_t_at_theta().is_zero():
            continue
        r = prs_make(rand_tt(rng, f, 4, 5), den)
        if r.den.degree(1) < 1:
            continue
        for order in (1, 5, 12):
            assert sjet_from_ratfunc(r, order) == generic_sjet(r, order), (r, order)
        # a fraction in theta alone is its own expansion
        r_theta = r.eval_t_at_theta()
        assert sjet_from_ratfunc(r_theta, 5) == generic_sjet(r_theta, 5)
        checked += 1


@pytest.mark.parametrize("q,l,order", [(2, 3, 8), (2, 4, 12), (3, 2, 9), (3, 3, 12),
                                       (9, 1, 9)])
def test_sjet_from_ratfunc_matches_generic_route_on_eta(q, l, order):
    # the denominator L_l is free of t: its Taylor jet is (L_l, 0, ..., 0)
    r = eta_rat(field_new(*FIELDS[q]), l)
    assert r.den.degree(1) == 0
    assert sjet_from_ratfunc(r, order) == generic_sjet(r, order)


@pytest.mark.parametrize("order", [4, 7, 11])
def test_sjet_from_ratfunc_product_count(monkeypatch, order):
    # the recurrence at jet order m = order - 1 on Taylor jets with no zero
    # coefficient: the same m(m+1)/2 + 3m - 1 products as on polynomial jets
    f = field_new(5)
    rng = random.Random(order)
    r = prs_make(rand_tt(rng, f, 14, 30), rand_tt(rng, f, 14, 30))
    for g in (r.num, r.den):
        assert not any(c.is_zero() for c in taylor_shift(g, order).coeffs)
    m = order - 1
    products = count_products(monkeypatch, sjet_from_ratfunc, r, order)
    assert products == m * (m + 1) // 2 + 3 * m - 1
    assert not any(c.is_zero() for c in sjet_from_ratfunc(r, order).coeffs)


# -- b_j ---------------------------------------------------------------------------

def _rat(f, num, den):
    return RatFunc(Poly(f, VARS_TT, num), Poly(f, VARS_TT, den))


# frozen from the two-pass inverse-jet recurrence: {(q, j): (num, den)}
B_FROZEN = {
    (2, 2): ({(0, 0): 1}, {(0, 1): 1, (2, 0): 1}),
    (2, 4): ({(0, 1): 1, (0, 2): 1},
             {(0, 3): 1, (4, 1): 1, (4, 2): 1, (8, 0): 1}),
    (2, 8): ({(0, 3): 1, (0, 4): 1, (0, 5): 1, (0, 6): 1, (4, 2): 1, (4, 3): 1,
              (8, 1): 1, (8, 3): 1, (12, 1): 1, (12, 2): 1},
             {(0, 7): 1, (8, 3): 1, (8, 5): 1, (8, 6): 1, (16, 1): 1, (16, 2): 1,
              (16, 4): 1, (24, 0): 1}),
    (3, 3): ({(0, 0): 2}, {(0, 1): 2, (3, 0): 1}),
    (3, 6): ({(0, 0): 1}, {(0, 2): 1, (3, 1): 1, (6, 0): 1}),
    (3, 9): ({(0, 1): 1, (0, 3): 1, (9, 0): 1},
             {(0, 4): 1, (9, 1): 2, (9, 3): 2, (18, 0): 1}),
    (3, 12): ({(0, 1): 2, (0, 3): 2, (9, 0): 2},
              {(0, 5): 2, (3, 4): 1, (9, 2): 1, (9, 4): 1, (12, 1): 2, (12, 3): 2,
               (18, 1): 2, (21, 0): 1}),
}


@pytest.mark.parametrize("q", [2, 3])
def test_b_rat_frozen_values(q):
    f = field_new(q)
    for j in range(2 * q + 1):
        if (q, j) not in B_FROZEN and j != 0:
            assert b_rat(f, j).is_zero(), j
    assert b_rat(f, 0) == RatFunc.one(f, VARS_TT)
    for (fq, j), (num, den) in B_FROZEN.items():
        if fq == q:
            assert b_rat(f, j) == _rat(f, num, den), j


# the largest j per q at which the recurrence stays near a second; past q^l
# its bivariate theta-jet of curlyL_l grows with j
B_RECURRENCE_JMAX = {2: 19, 3: 30, 4: 36, 5: 40, 7: 49, 8: 48, 9: 54}


@pytest.mark.parametrize("q", sorted(B_RECURRENCE_JMAX))
def test_b_rat_matches_the_recurrence(q):
    f = field_new(*FIELDS[q])
    for j in range(B_RECURRENCE_JMAX[q] + 1):
        want = b_rat_by_recurrence(f, j)
        assert b_rat(f, j) == want, j
        assert repr(b_rat(f, j)) == repr(want), j


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_b_rat_vanishes_off_the_multiples_of_q(q):
    # every bracket series is in X^{q^i}, i >= 1; in this range b_j is
    # nonzero at each multiple of q, so the zeros are not vacuous
    f = field_new(*FIELDS[q])
    for j in range(1, 4 * q * q + 1):
        assert b_rat(f, j).is_zero() == (j % q != 0), j


@pytest.mark.parametrize("q", [2, 3])
def test_b_transfer_cells_pass_past_2q(monkeypatch, q):
    # d^j(Omega^-1) = b_j * Omega^-1 ties the bracket product to Omega far
    # past 2q, through q^2 and beyond; a faulted b_j fails its cell alone
    f = field_new(q)
    jmax = 6 * q
    ctx = CarlitzCtx(f, uprec=60, jet_order=jmax)
    report = verify_suite(ctx, "b_transfer", jmax=jmax)
    assert report.all_passed
    assert sum(c.identity == "b_transfer" for c in report.cells) == jmax + 1
    real = carlitz.b_rat

    def bumped(field, j):
        # b_j + 1, canonical as gcd(num + den, den) = gcd(num, den) = 1
        b = real(field, j)
        return RatFunc(b.num + b.den, b.den) if j == jmax else b

    monkeypatch.setattr(carlitz, "b_rat", bumped)
    failed = verify_suite(ctx, "b_transfer", jmax=jmax).failures()
    assert [c.params for c in failed] == [{"j": jmax}]


# -- at_poly against the unreduced-fraction recursion --------------------------------

def fraction_at_poly(field, n: int, memo: dict) -> tuple[Poly, Poly]:
    """alpha_n/Gamma_n kept as one unreduced fraction, cleared at the end."""
    if n == 1:
        return Poly.one(field, VARS_TT), Poly.one(field, VARS_T)
    q = field.q
    num = Poly.zero(field, VARS_TT)
    den = Poly.one(field, VARS_T)
    j = 0
    while q ** j <= n - 1:
        a_prev, g_prev = memo[n - q ** j]
        t_num = gamma_poly(field, j) * a_prev
        t_den = D_poly(field, j) * g_prev
        num = num * t_den.lift_tt() + t_num * den.lift_tt()
        den = den * t_den
        j += 1
    gam = Gamma_poly(field, n)
    return poly_divexact(num * gam.lift_tt(), den.lift_tt()), gam


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_at_poly_matches_fraction_recursion(q):
    f = field_new(*FIELDS[q])
    memo = {}
    for n in range(1, (40 if q == 2 else 30) + 1):
        memo[n] = fraction_at_poly(f, n, memo)
        assert at_poly(f, n) == memo[n], n


def test_at_poly_integrality_check_fires(monkeypatch):
    # a wrong factorial leaves some cofactor Gamma_n / (D_j Gamma_{n-q^j})
    # non-polynomial, and its exact division must raise
    f = field_new(2)
    real = carlitz.Gamma_poly
    at_poly.cache_clear()
    monkeypatch.setattr(carlitz, "Gamma_poly", lambda field, m: real(field, m) + 1)
    try:
        with pytest.raises(ConstraintViolated):
            at_poly(f, 5)
    finally:
        at_poly.cache_clear()
