"""Period objects, transfer coefficients, factorial combinatorics, routes."""

import math
import random
import sys
import time

import pytest

from conftest import force_b1_to_one, oracle_pitilde_prefix
from oracles import (
    b_theta_jet,
    compose_substitute,
    eta_inv_pow_sjet,
    fraction_jet,
    lagrange_factorwise,
    lagrange_sides,
    prs_make,
    raw_jet_gap,
    sjet_from_ratfunc,
    to_rho_matrix,
)

from carlitzhd import (
    CarlitzCtx,
    ConstraintViolated,
    Gamma_poly,
    D_poly,
    InsufficientL,
    Jet,
    L_poly,
    PeriodCoords,
    Poly,
    PrecisionExhausted,
    RatFunc,
    SJet,
    TPoly,
    USeries,
    VARS_TT,
    at_poly,
    b_rat,
    carlitz_combinatorics,
    curlyL_poly,
    dtheta_pitilde,
    eta_rat,
    eta_sjet,
    field_new,
    gamma_poly,
    minimal_l,
    omega_theta_eval_jet,
    omega_tpoly,
    pitilde,
    useries_agree,
    verify_lagrange,
    verify_suite,
    z_via_at,
    z_via_eta,
    z_via_omega,
)
from carlitzhd import rings
from carlitzhd import carlitz
from carlitzhd.carlitz import (
    _b_rats,
    _bracket_theta_jet,
    _coords_from_jet,
    _inverse_power,
    _lagrange_tuples,
    _least_cutoff,
    _period_power_jet,
)
from carlitzhd.jets import d_t_jet, d_theta_jet
from carlitzhd.useries import d_theta_useries

# Leading u-coefficients of the period starting at u^{-q}, computed with an
# independent dense-series implementation of the defining product and frozen.
PITILDE_PREFIX = {
    2: [1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1],
    3: [2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
    5: [4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0],
}


# -- context -------------------------------------------------------------------

def test_ctx_auto_cutoff_satisfies_truncation_bound():
    for q, e in ((2, 1), (3, 1), (2, 2), (5, 1)):
        f = field_new(q, e)
        for m in (0, 2, 5):
            ctx = CarlitzCtx(f, uprec=80, jet_order=m)
            J = ctx.cutoff
            assert (f.q - 1) * (f.q ** (J + 1) - 1) > 80 + m * (f.q - 1) * f.q


def test_ctx_explicit_cutoff_too_small_raises():
    f = field_new(2)
    with pytest.raises(PrecisionExhausted):
        CarlitzCtx(f, uprec=60, jet_order=0, cutoff=2)


@pytest.mark.parametrize("p, e, top", [(2, 1, 64), (3, 1, 41), (2, 2, 32), (257, 1, 8)])
def test_ctx_explicit_cutoff_past_64_bits_refused(p, e, top):
    # top is the least J with q^J >= 2^64; past it every factor lies above
    # any 64-bit precision
    f = field_new(p, e)
    assert f.q ** (top - 1) < 2 ** 64 <= f.q ** top
    assert CarlitzCtx(f, uprec=5, cutoff=top).cutoff == top
    for cutoff in (top + 1, 20000, 10 ** 6):
        with pytest.raises(ConstraintViolated):
            CarlitzCtx(f, uprec=5, cutoff=cutoff)


def test_ctx_replace_and_equality():
    f = field_new(3)
    ctx = CarlitzCtx(f, uprec=50, jet_order=2)
    deeper = ctx.replace(uprec=70)
    assert deeper.uprec == 70 and deeper.jet_order == 2
    assert ctx == CarlitzCtx(f, uprec=50, jet_order=2)
    assert hash(ctx) == hash(CarlitzCtx(f, uprec=50, jet_order=2))
    assert ctx != deeper
    assert ctx.q == 3


def test_ctx_validation():
    f = field_new(2)
    with pytest.raises(ConstraintViolated):
        CarlitzCtx(f, uprec=0)
    with pytest.raises(ConstraintViolated):
        CarlitzCtx(f, uprec=40, jet_order=-1)


# -- the period ----------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 5])
def test_pitilde_frozen_prefix(q):
    f = field_new(q)
    pt = pitilde(CarlitzCtx(f, uprec=40))
    assert pt.valuation() == -q
    got = [pt.coeff(e).idx for e in range(-q, -q + 24)]
    assert got == PITILDE_PREFIX[q]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_pitilde_matches_dict_series_oracle(q):
    nterms = 200
    pt = pitilde(CarlitzCtx(field_new(q), uprec=nterms - q))
    got = [pt.coeff(e).idx for e in range(-q, nterms - q)]
    assert got == oracle_pitilde_prefix(q, nterms)
    assert got[:24] == PITILDE_PREFIX[q]


def test_pitilde_attains_requested_precision():
    for q in (2, 3):
        f = field_new(q)
        for uprec in (30, 60, 90):
            ctx = CarlitzCtx(f, uprec=uprec)
            assert pitilde(ctx).abs_prec >= uprec


def test_pitilde_is_cached_per_context():
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=40)
    assert pitilde(ctx) is pitilde(CarlitzCtx(f, uprec=40))


def test_pitilde_deeper_context_agrees_on_overlap():
    f = field_new(3)
    a = pitilde(CarlitzCtx(f, uprec=40))
    b = pitilde(CarlitzCtx(f, uprec=80))
    assert useries_agree(a, b)
    assert b.abs_prec > a.abs_prec


def test_omega_at_theta_times_pitilde_is_minus_one():
    for q, e in ((2, 1), (3, 1), (2, 2)):
        f = field_new(q, e)
        ctx = CarlitzCtx(f, uprec=50)
        om = omega_theta_eval_jet(ctx, 0)[0]
        assert useries_agree(om * pitilde(ctx), USeries.const(f, -1))


def test_omega_tpoly_has_unit_scaled_constant_term():
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=40)
    om = omega_tpoly(ctx)
    assert om.coeff(0) == USeries.monomial(f, 2)  # lambda^{-q} = u^q leads
    assert om.tdegree() == ctx.cutoff  # one t per product factor


# -- factorial combinatorics -----------------------------------------------------

def test_combinatorics_frozen_values():
    f2, f3 = field_new(2), field_new(3)
    assert D_poly(f2, 1) == Poly.from_items(f2, [((2,), 1), ((1,), 1)])
    assert Gamma_poly(f2, 2) == Poly.from_items(f2, [((2,), 1), ((1,), 1)])
    assert Gamma_poly(f2, 3) == Poly.from_items(f2, [((2,), 1), ((1,), 1)])
    assert Gamma_poly(f2, 4) == Poly.from_items(
        f2, [((8,), 1), ((6,), 1), ((5,), 1), ((3,), 1)])
    assert Gamma_poly(f3, 3) == Poly.from_items(f3, [((3,), 1), ((1,), 2)])
    for f in (f2, f3):
        assert D_poly(f, 0) == Poly.one(f)
        assert L_poly(f, 0) == Poly.one(f)
        assert gamma_poly(f, 0) == Poly.one(f, VARS_TT)
        q = f.q
        assert gamma_poly(f, 1) == (Poly.monomial(f, (q, 0), vars=VARS_TT)
                                    - Poly.monomial(f, (0, q), vars=VARS_TT))
        for m in range(1, q):
            assert Gamma_poly(f, m) == Poly.one(f)  # single digit m, D_0^m = 1


def test_combinatorics_recursions():
    for q in (2, 3):
        f = field_new(q)
        for m in range(1, 4):
            front = Poly.monomial(f, (q ** m,)) - Poly.monomial(f, (1,))
            assert D_poly(f, m) == front * D_poly(f, m - 1) ** q
            assert L_poly(f, m) == front * L_poly(f, m - 1)
        for l in range(1, 4):
            assert curlyL_poly(f, l) == curlyL_poly(f, l - 1) * (
                Poly.monomial(f, (q ** l, 0), vars=VARS_TT)
                - Poly.monomial(f, (0, 1), vars=VARS_TT))


def test_combinatorics_dispatcher():
    f = field_new(3)
    assert carlitz_combinatorics(f, "D", 2) == D_poly(f, 2)
    assert carlitz_combinatorics(f, "Gamma", 5) == Gamma_poly(f, 5)
    assert carlitz_combinatorics(f, "gamma", 1) == gamma_poly(f, 1)
    assert carlitz_combinatorics(f, "L", 2) == L_poly(f, 2)
    assert carlitz_combinatorics(f, "curlyL", 2) == curlyL_poly(f, 2)
    with pytest.raises(ConstraintViolated):
        carlitz_combinatorics(f, "unknown", 1)


def test_factorial_carries_across_digit_boundary():
    # Gamma_{q^2} = D_2 and Gamma_{q^2 - 1} = prod over lower digits
    for q in (2, 3):
        f = field_new(q)
        assert Gamma_poly(f, q ** 2) == D_poly(f, 2)
        assert Gamma_poly(f, q ** 2 - 1) == (D_poly(f, 0) ** (q - 1)
                                             * D_poly(f, 1) ** (q - 1))


# -- transfer coefficients ---------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_b_small_indices_frozen(q):
    f = field_new(q)
    assert b_rat(f, 0) == RatFunc.one(f, VARS_TT)
    for j in range(1, q):
        assert b_rat(f, j).is_zero()
    want = prs_make(
        Poly.const(f, -1, VARS_TT),
        Poly.monomial(f, (q, 0), vars=VARS_TT) - Poly.monomial(f, (0, 1), vars=VARS_TT))
    assert b_rat(f, q) == want


def test_b_negative_index_rejected():
    with pytest.raises(ConstraintViolated):
        b_rat(field_new(2), -1)


def bivariate_compose_substitute(fjet):
    """Total substitution by the bivariate route: the t-jet of each
    coefficient as fractions in theta and t (fraction_jet), each then
    substituted with RatFunc.eval_t_at_theta."""
    order = fjet.order
    out = [RatFunc.zero(fjet[0].field) for _ in range(order + 1)]
    for j in range(order + 1):
        inner = fraction_jet(fjet[j], 1, order - j)
        for i in range(order - j + 1):
            term = inner[i].eval_t_at_theta()
            if not term.is_zero():
                out[i + j] = out[i + j] + term
    return Jet(out)


@pytest.mark.parametrize("q,order", [(2, 4), (3, 3), (4, 3)])
def test_b_substituted_jet_matches_generic_rule(q, order):
    # the transfer jet substituted at t = theta agrees with the bivariate
    # route on the jet of transfer coefficients, and the bracket rule at
    # npow = -1, which the span route runs, equals it in K
    f = field_new(*{4: (2, 2)}.get(q, (q,)))
    bjet = Jet([b_rat(f, j) for j in range(order + 1)])
    assert Jet(_b_rats(f, 0, order)) == bjet
    want = bivariate_compose_substitute(bjet)
    assert compose_substitute(bjet) == want
    assert raw_jet_gap(_bracket_theta_jet(f, -1, order), want) is None


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_compose_substitute_matches_the_bivariate_route(p, e):
    f = field_new(p, e)
    q = f.q
    rng = random.Random(1729 + q)

    def rand_poly_tt(deg, terms):
        return Poly.from_items(f, [((rng.randrange(deg + 1), rng.randrange(deg + 1)),
                                    f.from_index(rng.randrange(q)))
                                   for _ in range(terms)], VARS_TT)

    def rand_coeff():
        num = rand_poly_tt(3, 3)
        if rng.random() < 0.25:
            return num  # a Poly coefficient
        while True:
            den = rand_poly_tt(2, 3)
            if not den.is_zero() and not den.eval_t_at_theta().is_zero():
                return prs_make(num, den)

    for _ in range(12):
        order = rng.randrange(5)
        fjet = Jet([rand_coeff() for _ in range(order + 1)])
        for k in range(order + 1):
            sub = fjet.truncated(k)
            assert compose_substitute(sub) == bivariate_compose_substitute(sub)


def test_compose_substitute_runs_no_gcd():
    # the bivariate gcd refuses, and the total substitution of the b jet
    # still equals the bivariate route's, which runs the reference gcd
    f = field_new(3)
    bjet = Jet([b_rat(f, j) for j in range(8)])
    with pytest.raises(ConstraintViolated):
        rings.poly_gcd(bjet[3].num, bjet[3].den)
    assert compose_substitute(bjet) == bivariate_compose_substitute(bjet)


def test_src_builds_no_bivariate_fraction_jet(monkeypatch):
    # a fraction's jet is taken only at t = theta, from the polynomial jets
    # of its numerator and denominator: d_theta_jet and d_t_jet refuse a
    # fraction, and neither a passing suite nor a route forms a fraction
    # through RatFunc.make, in F_q[theta, t] or in F_q[theta]
    f3 = field_new(3)
    r = RatFunc(Poly.one(f3, VARS_TT), Poly.monomial(f3, (1, 1), vars=VARS_TT))
    for jet_of in (d_theta_jet, d_t_jet):
        with pytest.raises(ConstraintViolated):
            jet_of(r, 2)

    made = {1: 0, 2: 0}
    real = RatFunc.make.__func__

    def counting(cls, num, den):
        made[len(num.vars)] += 1
        return real(cls, num, den)

    caches = [g for g in vars(carlitz).values() if hasattr(g, "cache_clear")]
    monkeypatch.setattr(RatFunc, "make", classmethod(counting))
    for f in (field_new(2), field_new(3), field_new(2, 2), field_new(3, 2)):
        for g in caches:  # a value cached before the count would hide its calls
            g.cache_clear()
        ctx = CarlitzCtx(f, uprec=60, jet_order=4)
        assert verify_suite(ctx, "all").all_passed
        for n in range(1, 7):
            z_via_omega(ctx, n)
            z_via_at(ctx, n)
            z_via_eta(ctx, n, minimal_l(f.q, n))
    assert made == {1: 0, 2: 0}
    RatFunc.make(Poly.one(f3), Poly.monomial(f3, (1,)))  # the count is live
    assert made == {1: 1, 2: 0}


def search_least_cutoff(q, need, least):
    """The search loop: step J up from least until the bound clears need."""
    cutoff = least
    while (q - 1) * (q ** (cutoff + 1) - 1) <= need:
        cutoff += 1
    return cutoff


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 257])
def test_least_cutoff_matches_the_search_loop(q):
    for need in range(10 ** 5 + 1):
        assert _least_cutoff(q, need, 1) == search_least_cutoff(q, need, 1), need
    for least in (2, 3, 5, 9):
        for need in range(0, 10 ** 5 + 1, 97):
            assert _least_cutoff(q, need, least) == search_least_cutoff(q, need, least)


# -- eta -----------------------------------------------------------------------

def test_eta_rat_is_one_at_t_theta():
    for q in (2, 3):
        f = field_new(q)
        for l in range(4):
            assert eta_rat(f, l).eval_t_at_theta() == RatFunc.one(f)


def test_eta_rat_recursion():
    f = field_new(3)
    for l in range(1, 4):
        factor = prs_make(
            Poly.monomial(f, (0, 3 ** l), vars=VARS_TT)
            - Poly.monomial(f, (1, 0), vars=VARS_TT),
            Poly.monomial(f, (3 ** l, 0), vars=VARS_TT)
            - Poly.monomial(f, (1, 0), vars=VARS_TT))
        assert eta_rat(f, l) == factor * eta_rat(f, l - 1)


@pytest.mark.parametrize("q,e,lmax", [(2, 1, 4), (3, 1, 2), (2, 2, 2), (5, 1, 1),
                                       (3, 2, 1)])
def test_eta_rat_is_the_reduced_fraction(q, e, lmax):
    # eta_rat builds its fraction without a gcd; the reference make reduces
    # the same pair and must find nothing to cancel
    from carlitzhd.carlitz import _eta_num

    f = field_new(q, e)
    for l in range(lmax + 1):
        got = eta_rat(f, l)
        want = prs_make(_eta_num(f, l), L_poly(f, l).lift_tt())
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)


def test_eta_rat_refuses_numerators_above_the_t_degree_bound(monkeypatch):
    from carlitzhd import carlitz

    def no_products(*args):
        raise AssertionError("a product was formed before the bound check")

    # (q, l) = (2, 6), numerator t-degree 126, stays accepted
    assert sum(2 ** m for m in range(1, 7)) <= carlitz.ETA_MAX_T_DEGREE
    monkeypatch.setattr(carlitz, "_eta_num", no_products)
    for q, l in ((2, 7), (3, 5), (9, 3), (3, 40), (2, 10 ** 9)):
        assert sum(q ** m for m in range(1, min(l, 8) + 1)) > carlitz.ETA_MAX_T_DEGREE
        start = time.perf_counter()
        with pytest.raises(ConstraintViolated, match="t-degree"):
            eta_rat(field_new(*{2: (2,), 3: (3,), 9: (3, 2)}[q]), l)
        assert time.perf_counter() - start < 1
    # the s-expansion keeps its range: only factors below s^M are formed
    assert eta_sjet(field_new(3), 40, 4) == eta_sjet(field_new(3), 2, 4)


@pytest.mark.parametrize("q", [2, 3])
def test_eta_sjet_leading_terms_frozen(q):
    f = field_new(q)
    s = eta_sjet(f, 2, q + 1)
    assert s.coeffs[0] == RatFunc.one(f)
    assert all(c.is_zero() for c in s.coeffs[1:q])
    assert s.coeffs[q] == RatFunc.make(
        Poly.one(f), Poly.monomial(f, (q,)) - Poly.monomial(f, (1,)))


def test_eta_sjet_requires_enough_factors():
    f = field_new(2)
    with pytest.raises(InsufficientL):
        eta_sjet(f, 1, 3)  # q^1 = 2 < 3


def test_eta_sjet_matches_rational_expansion():
    for q in (2, 3):
        f = field_new(q)
        M = q + 2
        l = 2
        assert eta_sjet(f, l, M) == sjet_from_ratfunc(eta_rat(f, l), M)


VERIFY_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


@pytest.mark.parametrize("q", sorted(VERIFY_FIELDS))
def test_eta_inverse_power_needs_no_factor_past_the_s_order(q):
    # eta_{l+1}^{-n} = eta_l^{-n} mod s^{n+1} for l the least with q^l > n:
    # the factor m = l + 1 is 1 + s^{q^{l+1}}/[l+1].  So the eta_inv_alpha
    # cells compare eta_l alone.  Both sides here expand the exact fraction.
    f = field_new(*VERIFY_FIELDS[q])
    for n in range(1, 7):
        M = n + 1
        l = carlitz._pow_at_least(q, M)
        want = eta_inv_pow_sjet(f, l, M, n)
        assert SJet(f, carlitz._fractions(*carlitz._eta_inv_pow_num(f, l, M, n), M)) == want
        for deeper in (l, l + 1):
            assert sjet_from_ratfunc(eta_rat(f, deeper) ** -n, M) == want


# -- the polynomials alpha_n ---------------------------------------------------------

def test_at_poly_frozen_values():
    f2, f3 = field_new(2), field_new(3)
    a, g = at_poly(f2, 2)
    assert a == Poly.from_items(f2, [((2, 0), 1), ((1, 0), 1)], VARS_TT)
    assert g == Gamma_poly(f2, 2)
    a, g = at_poly(f2, 3)
    assert a == Poly.from_items(f2, [((0, 2), 1), ((1, 0), 1)], VARS_TT)
    assert g == Gamma_poly(f2, 3)
    a, g = at_poly(f3, 3)
    assert a == Poly.from_items(f3, [((3, 0), 1), ((1, 0), 2)], VARS_TT)
    assert g == Gamma_poly(f3, 3)
    a, g = at_poly(f3, 4)
    assert a == Poly.from_items(
        f3, [((3, 0), 2), ((1, 0), 2), ((0, 3), 2)], VARS_TT)
    assert g == Gamma_poly(f3, 4) == D_poly(f3, 1)  # 4 = 1 + 1*3


def test_at_poly_base_cases():
    for q in (2, 3, 5):
        f = field_new(q)
        for n in range(1, q + 1):
            a, g = at_poly(f, n)
            # below the first digit boundary the ratio alpha/Gamma is 1
            assert a == g.lift_tt()


def test_at_poly_elementary_properties():
    for q in (2, 3):
        f = field_new(q)
        for n in range(1, 9):
            a, g = at_poly(f, n)
            # substituting t = theta recovers the factorial
            assert a.eval_t_at_theta() == g
            assert g == Gamma_poly(f, n)


def test_at_poly_rejects_nonpositive():
    with pytest.raises(ConstraintViolated):
        at_poly(field_new(2), 0)


@pytest.mark.parametrize("which,kw", [
    ((), {}),
    ("eta_quotient", {"lmax": -1}),
    ("omega", {"t_terms": 0}),
    ("b_transfer", {"t_terms": -3}),
    ("b_transfer", {"jmax": 0}),
    ("eta_sum", {"sum_order": 1}),
])
def test_verify_suite_rejects_vacuous_ranges(which, kw):
    ctx = CarlitzCtx(field_new(2), uprec=20, jet_order=2)
    with pytest.raises(ConstraintViolated):
        verify_suite(ctx, which, **kw)


def test_at_poly_call_depth_does_not_grow_with_n():
    # a recursion one frame per index would need about 120 frames here
    f = field_new(7)
    at_poly.cache_clear()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        alpha, gam = at_poly(f, 120)
    finally:
        sys.setrecursionlimit(limit)
    assert alpha.eval_t_at_theta() == gam == Gamma_poly(f, 120)
    assert at_poly.cache_info().currsize == 120


# -- coordinate routes ----------------------------------------------------------------

def test_minimal_l_values():
    assert minimal_l(2, 1) == 1
    assert minimal_l(2, 2) == 1
    assert minimal_l(2, 3) == 2
    assert minimal_l(2, 4) == 2
    assert minimal_l(2, 5) == 3
    assert minimal_l(3, 9) == 2
    assert minimal_l(3, 10) == 3
    assert minimal_l(5, 1) == 1
    with pytest.raises(ConstraintViolated):
        minimal_l(2, 0)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_routes_agree_small(q, n):
    f = field_new(q)
    ctx = CarlitzCtx(f, uprec=60, jet_order=n - 1)
    zo = z_via_omega(ctx, n)
    ze = z_via_eta(ctx, n, minimal_l(q, n))
    za = z_via_at(ctx, n)
    assert zo.z == ze.z == za.z
    assert (zo.route, ze.route, za.route) == ("omega", "eta", "at")
    pt = pitilde(ctx)
    assert useries_agree(zo.z[0] if n == 1 else zo.z[n - 1], pt ** n)
    assert useries_agree(zo.z[0], pt if n == 1 else zo.z[0])


def test_route_coordinates_have_requested_precision():
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=64, jet_order=2)
    for zc in z_via_omega(ctx, 3).z:
        assert zc.abs_prec == 64


def test_eta_route_depth_validation():
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=50, jet_order=2)
    with pytest.raises(ConstraintViolated):
        z_via_eta(ctx, 3, 1)  # q^1 = 2 < 3
    with pytest.raises(ConstraintViolated):
        z_via_eta(ctx, 3, 0)


def _clear_carlitz_caches():
    for g in vars(carlitz).values():
        if hasattr(g, "cache_clear"):
            g.cache_clear()


def test_eta_route_refuses_a_shallow_depth_before_any_cache():
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=50, jet_order=2)
    _clear_carlitz_caches()
    with pytest.raises(ConstraintViolated):
        z_via_eta(ctx, 3, 1)
    touched = {name: g.cache_info() for name, g in vars(carlitz).items()
               if hasattr(g, "cache_info")}
    assert all(i.hits == i.misses == 0 for i in touched.values()), touched


@pytest.mark.parametrize("q,n", [(2, 4), (3, 6), (4, 4)])
def test_suite_computes_each_route_value_once(q, n, monkeypatch):
    # one verify run computes z_via_omega's coordinates once, the eta
    # route's product once (the span combination shares it), Omega's
    # t-inverse once, and each b_j denominator's t-inverse once, however many
    # cells read them
    f = field_new(*{4: (2, 2)}.get(q, (q,)))
    ctx = CarlitzCtx(f, uprec=40, jet_order=n)
    omega_powers, products, inverses = [], [], []
    real_power, real_times = carlitz._inverse_power, carlitz._times_period_power
    real_inverse = TPoly.inverse_tseries
    monkeypatch.setattr(carlitz, "_inverse_power",
                        lambda field, jet_at, m: omega_powers.append(m)
                        or real_power(field, jet_at, m))
    monkeypatch.setattr(carlitz, "_times_period_power",
                        lambda c, kjet, m: products.append(kjet) or real_times(c, kjet, m))
    monkeypatch.setattr(TPoly, "inverse_tseries",
                        lambda x, k: inverses.append((x, k)) or real_inverse(x, k))
    _clear_carlitz_caches()
    assert verify_suite(ctx, "all").all_passed
    eta_kjet = _bracket_theta_jet(f, n, n - 1)
    assert omega_powers == [n]
    assert sum(k is eta_kjet for k in products) == 1
    assert len(products) == 2  # and the AT route's
    t_terms = ctx.cutoff + 1
    assert sum(x is omega_tpoly(ctx) for x, _ in inverses) == 1
    assert (omega_tpoly(ctx), t_terms) in inverses
    # the inverses are kept alive in the list, so no two share an id
    assert len({(id(x), k) for x, k in inverses}) == len(inverses)


def test_two_suite_runs_on_one_context_agree():
    ctx = CarlitzCtx(field_new(3), uprec=40, jet_order=4)
    _clear_carlitz_caches()
    cold = verify_suite(ctx, "all").to_dict()
    shared = (carlitz._z_omega, carlitz._eta_jet, carlitz._omega_inverse,
              carlitz._tseries)
    misses = [g.cache_info().misses for g in shared]
    assert verify_suite(ctx, "all").to_dict() == cold
    # the second run reads every shared value from the first
    assert [g.cache_info().misses for g in shared] == misses


@pytest.mark.parametrize("q,n", [(2, 3), (3, 5), (4, 9)])
def test_eta_route_depth_is_capped_one_past_the_least(q, n, monkeypatch):
    # factor m of eta_{l-1}(theta + X, theta) is 1 mod X^{q^m}, so every
    # depth from l_min on gives the same coordinates; the route reads no
    # factor past the least depth, whatever l is: its one K-jet is the
    # bracket rule over the q^m <= n - 1
    f = field_new(*{4: (2, 2)}.get(q, (q,)))
    ctx = CarlitzCtx(f, uprec=30, jet_order=n - 1)
    carlitz._eta_jet.cache_clear()  # a product cached earlier reads no K-jet
    calls, real = [], carlitz._bracket_theta_jet
    monkeypatch.setattr(carlitz, "_bracket_theta_jet",
                        lambda *args: calls.append(args) or real(*args))
    coords = [z_via_eta(ctx, n, l).z for l in range(minimal_l(q, n), minimal_l(q, n) + 5)]
    assert set(calls) == {(f, n, n - 1)}
    assert all(z == coords[0] for z in coords)


def test_routes_reject_nonpositive_power():
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=40)
    for fn in (z_via_omega, z_via_at):
        with pytest.raises(ConstraintViolated):
            fn(ctx, 0)


def test_period_coords_container():
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=50, jet_order=1)
    pc = z_via_omega(ctx, 2)
    assert pc.n == 2 and len(pc.z) == 2
    j = pc.jet()
    assert j[0] == pc.z[1] and j[1] == pc.z[0]
    m = to_rho_matrix(pc.jet())
    assert m.size == 2 and m.is_upper_toeplitz()
    with pytest.raises(ConstraintViolated):
        PeriodCoords(2, pc.z, "teleport")
    with pytest.raises(ConstraintViolated):
        PeriodCoords(3, pc.z, "omega")


@pytest.mark.parametrize("q,n", [(2, 2), (2, 4), (3, 3), (5, 4)])
def test_dtheta_pitilde_direct_equals_span(q, n):
    f = field_new(q)
    ctx = CarlitzCtx(f, uprec=50, jet_order=n)
    a = dtheta_pitilde(ctx, n, route="direct")
    b = dtheta_pitilde(ctx, n, route="span")
    assert all(useries_agree(x, y) for x, y in zip(a.coeffs, b.coeffs))


def test_dtheta_pitilde_rejects_unknown_route():
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=40, jet_order=1)
    with pytest.raises(ConstraintViolated):
        dtheta_pitilde(ctx, 1, route="sideways")


# -- Frobenius lifts of the u-series jets -----------------------------------------------
#
# For n = p^v m the theta-jet of period^n and the inverse n-th power of a jet
# read only order (n - 1) // p^v; each must equal its full-order computation,
# abs_prec included.

LIFT_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}
LIFT_EXTRA = {2: (24, 64), 3: (27,)}
# the full-order inverse is slow at q = 8, 9 for n near q^2, so there
# only multiples of q are checked
OMEGA_NS = {q: range(1, q * q + 2) for q in (2, 3, 4, 5)} | {8: (8, 16, 24), 9: (9, 18, 27)}


def _lift_ctx(q, n, uprec=12):
    return CarlitzCtx(field_new(*LIFT_FIELDS[q]), uprec=uprec, jet_order=n)


@pytest.mark.parametrize("q", sorted(LIFT_FIELDS))
def test_period_power_jet_equals_the_full_order_jet(q):
    for n in [*range(1, q * q + 2), *LIFT_EXTRA.get(q, ())]:
        ctx = _lift_ctx(q, n)
        for order in {0, n - 1}:
            assert (_period_power_jet(ctx, n, order)
                    == d_theta_useries(pitilde(ctx) ** n, order)), (q, n, order)


@pytest.mark.parametrize("q,n", [(2, 24), (3, 27), (2, 64)])
def test_period_power_jet_at_working_precision(q, n):
    ctx = _lift_ctx(q, n, uprec=80)
    assert (_period_power_jet(ctx, n, n - 1)
            == d_theta_useries(pitilde(ctx) ** n, n - 1))


@pytest.mark.parametrize("q,n,order,read", [
    (2, 8, 7, 0),    # n = p^v: only the period's own value is differentiated
    (4, 16, 15, 0),
    (3, 9, 4, 0),    # p^v > order
    (2, 24, 23, 2),  # 24 = 2^3 * 3
    (3, 27, 26, 0),
    (9, 18, 17, 1),  # p = 3, 18 = 3^2 * 2
    (2, 6, 0, 0),    # order 0
    (3, 4, 3, 3),    # p does not divide n: the full order, as before
    (5, 4, 3, 3),
])
def test_period_power_jet_reads_order_n_over_p_v(monkeypatch, q, n, order, read):
    ctx = _lift_ctx(q, n)
    want = d_theta_useries(pitilde(ctx) ** n, order)
    seen = []

    def recording(f, k):
        seen.append(k)
        return d_theta_useries(f, k)

    monkeypatch.setattr(carlitz, "d_theta_useries", recording)
    _period_power_jet.cache_clear()
    try:
        assert _period_power_jet(ctx, n, order) == want
    finally:
        _period_power_jet.cache_clear()
    assert seen == [read]


def _omega_full_order(ctx, n):
    """The transfer route as it read before the lift: invert the whole jet."""
    zjet = (omega_theta_eval_jet(ctx, n - 1) ** (-n)).scale(ctx.field.elem(-1) ** n)
    return _coords_from_jet(ctx, zjet, "omega")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_z_via_omega_equals_the_full_order_inverse(q):
    for n in [*OMEGA_NS[q], *LIFT_EXTRA.get(q, ())]:
        ctx = _lift_ctx(q, n)
        assert z_via_omega(ctx, n) == _omega_full_order(ctx, n), (q, n)


@pytest.mark.parametrize("q,n,read", [(2, 8, 0), (2, 24, 2), (3, 27, 0), (3, 4, 3),
                                      (4, 12, 2), (5, 1, 0)])
def test_inverse_power_inverts_only_order_n_over_p_v(q, n, read):
    ctx = _lift_ctx(q, n)
    seen = []

    def jet_at(k):
        seen.append(k)
        return omega_theta_eval_jet(ctx, k)

    got = _inverse_power(ctx.field, jet_at, n)
    assert got == omega_theta_eval_jet(ctx, n - 1) ** (-n)
    assert seen == [read]


@pytest.mark.parametrize("q,ns", [(2, range(1, 17)), (3, range(1, 19)),
                                  (4, range(1, 13)), (9, (9, 18))])
def test_span_combination_k_jet_equals_the_full_order_inverse(q, ns):
    # the inverse n-th power of the transfer jet, by the lift and in full,
    # and the bracket rule at npow = n that the span combination runs
    f = field_new(*LIFT_FIELDS[q])
    for n in ns:
        cjet = _inverse_power(f, lambda k: b_theta_jet(f, k), n)
        assert cjet == b_theta_jet(f, n - 1) ** (-n), (q, n)
        assert raw_jet_gap(_bracket_theta_jet(f, n, n - 1), cjet) is None, (q, n)


# -- the verification suite ------------------------------------------------------------

def test_verify_suite_small_all_green():
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=50, jet_order=3)
    rep = verify_suite(ctx, n=3, lmax=2, sum_order=8)
    assert rep.all_passed
    assert len(rep.cells) > 10
    assert rep.failures() == ()
    assert rep.meta["q"] == 2 and rep.meta["n"] == 3
    d = rep.to_dict()
    assert d["all_passed"] is True
    assert all(set(c) >= {"identity", "params", "pass"} for c in d["results"])


def test_verify_suite_selector_subsets():
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=50, jet_order=2)
    rep = verify_suite(ctx, "alpha", n=2)
    assert rep.all_passed
    assert {c.identity for c in rep.cells} <= {"alpha_integrality", "alpha_q_power"}
    rep2 = verify_suite(ctx, ("eta_sum", "eta_quotient"), n=2, lmax=2, sum_order=8)
    assert rep2.all_passed
    idents = {c.identity for c in rep2.cells}
    assert "eta_sum_one" in idents and "eta_quotient" in idents


def test_verify_suite_rejects_unknown_selector():
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=40, jet_order=1)
    with pytest.raises(ConstraintViolated):
        verify_suite(ctx, "nonsense")
    with pytest.raises(ConstraintViolated):
        verify_suite(ctx, n=0)


def test_verify_suite_fault_injection_is_scoped(monkeypatch):
    f = field_new(2)
    ctx = CarlitzCtx(f, uprec=50, jet_order=3)
    force_b1_to_one(monkeypatch)
    rep = verify_suite(ctx, n=3, lmax=2, sum_order=8)
    bad = rep.failures()
    assert [(c.identity, c.params) for c in bad] == [("b_transfer", {"j": 1})]
    assert all(c.witness for c in bad)
    # every cell outside the transfer family still passes
    others = [c for c in rep.cells
              if c.identity not in ("b_vanishing", "b_transfer")]
    assert others and all(c.passed for c in others)


def test_verify_lagrange_zero_constant():
    f = field_new(5)
    rep = verify_lagrange(f, s=3, trials=20, seed=1729)
    assert rep.all_passed
    assert len(rep.cells) == 20
    note = rep.cells[0].params["note"]
    assert "1" in note and "0" in note  # documents printed vs computed value
    # deterministic under a fixed seed
    rep2 = verify_lagrange(f, s=3, trials=20, seed=1729)
    assert rep.to_dict() == rep2.to_dict()


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (3, 2), (7, 2), (257, 1)])
@pytest.mark.parametrize("s", [3, 5])
def test_lagrange_sides_equal_the_factorwise_evaluation(p, e, s):
    # every trial draws the oracle's nodes, and each side, built from one
    # fraction per term, equals the oracle's product of one fraction per
    # factor as a canonical fraction (numerator and monic denominator)
    f = field_new(p, e)
    trials = list(_lagrange_tuples(f, s, 40, 1729, 2))
    ref = lagrange_factorwise(f, s, 40, 1729, 2)
    assert len(trials) == len(ref) == 40
    for (a, b), (ra, rb, rprod, rtotal) in zip(trials, ref):
        assert a == ra and b == rb
        prod, total = lagrange_sides(a, b)
        assert (prod.num, prod.den) == (rprod.num, rprod.den)
        assert (total.num, total.den) == (rtotal.num, rtotal.den)
        assert prod == total
    assert verify_lagrange(f, s=s, trials=40, seed=1729).all_passed


@pytest.mark.parametrize("s", [1, 2, 3, 5])
def test_lagrange_numerator_multiplies_only_real_factors(s, monkeypatch):
    # the numerator E * P * V is the same value as with products seeded by
    # one, and each product of m factors makes m - 1 multiplications: 8 per
    # trial at s = 3, where the seed of one took 15
    f = field_new(5)
    a, b = next(_lagrange_tuples(f, s, 1, 1729, 2))
    to_b, gaps = carlitz._lagrange_differences(a, b)
    one = Poly.one(f)
    want = sum((one if i % 2 else -one) * _product_from_one(one, [
        *(d for k, d in enumerate(to_b) if k != i),
        *(g for key, g in gaps.items() if i not in key)]) for i in range(s))
    want = want + _product_from_one(one, gaps.values())
    products, real = [], Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda x, y: products.append(y) or real(x, y))
    assert carlitz._lagrange_numerator(to_b, gaps) == want
    # V has C(s, 2) factors and each term s - 1 + C(s - 1, 2)
    per_term = s - 1 + math.comb(s - 1, 2)
    assert len(products) == max(math.comb(s, 2) - 1, 0) + s * max(per_term - 1, 0)
    assert s != 3 or len(products) == 8


def _product_from_one(one, factors):
    out = one
    for x in factors:
        out = out * x
    return out


def test_verify_lagrange_validation():
    f = field_new(2)
    with pytest.raises(ConstraintViolated):
        verify_lagrange(f, s=0)
    with pytest.raises(ConstraintViolated):
        verify_lagrange(f, trials=0)
    with pytest.raises(ConstraintViolated):
        verify_lagrange(f, s=8, max_degree=0)  # pool of 2 cannot seat 9
