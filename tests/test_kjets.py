"""The raw K-jets of the coordinate routes against their canonical references.

The eta, AT and span routes hold each K-jet raw, as numerators over one
denominator, and never build a canonical fraction: the bracket rule
(`carlitz._bracket_theta_jet`) at npow = n for the eta route and the span
combination and at npow = -1 for the transfer jet of the span route, and the
raw quotient jet of the AT polynomials (`carlitz._at_ratio_theta_jet`).
`tests/oracles.py` keeps the canonical builders they replaced.  Each raw jet
must equal its reference in K, by cross-multiplication, and embed to the
very u-series that the reference's coefficients embed to one by one.  The
transfer side of the bjet_eta cells (`carlitz._transfer_jets`, two
polynomial jets M and Dt with c * Dt = M) must equal the total substitution
of the b jet, and a passing cell must make no fraction.
"""

import pytest

import oracles
from carlitzhd import (
    CarlitzCtx,
    Jet,
    Poly,
    RatFunc,
    at_poly,
    dtheta_pitilde,
    field_new,
    minimal_l,
    verify_suite,
    z_via_at,
    z_via_eta,
)
from carlitzhd import carlitz
from carlitzhd.carlitz import (
    _at_ratio_theta_jet,
    _b_rats,
    _bracket_theta_jet,
    _theta_gcd,
    _transfer_jets,
)
from carlitzhd.rings import _quotient_jet_numerators
from carlitzhd.useries import USeries, _embed_over, _poly_series, embed_k

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
          9: (3, 2)}


def _eta_reference(f, n):
    return oracles.eta_inv_pow_theta_jet(f, minimal_l(f.q, n) - 1, n, n - 1)


# -- equal in K ----------------------------------------------------------------------

@pytest.mark.parametrize("q", sorted(FIELDS))
def test_bracket_rule_equals_the_digit_jet(q):
    # every order up to q^2: each reference takes well under a second
    f = field_new(*FIELDS[q])
    for n in range(1, q * q + 2):
        assert oracles.raw_jet_gap(_bracket_theta_jet(f, n, n - 1),
                                   _eta_reference(f, n)) is None, n


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_transfer_bracket_rule_equals_the_substituted_b_jet(q):
    f = field_new(*FIELDS[q])
    want = oracles.b_theta_jet(f, q * q)
    for order in range(q * q + 1):
        assert oracles.raw_jet_gap(_bracket_theta_jet(f, -1, order),
                                   want.truncated(order)) is None, order


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_raw_at_jet_equals_the_canonical_jet(q):
    f = field_new(*FIELDS[q])
    for n in range(1, q * q + 2):
        assert oracles.raw_jet_gap(_at_ratio_theta_jet(f, n, n - 1),
                                   oracles.at_ratio_theta_jet(f, n, n - 1)) is None, n


def _quotient_as_raw(nums, dens):
    """The quotient jet nums/dens of two polynomial jets as a raw K-jet: the
    recurrence's C_k * D^(order-k) over D^(order+1), D = dens[0]."""
    cs, dpow = _quotient_jet_numerators(nums, dens)
    order = len(cs) - 1
    return [c * dpow(order - k) for k, c in enumerate(cs)], dpow(order + 1)


@pytest.mark.parametrize("q,nmax", [(2, 6), (3, 9), (4, 12), (5, 15), (9, 27), (2, 32)])
def test_transfer_jets_equal_the_substituted_b_jet(q, nmax):
    # the bjet_eta cells' transfer side M/Dt, over one bracket power product
    # D for each order, is the total substitution of (b_0, ..., b_order)
    f = field_new(*FIELDS[q])
    want = oracles.compose_substitute(Jet(_b_rats(f, 0, nmax - 1)))
    for n in range(1, nmax + 1):
        raw = _quotient_as_raw(*_transfer_jets(f, n - 1))
        assert oracles.raw_jet_gap(raw, want.truncated(n - 1)) is None, n


def test_raw_k_jets_at_q2_n63():
    # the cliff cell: the references take about 20 s (eta), 5 s (AT) and
    # 35 s (the transfer jet, a total substitution of 64 fractions)
    f = field_new(2)
    assert oracles.raw_jet_gap(_bracket_theta_jet(f, 63, 62), _eta_reference(f, 63)) is None
    assert oracles.raw_jet_gap(_at_ratio_theta_jet(f, 63, 62),
                               oracles.at_ratio_theta_jet(f, 63, 62)) is None
    assert oracles.raw_jet_gap(_bracket_theta_jet(f, -1, 63),
                               oracles.b_theta_jet(f, 63)) is None


def test_raw_jet_gap_sees_a_bumped_numerator():
    f = field_new(3)
    nums, den = _bracket_theta_jet(f, 7, 6)
    want = _eta_reference(f, 7)
    for k in range(7):
        bumped = tuple(c + den if i == k else c for i, c in enumerate(nums))
        assert oracles.raw_jet_gap((bumped, den), want) == k


# -- the same u-series -----------------------------------------------------------------

EMBED_CELLS = [(2, n) for n in (1, 2, 3, 5, 8, 13, 24, 31)] + [
    (3, n) for n in (2, 4, 9, 10, 20)] + [(4, 5), (5, 6), (7, 8), (8, 9), (9, 11)]


@pytest.mark.parametrize("q,n", EMBED_CELLS)
def test_embedded_k_jets_equal_the_coefficientwise_embedding(q, n):
    # abs_prec included: the exact 1 at order 0, exact zeros, and each
    # coefficient to the working precision
    f = field_new(*FIELDS[q])
    prec = CarlitzCtx(f, uprec=6 * n * (q - 1) + 40, jet_order=n - 1).work_prec
    for raw, ref in ((_bracket_theta_jet(f, n, n - 1), _eta_reference(f, n)),
                     (_at_ratio_theta_jet(f, n, n - 1),
                      oracles.at_ratio_theta_jet(f, n, n - 1)),
                     (_bracket_theta_jet(f, -1, n), oracles.b_theta_jet(f, n))):
        got, want = Jet(_embed_over(*raw, prec)), oracles.embed_jet(ref, prec)
        assert [(c.min_exp, c.coeffs, c.abs_prec) for c in got.coeffs] == [
            (c.min_exp, c.coeffs, c.abs_prec) for c in want.coeffs]


def test_embedding_keeps_a_monomial_denominator_exact():
    # over theta^3, as embed_k takes each fraction: a Laurent polynomial in u
    f = field_new(3)
    theta = Poly.monomial(f, (1,))
    raw = ((theta ** 3, theta ** 2 + 1, Poly.zero(f)), theta ** 3)
    got = Jet(_embed_over(*raw, 40))
    assert got == oracles.embed_jet(oracles.raw_to_fractions(raw), 40)
    assert all(c.is_exact() for c in got.coeffs)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_embedding_over_a_monomial_is_a_shift_and_a_scale(monkeypatch, q):
    # c * theta^k is c * (-1)^k u^(-k(q-1)): each numerator is shifted and
    # scaled, with no series inverse, to the series embed_k gives the
    # canonical fraction and the old inverse-and-product rule gave
    f = field_new(*FIELDS[q])
    theta, c = Poly.monomial(f, (1,)), f.from_index(f.q - 1)
    nums = [theta ** 5 + 1, theta + c, Poly.zero(f), Poly.one(f), theta ** 2 * c]

    def no_inverse(self, abs_prec=None):
        raise AssertionError("USeries.inverse called")

    for den in (Poly.const(f, c), theta ** 2 * c, theta ** 4):
        want = [embed_k(RatFunc.make(num, den), 40) for num in nums]
        by_inverse = [_poly_series(num, f) * _poly_series(den, f).inverse()
                      for num in nums]
        monkeypatch.setattr(USeries, "inverse", no_inverse)
        got = _embed_over(nums, den, 40)
        monkeypatch.undo()
        for g, w, b in zip(got, want, by_inverse):
            assert (g.min_exp, g.coeffs, g.abs_prec) == (w.min_exp, w.coeffs, w.abs_prec)
            assert (g.min_exp, g.coeffs, g.abs_prec) == (b.min_exp, b.coeffs, b.abs_prec)


# -- the AT gcd over the t-rows --------------------------------------------------------

# (q, n) -> the degree of gcd(alpha_n, Gamma_n), which lies in F_q[theta]
GCD_DEGREES = {(2, 31): 68, (2, 63): 196, (3, 26): 30, (3, 80): 165, (4, 15): 8,
               (5, 24): 15, (5, 60): 60, (7, 48): 35, (7, 50): 0, (8, 60): 24,
               (9, 40): 0, (9, 80): 63}


@pytest.mark.parametrize("q,n", sorted(GCD_DEGREES))
def test_theta_gcd_equals_the_bivariate_gcd(q, n):
    f = field_new(*FIELDS[q])
    alpha, gam = at_poly(f, n)
    g = _theta_gcd(gam, alpha)
    assert g.lift_tt() == oracles.prs_gcd(alpha, gam.lift_tt())
    assert g.degree() == GCD_DEGREES[q, n]


# -- no fraction off its canonical form -------------------------------------------------

@pytest.fixture
def fractions_made(monkeypatch):
    """Every (num, den) pair that a RatFunc is built on while the test runs."""
    made = []
    real = RatFunc.__init__

    def recording(self, num, den):
        made.append((num, den))
        real(self, num, den)

    caches = [f for f in vars(carlitz).values() if hasattr(f, "cache_clear")]
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(RatFunc, "__init__", recording)
    yield made
    monkeypatch.setattr(RatFunc, "__init__", real)
    for cache in caches:
        cache.cache_clear()


def test_routes_build_no_fraction(fractions_made):
    for f in (field_new(2), field_new(3), field_new(2, 2)):
        q = f.q
        for n in (q + 1, 2 * q + 1, q * q):
            ctx = CarlitzCtx(f, uprec=40, jet_order=n)
            z_via_eta(ctx, n, minimal_l(q, n))
            z_via_at(ctx, n)
            dtheta_pitilde(ctx, n, "span")
    assert fractions_made == []


@pytest.mark.parametrize("q", [2, 3, 4])
def test_verify_builds_only_canonical_fractions(fractions_made, q):
    f = field_new(*FIELDS[q])
    assert verify_suite(CarlitzCtx(f, uprec=40, jet_order=2 * q), "all").all_passed
    made = list(fractions_made)
    assert made
    for num, den in made:
        r = oracles.prs_make(num, den)
        assert (r.num, r.den) == (num, den)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_passing_bjet_eta_cells_make_no_fraction(monkeypatch, q):
    # the cells decide on polynomial jets; canonical fractions are built
    # for a failing cell's witness only
    f = field_new(*FIELDS[q])
    for cache in [g for g in vars(carlitz).values() if hasattr(g, "cache_clear")]:
        cache.cache_clear()

    def refused(*args):
        raise AssertionError("a fraction was made or added")

    monkeypatch.setattr(RatFunc, "make", classmethod(refused))
    monkeypatch.setattr(RatFunc, "__add__", refused)
    rep = verify_suite(CarlitzCtx(f, uprec=40, jet_order=3 * q), "bjet_eta")
    assert rep.all_passed and len(rep.cells) == 3 * q
