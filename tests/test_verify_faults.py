"""Every verify selector and the Lagrange check fail on an injected fault,
and the agreement check that the selectors share.

Each fault wraps one input of the suite so that it returns a wrong value.
The selector that reads the input must then fail, with a witness, in the
cells named here and in no other of its cells; the clean run passes.  The
checks that decide on numerator polynomials must, under a fault, print
the witnesses of their canonical-fraction references in tests/oracles.py.
The inputs sit under lru_cache'd callers, so every test starts and ends
with empty caches: a clean value cached before the fault would hide it,
and a faulted value cached during it would leak into later tests.  The raw
K-jets are faulted in one numerator: the bracket rule drives the span
route, the span combination and the eta route, and the AT jet the AT route.
"""

import pytest

import oracles
from carlitzhd import (
    CarlitzCtx,
    Jet,
    PeriodCoords,
    Poly,
    RatFunc,
    TPoly,
    USeries,
    field_new,
    verify_lagrange,
    verify_suite,
)
from carlitzhd import carlitz
from carlitzhd.carlitz import _first_gap

# captured at import, before any test replaces a module attribute
CACHES = [f for f in vars(carlitz).values() if hasattr(f, "cache_clear")]

# jet_order 2 < q keeps every cell small; q = 3 so that adding 1 never
# cancels a unit
CTX = CarlitzCtx(field_new(3), uprec=30, jet_order=2)
KW = dict(n=2, lmax=2, sum_order=8)


def _clear_caches():
    for f in CACHES:
        f.cache_clear()


@pytest.fixture
def fresh_caches():
    _clear_caches()
    yield
    _clear_caches()


def _bumped(jet, k):
    """jet with 1 added to its order-k coefficient."""
    return Jet([c + 1 if i == k else c for i, c in enumerate(jet.coeffs)])


def _u_times_inverse(real):
    def fake(self, *args, **kw):
        return real(self, *args, **kw).scale(USeries.monomial(self.field, 1))
    return fake


def _z_n_bumped(real):
    def fake(ctx, n):
        co = real(ctx, n)
        return PeriodCoords(co.n, co.z[:-1] + (co.z[-1] + 1,), co.route)
    return fake


def _plus_one(b):
    """b + 1 for a canonical b in F_q(theta, t), with no gcd: it is canonical
    as gcd(num + den, den) = gcd(num, den) = 1."""
    return RatFunc(b.num + b.den, b.den)


def _b1_bumped(real):
    return lambda field, j: _plus_one(real(field, j)) if j == 1 else real(field, j)


def _span_route_bumped(real):
    def fake(ctx, n, route="direct"):
        jet = real(ctx, n, route)
        return _bumped(jet, 1) if route == "span" else jet
    return fake


def _curlyL_bumped(real):
    def fake(field, l):
        out = real(field, l)
        return out + Poly.monomial(field, (1, 1)) if l == 1 else out
    return fake


def _b1_in_jet_bumped(real):
    return lambda field, lo, hi: [_plus_one(b) if j == 1 else b
                                  for j, b in enumerate(real(field, lo, hi), lo)]


def _raw_order1_bumped(real):
    """A raw K-jet (numerators over one denominator) plus 1 at order 1: the
    denominator added to numerator 1."""
    def fake(field, index, order):
        nums, den = real(field, index, order)
        return tuple(c + den if k == 1 else c for k, c in enumerate(nums)), den
    return fake


def _d1_bumped(real):
    return lambda field, m: real(field, m) + 1 if m == 1 else real(field, m)


def _alpha_bumped(real):
    def fake(field, n):
        alpha, gam = real(field, n)
        return alpha + 1, gam
    return fake


# (selector, owner of the input, input name, fault, cells that must fail)
FAULTS = [
    ("omega", TPoly, "inverse_tseries", _u_times_inverse, {"omega_inverse", "aw_unit"}),
    ("omega", carlitz, "z_via_omega", _z_n_bumped, {"omega_pow_order"}),
    ("b_transfer", carlitz, "b_rat", _b1_bumped, {"b_vanishing", "b_transfer"}),
    ("pitilde_span", carlitz, "dtheta_pitilde", _span_route_bumped, {"pitilde_span"}),
    ("eta_quotient", carlitz, "curlyL_poly", _curlyL_bumped, {"eta_quotient"}),
    ("pitilde_span", carlitz, "_bracket_theta_jet", _raw_order1_bumped, {"pitilde_span"}),
    ("bjet_eta", carlitz, "_b_rats", _b1_in_jet_bumped, {"bjet_eta_congruence"}),
    ("eta_sum", carlitz, "D_poly", _d1_bumped, {"eta_sum_one"}),
    ("eta_alpha", carlitz, "at_poly", _alpha_bumped, {"eta_inv_alpha"}),
    ("alpha", carlitz, "at_poly", _alpha_bumped, {"alpha_q_power"}),
    ("coords", carlitz, "z_via_omega", _z_n_bumped,
     {"coords_cross_route", "coords_last_power"}),
    ("coords", carlitz, "_bracket_theta_jet", _raw_order1_bumped, {"coords_cross_route"}),
    ("coords", carlitz, "_at_ratio_theta_jet", _raw_order1_bumped, {"coords_cross_route"}),
    ("span_combination", carlitz, "_bracket_theta_jet", _raw_order1_bumped,
     {"coords_span_combination"}),
]


def test_every_selector_has_a_fault():
    assert {sel for sel, *_ in FAULTS} == set(carlitz.VERIFY_SELECTORS)


@pytest.mark.parametrize("selector,owner,name,fault,failing", FAULTS,
                         ids=[f"{sel}-{name}" for sel, _, name, _, _ in FAULTS])
def test_selector_fails_on_a_faulted_input(monkeypatch, fresh_caches,
                                           selector, owner, name, fault, failing):
    clean = verify_suite(CTX, selector, **KW)
    assert clean.all_passed
    _clear_caches()
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    faulted = verify_suite(CTX, selector, **KW)
    bad = faulted.failures()
    assert len(faulted.cells) == len(clean.cells)
    assert {c.identity for c in bad} == failing
    assert all(c.witness for c in bad)


def _to_b0_times_theta(real):
    def fake(a, b):
        to_b, gaps = real(a, b)
        return [to_b[0] * Poly.monomial(b.field, (1,))] + to_b[1:], gaps
    return fake


LAGRANGE_KW = dict(s=3, trials=12, seed=1729)


def test_lagrange_fails_on_a_faulted_difference(monkeypatch):
    assert verify_lagrange(CTX.field, **LAGRANGE_KW).all_passed
    monkeypatch.setattr(carlitz, "_lagrange_differences",
                        _to_b0_times_theta(carlitz._lagrange_differences))
    faulted = verify_lagrange(CTX.field, **LAGRANGE_KW)
    assert len(faulted.failures()) == len(faulted.cells) == 12
    assert all(c.witness.startswith("evaluates to ") for c in faulted.cells)


# The checks that decide on numerators build fractions only for a witness;
# under a fault each must print its canonical-fraction reference's witness,
# byte for byte.  (check, reference, owner of the input, input name, fault)
REWORKED = [
    (lambda: carlitz._cells_eta_quotient(CTX.field, 3, 4),
     lambda: oracles.eta_quotient_cells(CTX.field, 3, 4),
     carlitz, "curlyL_poly", _curlyL_bumped),
    (lambda: carlitz._cells_bjet_eta(CTX.field, 10),
     lambda: oracles.bjet_eta_cells(CTX.field, 10),
     carlitz, "_b_rats", _b1_in_jet_bumped),
    (lambda: [carlitz._cell_eta_sum(CTX.field, 17)],
     lambda: [oracles.eta_sum_cell(CTX.field, 17)],
     carlitz, "D_poly", _d1_bumped),
    (lambda: carlitz._cells_eta_alpha(CTX.field, 6),
     lambda: oracles.eta_alpha_cells(CTX.field, 6),
     carlitz, "at_poly", _alpha_bumped),
    (lambda: verify_lagrange(CTX.field, **LAGRANGE_KW).cells,
     lambda: oracles.verify_lagrange_cells(CTX.field, **LAGRANGE_KW).cells,
     carlitz, "_lagrange_differences", _to_b0_times_theta),
]


@pytest.mark.parametrize("check,reference,owner,name,fault", REWORKED,
                         ids=[name for *_, name, _ in REWORKED])
def test_faulted_witness_equals_the_reference(monkeypatch, fresh_caches,
                                              check, reference, owner, name, fault):
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    got = check()
    _clear_caches()
    want = reference()
    assert any(not c.passed for c in got)
    assert [c.witness for c in got] == [c.witness for c in want]
    assert [c.to_dict() for c in got] == [c.to_dict() for c in want]


def test_span_combination_witness_carries_the_k_coefficients(monkeypatch, fresh_caches):
    # the raw K-jet is made canonical for the witness only
    bumped = _raw_order1_bumped(carlitz._bracket_theta_jet)
    monkeypatch.setattr(carlitz, "_bracket_theta_jet", bumped)
    (cell,) = verify_suite(CTX, "span_combination", **KW).cells
    assert cell.witness.startswith("combination vs (z_n..z_1): order-")
    want = oracles.raw_to_fractions(bumped(CTX.field, 2, 1)).coeffs
    assert cell.witness.endswith(f"; K-coefficients: {want!r}")


# -- the agreement check ----------------------------------------------------------

F = field_new(3)


def _series(m, prec):
    return USeries.from_coeff_map(F, m, prec)


def test_first_gap_reports_a_precision_shortfall():
    a, b = _series({0: 1}, 40), _series({0: 1}, 12)
    assert _first_gap("x", [a, a], [a, b]) is None
    assert _first_gap("x", [a, a], [a, b], 30) == (
        "x: order-1 known only to O(u^12), below the requested O(u^30)")


def test_first_gap_reports_the_first_differing_u_coefficient():
    a = _series({0: 1, 5: 2}, 20)
    b = _series({0: 1, 5: 1, 7: 1}, 20)
    assert _first_gap("x", [a, a], [a, b], 20) == (
        "x: order-1 first differs at u^5: 2 != 1")
    # beyond the common precision a difference is not seen
    assert _first_gap("x", [a], [b.with_prec(5)]) is None


def test_first_gap_reports_an_exact_difference():
    t = Poly.monomial(F, (1,))
    one = RatFunc.one(F)
    assert _first_gap("x", [t, t], [t, t + 1]).startswith(
        "x: order-1 coefficients differ: ")
    assert _first_gap("x", [one], [RatFunc.make(t, t + 1)]).startswith(
        "x: order-0 coefficients differ: ")


def test_first_gap_passes_agreeing_sequences():
    t = Poly.monomial(F, (1,))
    s, deeper = _series({-2: 1, 3: 2}, 25), _series({-2: 1, 3: 2, 30: 1}, 40)
    assert _first_gap("x", [t, RatFunc.make(t, t + 1)],
                      [t, RatFunc.make(t * t, t * t + t)]) is None
    assert _first_gap("x", Jet([s, s]), Jet([s, deeper]), 25) is None


def test_first_gap_refuses_sequences_of_different_lengths():
    with pytest.raises(ValueError):
        _first_gap("x", [1, 2], [1])
