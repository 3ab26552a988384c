"""End-to-end acceptance gate.

One test per guaranteed behavior, each exercising its full documented
range with exact (tolerance-zero) comparisons on retained coefficients.
Each test registers a single pass/fail line, replayed after the run in
the acceptance summary section.
"""

import random
import time
from functools import lru_cache

from conftest import force_b1_to_one, record_summary
from oracles import compose_substitute, fraction_jet, prs_make, to_rho_matrix

from carlitzhd import (
    CarlitzCtx,
    INF_PREC,
    Poly,
    RatFunc,
    USeries,
    VARS_T,
    VARS_TT,
    binom_mod_p,
    d_theta_useries,
    dtheta_pitilde,
    embed_k,
    field_new,
    minimal_l,
    pitilde,
    useries_agree,
    verify_lagrange,
    verify_suite,
    z_via_at,
    z_via_eta,
    z_via_omega,
)

SEED = 1729

# the (q, n) grid: every field with at most five elements, tensor powers 1..6
GRID_FIELDS = ((2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (5, (5, 1)))
GRID_N = (1, 2, 3, 4, 5, 6)


def _field(p, e):
    if e > 1:
        return field_new(p, e, modulus=(1, 1, 1))
    return field_new(p)


def _grid_uprec(q, n):
    return 6 * n * (q - 1) + 40


@lru_cache(maxsize=None)
def _grid_cell(q, n):
    """The omega-route coordinates cached for reuse across tests."""
    p, e = dict(GRID_FIELDS)[q]
    ctx = CarlitzCtx(_field(p, e), uprec=_grid_uprec(q, n), jet_order=n)
    return ctx, z_via_omega(ctx, n)


def _report(label, ok, details=None):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    print(line)
    record_summary(line)
    assert ok, f"{label}: {details}"


def _suite_failures(report):
    return [(c.identity, c.params, c.witness) for c in report.cells
            if not c.passed]


# -- shared randomized-input helpers -----------------------------------------------

def rand_poly(rng, field, vars=VARS_TT, max_deg=3, terms=3):
    items = []
    for _ in range(rng.randrange(terms + 1)):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(len(vars)))
        items.append((exps, field.from_index(rng.randrange(field.q))))
    return Poly.from_items(field, items, vars)


def rand_ratfunc(rng, field, vars=VARS_TT):
    """A canonical fraction; in (theta, t) a reference PrsFrac, whose +, -
    and * run the bivariate gcd that RatFunc refuses."""
    num = rand_poly(rng, field, vars=vars)
    make = RatFunc.make if vars == VARS_T else prs_make
    while True:
        den = rand_poly(rng, field, vars=vars, max_deg=2, terms=2)
        if not den.is_zero():
            return make(num, den)


def rand_ratfunc_nonzero(rng, field, vars=VARS_TT):
    while True:
        r = rand_ratfunc(rng, field, vars=vars)
        if not r.is_zero():
            return r


def rand_useries(rng, field, prec=30):
    coeffs = {e: field.from_index(rng.randrange(field.q))
              for e in range(0, 12) if rng.random() < 0.5}
    return USeries.from_coeff_map(field, coeffs).with_prec(prec)


def _theta_pow(field, m, c=None):
    """c * theta^m as an exact Laurent series, any integer m."""
    scalar = field.one if c is None else c
    if m >= 0:
        mono = RatFunc.from_poly(Poly.monomial(field, (m,), vars=VARS_T))
    else:
        mono = RatFunc.make(Poly.one(field, VARS_T),
                            Poly.monomial(field, (-m,), vars=VARS_T))
    return embed_k(mono, INF_PREC).scale(scalar)


# -- cross-route coordinate grid ----------------------------------------------------

def test_cross_route_grid():
    failures = []
    slowest = 0.0
    for q, _ in GRID_FIELDS:
        for n in GRID_N:
            t0 = time.time()
            ctx, base = _grid_cell(q, n)
            lmin = minimal_l(q, n)
            for other in (z_via_eta(ctx, n, lmin),
                          z_via_eta(ctx, n, lmin + 1),
                          z_via_at(ctx, n)):
                if other.z != base.z:
                    failures.append((q, n, other.route))
            pitn = (pitilde(ctx) ** n).with_prec(ctx.uprec)
            if base.z[-1] != pitn:
                failures.append((q, n, "last coordinate vs period power"))
            slowest = max(slowest, time.time() - t0)
    _report(
        "cross-route period coordinates agree and z_n = period^n "
        f"(q in {{2,3,4,5}}, n in 1..6, uprec 6n(q-1)+40; "
        f"slowest cell {slowest:.2f}s)",
        not failures, failures)


# -- transfer coefficients ----------------------------------------------------------

def test_transfer_coefficients():
    failures = []
    for q in (2, 3):
        ctx = CarlitzCtx(field_new(q), uprec=60, jet_order=q * q)
        rep = verify_suite(ctx, "b_transfer", jmax=q * q)
        failures += [(q,) + f for f in _suite_failures(rep)]
        js = sorted(c.params["j"] for c in rep.cells
                    if c.identity == "b_transfer")
        if js != list(range(q * q + 1)):
            failures.append((q, "transfer index range", js))
        if not any(c.identity == "b_vanishing" for c in rep.cells):
            failures.append((q, "vanishing range not checked"))
    _report(
        "transfer coefficients: d^j(Omega^{-1}) = b_j * Omega^{-1} for "
        "0 <= j <= q^2 and b_j = 0 for 1 <= j < q (q in {2,3})",
        not failures, failures)


# -- period derivative jets ----------------------------------------------------------

def test_span_formula():
    failures = []
    for q in (2, 3):
        ctx = CarlitzCtx(field_new(q), uprec=60, jet_order=q * q)
        rep = verify_suite(ctx, "pitilde_span", n=q * q)
        failures += [(q,) + f for f in _suite_failures(rep)]
        direct = dtheta_pitilde(ctx, q * q, "direct")
        span = dtheta_pitilde(ctx, q * q, "span")
        for k in range(q * q + 1):
            if not useries_agree(direct[k], span[k]):
                failures.append((q, k, "direct vs span coefficient"))
    _report(
        "period derivative jets: direct theta-derivation equals the "
        "transfer-span formula through order q^2 (q in {2,3})",
        not failures, failures)


# -- eta partial sum ------------------------------------------------------------------

def test_eta_partial_sum():
    failures = []
    for q in (2, 3, 5):
        ctx = CarlitzCtx(field_new(q), uprec=8, jet_order=1)
        rep = verify_suite(ctx, "eta_sum", sum_order=32)
        failures += [(q,) + f for f in _suite_failures(rep)]
        (cell,) = [c for c in rep.cells if c.identity == "eta_sum_one"]
        terms = cell.params["terms"]
        if cell.params["M"] != 32 or q ** (terms - 1) < 32:
            failures.append((q, "eta sum truncation too shallow", cell.params))
    _report(
        "eta partial sum: sum_j (gamma_j/D_j) eta^{q^j} = 1 mod s^32 with "
        "q^J >= 32, all higher s-coefficients exactly zero (q in {2,3,5})",
        not failures, failures)


# -- eta inverse powers vs alpha ratio --------------------------------------------------

def test_eta_alpha_congruence():
    failures = []
    for q in (2, 3):
        ctx = CarlitzCtx(field_new(q), uprec=8, jet_order=1)
        rep = verify_suite(ctx, "eta_alpha", n=12)
        failures += [(q,) + f for f in _suite_failures(rep)]
        ns = sorted(c.params["n"] for c in rep.cells)
        if ns != list(range(1, 13)):
            failures.append((q, "power range", ns))
    _report(
        "eta inverse powers: eta^{-n} = eta_l^{-n} = alpha_n/Gamma_n "
        "mod s^{n+1} for n <= 12 (q in {2,3})",
        not failures, failures)


# -- alpha q-power identity --------------------------------------------------------------

def test_alpha_q_power():
    failures = []
    for q, (p, e) in ((2, (2, 1)), (3, (3, 1)), (4, (2, 2))):
        ctx = CarlitzCtx(_field(p, e), uprec=8, jet_order=1)
        rep = verify_suite(ctx, "alpha", n=8)
        failures += [(q,) + f for f in _suite_failures(rep)]
        ns = sorted(c.params["n"] for c in rep.cells
                    if c.identity == "alpha_q_power")
        if ns != list(range(1, 9)):
            failures.append((q, "power range", ns))
    _report(
        "alpha q-power identity: alpha_{nq} * Gamma_n^q = alpha_n^q * "
        "Gamma_{nq} exactly for n <= 8 (q in {2,3,4})",
        not failures, failures)


# -- eta jet identities -------------------------------------------------------------------

def test_eta_jet_identities():
    failures = []
    for q in (2, 3):
        ctx = CarlitzCtx(field_new(q), uprec=8, jet_order=1)
        rep = verify_suite(ctx, "eta_quotient", n=6, lmax=3)
        failures += [(q,) + f for f in _suite_failures(rep)]
        ls = sorted(c.params["l"] for c in rep.cells)
        if ls != [0, 1, 2, 3]:
            failures.append((q, "depth range", ls))
        rep = verify_suite(ctx, "bjet_eta", n=q * q)
        failures += [(q,) + f for f in _suite_failures(rep)]
        ns = sorted(c.params["n"] for c in rep.cells)
        if ns != list(range(1, q * q + 1)):
            failures.append((q, "congruence order range", ns))
    _report(
        "eta jet identities: derivative-quotient form for l <= 3 at jet "
        "order 6, and the transfer jet matches the eta_{l-1} jet mod X^n "
        "for n <= q^2 at minimal l (q in {2,3})",
        not failures, failures)


# -- randomized property suites --------------------------------------------------------------

def _suite_jet_homomorphism(failures):
    rng = random.Random(SEED)
    fields = [field_new(2), field_new(3), _field(2, 2)]
    for i in range(210):
        f = fields[i % 3]
        a = rand_ratfunc(rng, f)
        b = rand_ratfunc(rng, f)
        n = rng.randrange(1, 5)
        var = i % 2  # d_theta, then d_t
        ja, jb = fraction_jet(a, var, n), fraction_jet(b, var, n)
        if fraction_jet(a * b, var, n) != ja * jb:
            failures.append(("jet_homomorphism", "mul", i))
        if fraction_jet(a + b, var, n) != ja + jb:
            failures.append(("jet_homomorphism", "add", i))
    return 210


def _suite_derivation_commutation(failures):
    rng = random.Random(SEED)
    fields = [field_new(2), field_new(3)]
    for i in range(200):
        f = fields[i % 2]
        r = rand_ratfunc(rng, f)
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 7 - m)
        tn_tm = fraction_jet(fraction_jet(r, 0, m)[m], 1, n)[n]
        tm_tn = fraction_jet(fraction_jet(r, 1, n)[n], 0, m)[m]
        if tn_tm != tm_tn:
            failures.append(("derivation_commutation", (n, m), i))
    # total substitution t := theta: jets compose through the chain rule
    count = 0
    draws = 0
    while count < 200 and draws < 4000:
        draws += 1
        f = fields[draws % 2]
        r = rand_ratfunc(rng, f)
        if r.den.eval_t_at_theta().is_zero():
            continue
        n = rng.randrange(1, 5)
        direct = fraction_jet(r.eval_t_at_theta(), 0, n)
        composed = compose_substitute(fraction_jet(r, 0, n))
        if direct != composed:
            failures.append(("substitution_chain_rule", count))
        count += 1
    if count < 200:
        failures.append(("substitution_chain_rule", "not enough cases", count))
    return 200 + count


def _suite_power_annihilation(failures):
    rng = random.Random(SEED)
    cases = 0
    for i in range(200):
        q = (2, 3)[i % 2]
        f = field_new(q)
        l = rng.randrange(1, 3)
        ql = q ** l
        if i % 2 == 0:
            g = rand_useries(rng, f)
            jet = d_theta_useries(g ** ql, ql - 1)
            bad = [k for k in range(1, ql) if not jet[k].is_zero()]
        else:
            g = rand_ratfunc_nonzero(rng, f)
            jet = fraction_jet(g ** ql, 0, ql - 1)
            bad = [k for k in range(1, ql) if not jet[k].is_zero()]
        if bad:
            failures.append(("power_annihilation", q, l, bad))
        cases += 1
    return cases


def _suite_rho_multiplicativity(failures):
    rng = random.Random(SEED)
    fields = [field_new(2), field_new(3), _field(2, 2)]
    for i in range(200):
        f = fields[i % 3]
        a = rand_ratfunc(rng, f)
        b = rand_ratfunc(rng, f)
        n = rng.randrange(1, 6)
        lhs = to_rho_matrix(fraction_jet(a * b, 0, n))
        rhs = to_rho_matrix(fraction_jet(a, 0, n)) * to_rho_matrix(fraction_jet(b, 0, n))
        if lhs != rhs:
            failures.append(("rho_multiplicativity", i))
    return 200


def _suite_embed_homomorphism(failures):
    rng = random.Random(SEED)
    fields = [field_new(2), field_new(3), field_new(5)]
    for i in range(200):
        f = fields[i % 3]
        a = rand_ratfunc(rng, f, vars=VARS_T)
        b = rand_ratfunc(rng, f, vars=VARS_T)
        ea, eb = embed_k(a, 30), embed_k(b, 30)
        es, ep = embed_k(a + b, 30), embed_k(a * b, 30)
        if not useries_agree(ea + eb, es):
            failures.append(("embed_homomorphism", "add", i))
        prod = ea * eb
        overlap = min(prod.abs_prec, ep.abs_prec)
        if overlap < 10 or not useries_agree(prod, ep):
            failures.append(("embed_homomorphism", "mul", i, overlap))
    return 200


def _suite_kinf_formula(failures):
    rng = random.Random(SEED)
    fields = [field_new(2), field_new(3), field_new(5)]
    for i in range(200):
        f = fields[i % 3]
        terms = {m: f.from_index(rng.randrange(1, f.q))
                 for m in rng.sample(range(-6, 7), rng.randrange(1, 6))}
        g = USeries.zero(f, INF_PREC)
        for m, c in terms.items():
            g = g + _theta_pow(f, m, c)
        k = rng.randrange(1, 5)
        jet = d_theta_useries(g, k)
        for j in range(k + 1):
            want = USeries.zero(f, INF_PREC)
            for m, c in terms.items():
                coef = f.elem(binom_mod_p(m, j, f.p)) * c
                want = want + _theta_pow(f, m - j, coef)
            if jet[j] != want:
                failures.append(("kinf_formula", i, j))
    return 200


def test_property_suites():
    suites = (
        _suite_jet_homomorphism,
        _suite_derivation_commutation,
        _suite_power_annihilation,
        _suite_rho_multiplicativity,
        _suite_embed_homomorphism,
        _suite_kinf_formula,
    )
    failures = []
    counts = []
    for suite in suites:
        counts.append(suite(failures))
    ok = not failures and all(c >= 200 for c in counts)
    _report(
        f"randomized property suites: {len(suites)} suites with case counts "
        f"{counts}, seed {SEED}",
        ok, failures or counts)


# -- alternating interpolation sum ------------------------------------------------------------

def test_lagrange_constant():
    failures = []
    for q, (p, e) in GRID_FIELDS:
        rep = verify_lagrange(_field(p, e), s=3, trials=50, seed=SEED)
        failures += [(q,) + f for f in _suite_failures(rep)]
        if len(rep.cells) != 50:
            failures.append((q, "trial count", len(rep.cells)))
        note = rep.cells[0].params.get("note", "")
        if "1" not in note or "0" not in note:
            failures.append((q, "deviation note missing", note))
    _report(
        "alternating interpolation sum evaluates to 0 on 50 random tuples "
        "per field (q in {2,3,4,5}); report notes the printed constant 1",
        not failures, failures)


# -- truncation soundness -----------------------------------------------------------------------

def test_truncation_soundness():
    failures = []
    for q, _ in GRID_FIELDS:
        for n in GRID_N:
            ctx, base = _grid_cell(q, n)
            deep_ctx = ctx.replace(uprec=ctx.uprec + 20, cutoff=ctx.cutoff + 1)
            deep = z_via_omega(deep_ctx, n)
            for i in range(n):
                if not useries_agree(base.z[i], deep.z[i]):
                    failures.append((q, n, f"z_{i + 1}"))
            if not useries_agree(base.z[-1], pitilde(deep_ctx) ** n):
                failures.append((q, n, "period power"))
    _report(
        "truncation soundness: cutoff J+1 at uprec+20 reproduces every "
        "previously retained coefficient across the whole grid",
        not failures, failures)


# -- fault sensitivity ----------------------------------------------------------------------------

def test_fault_sensitivity(monkeypatch):
    ctx = CarlitzCtx(field_new(2), uprec=50, jet_order=3)
    kw = dict(n=3, lmax=2, sum_order=8)
    clean = verify_suite(ctx, "all", **kw)
    force_b1_to_one(monkeypatch)
    faulted = verify_suite(ctx, "all", **kw)
    bad = [c for c in faulted.cells if not c.passed]
    ok = (clean.all_passed
          and len(faulted.cells) == len(clean.cells)
          and len(bad) == 1
          and bad[0].identity == "b_transfer"
          and bad[0].params == {"j": 1}
          and bad[0].witness is not None)
    _report(
        "fault sensitivity: forcing b_1 = 1 fails exactly the one transfer "
        f"cell it corrupts ({len(faulted.cells)} cells run)",
        ok,
        (clean.all_passed, [(c.identity, c.params) for c in bad]))
