"""The period and Omega, built from their factors only up to the precision
used, against independent references.

`rings._partition_counts` is checked against the plain partition-count
recurrence h_i += h_(i-E) mod p.  `pitilde` and `carlitz._omega_capped` must
equal the full cutoff products of `tests/oracles.py` (the u-series product
inverted by `USeries.inverse`, and the exact t-polynomial product capped
afterwards) over a grid of fields, precisions, jet orders, cutoffs and
budgets; a cutoff whose reference would build a run of more than 200,000
coefficients is skipped.  A cutoff far above the automatic one must not
build those runs at all.
"""

import math
import random
import tracemalloc

import pytest

from oracles import omega_by_product, pitilde_by_inverse

from carlitzhd import CarlitzCtx, PrecisionExhausted, carlitz, field_new
from carlitzhd.rings import _partition_counts

SEED = 1729


def ref_partition_counts(parts, n, p):
    h = [1] + [0] * (n - 1) if n > 0 else []
    for e in parts:
        for i in range(e, n):
            h[i] = (h[i] + h[i - e]) % p
    return h


def factor_count(parts, n, p):
    """The factors 1 + y + ... + y^(p-1), y = x^(E p^i), that the kernel
    multiplies in: one for each E p^i below n."""
    count = 0
    for e in parts:
        while e < n:
            count, e = count + 1, e * p
    return count


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_partition_counts_match_the_recurrence(p):
    rng = random.Random(SEED + p)
    for _ in range(40):
        n = rng.randrange(0, 300)
        parts = [rng.randrange(1, 2 * n + 2) for _ in range(rng.randrange(0, 8))]
        assert list(_partition_counts(parts, n, p)) == ref_partition_counts(parts, n, p)


@pytest.mark.parametrize("p", [3, 5, 257])
def test_partition_counts_cross_the_slot_reduction(p):
    # a 64-bit slot holds the bound (p-1) p^k for fewer than 64 / log2(p)
    # factors, so these part lists reduce the slots mod p several times
    for parts, n in (([1] * 60, 40), ([1, 2, 3] * 20, 200), ([2, 7] * 40, 500)):
        assert factor_count(parts, n, p) * math.log2(p) > 3 * 64
        assert list(_partition_counts(parts, n, p)) == ref_partition_counts(parts, n, p)


@pytest.mark.parametrize("p", [2, 3, 257])
def test_partition_counts_edge_cases(p):
    assert list(_partition_counts([1, 2], 0, p)) == []
    assert list(_partition_counts([1, 2], -3, p)) == []
    assert list(_partition_counts([1, 2], 1, p)) == [1]
    assert list(_partition_counts([], 5, p)) == [1, 0, 0, 0, 0]
    # a part E >= n leaves the series 1
    assert list(_partition_counts([5, 9, 10 ** 30], 5, p)) == [1, 0, 0, 0, 0]
    assert list(_partition_counts([4], 5, p)) == [1, 0, 0, 0, 1]


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
          (13, 1), (2, 4), (5, 2), (3, 3), (31, 1), (7, 2), (257, 1)]
UPRECS = (1, 7, 60, 700, 4000)
JET_ORDERS = (0, 2, 7)
MAX_REFERENCE_RUN = 2 * 10 ** 5


def _outcome(build, ctx):
    try:
        return build(ctx)
    except PrecisionExhausted as exc:
        return str(exc)


def _contexts(field):
    q = field.q
    for uprec in UPRECS:
        if q > 9 and uprec > 700:
            continue
        for jet_order in JET_ORDERS:
            auto = CarlitzCtx(field, uprec, jet_order)
            for extra in (0, 1, 2):
                cutoff = auto.cutoff + extra
                if q ** cutoff * (q - 1) <= MAX_REFERENCE_RUN:
                    yield auto.replace(cutoff=cutoff)


@pytest.mark.parametrize("p,e", FIELDS)
def test_period_and_omega_equal_the_full_products(p, e):
    field = field_new(p, e)
    checked = 0
    for ctx in _contexts(field):
        assert (_outcome(carlitz.pitilde.__wrapped__, ctx)
                == _outcome(pitilde_by_inverse, ctx))
        for budget in (ctx.uprec + 7, ctx.work_prec, 3 * ctx.work_prec):
            assert carlitz._omega_capped(ctx, budget) == omega_by_product(ctx, budget)
        checked += 1
    assert checked >= 9


def test_a_large_cutoff_builds_no_long_runs():
    # the full products would hold runs of 2^20 coefficients, small enough
    # that a return of them fails this bound without exhausting memory
    ctx = CarlitzCtx(field_new(2), uprec=5, cutoff=20)
    tracemalloc.start()
    try:
        carlitz.pitilde.__wrapped__(ctx)
        carlitz.omega_tpoly.__wrapped__(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
