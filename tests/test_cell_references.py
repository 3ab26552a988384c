"""The numerator checks of verify against their canonical-fraction references.

`eta_quotient`, `eta_sum_one`, `eta_inv_alpha` and the Lagrange check decide
on numerator polynomials over a known denominator and build fractions only
for a witness.  `tests/oracles.py` keeps their earlier forms, which decide
in canonical F_q(theta); every cell (pass, params and witness) must equal
its reference's over a grid of fields and sizes.
"""

import pytest

from oracles import (
    eta_alpha_cells,
    eta_quotient_cells,
    eta_sum_cell,
    verify_lagrange_cells,
)

from carlitzhd import carlitz, field_new, verify_lagrange

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
          9: (3, 2), 11: (11, 1), 16: (2, 4), 25: (5, 2), 27: (3, 3),
          49: (7, 2), 257: (257, 1)}
SIZES = ((3, 2), (3, 6), (2, 9))  # (lmax, order); the order is also nmax


def _dicts(cells):
    return [c.to_dict() for c in cells]


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_eta_quotient_cells_equal_the_reference(q):
    f = field_new(*FIELDS[q])
    for lmax, order in SIZES:
        assert (_dicts(carlitz._cells_eta_quotient(f, lmax, order))
                == _dicts(eta_quotient_cells(f, lmax, order)))


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_eta_sum_cell_equals_the_reference(q):
    f = field_new(*FIELDS[q])
    for M in (2, 5, 17, 32, 40):
        assert carlitz._cell_eta_sum(f, M).to_dict() == eta_sum_cell(f, M).to_dict()


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_eta_alpha_cells_equal_the_reference(q):
    f = field_new(*FIELDS[q])
    for _, nmax in SIZES:
        assert _dicts(carlitz._cells_eta_alpha(f, nmax)) == _dicts(eta_alpha_cells(f, nmax))


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_lagrange_report_equals_the_reference(q):
    f = field_new(*FIELDS[q])
    for s in range(1, 6):
        for seed in (1, 2, 1729):
            assert (verify_lagrange(f, s=s, seed=seed).to_dict()
                    == verify_lagrange_cells(f, s, 50, seed).to_dict())
