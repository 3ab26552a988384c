"""Golden regression files: CLI output compared bit-exactly.

The stored files pin the omega-route coordinates for the whole (q, n)
grid, and the full verify report (suite and Lagrange check) at n = 4 for a
few fields in JSON and CSV, and the printouts of bivariate fractions:
b_{2q} and eta_2 for q <= 5, and one s-expansion of eta_2;
scripts/regen_golden.py lists them in CELLS and rewrites them when an
intentional format or precision change lands.
"""

import os
import sys

import pytest

from carlitzhd.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
from regen_golden import CELLS, GOLDEN_DIR


def _cells(kinds, *flags):
    """Parametrize over the cells whose command is one of kinds; a test id
    is the cell's values of flags joined by '-', or else its file name."""
    cells = [(name, args) for name, args in CELLS if args[0] in kinds]
    ids = ["-".join(args[args.index(f) + 1] for f in flags) or name
           for name, args in cells]
    return pytest.mark.parametrize("name,args", cells, ids=ids)


def _check(name, args, tmp_path):
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == open(os.path.join(GOLDEN_DIR, name), "rb").read()


def test_every_golden_file_has_a_cell():
    assert sorted(name for name, _ in CELLS) == sorted(os.listdir(GOLDEN_DIR))


@_cells(("coords",), "--q", "--n")
def test_golden_coords_bit_exact(name, args, tmp_path):
    _check(name, args, tmp_path)


@_cells(("verify",), "--q", "--n", "--format")
def test_golden_verify_bit_exact(name, args, tmp_path):
    _check(name, args, tmp_path)


@_cells(("bj", "eta"))
def test_golden_fractions_bit_exact(name, args, tmp_path):
    _check(name, args, tmp_path)
