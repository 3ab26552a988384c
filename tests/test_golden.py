"""Golden regression files: CLI output compared bit-exactly.

The stored files pin the omega-route coordinates for the whole (q, n)
grid, and the full verify report (suite and Lagrange check) at n = 4 for a
few fields in JSON and CSV, and the printouts of bivariate fractions:
b_{2q} and eta_2 for q <= 5, and one s-expansion of eta_2;
scripts/regen_golden.py rewrites them when an intentional format or
precision change lands.
"""

import os

import pytest

from carlitzhd.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GRID = [(q, n) for q in (2, 3, 4, 5) for n in (1, 2, 3, 4, 5, 6)]
VERIFY_CELLS = [(2, 4, "json"), (3, 4, "json"), (9, 4, "json"), (3, 4, "csv")]
FRACTION_CELLS = (
    [(f"bj_q{q}_j{2 * q}.json", ["bj", "--q", str(q), "--j", str(2 * q)])
     for q in (2, 3, 4, 5)]
    + [(f"eta_q{q}_l2.json", ["eta", "--q", str(q), "--l", "2"])
       for q in (2, 3, 4, 5)]
    + [("eta_q3_l2_sjet4.json",
        ["eta", "--q", "3", "--l", "2", "--form", "sjet", "--sjet-order", "4"])])


@pytest.mark.parametrize("q,n", GRID)
def test_golden_coords_bit_exact(q, n, tmp_path):
    uprec = 6 * n * (q - 1) + 40
    out = tmp_path / "cell.json"
    code = main([
        "coords", "--q", str(q), "--n", str(n), "--route", "omega",
        "--uprec", str(uprec), "--json", "--out", str(out),
    ])
    assert code == 0
    stored = os.path.join(GOLDEN_DIR, f"coords_q{q}_n{n}.json")
    assert out.read_bytes() == open(stored, "rb").read()


@pytest.mark.parametrize("q,n,fmt", VERIFY_CELLS)
def test_golden_verify_bit_exact(q, n, fmt, tmp_path):
    out = tmp_path / f"report.{fmt}"
    code = main(["verify", "--q", str(q), "--n", str(n), "--format", fmt,
                 "--out", str(out)])
    assert code == 0
    stored = os.path.join(GOLDEN_DIR, f"verify_q{q}_n{n}.{fmt}")
    assert out.read_bytes() == open(stored, "rb").read()


@pytest.mark.parametrize("name,args", FRACTION_CELLS,
                         ids=[name for name, _ in FRACTION_CELLS])
def test_golden_fractions_bit_exact(name, args, tmp_path):
    out = tmp_path / name
    assert main(args + ["--json", "--out", str(out)]) == 0
    stored = os.path.join(GOLDEN_DIR, name)
    assert out.read_bytes() == open(stored, "rb").read()
