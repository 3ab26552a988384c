#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/.

Each coords file is the byte-exact CLI JSON output for one (q, n) grid cell
of the omega-route period coordinates at u-precision 6n(q-1)+40.  Each
verify file is the byte-exact report of the full identity suite and the
Lagrange check (``verify --q Q --n N``) in JSON or CSV.  Each fraction
file is the JSON printout of one bivariate fraction in F_q(theta, t): the
transfer coefficient b_{2q} (``bj``) or eta_2 (``eta``, as a fraction and as
an s-expansion).  CELLS lists them all, and tests/test_golden.py compares
each against a fresh run.  Run from anywhere; paths are anchored to this
script's location.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from carlitzhd.cli import main

GOLDEN_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "tests", "golden"))

# (file name, CLI arguments) of every golden file; each command prints the
# file's bytes, and --out PATH writes them to PATH instead
CELLS = tuple(
    [(f"coords_q{q}_n{n}.json",
      ["coords", "--q", str(q), "--n", str(n), "--route", "omega",
       "--uprec", str(6 * n * (q - 1) + 40), "--json"])
     for q in (2, 3, 4, 5) for n in (1, 2, 3, 4, 5, 6)]
    + [(f"verify_q{q}_n4.{fmt}",
        ["verify", "--q", str(q), "--n", "4", "--format", fmt])
       for q, fmt in ((2, "json"), (3, "json"), (9, "json"), (3, "csv"))]
    + [(f"bj_q{q}_j{2 * q}.json", ["bj", "--q", str(q), "--j", str(2 * q), "--json"])
       for q in (2, 3, 4, 5)]
    + [(f"eta_q{q}_l2.json", ["eta", "--q", str(q), "--l", "2", "--json"])
       for q in (2, 3, 4, 5)]
    + [("eta_q3_l2_sjet4.json",
        ["eta", "--q", "3", "--l", "2", "--form", "sjet", "--sjet-order", "4",
         "--json"])])


def regen() -> None:
    os.environ.pop("CARLITZHD_OUT_DIR", None)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, args in CELLS:
        path = os.path.join(GOLDEN_DIR, name)
        code = main(args + ["--out", path])
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
        print(f"wrote {path}")


if __name__ == "__main__":
    regen()
