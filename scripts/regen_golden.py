#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/.

Each coords file is the byte-exact CLI JSON output for one (q, n) grid cell
of the omega-route period coordinates at u-precision 6n(q-1)+40.  Each
verify file is the byte-exact report of the full identity suite and the
Lagrange check (``verify --q Q --n N``) in JSON or CSV.  Each fraction
file is the JSON printout of one bivariate fraction in F_q(theta, t): the
transfer coefficient b_{2q} (``bj``) or eta_2 (``eta``, as a fraction and as
an s-expansion).  Run from anywhere; paths are anchored to this script's
location.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from carlitzhd.cli import main

GRID_Q = (2, 3, 4, 5)
GRID_N = (1, 2, 3, 4, 5, 6)

# (q, n, format) of the verify reports
VERIFY_CELLS = ((2, 4, "json"), (3, 4, "json"), (9, 4, "json"), (3, 4, "csv"))

# (file name, CLI arguments) of the bivariate fraction printouts
FRACTION_CELLS = tuple(
    [(f"bj_q{q}_j{2 * q}.json",
      ["bj", "--q", str(q), "--j", str(2 * q), "--json"]) for q in GRID_Q]
    + [(f"eta_q{q}_l2.json", ["eta", "--q", str(q), "--l", "2", "--json"])
       for q in GRID_Q]
    + [("eta_q3_l2_sjet4.json",
        ["eta", "--q", "3", "--l", "2", "--form", "sjet", "--sjet-order", "4",
         "--json"])])


def golden_dir() -> str:
    return os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "tests", "golden"))


def cell_args(q: int, n: int, out_path: str) -> list[str]:
    uprec = 6 * n * (q - 1) + 40
    return [
        "coords", "--q", str(q), "--n", str(n), "--route", "omega",
        "--uprec", str(uprec), "--json", "--out", out_path,
    ]


def verify_name(q: int, n: int, fmt: str) -> str:
    return f"verify_q{q}_n{n}.{fmt}"


def verify_args(q: int, n: int, fmt: str, out_path: str) -> list[str]:
    return ["verify", "--q", str(q), "--n", str(n), "--format", fmt,
            "--out", out_path]


def regen() -> None:
    os.environ.pop("CARLITZHD_OUT_DIR", None)
    dest = golden_dir()
    os.makedirs(dest, exist_ok=True)
    for q in GRID_Q:
        for n in GRID_N:
            path = os.path.join(dest, f"coords_q{q}_n{n}.json")
            code = main(cell_args(q, n, path))
            if code != 0:
                raise SystemExit(f"cell q={q} n={n} exited {code}")
            print(f"wrote {path}")
    for q, n, fmt in VERIFY_CELLS:
        path = os.path.join(dest, verify_name(q, n, fmt))
        code = main(verify_args(q, n, fmt, path))
        if code != 0:
            raise SystemExit(f"verify q={q} n={n} exited {code}")
        print(f"wrote {path}")
    for name, args in FRACTION_CELLS:
        path = os.path.join(dest, name)
        code = main(args + ["--out", path])
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
        print(f"wrote {path}")


if __name__ == "__main__":
    regen()
