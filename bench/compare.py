"""Compare two sets of benchmark results: a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that ``run.py --out DIR`` writes.
Runs of one workload pair up by seed; make them as alternating pairs
(parent then change on one seed, change then parent on the next).

For each workload and end-to-end metric the table gives each side's
median and quartiles, the ratio of the medians with its base, the pairs
the change won, and a verdict:

- better: the change wins at least 9 in 10 of at least 10 pairs, and the
  medians differ by more than the parent's interquartile range;
- unresolved: a side's spread (IQR over median) exceeds the metric's
  bound, unless every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unchanged: otherwise.

A gain does not count when more jobs fail than at the parent, so
``better`` then becomes ``unresolved``.  Per-layer metrics from traced
runs (``--trace 1``) are listed with their medians, without a verdict.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def load(directory: str, trace: int) -> dict:
    """workload -> seed -> result."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, f"*-trace{trace}.json"))):
        with open(path) as fh:
            r = json.load(fh)
        runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(par: list, chg: list, pairs: list, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(par)
    c1, cm, c3 = quartiles(chg)
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (cm - pm) < 0 and abs(cm - pm) > p3 - p1):
        return "better"
    every_run_better = all(sign * (c - p) < 0 for c in chg for p in par)
    if max((p3 - p1) / pm, (c3 - c1) / cm) > bound and not every_run_better:
        return "unresolved"
    if sign * (cm - pm) / pm > bound:
        return "worse"
    return "unchanged"


def compare(parent_dir: str, change_dir: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = load(parent_dir, 0), load(change_dir, 0)
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        ps, cs = parent[workload], change[workload]
        seeds = sorted(set(ps) & set(cs))
        pf = sum(r["failed"] for r in ps.values())
        cf = sum(r["failed"] for r in cs.values())
        print(f"== {workload}: {len(ps)} parent runs, {len(cs)} change runs, "
              f"{len(seeds)} pairs; failed jobs {pf} parent, {cf} change")
        for m in spec["end_to_end"]:
            name = m["name"]
            par = [r["metrics"][name] for r in ps.values()]
            chg = [r["metrics"][name] for r in cs.values()]
            pairs = [(ps[s]["metrics"][name], cs[s]["metrics"][name]) for s in seeds]
            v = verdict(par, chg, pairs, m["better"], m["bound"])
            if v == "better" and cf > pf:
                v = "unresolved"
            worse += v == "worse"
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in pairs)
            p1, pm, p3 = quartiles(par)
            c1, cm, c3 = quartiles(chg)
            print(f"  {name:<12} parent {pm:.4g} [{p1:.4g}, {p3:.4g}] {m['unit']}  "
                  f"change {cm:.4g} [{c1:.4g}, {c3:.4g}] {m['unit']}  "
                  f"ratio {cm / pm:.3f} (change {cm:.4g} / parent {pm:.4g})  "
                  f"wins {wins}/{len(pairs)}  bound {m['bound']}  {v}")
    compare_layers(load(parent_dir, 1), load(change_dir, 1), spec)
    return 1 if worse else 0


def compare_layers(parent: dict, change: dict, spec: dict) -> None:
    for workload in sorted(set(parent) & set(change)):
        print(f"== {workload}: per-layer medians, traced runs")
        for m in spec["per_layer"]:
            par = [r["metrics"][m["name"]] for r in parent[workload].values()
                   if m["name"] in r["metrics"]]
            chg = [r["metrics"][m["name"]] for r in change[workload].values()
                   if m["name"] in r["metrics"]]
            if not par or not chg:
                continue
            pm, cm = statistics.median(par), statistics.median(chg)
            ratio = f"{cm / pm:.3f}" if pm else "n/a"
            print(f"  {m['name']:<40} parent {pm:.6g}  change {cm:.6g} {m['unit']}  "
                  f"ratio {ratio} (change / parent {pm:.6g})")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
