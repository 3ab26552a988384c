"""The benchmark's workloads: which jobs one cold session runs, and why.

A job is one public call into carlitzhd, or one ``carlitzhd.cli.main``
invocation.  Each job has a stable id; ``pins.json`` keys the digests
pinned by these ids.
"""

from __future__ import annotations

from dataclasses import dataclass

# q -> (p, e); extension fields use carlitzhd's default modulus, the same
# one the CLI picks for --q.
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
          8: (2, 3), 9: (3, 2), 49: (7, 2), 257: (257, 1)}

GOLDEN_Q = (2, 3, 4, 5)


@dataclass(frozen=True)
class Job:
    id: str
    kind: str      # cli_omega | omega | at | eta | pitilde | verify | lagrange
    q: int
    n: int = 0     # tensor power (coords), jet order (verify)
    uprec: int = 0

    @property
    def group(self) -> str:
        """Jobs of one group compute the same coordinates by different routes."""
        return f"q{self.q}/n{self.n}/u{self.uprec}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    job_limit_s: float   # run.py kills a session whose job runs longer
    jobs: tuple

    @property
    def qs(self) -> tuple:
        return tuple(sorted({j.q for j in self.jobs}))


def _coords(q: int, n: int, uprec: int, routes) -> list:
    return [Job(f"coords/q{q}/n{n}/u{uprec}/{r}", r, q, n, uprec) for r in routes]


def grid_uprec(q: int, n: int) -> int:
    """The acceptance grid's precision, also used for the golden files."""
    return 6 * n * (q - 1) + 40


def _grid() -> tuple:
    jobs = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 7):
            jobs += _coords(q, n, grid_uprec(q, n), ("cli_omega", "at", "eta"))
    return tuple(jobs)


def _verify() -> tuple:
    jobs = []
    for q, ns in ((2, (2, 4, 6)), (3, (2, 4, 6)), (4, (2, 4, 6)),
                  (5, (2, 4, 6)), (7, (2, 4)), (8, (2, 4)), (9, (2, 4))):
        jobs += [Job(f"verify/q{q}/n{n}/u60", "verify", q, n, 60) for n in ns]
    jobs += [Job(f"lagrange/q{q}", "lagrange", q) for q in (2, 3, 5, 9, 49, 257)]
    return tuple(jobs)


def _deep_period() -> tuple:
    jobs = []
    for q in (2, 3):
        jobs.append(Job(f"pitilde/q{q}/u8000", "pitilde", q, 0, 8000))
        jobs += _coords(q, 4, 2000, ("omega", "at", "eta"))
    return tuple(jobs)


def _large_coords() -> tuple:
    return tuple(_coords(2, 24, grid_uprec(2, 24), ("omega", "at", "eta"))
                 + _coords(3, 27, grid_uprec(3, 27), ("at",)))


WORKLOADS = {w.name: w for w in (
    Workload(
        "grid",
        "many small jobs: per-call overhead, short USeries operands and CLI "
        "serialization dominate, so a kernel that wins on long operands can "
        "lose here",
        10.0, _grid()),
    Workload(
        "verify",
        "identity suites: canonical-form arithmetic in rings (poly_gcd, "
        "poly_divexact, RatFunc.make), TPoly inverses and cache sharing; "
        "F_49 and F_257 tables put gf into setup_s",
        20.0, _verify()),
    Workload(
        "deep_period",
        "long USeries operands: the period to u^8000 and routes at uprec "
        "2000 spend nearly all their time in USeries mul and inverse",
        40.0, _deep_period()),
    Workload(
        "large_coords",
        "high tensor powers: bivariate Poly multiplication in rings "
        "dominates, a kernel that no other workload measures",
        90.0, _large_coords()),
)}
