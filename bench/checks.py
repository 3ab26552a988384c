"""Output checks for one session, and the independent period oracle.

Every check is counted, never skipped: a failure is recorded and the
session goes on.  A check that also failed at the pinned commit is marked
``known``; it still counts in ``fail_frac`` but is not a regression.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import FIELDS, GOLDEN_Q, grid_uprec

ORACLE_TERMS = 300


# -- the oracle: plain dict series over F_p, independent of carlitzhd ----------
#
# pitilde = -u^{-q} * prod_{j>=1} (1 - theta^{1-q^j})^{-1},
# theta^{1-q^j} = (-1)^{1-q^j} u^{(q-1)(q^j-1)}.  Prime q only.


def _series_mul(a: dict, b: dict, p: int, prec: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < prec:
                out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def _series_inv(a: dict, p: int, prec: int) -> dict:
    # a[0] == 1, so the inverse is a power series in u
    out = {0: 1}
    for k in range(1, prec):
        acc = sum(a.get(i, 0) * out.get(k - i, 0) for i in range(1, k + 1))
        if acc % p:
            out[k] = (-acc) % p
    return out


def oracle_pitilde_prefix(q: int, nterms: int) -> list[int]:
    """Coefficients of u^-q .. u^(nterms-q-1) of the period over prime F_q."""
    p = q
    prec = nterms + q + 5
    prod = {0: 1}
    j = 1
    while (q - 1) * (q ** j - 1) < prec:
        e = (q - 1) * (q ** j - 1)
        c = pow(-1, 1 - q ** j, p)
        prod = _series_mul(prod, {0: 1, e: (-c) % p}, p, prec)
        j += 1
    inv = _series_inv(prod, p, prec)
    out = {e - q: (-c) % p for e, c in inv.items()}
    return [out.get(e, 0) for e in range(-q, -q + nterms)]


def matches_oracle(series, q: int, nterms: int) -> bool:
    nterms = min(nterms, series.abs_prec + q)
    got = [series.coeff(e).coeffs[0] for e in range(-q, -q + nterms)]
    return nterms > 0 and got == oracle_pitilde_prefix(q, nterms)


# -- digests --------------------------------------------------------------------


def series_key(s) -> tuple:
    return (s.min_exp, str(s.abs_prec), tuple(s.coeffs))


def cell_key(cell) -> str:
    return json.dumps([cell.identity, cell.params], sort_keys=True)


def _sha(text) -> str:
    data = text if isinstance(text, bytes) else repr(text).encode()
    return hashlib.sha256(data).hexdigest()


def digest(job, out) -> str:
    """A digest of a job's output that does not depend on the workload seed."""
    if job.kind == "cli_omega":
        return _sha(out)
    if job.kind == "pitilde":
        return _sha(series_key(out))
    if job.kind in ("verify", "lagrange"):
        return _sha([cell_key(c) for c in out.cells])
    return _sha([series_key(z) for z in out.z])


# -- the checks -----------------------------------------------------------------


class CheckLog:
    def __init__(self):
        self.attempted = 0
        self.failed: list[dict] = []

    def check(self, name: str, jobs, test, known: bool = False):
        """Run ``test()``; an exception it raises is a failed check, not a stop."""
        self.attempted += 1
        try:
            ok = test()
        except Exception as exc:  # a broken output must not end the session
            ok, name = False, f"{name}: {type(exc).__name__}: {exc}"
        if not ok:
            self.failed.append({"check": name, "jobs": list(jobs), "known": known})
        return ok

    def regressed_jobs(self) -> set:
        return {j for f in self.failed if not f["known"] for j in f["jobs"]}


def run_checks(cz, root: str, jobs, outputs: dict, errors: dict, pins: dict) -> CheckLog:
    """Check every job's output; ``cz`` is the imported carlitzhd package."""
    log = CheckLog()
    golden_dir = os.path.join(root, "tests", "golden")
    known = pins["known_failing"]
    groups: dict = {}
    for job in jobs:
        ids = [job.id]
        if not log.check(f"{job.id}: completed", ids, lambda: job.id not in errors):
            continue
        out = outputs[job.id]
        log.check(f"{job.id}: matches seed digest", ids,
                  lambda: pins["digests"].get(job.id) == digest(job, out))
        field = cz.field_new(*FIELDS[job.q])
        if job.kind == "pitilde":
            if field.e == 1:
                log.check(f"{job.id}: oracle prefix", ids,
                          lambda: matches_oracle(out, job.q, ORACLE_TERMS))
            continue
        if job.kind in ("verify", "lagrange"):
            expected_bad = set(known.get(job.id, ()))
            for cell in out.cells:
                key = cell_key(cell)
                log.check(f"{job.id}: {key}", ids, lambda: cell.passed,
                          known=key in expected_bad)
            continue
        if job.kind == "cli_omega":
            if job.q in GOLDEN_Q and job.uprec == grid_uprec(job.q, job.n):
                path = os.path.join(golden_dir, f"coords_q{job.q}_n{job.n}.json")
                log.check(f"{job.id}: golden bytes", ids,
                          lambda: _read(path) == out)
            out = _guard(lambda: cz.cli.parse_coords(
                field, json.loads(out)["results"][0]["value"]))
            if not log.check(f"{job.id}: output parses", ids, lambda: out is not None):
                continue
        groups.setdefault(job.group, []).append((job, out))

    for group, members in groups.items():
        job, co = members[0]
        ids = [j.id for j, _ in members]
        log.check(f"{group}: routes agree", ids, lambda: len(
            {tuple(series_key(z) for z in c.z) for _, c in members}) == 1)
        field = cz.field_new(*FIELDS[job.q])
        ctx = cz.CarlitzCtx(field, uprec=job.uprec, jet_order=job.n - 1)
        power = _guard(lambda: series_key(
            (cz.pitilde(ctx) ** job.n).with_prec(job.uprec)))
        for j, c in members:
            log.check(f"{j.id}: z_n = pitilde^n", [j.id],
                      lambda: power is not None and series_key(c.z[-1]) == power)
        if job.n == 1 and field.e == 1:
            log.check(f"{group}: z_1 oracle prefix", ids,
                      lambda: matches_oracle(co.z[0], job.q, job.uprec + job.q))
    return log


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _guard(compute):
    """The value of ``compute()``, or None when it raises: the check then fails."""
    try:
        return compute()
    except Exception:  # a broken output must not end the session
        return None
