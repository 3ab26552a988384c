"""One cold benchmark session, run in a fresh process by ``run.py``.

The worker imports carlitzhd from the checkout's ``src/``, builds the
workload's fields, then runs the jobs in an order drawn from the seed.
It writes one JSON line to stdout after set-up, one after each job and
one at the end, so run.py can time set-up and enforce the per-job
limit.  While the jobs run, a timer signal times a short fixed reference
loop every ``REF_EVERY_S`` seconds; the job events carry those timings,
so run.py can scale job times to a nominal machine speed.  Output
checks run after the last job, outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time

from checks import oracle_pitilde_prefix, run_checks
from tracer import Tracer
from workloads import FIELDS, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")
REF_EVERY_S = 0.25  # how often the timer signal times the reference loop


def reference_time() -> float:
    """Seconds taken by a short fixed pure-Python loop that does not touch carlitzhd.

    The dict-series arithmetic of the period oracle is close to carlitzhd's
    own instruction mix.  The collector is off so that the loop's time does
    not depend on how many objects the session holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        oracle_pitilde_prefix(3, 120)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times the reference loop every REF_EVERY_S, from a timer signal.

    The signal interrupts the running job between bytecodes, so the
    samples show how fast this process ran while the job ran.  ``spent``
    is the time the samples took, which the job timings leave out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_time())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def import_carlitzhd():
    """Import carlitzhd from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import carlitzhd
    import carlitzhd.cli  # noqa: F401  (a job calls carlitzhd.cli.main)
    if not os.path.abspath(carlitzhd.__file__).startswith(src + os.sep):
        raise ImportError(f"carlitzhd came from {carlitzhd.__file__}, not {src}")
    return carlitzhd


def job_order(workload, seed: int, session: int) -> list:
    jobs = list(workload.jobs)
    random.Random(f"{seed}:{session}").shuffle(jobs)
    return jobs


def run_job(cz, job, seed: int, scratch: str):
    """Run one job; returns its output (bytes for a CLI job)."""
    field = cz.field_new(*FIELDS[job.q])
    if job.kind == "cli_omega":
        path = os.path.join(scratch, "coords.json")
        code = cz.cli.main([
            "coords", "--q", str(job.q), "--n", str(job.n), "--route", "omega",
            "--uprec", str(job.uprec), "--json", "--out", path])
        if code == 3:  # the CLI's exit code for an unattainable precision
            raise cz.PrecisionExhausted("carlitzhd coords exited 3")
        if code != 0:
            raise RuntimeError(f"carlitzhd coords exited {code}")
        return path
    if job.kind == "pitilde":
        return cz.pitilde(cz.CarlitzCtx(field, uprec=job.uprec, jet_order=0))
    if job.kind == "verify":
        return cz.verify_suite(cz.CarlitzCtx(field, uprec=job.uprec, jet_order=job.n), "all")
    if job.kind == "lagrange":
        return cz.verify_lagrange(field, seed=seed)
    ctx = cz.CarlitzCtx(field, uprec=job.uprec, jet_order=job.n - 1)
    if job.kind == "omega":
        return cz.z_via_omega(ctx, job.n)
    if job.kind == "at":
        return cz.z_via_at(ctx, job.n)
    return cz.z_via_eta(ctx, job.n, cz.minimal_l(job.q, job.n))


def cache_stats(cached) -> dict:
    """Summed cache_info of carlitz's public cached functions, where it exists."""
    if not cached:
        return {}
    infos = [f.cache_info() for f in cached]
    return {"carlitz.cache.hits": sum(i.hits for i in infos),
            "carlitz.cache.misses": sum(i.misses for i in infos),
            "carlitz.cache.entries": sum(i.currsize for i in infos)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--session", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    # protocol lines go to the real stdout; anything the library prints goes to stderr
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def emit(**event):
        proto.write(json.dumps(event) + "\n")
        proto.flush()

    cz = import_carlitzhd()
    cached = [v for k, v in vars(cz.carlitz).items()
              if not k.startswith("_") and callable(getattr(v, "cache_info", None))]
    tracer = None
    if args.trace:
        tracer = Tracer(args.session)
        tracer.install(cz)
    for q in workload.qs:
        cz.field_new(*FIELDS[q])
    emit(event="ready", t=time.monotonic())
    emit(event="ref", s=statistics.median(reference_time() for _ in range(5)))
    if args.setup_only:
        return 0

    scratch = os.path.join(OUT_DIR, "tmp", f"{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    outputs, errors = {}, {}
    bytes_out = 0
    wall = 0.0
    with SpeedSampler() as speed:
        for job in job_order(workload, args.seed, args.session):
            error = None
            n0, spent0 = len(speed.samples), speed.spent
            t0 = time.perf_counter()
            try:
                out = run_job(cz, job, args.seed, scratch)
            except Exception as exc:  # a failed job is counted, the session goes on
                error = f"{type(exc).__name__}: {exc}"
            dur = time.perf_counter() - t0 - (speed.spent - spent0)
            wall += dur
            if error is None and job.kind == "cli_omega":
                with open(out, "rb") as fh:
                    out = fh.read()
                bytes_out += len(out)
            if error is None:
                outputs[job.id] = out
            else:
                errors[job.id] = error
            emit(event="job", id=job.id, dur=dur, error=error, refs=speed.samples[n0:])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    shutil.rmtree(scratch, ignore_errors=True)

    layers = {}
    if tracer is not None:
        tracer.recording = False
        layers = {"stats": tracer.stats, "bytes_out": bytes_out,
                  "cache": cache_stats(cached)}
        os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
        tracer.write_spans(os.path.join(
            OUT_DIR, "spans", f"{args.workload}-seed{args.seed}-s{args.session}.json"))

    with open(os.path.join(BENCH, "pins.json")) as fh:
        pins = json.load(fh)
    log = run_checks(cz, ROOT, workload.jobs, outputs, errors, pins)
    emit(event="done", wall_s=wall, rss_kb=rss_kb,
         checks_attempted=log.attempted, checks_failed=log.failed,
         regressed=sorted(log.regressed_jobs()),
         precision_exhausted=sum(e.startswith("PrecisionExhausted:")
                                for e in errors.values()),
         layers=layers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
