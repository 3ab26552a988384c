"""Cold-session benchmark of carlitzhd.

    python3 bench/run.py --workload grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One run starts fresh worker processes (bench/worker.py) one at a time, each
a cold session with empty caches, while another session still fits in
``--seconds`` (at least one always runs), then reports medians over the
sessions.  With ``--trace 1`` it alternates untraced and traced sessions
and reports the per-layer metrics of the traced ones.  The metrics and
their units come from BENCHMARK.json.

Times are reported in reference seconds: each job's measured seconds
times REF_S over the time a fixed reference loop took in the same
process while the job ran (see worker.SpeedSampler).  This takes out
most of the drift in machine speed between runs; the unscaled seconds
are kept in the result file as ``raw_metrics``.

A single workload ends with one JSON line on stdout: ``correct``,
``attempted`` and ``failed`` count jobs (a job fails when it raises, is
killed by the per-job limit, or an output check that passed at the pinned
commit fails), and ``metrics`` holds the metric values.  The full result,
with every session and every failed check, goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

from tracer import MODULES
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")

SETUP_LIMIT_S = 60.0     # a worker that is not set up by then has failed
CHECK_LIMIT_S = 60.0     # time allowed for the output checks after the last job
RUN_LIMIT_S = 150.0      # no job is allowed to run past this point of a run
MIN_SETUP_SAMPLES = 15   # extra set-up-only workers make up for few sessions
REF_S = 0.001            # the reference loop's time at the nominal speed times are scaled to
MIN_JOB_REFS = 5         # a job with fewer reference timings uses its session's


class WorkerFailed(Exception):
    pass


class Lines:
    """Reads JSON lines from a worker's stdout, each within a time limit."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buf = b""

    def next(self, timeout: float):
        end = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = end - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)


def run_session(workload, seed: int, session: int, traced: bool,
                deadline: float, setup_only: bool = False) -> dict:
    """One worker process; kills it when a job overruns its limit."""
    cmd = [sys.executable, WORKER, "--workload", workload.name, "--seed", str(seed),
           "--session", str(session), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "CARLITZHD_OUT_DIR")}
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        lines = Lines(proc.stdout)
        ready = lines.next(SETUP_LIMIT_S)
        ref = lines.next(SETUP_LIMIT_S)
        if ready is None or ref is None:
            raise WorkerFailed(f"{workload.name}: the worker did not finish set-up")
        out = {"session": session, "traced": traced, "setup_s": ready["t"] - spawn,
               "ref_s": ref["s"]}
        if setup_only:
            return out
        jobs = []
        for _ in workload.jobs:
            limit = min(workload.job_limit_s, deadline - time.monotonic())
            event = lines.next(max(limit, 0.0))
            if event is None:
                break
            jobs.append(event)
        out["jobs"] = jobs
        out["killed"] = len(jobs) < len(workload.jobs)
        if out["killed"]:
            out["wall_s"] = time.monotonic() - spawn - out["setup_s"]
        else:
            done = lines.next(CHECK_LIMIT_S)
            if done is None:
                raise WorkerFailed(f"{workload.name}: the worker died in the output checks")
            out.update(done)
        return out
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def p90(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(session: dict) -> dict:
    """Per-layer values of one traced session, named <module>.<callable>.<stat>."""
    layers = session["layers"]
    stats = layers["stats"]
    out = {}
    for name, st in stats.items():
        for stat, value in st.items():
            out[f"{name}.{stat}"] = value
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(st["self_s"] for name, st in stats.items()
                                   if name.startswith(mod + "."))
    out["gf.table_cells"] = stats["gf.field_new"]["table_cells"]
    out["cli.bytes_out"] = layers["bytes_out"]
    out["carlitz.precision_exhausted"] = session["precision_exhausted"]
    out.update(layers["cache"])
    return out


def fits(start: float, done: int, seconds: float, deadline: float, workload) -> bool:
    """Whether one more session, as long as the mean so far, ends within the run."""
    now = time.monotonic()
    return (now + (now - start) / done <= start + seconds
            and now < deadline - workload.job_limit_s)


def timing_metrics(plain: list, probes: list, scaled: bool) -> dict:
    """End-to-end metrics of the untraced sessions, in reference seconds if scaled.

    A job's time is scaled by REF_S over the median of the reference
    timings taken while it ran, or, with fewer than MIN_JOB_REFS of them,
    of all its session's timings.  Set-up is scaled by the timing taken
    right after it.  A session's wall time is the sum of its jobs' times.
    """
    def scale(refs: list) -> float:
        return REF_S / statistics.median(refs) if scaled else 1.0

    latencies, walls = [], []
    for s in plain:
        session_scale = scale([s["ref_s"]] + [r for j in s["jobs"] for r in j["refs"]])
        wall = 0.0
        for j in s["jobs"]:
            dur = j["dur"] * (scale(j["refs"]) if len(j["refs"]) >= MIN_JOB_REFS
                              else session_scale)
            wall += dur
            if j["error"] is None:
                latencies.append(dur)
        walls.append(s["wall_s"] * session_scale if s["killed"] else wall)
    rss = [s["rss_kb"] / 1024 for s in plain if "rss_kb" in s]
    nan = float("nan")  # only when every job of the run failed
    return {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(latencies) if latencies else nan,
        "job_p90_s": p90(latencies) if latencies else nan,
        "setup_s": statistics.median(s["setup_s"] * scale([s["ref_s"]]) for s in probes),
        "peak_rss_mb": statistics.median(rss) if rss else nan,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    sessions = []
    least = 2 if trace else 1  # a traced run needs one session of each kind
    while len(sessions) < least or fits(start, len(sessions), seconds, deadline, workload):
        traced = trace and len(sessions) % 2 == 1
        sessions.append(run_session(workload, seed, len(sessions), traced, deadline))
    probes = sessions + [
        run_session(workload, seed, k, False, deadline, setup_only=True)
        for k in range(len(sessions), MIN_SETUP_SAMPLES)]

    plain = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    attempted = failed = checks = 0
    failed_checks = []
    for s in sessions:
        done_ids = {j["id"] for j in s["jobs"]}
        errors = {j["id"] for j in s["jobs"] if j["error"] is not None}
        unfinished = [j.id for j in workload.jobs if j.id not in done_ids]
        attempted += len(workload.jobs)
        failed += len(errors | set(s.get("regressed", ())) | set(unfinished))
        checks += s.get("checks_attempted", 0) + len(unfinished)
        failed_checks += s.get("checks_failed", [])
        failed_checks += [{"check": f"{j}: finished within the limit", "jobs": [j],
                           "known": False} for j in unfinished]

    metrics = timing_metrics(plain, probes, scaled=True)
    raw = timing_metrics(plain, probes, scaled=False)
    if traced:
        per_session = [layer_metrics(s) for s in traced if "layers" in s]
        for name in sorted({k for m in per_session for k in m}):
            metrics[name] = statistics.median(m[name] for m in per_session if name in m)
        metrics["trace_overhead"] = (timing_metrics(traced, traced, scaled=True)["wall_s"]
                                     / metrics["wall_s"])
    metrics["checks.fail_frac"] = len(failed_checks) / checks if checks else 1.0
    return {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": int(trace), "provenance": provenance(),
        "attempted": attempted, "failed": failed, "correct": failed == 0,
        "checks_attempted": checks, "checks_failed": failed_checks,
        "job_samples": sum(j["error"] is None for s in plain for j in s["jobs"]),
        "ref_s": REF_S,
        "metrics": metrics, "raw_metrics": raw, "sessions": sessions,
        "setup_probes": probes[len(sessions):],
    }


def provenance() -> dict:
    sha = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.samefile(lines[0], ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def contract_line(result: dict, spec: dict, trace: bool) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            if m["name"].startswith("carlitz.cache."):
                continue  # absent when the package has no cache_info to read
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_summary(result: dict, spec: dict) -> None:
    m = result["metrics"]
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{len(result['sessions'])} sessions, {result['job_samples']} job samples)")
    for e in spec["end_to_end"]:
        unscaled = result["raw_metrics"][e["name"]]
        note = f" (unscaled {unscaled:.6g})" if e["unit"] == "s" else ""
        print(f"  {e['name']:<12} {m[e['name']]:.6g} {e['unit']}{note}")
    bad = result["checks_failed"]
    print(f"  {'fail_frac':<12} {m['checks.fail_frac']:.6g} ratio "
          f"({len(bad)} of {result['checks_attempted']} checks failed)")
    for f in sorted({(f["check"], f["known"]) for f in bad}):
        print(f"    {'known' if f[1] else 'NEW'}: {f[0]}")
    if "trace_overhead" in m:
        total = sum(m[f"{mod}.self_s"] for mod in MODULES) or 1.0
        shares = ", ".join(f"{mod} {m[f'{mod}.self_s'] / total:.0%}" for mod in MODULES)
        print(f"  self time by layer: {shares}")
        print(f"  trace_overhead {m['trace_overhead']:.3f} ratio")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out", "results"),
                    help="directory for the full result files")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in (os.path.join(ROOT, "src", "carlitzhd", "__init__.py"),
                 os.path.join(ROOT, "tests", "golden"),
                 os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.exists(need):
            print(f"error: {need} is missing; run from a carlitzhd checkout",
                  file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(args.out, exist_ok=True)
    try:
        results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        path = os.path.join(args.out, f"{result['workload']}-seed{args.seed}"
                                      f"-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)
        print_summary(result, spec)
    if args.workload != "all":
        print(json.dumps(contract_line(results[0], spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
