"""Write pins.json: the digest of every job's output at the current commit.

The benchmark compares each job's output with these digests.  For the
verify and lagrange jobs the digest covers which cells ran, and
``known_failing`` lists the cells that fail at this commit, so a later fix
of one of them is not a mismatch.  Run once, at the commit the benchmark
is defined on:

    python3 bench/pin.py
"""

import json
import os
import shutil
import sys

from checks import cell_key, digest
from worker import BENCH, import_carlitzhd, run_job
from workloads import WORKLOADS


def main() -> int:
    cz = import_carlitzhd()
    digests, known = {}, {}
    scratch = os.path.join(BENCH, "..", ".bench_out", "tmp", "pin")
    os.makedirs(scratch, exist_ok=True)
    for workload in WORKLOADS.values():
        for job in workload.jobs:
            out = run_job(cz, job, seed=0, scratch=scratch)
            if job.kind == "cli_omega":
                with open(out, "rb") as fh:
                    out = fh.read()
            digests[job.id] = digest(job, out)
            if job.kind in ("verify", "lagrange"):
                bad = [cell_key(c) for c in out.cells if not c.passed]
                if bad:
                    known[job.id] = bad
            print(job.id, digests[job.id][:12], file=sys.stderr)
    shutil.rmtree(scratch)
    with open(os.path.join(BENCH, "pins.json"), "w") as fh:
        json.dump({"digests": digests, "known_failing": known}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
