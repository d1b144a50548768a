"""Record the sha256 of the data bytes of every grid output the benchmark
can generate, into digests.json next to this file.

Usage (from the root of a checkout): python3 perfbench/record_digests.py

run.py reports whether a run's data bytes match these digests; it does
not gate on them, since a documented last-ulp change is allowed.  Re-run
this only when such a change has been accepted.
"""

import json
import os
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main():
    work = run.ROOT / ".perfbench_work" / f"digests-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ref = workloads.Reference()
    digests = {}
    try:
        # each eta_grid plan rewrites the shared config file, so build a
        # plan only just before its run
        for variant in [None] + workloads.eta_grid_variants():
            plan = (workloads.fig2e_plan(0, work) if variant is None
                    else workloads.eta_grid_plan(*variant, work))
            rep = run.run_rep(plan, work, run.worker_env(), False, ref,
                              workloads, run.RUN_LIMIT_S)
            (outcome,) = rep.outcomes
            if not outcome.ok:
                raise SystemExit(f"{plan.digest_key}: check failed: {outcome.note}")
            digests[plan.digest_key] = outcome.digest
            print(plan.digest_key, outcome.digest, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    main()
