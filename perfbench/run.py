"""spinhall benchmark: one workload, measured from outside the package.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig2e_csv --seed 1 --seconds 30 --trace 0

Every measured repetition is a fresh worker process that imports
spinhall from ``src/`` and calls ``spinhall.cli.main(argv)`` on inputs
generated from ``--seed``.  Repetitions run until ``--seconds`` have
passed (at least MIN_REPS); their outputs are checked after each one,
outside the timed region.  ``--trace 0`` reports the end-to-end metrics
named in BENCHMARK.json, ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics.  Human-readable lines
come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fig2e_csv", "eta_grid_json", "point_queries")
MIN_REPS = 3
RUN_LIMIT_S = 170  # a whole run, hung workers included, ends within this
TAIL_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it


def worker_env() -> dict:
    """This environment without SPINHALL_THREADS, so argv alone sets threads."""
    return {k: v for k, v in os.environ.items() if k != "SPINHALL_THREADS"}


def run_worker(spec: dict, work: Path, env: dict, timeout: float) -> dict | None:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"worker killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def _clear_outputs(plan):
    for cmd in plan.commands:
        for path in (cmd.out, Path(str(cmd.out) + ".manifest.json")):
            path.unlink(missing_ok=True)


@dataclass
class Rep:
    """One checked repetition: worker timings plus check outcomes."""

    result: dict | None
    outcomes: list
    traced: bool

    @property
    def rows(self) -> int:
        return sum(o.rows for o in self.outcomes)


def run_rep(plan, work, env, traced, ref, workloads, timeout) -> Rep:
    spec = {"src": str(SRC), "setup": plan.setup, "trace": traced,
            "commands": [cmd.argv for cmd in plan.commands]}
    result = run_worker(spec, work, env, timeout)
    if result is None:
        outcomes = [workloads.Outcome(False, note="worker failed")
                    for _ in plan.commands]
    else:
        outcomes = [workloads.check(cmd, query, ref)
                    for cmd, query in zip(plan.commands, result["queries"])]
    _clear_outputs(plan)
    return Rep(result, outcomes, traced)


def _tail(samples):
    if len(samples) < TAIL_MIN_SAMPLES:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def best_latencies(reps) -> list:
    """Each command's lowest latency (ms) over the repetitions.

    Every repetition runs the same command list.  The host's speed varies
    by tens of percent from second to second and contention only ever adds
    time, so a command's best of N is steady where the median of the
    repetitions is not (README.md, "Estimators").
    """
    return [min(ms) for ms in zip(*([q["ms"] for q in r.result["queries"]]
                                    for r in reps))]


def end_to_end(workload, reps, setups) -> dict:
    best = best_latencies(reps)
    wall = sum(best) / 1e3
    # the first query of a point_queries process carries lazy first-call
    # set-up; it counts in wall_s and is reported as query.first_ms
    queries = best[1:] if workload == "point_queries" else best
    return {
        "wall_s": wall,
        "rows_per_s": max(r.rows for r in reps) / wall,
        "query_p50_ms": statistics.median(queries),
        "query_p90_ms": _tail(queries),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.result["peak_rss_mb"] for r in reps),
    }


def per_layer(traced, untraced, reps) -> dict:
    names = traced[0].result["layers"]
    out = {name: statistics.median(r.result["layers"][name] for r in traced)
           for name in names}
    outcomes = [o for r in reps for o in r.outcomes]
    rows = sum(o.rows for o in outcomes)
    out["sweep.flagged_ratio"] = sum(o.flagged for o in outcomes) / rows if rows else 0.0
    out["query.first_ms"] = statistics.median(r.result["queries"][0]["ms"]
                                              for r in untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    limit = perf_counter() + RUN_LIMIT_S

    if not (SRC / "spinhall" / "__init__.py").is_file():
        print(f"error: no spinhall package under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    env = worker_env()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.plan(args.workload, args.seed, work)
        ref = workloads.Reference()
        setups = []
        start = perf_counter()
        reps = []
        min_reps = 2 if args.trace else MIN_REPS
        while ((len(reps) < min_reps or perf_counter() - start < args.seconds)
               and perf_counter() < limit):
            # a set-up-only process before each repetition doubles the
            # set-up samples and spreads them over the run
            probe = run_worker({"src": str(SRC), "setup": plan.setup,
                                "trace": False, "commands": []}, work, env,
                               limit - perf_counter())
            if probe is not None:
                setups.append(probe["setup_s"])
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_rep(plan, work, env, traced, ref, workloads,
                                limit - perf_counter()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()

    attempted = sum(len(r.outcomes) for r in reps)
    failed = sum(1 for r in reps for o in r.outcomes if not o.ok)
    good = [r for r in reps if r.result is not None]
    setups += [r.result["setup_s"] for r in good]
    metrics = {}
    if good:
        untraced = [r for r in good if not r.traced]
        if args.trace:
            traced = [r for r in good if r.traced]
            if traced and untraced:
                metrics = per_layer(traced, untraced, reps)
        else:
            metrics = end_to_end(args.workload, untraced, setups)

    for r in reps:
        for cmd, o in zip(plan.commands, r.outcomes):
            if o.note:
                print(f"check {'ok' if o.ok else 'FAILED'}: {' '.join(cmd.argv)}: {o.note}")
    if plan.digest_key:
        recorded = json.loads((HERE / "digests.json").read_text()).get(plan.digest_key)
        seen = {o.digest for r in reps for o in r.outcomes if o.digest}
        print(f"data digest {plan.digest_key}: "
              + ("matches the seed commit" if seen == {recorded}
                 else f"differs from the seed commit ({len(seen)} distinct)"))
    print(f"{args.workload}: {len(reps)} repetitions, {len(setups)} set-ups, "
          f"{attempted} commands attempted; repetition walls (s): "
          + " ".join(f"{r.result['wall_s']:.3f}{'*' if r.traced else ''}"
                     for r in good))
    print(f"failed_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units.get(name, '?')}")
    if args.trace and metrics:
        wall = statistics.median(r.result["wall_s"] for r in good if r.traced)
        writer = metrics["cli.write.self_s"] + metrics["sweep.rows.self_s"]
        print(f"traced wall {wall:.4g} s: writer share (cli.write + sweep.rows "
              f"self time) {writer / wall:.1%}, covered by spans "
              f"{1 - metrics['cli.other.self_s'] / wall:.1%}")
        difference = (sum(best_latencies(r for r in good if r.traced))
                      - sum(best_latencies(r for r in good if not r.traced))) / 1e3
        print(f"traced - untraced wall (best of N) = {difference:.4g} s; "
              "host speed swings dominate it, trace.overhead_s is the wrappers' own time")
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        print(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
              f"undeclared {sorted(extra)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not missing and not extra,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items() if name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
