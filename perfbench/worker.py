"""One fresh benchmark process: set up spinhall, run a command list
through ``spinhall.cli.main`` and print one JSON line of timings.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds ``src`` (the directory holding the package), ``setup``
(keyword arguments of the first ``load_config``), ``commands`` (argv
lists) and ``trace`` (install the span tracer after set-up).
"""

import sys
from time import perf_counter

T0 = perf_counter()


def main(spec_path):
    import json
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    sys.path.insert(0, spec["src"])
    import spinhall.cli
    from spinhall import load_config
    load_config(**spec["setup"])
    setup_s = perf_counter() - T0

    import contextlib
    import io
    import resource
    import traceback
    from pathlib import Path

    if not Path(spinhall.cli.__file__).resolve().is_relative_to(spec["src"]):
        raise SystemExit(f"imported spinhall from {spinhall.cli.__file__}, "
                         f"not from {spec['src']}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()

    queries = []
    t0 = perf_counter()
    for argv in spec["commands"]:
        captured = io.StringIO()
        error = ""
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                rc = spinhall.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            rc, error = exc.code, f"SystemExit({exc.code})"
        except Exception:  # a traceback: recorded as a failed command
            rc, error = -1, traceback.format_exc()
        queries.append({"ms": (perf_counter() - start) * 1e3, "rc": rc,
                        "stdout": captured.getvalue(), "error": error})
    t1 = perf_counter()

    result = {
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "queries": queries,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, t0, t1)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
