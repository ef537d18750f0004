"""One cold sample of a benchmark workload, in a fresh process.

run.py starts this script once per sample, with BLAS pinned to one
thread and PYTHONPATH naming the checkout's src/ directory.  It prints
one JSON object as the last line of its standard output.  The entry
point sits behind the ``__main__`` check because the t6 workload starts
spawn pools, whose workers import this file again.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

from tracer import Tracer, call_cost, install
from workloads import WORKLOADS, Check


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = _parse(argv)
    import deeptest

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(deeptest.__file__).resolve().parent.parent != src:
        raise SystemExit(f"deeptest was imported from {deeptest.__file__}, not from {src}")
    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.tiny)
    out = {"setup_s": time.monotonic() - args.spawned_at, "operations": state["operations"]}
    if args.setup_only:
        print(json.dumps(out))
        return

    tracer = Tracer(f"{args.workload}/{state['seed']}/{time.time_ns()}") if args.trace else None
    uninstall = install(tracer) if tracer else None
    error = None
    start = time.perf_counter()
    try:
        outputs = workload.run(state)
    except Exception:
        error = traceback.format_exc()
    out["wall_s"] = time.perf_counter() - start
    if uninstall:
        uninstall()
    if error is None:
        try:
            checks, out["figures"] = workload.evaluate(state, outputs)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        checks = [Check("all", False, "the sample raised")] * state["operations"]
        out["figures"] = None
        print(error, file=sys.stderr)
    out["error"] = error
    out["checks"] = [asdict(c) for c in checks]
    out["failed"] = sum(not c.ok for c in checks)
    out["attempted"] = len(checks)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["pool_worker_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out["seed"] = state["seed"]
    out["versions"] = _versions()
    if tracer:
        out["trace"] = tracer.to_dict()
        out["trace"]["call_cost_s"] = call_cost()
    print(json.dumps(out))


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


if __name__ == "__main__":
    main()
