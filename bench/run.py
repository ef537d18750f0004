"""Benchmark entry point: cold samples of one workload, one JSON result line.

    python3 bench/run.py --workload t1-adaptive --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout: it imports deeptest from the
checkout's src/ only and writes one run record under .bench_out/.  Every
sample is cold: a fresh process, no cache, BLAS pinned to one thread.

A run first starts one untimed set-up process (it compiles bytecode and
verifies the frozen inputs), then, untraced, SETUP_PROBES pairs of a
set-up-only process and a reference process that imports only the
third-party modules deeptest's set-up imports.  setup_s is the median
set-up time scaled by REFERENCE_S over the median reference time, so
that a host whose speed drifts between runs moves both alike (see
NOTES.md).  It then measures one whole sample (with --trace 1, an
untraced and a traced sample).  Every workload's sample takes longer
than the benchmark's --seconds, so --seconds is recorded but sets
nothing.  With --trace 0 the result holds the end-to-end metrics, with
--trace 1 the per-layer metrics and the tracing overhead (traced minus
untraced wall time).  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 4
# The reference process: a fresh interpreter importing the third-party
# modules that deeptest's set-up imports, but not deeptest.  It prints
# time.monotonic() once the imports are done, as a set-up probe does.
REFERENCE = ("import time, dataclasses, hashlib, json, multiprocessing, numpy, scipy.special, yaml; "
             "print(time.monotonic())")
REFERENCE_S = 0.4  # setup_s is in seconds of a host on which the reference takes this long
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
NOTES = (
    "Spans inside spawned pool workers are not recorded; the enclosing "
    "harness.pmap span covers pool work."
)


class SampleFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed, tiny: bool):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.started = time.monotonic()
        self.env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(ROOT / "src")}

    def spawn(self, trace: int = 0, setup_only: bool = False) -> dict:
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise SampleFailed("run time limit reached")
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(ROOT / "bench" / "sample.py"), "--workload", self.workload,
               "--trace", str(trace), "--spawned-at", repr(spawned_at)]
        if self.seed is not None:
            cmd += ["--seed", str(self.seed)]
        cmd += ["--setup-only"] * setup_only + ["--tiny"] * self.tiny
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as err:
            raise SampleFailed(f"sample exceeded {timeout:.0f} s") from err
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SampleFailed(f"sample exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def reference(self) -> float:
        """Seconds from spawning the reference process until its imports are done."""
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, "-c", REFERENCE], env=self.env, cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True, timeout=60)
        except subprocess.TimeoutExpired as err:
            raise SampleFailed("reference process exceeded 60 s") from err
        if proc.returncode != 0:
            raise SampleFailed(f"reference process exited with code {proc.returncode}")
        return float(proc.stdout.split()[-1]) - spawned_at


def measure(runner: Runner, trace: int) -> dict:
    """Run the set-up probes and one sample (a pair when traced)."""
    operations = runner.spawn(setup_only=True)["operations"]
    setups, references = [], []
    for _ in range(0 if trace else SETUP_PROBES):
        setups.append(runner.spawn(setup_only=True)["setup_s"])
        references.append(runner.reference())
    samples = [_sample(runner, t, operations) for t in ((0, 1) if trace else (0,))]
    return {"setups": setups, "references": references, "samples": samples}


def _sample(runner: Runner, trace: int, operations: int) -> dict:
    try:
        return runner.spawn(trace=trace)
    except SampleFailed as err:
        print(f"sample failed: {err}", file=sys.stderr)
        return {"error": str(err), "attempted": operations, "failed": operations, "figures": None}


def catalog(kind: str) -> list:
    """(name, unit) of every metric of one kind in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in doc[kind]]


def summarize(raw: dict, trace: int) -> tuple:
    """(result line, report lines) from the raw samples of one run."""
    samples = raw["samples"]
    untraced = samples[0] if "wall_s" in samples[0] else None
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    figures = [s["figures"] for s in samples]
    if len(samples) > 1:
        # determinism: both samples of a traced run have the same seed
        attempted += 1
        failed += int(figures[1] != figures[0])
    notes, extra = {}, []
    if trace:
        kind = "per_layer"
        values = _layer_values(untraced, samples[1], catalog(kind))
    else:
        kind = "end_to_end"
        first = figures[0] or {}
        setups = raw["setups"] + ([untraced["setup_s"]] if untraced else [])
        values = {
            "wall_s": untraced["wall_s"] if untraced else 0.0,
            "setup_s": _setup_s(setups, raw["references"]),
            "peak_rss_mb": untraced["peak_rss_mb"] if untraced else 0.0,
            "type1_max": first.get("type1_max", 0.0),
            "power_min": first.get("power_min", 0.0),
        }
        for key in ("type1_max", "power_min"):
            if key in first:
                notes[key] = f" (mc_se {first[key + '_se']:.3g})"
        if first.get("asn_err") is not None:
            extra.append(f"asn_err {first['asn_err']:.6g} per group (mc_se {first['asn_err_se']:.3g})")
        if raw["references"]:
            extra.append(f"set-up {_median(setups):.6g} s (median of {len(setups)}) and reference "
                         f"{_median(raw['references']):.6g} s (median of {len(raw['references'])}) as measured")
        if untraced:
            extra.append(f"largest pool worker peak_rss_mb {untraced['pool_worker_peak_rss_mb']:.6g} MB")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in catalog(kind)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = [f"{name} {m['value']:.6g} {m['unit']}{notes.get(name, '')}" for name, m in metrics.items()]
    report += extra
    report.append(f"samples {len(samples)} attempted {attempted} failed {failed}")
    for s in samples:
        for check in s.get("checks", []):
            if not check["ok"]:
                report.append(f"FAILED {check['operation']}: {check['detail']}")
    return result, report


def _layer_values(untraced, traced, per_layer) -> dict:
    """Per-layer values from one untraced and one traced sample; every
    metric is 0 when either sample failed."""
    if untraced is None or "trace" not in traced:
        return {name: 0 for name, _ in per_layer}
    values = {name: traced["trace"]["counts"].get(name, 0) for name, unit in per_layer if unit == "count"}
    values.update(layer_metrics(traced["trace"]))
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values["trace.calls"] = traced["trace"]["calls"]
    values["trace.wrapper_s"] = traced["trace"]["calls"] * traced["trace"]["call_cost_s"]
    values["harness.pool_worker_peak_rss_mb"] = max(
        untraced["pool_worker_peak_rss_mb"], traced["pool_worker_peak_rss_mb"]
    )
    return values


def _median(values):
    return statistics.median(values) if values else 0


def _setup_s(setups, references) -> float:
    """Median set-up time, in seconds of a host on which the reference
    process takes REFERENCE_S."""
    return _median(setups) * REFERENCE_S / _median(references) if references else 0


def machine(workload: str, samples) -> dict:
    versions = next((s["versions"] for s in samples if "versions" in s), {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "deeptest").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "workers": WORKLOADS[workload].workers,
        "blas_threads": BLAS_THREADS,
        **versions,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: the workload config's seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="recorded; one sample is always longer")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "deeptest" / "__init__.py").is_file():
        print(f"no deeptest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.tiny)
    try:
        raw = measure(runner, args.trace)
    except SampleFailed as err:
        print(f"set-up failed: {err}", file=sys.stderr)
        return 1
    result, report = summarize(raw, args.trace)
    samples = raw["samples"]
    record = {
        "workload": args.workload,
        "seed": next((s["seed"] for s in samples if "seed" in s), args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine(args.workload, samples),
        "notes": NOTES,
        "result": result,
        "setups": raw["setups"],
        "references": raw["references"],
        "samples": samples,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = out_dir / f"{args.workload}-seed{record['seed']}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    m = record["machine"]
    print(f"workload {args.workload} seed {record['seed']} nproc {m['nproc']} workers {m['workers']} "
          f"BLAS threads 1 python {m.get('python')} numpy {m.get('numpy')} scipy {m.get('scipy')} "
          f"commit {m['git_commit']}")
    print("\n".join(report))
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
