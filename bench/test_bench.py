"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

The smoke tests run every workload at its tiny size (about four minutes
on two cores, most of it the fixed-size n2 table and critical-surface
fits of t1-adaptive).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import pytest

from run import REFERENCE_S, _setup_s, catalog
from tracer import layer_metrics, self_times
from workloads import Windows, _heatmap_problems, heatmap_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# counts that must repeat exactly across two traced runs at one seed
EXACT_COUNTS = ("ssr.cp_calls", "nnet.adam_steps.stat", "nnet.adam_steps.crit",
                "nnet.predict_rows", "ssr.trials")


def test_self_times_subtract_the_union_of_children():
    spans = [
        ["harness.fit", 0.0, 10.0, -1],
        ["nnet.train.stat", 1.0, 4.0, 0],
        ["ssr.simulate_trials", 3.0, 6.0, 0],  # overlaps its sibling
        ["nnet.predict", 2.0, 3.0, 1],
        ["stats.empirical_upper_quantile", 9.0, 12.0, 0],  # ends after its parent
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]
    values = layer_metrics({"spans": spans, "counts": {}})
    assert values["harness.self_s"] == 4.0
    assert values["nnet.self_s"] == 3.0
    assert values["nnet.train_s.stat"] == 3.0
    assert values["ssr.self_s"] == 3.0
    assert values["stats.self_s"] == 3.0
    assert values["pipeline.self_s"] == 0.0


def test_setup_s_scales_the_median_set_up_by_the_median_reference():
    assert _setup_s([0.5, 0.7, 0.6], [0.45, 0.4, 0.5]) == pytest.approx(0.6 * REFERENCE_S / 0.45)
    # a host twice as slow doubles both medians and leaves setup_s alone
    assert _setup_s([1.0, 1.4, 1.2], [0.9, 0.8, 1.0]) == pytest.approx(0.6 * REFERENCE_S / 0.45)


def test_type1_window_scales_with_calibration_and_validation_sizes():
    gate = SimpleNamespace(b_prime=100_000, b_val=200_000)
    windows = Windows(gate, SimpleNamespace(b_prime=25_000, b_val=20_000), widen=6.3)
    # DNN: (1/25k + 1/20k) / (1/100k + 1/200k) = 6 times the variance
    assert windows.type1(0.005, True) == pytest.approx(0.005 * 6 ** 0.5)
    # a comparator's window scales with validation alone
    assert windows.type1(0.005, False) == pytest.approx(0.005 * 10 ** 0.5)
    # and never drops under five validation standard errors
    same = SimpleNamespace(b_prime=10_000, b_val=20_000)
    assert Windows(same, same, widen=1.0).type1(0.006, False) == pytest.approx(
        5 * (0.05 * 0.95 / 20_000) ** 0.5
    )


def test_heatmap_rows_are_checked_against_the_recorded_means():
    reference = np.random.default_rng(0).uniform(size=(4, 4))
    reference[0] = 0.0  # a row never seen to reject still gets a window
    recorded = heatmap_reference(reference, 5_000)
    assert _heatmap_problems(reference, 4, 250, recorded) == []
    near = reference.copy()
    near[0, 0] = 1 / 250
    assert _heatmap_problems(near, 4, 250, recorded) == []
    shifted = reference.copy()
    shifted[2] = np.clip(shifted[2] + 0.2, 0.0, 1.0)
    assert [p.split(" mean")[0] for p in _heatmap_problems(shifted, 4, 250, recorded)] == ["row 2"]
    assert _heatmap_problems(reference[:3], 4, 250, recorded) == ["shape (3, 4)"]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "f1-apply", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke(workload):
    plain = _run(workload, 0)
    traced = [_run(workload, 1) for _ in range(2)]
    for result, kind in [(plain, "end_to_end")] + [(t, "per_layer") for t in traced]:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(catalog(kind))
    for name in EXACT_COUNTS:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name
