"""The benchmark's workloads: inputs, the timed work, and output checks.

Every check window starts from an acceptance-gate window
(tests/test_acceptance.py) and is rescaled by the Monte Carlo sizes that
set the checked number's noise, from the gate's sizes to the run's:

- a type I rate: the calibration draws per critical point (``b_prime``,
  DNN only) and the validation trials per point (``b_val``).  A test
  calibrated by simulation under the null has level alpha up to those
  two errors, whatever its statistic was trained on.  The window is the
  gate's, in units of that standard error, and never under five
  validation standard errors;
- ASN and power: every training and calibration size, which scale with
  the run's scale, so the window grows by sqrt(gate scale / run scale).

Where a run is compared with recorded rows, the window is five combined
standard errors: two-sided p = 6e-7 per comparison keeps the chance of
any false failure in a two-commit comparison (about 50 runs of up to
200 comparisons) under 1%.  No window comes from observed runs.

An operation is one output unit that gets checked: a validation point,
a heatmap panel, or the load of a frozen bundle.  A sample that raises
counts every operation as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

FROZEN = Path(__file__).resolve().parent / "frozen"
ALPHA = 0.05
F1_PANELS = (("null", 0.27, 0.27), ("alt", 0.27, 0.40))
F1_STREAM = 7  # the stream reproduce("F1") draws its heatmaps from
F1_REFERENCE_STREAM = 8  # freeze.py draws the recorded heatmaps from this one
Z = 5.0  # standard errors in a comparison with recorded rows


@dataclass
class Check:
    operation: str
    ok: bool
    detail: str


def _figures(rows, references) -> dict:
    """Headline numbers: largest DNN type I, smallest DNN power, and the
    largest |ASN - published anchor| (None without ASN rows)."""
    type1 = max((r for r in rows if r.method == "dnn" and r.metric == "type_i"), key=lambda r: r.value)
    power = min((r for r in rows if r.method == "dnn" and r.metric == "power"), key=lambda r: r.value)
    asn = [
        (abs(r.value - references[(r.point, r.method, r.metric)]), r.mc_se)
        for r in rows
        if r.metric == "asn" and (r.point, r.method, r.metric) in references
    ]
    worst = max(asn) if asn else (None, None)
    return {
        "type1_max": type1.value,
        "type1_max_se": type1.mc_se,
        "power_min": power.value,
        "power_min_se": power.mc_se,
        "asn_err": worst[0],
        "asn_err_se": worst[1],
    }


def _by_point(rows) -> dict:
    out = {}
    for row in rows:
        out.setdefault(row.point, {})[(row.method, row.metric)] = row
    return out


def _rate_se(rate: float, *sizes) -> float:
    """Standard error of a rate whose noise comes from draws of the
    given sizes."""
    return math.sqrt(rate * (1.0 - rate) * sum(1.0 / n for n in sizes))


@dataclass(frozen=True)
class Windows:
    """Check windows of one run, rescaled from the gate's sizes (see the
    module docstring)."""

    gate: object  # Sizes at the gate's scale
    run: object  # Sizes of the run
    widen: float  # sqrt(gate scale / run scale)

    def type1(self, window: float, calibrated: bool) -> float:
        def se(sizes):
            return _rate_se(ALPHA, *((sizes.b_prime,) if calibrated else ()), sizes.b_val)

        return max(window * se(self.run) / se(self.gate), Z * _rate_se(ALPHA, self.run.b_val))


@dataclass(frozen=True)
class ExhibitFit:
    """A canned exhibit's config fitted cold and validated, as
    ``reproduce(table, scale)`` runs it, except that:

    - the fit always uses the config's own seed, and the run's seed
      seeds validation only.  The seed picks the network structures, and
      with them a third of the run's time (t6 took 23 s at seed 507 and
      37 s at seed 506), so fits at varying seeds spread more than the
      host does;
    - validation draws ``b_val`` trials per point instead of the scaled
      size.  Validation is under 2% of the run; at the scaled size its
      noise made the reported type I rates spread more than the fit;
    - calibration draws ``b_prime`` null samples per critical point,
      when given, instead of the scaled size."""

    name: str
    table: str
    config: str
    scale: float
    tiny_scale: float
    workers: int
    gate_scale: float  # scale at which the acceptance gate states its windows
    b_val: int
    b_prime: int | None = None

    def setup(self, seed, tiny: bool) -> dict:
        from deeptest.harness import load_config, packaged_config, reference_values, scaled_config

        (config,) = load_config(packaged_config(self.config))
        scale = self.tiny_scale if tiny else self.scale
        gate = scaled_config(config, self.gate_scale).sizes
        config = scaled_config(config, scale)
        if not tiny:
            b_prime = self.b_prime or config.sizes.b_prime
            counts = replace(config.scenario.counts, b_prime=b_prime)
            config = replace(config, sizes=replace(config.sizes, b_val=self.b_val, b_prime=b_prime),
                             scenario=replace(config.scenario, counts=counts))
        return {
            "seed": config.seed if seed is None else seed,
            "config": config,
            "windows": Windows(gate, config.sizes, math.sqrt(self.gate_scale / scale)),
            "operations": len(config.validation_points),
            "references": reference_values(self.table),
        }

    def run(self, state):
        from deeptest.harness import fit_test, validate

        config = state["config"]
        test, n2_table = fit_test(config, workers=self.workers)
        return validate(test, replace(config, seed=state["seed"]), workers=self.workers, n2_table=n2_table)

    def evaluate(self, state, table) -> tuple:
        checks = []
        for point, cells in _by_point(table.rows).items():
            problems = _POINT_CHECKS[self.table](cells, state["references"], state["windows"])
            checks.append(Check(point, not problems, "; ".join(problems) or "ok"))
        if len(checks) != state["operations"]:
            checks.append(Check("points", False, f"{len(checks)} validation points"))
        return checks, _figures(table.rows, state["references"])


def _t1_problems(cells, references, windows) -> list:
    """Criterion 4 (stated at scale 0.1): DNN and INCTA type I within
    0.05 +/- 0.006, BM type I <= 0.056, ASN within 4 of the published
    403 (null 0.27) and 227 (delta 0.13), and DNN ahead of INCTA by at
    least 0.03 at delta 0.13, i.e. at most (published gap - 0.03) below
    the published gap."""
    problems = []
    point = next(iter(cells.values())).point
    widen = windows.widen
    if ("dnn", "type_i") in cells:
        for method in ("dnn", "incta"):
            value, window = cells[method, "type_i"].value, windows.type1(0.006, method == "dnn")
            if abs(value - ALPHA) > window:
                problems.append(f"{method} type I {value:.4f} outside {ALPHA} +/- {window:.4f}")
        value, window = cells["bm", "type_i"].value, windows.type1(0.006, False)
        if value > ALPHA + window:
            problems.append(f"bm type I {value:.4f} > {ALPHA + window:.4f}")
    if point in ("pi_p=0.27,pi_t=0.27", "pi_p=0.27,pi_t=0.4"):
        value, anchor = cells["design", "asn"].value, references[point, "design", "asn"]
        if abs(value - anchor) > 4.0 * widen:
            problems.append(f"ASN {value:.1f} outside {anchor} +/- {4.0 * widen:.1f}")
    if point == "pi_p=0.27,pi_t=0.4":
        published = references[point, "dnn", "power"] - references[point, "incta", "power"]
        floor = published - (published - 0.03) * widen
        gap = cells["dnn", "power"].value - cells["incta", "power"].value
        if gap < floor:
            problems.append(f"DNN - INCTA power {gap:.4f} < {floor:.4f}")
    return problems


def _t6_problems(cells, references, windows) -> list:
    """Criterion 3 (stated at shipped sizes): DNN type I within
    0.05 +/- 0.005, and DNN power within 0.015 of Welch on the same draws."""
    if ("dnn", "type_i") in cells:
        value, window = cells["dnn", "type_i"].value, windows.type1(0.005, True)
        if abs(value - ALPHA) > window:
            return [f"type I {value:.4f} outside {ALPHA} +/- {window:.4f}"]
        return []
    gap = abs(cells["dnn", "power"].value - cells["welch", "power"].value)
    if gap > 0.015 * windows.widen:
        return [f"|DNN - Welch| power {gap:.4f} > {0.015 * windows.widen:.4f}"]
    return []


_POINT_CHECKS = {"T1": _t1_problems, "T6": _t6_problems}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class FrozenApply:
    """Apply a frozen fitted adaptive test: validate the T1 grid at
    ``b_val`` trials per point, then export both F1 heatmap panels at
    ``reps`` reps.  No training and no table build."""

    name: str
    b_val: int
    reps: int
    tiny_reps: int
    tiny_scale: float
    workers: int = 1

    def setup(self, seed, tiny: bool) -> dict:
        import numpy as np

        from deeptest.harness import load_config, packaged_config, reference_values, scaled_config
        from deeptest.pipeline import load_bundle

        manifest = json.loads((FROZEN / "manifest.json").read_text(encoding="utf-8"))
        for name, digest in manifest["sha256"].items():
            actual = sha256_file(FROZEN / name)
            if actual != digest:
                raise ValueError(f"frozen input {name}: sha256 {actual} != recorded {digest}")
        (config,) = load_config(packaged_config("musec.cfg"))
        if tiny:
            config = scaled_config(config, self.tiny_scale)
        else:
            config = replace(config, sizes=replace(config.sizes, b_val=self.b_val))
        seed = config.seed if seed is None else seed
        return {
            "seed": seed,
            "config": replace(config, seed=seed),
            "test": load_bundle((FROZEN / "bundle.json").read_text(encoding="utf-8")),
            "n2_table": np.loadtxt(FROZEN / "n2_table.csv", delimiter=",", dtype=np.int64),
            "recorded": manifest["validation"],
            "recorded_heatmaps": manifest["heatmaps"],
            "reps": self.tiny_reps if tiny else self.reps,
            "operations": 1 + len(config.validation_points) + len(F1_PANELS),
            "references": reference_values("T1"),
        }

    def run(self, state):
        from deeptest.harness import validate
        from deeptest.streams import RandomStream

        config, test, n2_table = state["config"], state["test"], state["n2_table"]
        table = validate(test, config, workers=self.workers, n2_table=n2_table)
        stream = RandomStream(seed=state["seed"]).child(F1_STREAM)
        return table, f1_heatmaps(test, config.design, n2_table, state["reps"], stream, self.workers)

    def evaluate(self, state, outputs) -> tuple:
        from deeptest.harness import Row

        table, grids = outputs
        side = state["config"].design.n1 + 1
        test = state["test"]
        checks = [
            Check(
                "bundle",
                test.scenario.kind == "adaptive-binomial" and state["n2_table"].shape == (side, side),
                f"{test.scenario.kind}, table {state['n2_table'].shape}",
            )
        ]
        recorded = _by_point(Row(*row) for row in state["recorded"])
        for point, cells in _by_point(table.rows).items():
            problems = []
            for key, row in cells.items():
                ref = recorded.get(point, {}).get(key)
                if ref is None:
                    problems.append(f"{key} not recorded")
                    continue
                window = Z * math.hypot(row.mc_se, ref.mc_se)
                if abs(row.value - ref.value) > window:
                    problems.append(f"{key} {row.value:.4f} vs recorded {ref.value:.4f} +/- {window:.4f}")
            checks.append(Check(point, not problems, "; ".join(problems) or "ok"))
        for (panel, _, _), grid in zip(F1_PANELS, grids):
            problems = _heatmap_problems(grid, side, state["reps"], state["recorded_heatmaps"][panel])
            checks.append(Check(f"heatmap {panel}", not problems, "; ".join(problems) or "ok"))
        if len(checks) != state["operations"]:
            checks.append(Check("points", False, f"{len(checks)} operations checked"))
        return checks, _figures(table.rows, state["references"])


def f1_heatmaps(test, design, n2_table, reps: int, stream, workers: int = 1) -> list:
    """Both F1 panels, panel i drawn from ``stream.child(i)``."""
    from deeptest.harness import heatmap_export

    return [
        heatmap_export(test, design, n2_table, pi_p, pi_t, reps, stream.child(i), workers=workers)
        for i, (_, pi_p, pi_t) in enumerate(F1_PANELS)
    ]


def heatmap_reference(grid, reps: int) -> dict:
    """Row means of a heatmap grid and, per row, the variance of one
    rep's row mean, sum_j p_j (1 - p_j) / side^2, with each cell's rate
    kept at least half a rep from 0 and 1 so that a cell never seen to
    reject (or accept) still has a variance."""
    import numpy as np

    rates = np.clip(grid, 0.5 / reps, 1.0 - 0.5 / reps)
    return {
        "reps": reps,
        "row_mean": grid.mean(axis=1).tolist(),
        "row_var": ((rates * (1.0 - rates)).sum(axis=1) / grid.shape[1] ** 2).tolist(),
    }


def _heatmap_problems(grid, side: int, reps: int, recorded: dict) -> list:
    """Each row mean against the recorded one, within Z combined
    standard errors (both from the recorded rates)."""
    if grid.shape != (side, side):
        return [f"shape {grid.shape}"]
    problems = []
    ref_reps = recorded["reps"]
    rows = zip(grid.mean(axis=1), recorded["row_mean"], recorded["row_var"])
    for row, (mean, ref, var) in enumerate(rows):
        window = Z * math.sqrt(var * (1.0 / reps + 1.0 / ref_reps))
        if abs(mean - ref) > window:
            problems.append(f"row {row} mean {mean:.4f} vs recorded {ref:.4f} +/- {window:.4f}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        ExhibitFit("t1-adaptive", "T1", "musec.cfg", scale=0.01, tiny_scale=0.002,
                   workers=1, gate_scale=0.1, b_val=20_000),
        ExhibitFit("t6-behrens-fisher", "T6", "table6.cfg", scale=0.025, tiny_scale=0.005,
                   workers=2, gate_scale=1.0, b_val=20_000, b_prime=25_000),
        FrozenApply("f1-apply", b_val=300_000, reps=400, tiny_reps=20, tiny_scale=0.005),
    )
}
