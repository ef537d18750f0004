"""Configuration-driven experiment harness.

An ExperimentConfig describes one testing problem end to end: the
scenario, the network pools and training settings for both folds, the
Monte Carlo sizes, the comparators, and the validation grid.
run_experiment executes generate -> select -> fit -> calibrate ->
validate and emits a ResultsTable plus a persisted model bundle;
fit_test is the statistic stage (train_statistic) followed by the
calibration stage (calibrate_statistic), which the CLI also runs one at
a time.

Nothing here branches on the scenario kind except the input guards of
the adaptive-only tools (sample-size search, recalibration, heatmaps):
config parsing, validation and heatmap rows go through the kind's
record in scenarios.FAMILIES.  A config file is read strictly: a key
that no reader uses fails with the section and key named.

Reproducibility contract: every random stage draws from a fixed child
of the config seed, and parallel work is scheduled as order-preserving
maps over per-task substreams, so results are bit-identical across
reruns and across worker counts.

Root substream assignment:

    0 (unused)              1 training data    2 statistic fit
    3 critical calibration  4 validation       5 sample-size search

The reassessment table is seed-free (a quadrature, see ssr), so one
table serves every seed of a design.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import yaml

from . import _BLAS_THREAD_VARS, pipeline
from .nnet import HEAD_CLASSIFIER, HEAD_REGRESSOR, NetworkSpec, TrainConfig
from .pipeline import (
    CandidatePool,
    ConstantCutoff,
    FittedTest,
    _scenario_to_dict,
)
from .scenarios import (
    FAMILIES,
    KIND_ADAPTIVE,
    ScenarioSpec,
    gen_critical_inputs,
    gen_null_features,
    generate_training_data,
)
from .ssr import DesignParams, TrialBatch, derive_capped_table, n2_lookup_table, simulate_trials
from .streams import RandomStream

__all__ = [
    "StageError",
    "Sizes",
    "ExperimentConfig",
    "Row",
    "ResultsTable",
    "CacheStore",
    "worker_pool",
    "pmap",
    "config_hash",
    "config_to_dict",
    "load_config",
    "packaged_config",
    "scaled_config",
    "fit_test",
    "train_statistic",
    "calibrate_statistic",
    "validate",
    "validate_point",
    "run_experiment",
    "recalibrate_critical",
    "asn_for_power",
    "heatmap_export",
    "reproduce",
    "reference_values",
    "EXHIBITS",
]

_DATA_STREAM = 1
_FIT_STREAM = 2
_CRIT_STREAM = 3
_VAL_STREAM = 4
_ASN_STREAM = 5

# the keys each config-file section may hold; any other key is an error
_CFG_KEYS = (
    "seed", "alpha", "bm_level", "scenario", "design", "critical_points", "sizes",
    "first_fold", "second_fold", "comparators", "validation_points",
)
_FOLD_KEYS = ("depths", "widths", "dropout", "epochs", "batch_size", "learning_rate")

# modules whose source salts each cached artifact's key
_TABLE_SOURCES = ("ssr", "stats")
_BUNDLE_SOURCES = ("ssr", "stats", "streams", "scenarios", "nnet", "pipeline", "harness")

METRIC_TYPE_I = "type_i"
METRIC_POWER = "power"
METRIC_ASN = "asn"


class StageError(RuntimeError):
    """Failure wrapped with the pipeline stage that raised it."""

    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"{stage}: {original}")
        self.stage = stage
        self.original = original


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as err:
        raise StageError(name, err) from err


# ------------------------------------------------------------------- config


@dataclass(frozen=True)
class Sizes:
    """Monte Carlo sizes: training classes b0/b1 (per grid point),
    calibration draws b_prime, and validation draws b_val."""

    b0: int
    b1: int
    b_prime: int
    b_val: int

    def __post_init__(self):
        for name in ("b0", "b1", "b_prime", "b_val"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def scaled(self, factor: float) -> "Sizes":
        if not 0.0 < factor <= 1.0:
            raise ValueError("scale factor must lie in (0, 1]")
        return Sizes(
            b0=max(1, round(self.b0 * factor)),
            b1=max(1, round(self.b1 * factor)),
            b_prime=max(1, round(self.b_prime * factor)),
            b_val=max(1, round(self.b_val * factor)),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, with a mandatory seed."""

    scenario: ScenarioSpec
    first_pool: CandidatePool
    first_train: TrainConfig
    sizes: Sizes
    seed: int
    validation_points: tuple
    design: DesignParams | None = None
    second_pool: CandidatePool | None = None
    second_train: TrainConfig | None = None
    comparators: tuple = ()
    alpha: float = 0.05
    bm_level: float = 0.033

    def __post_init__(self):
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        family = self.scenario.family
        counts = self.scenario.counts
        if (counts.b0, counts.b1, counts.b_prime) != (
            self.sizes.b0,
            self.sizes.b1,
            self.sizes.b_prime,
        ):
            raise ValueError("scenario counts must mirror sizes")
        if self.scenario.kind == KIND_ADAPTIVE:
            if self.design is None:
                raise ValueError("adaptive scenario needs design parameters")
            if self.design.n1 != self.scenario.n:
                raise ValueError("design n1 must match scenario n")
            if self.design.alpha != self.alpha:
                raise ValueError("config alpha must match design alpha")
            if not 0.0 < self.bm_level < 1.0:
                raise ValueError("bm_level must lie in (0, 1)")
        if family.critical_dim > 0:
            if self.second_pool is None or self.second_train is None:
                raise ValueError("two-fold scenarios need a second pool and train config")
            if self.second_pool.input_dim != family.critical_dim:
                raise ValueError("second pool input_dim does not match the kind")
            if self.second_pool.head != HEAD_REGRESSOR:
                raise ValueError("second pool must use the regressor head")
        if self.first_pool.input_dim != self.scenario.input_dim:
            raise ValueError("first pool input_dim does not match the scenario")
        if self.first_pool.head != HEAD_CLASSIFIER:
            raise ValueError("first pool must use the classifier head")
        allowed = [name for name, _ in family.comparators]
        for name in self.comparators:
            if name not in allowed:
                raise ValueError(f"comparator {name!r} not available for {family.kind}")
        if len(self.validation_points) == 0:
            raise ValueError("validation_points must be nonempty")
        keys = set(family.point_keys)
        for point in self.validation_points:
            if set(point) != keys:
                raise ValueError(f"validation point must have keys {sorted(keys)}")


def _pool_to_dict(pool: CandidatePool) -> dict:
    return {
        "input_dim": pool.input_dim,
        "head": pool.head,
        "candidates": [
            {"hidden_layers": list(s.hidden_layers), "dropout_rate": s.dropout_rate}
            for s in pool.specs
        ],
    }


def _train_to_dict(config: TrainConfig) -> dict:
    return {
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "validation_fraction": config.validation_fraction,
    }


def config_to_dict(config: ExperimentConfig) -> dict:
    doc = {
        "scenario": _scenario_to_dict(config.scenario),
        "first_pool": _pool_to_dict(config.first_pool),
        "first_train": _train_to_dict(config.first_train),
        "sizes": {
            "b0": config.sizes.b0,
            "b1": config.sizes.b1,
            "b_prime": config.sizes.b_prime,
            "b_val": config.sizes.b_val,
        },
        "seed": config.seed,
        "validation_points": [dict(p) for p in config.validation_points],
        "comparators": list(config.comparators),
        "alpha": config.alpha,
        "bm_level": config.bm_level,
    }
    if config.design is not None:
        doc["design"] = {
            "n1": config.design.n1,
            "n2_min": config.design.n2_min,
            "n2_max": config.design.n2_max,
            "cep_target": config.design.cep_target,
            "gamma": config.design.gamma,
            "alpha": config.design.alpha,
        }
    if config.second_pool is not None:
        doc["second_pool"] = _pool_to_dict(config.second_pool)
        doc["second_train"] = _train_to_dict(config.second_train)
    return doc


def _design_from_doc(doc: dict) -> DesignParams:
    if "cep_mc_iters" in doc:
        raise ValueError(
            "design key 'cep_mc_iters' was removed: CEP is now a fixed Gauss-Jacobi "
            "quadrature with no Monte Carlo size; delete the key"
        )
    _check_keys("design", doc, [f.name for f in fields(DesignParams)])
    return DesignParams(**doc)


def _check_keys(section: str, doc: dict, allowed) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(
            f"config section {section!r}: unknown key {', '.join(map(repr, unknown))} "
            f"(allowed: {', '.join(allowed)})"
        )


def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(_canonical_json(config_to_dict(config)).encode()).hexdigest()


def scaled_config(config: ExperimentConfig, factor: float) -> ExperimentConfig:
    """Multiply every Monte Carlo size by the factor (grids unchanged)."""
    sizes = config.sizes.scaled(factor)
    counts = replace(
        config.scenario.counts, b0=sizes.b0, b1=sizes.b1, b_prime=sizes.b_prime
    )
    scenario = replace(config.scenario, counts=counts)
    return replace(config, sizes=sizes, scenario=scenario)


# --------------------------------------------------------------- config I/O


def _pool_from_cfg(doc: dict, input_dim: int, head: str) -> CandidatePool:
    specs = tuple(
        NetworkSpec(
            input_dim=input_dim,
            hidden_layers=(int(width),) * int(depth),
            head=head,
            dropout_rate=float(doc.get("dropout", 0.1)),
        )
        for depth in doc["depths"]
        for width in doc["widths"]
    )
    return CandidatePool(specs=specs)


def _train_from_cfg(doc: dict) -> TrainConfig:
    return TrainConfig(
        epochs=int(doc["epochs"]),
        batch_size=int(doc["batch_size"]),
        learning_rate=float(doc.get("learning_rate", 1e-3)),
    )


def _config_from_cfg_doc(doc: dict) -> ExperimentConfig:
    _check_keys("top level", doc, _CFG_KEYS)
    _check_keys("sizes", doc["sizes"], [f.name for f in fields(Sizes)])
    for fold in ("first_fold", "second_fold"):
        if fold in doc:
            _check_keys(fold, doc[fold], _FOLD_KEYS)
    sizes = Sizes(**{k: int(v) for k, v in doc["sizes"].items()})
    critical_points = int(doc.get("critical_points", 100))
    alpha = float(doc.get("alpha", 0.05))
    scenario_doc = doc["scenario"]
    kind = scenario_doc["kind"]
    if kind not in FAMILIES:
        raise ValueError(f"unknown scenario kind {kind!r}")
    family = FAMILIES[kind]
    _check_keys("scenario", scenario_doc, ("kind",) + family.cfg_keys)
    scenario = family.from_cfg(scenario_doc, sizes, critical_points, alpha)
    first_pool = _pool_from_cfg(doc["first_fold"], scenario.input_dim, HEAD_CLASSIFIER)
    second_pool = None
    second_train = None
    if family.critical_dim > 0:
        second_pool = _pool_from_cfg(doc["second_fold"], family.critical_dim, HEAD_REGRESSOR)
        second_train = _train_from_cfg(doc["second_fold"])
    design = _design_from_doc(doc["design"]) if "design" in doc else None
    return ExperimentConfig(
        scenario=scenario,
        first_pool=first_pool,
        first_train=_train_from_cfg(doc["first_fold"]),
        sizes=sizes,
        seed=int(doc["seed"]),
        validation_points=tuple(
            {k: float(v) for k, v in p.items()} for p in doc["validation_points"]
        ),
        design=design,
        second_pool=second_pool,
        second_train=second_train,
        comparators=tuple(doc.get("comparators", ())),
        alpha=alpha,
        bm_level=float(doc.get("bm_level", 0.033)),
    )


def load_config(path) -> list:
    """Parse a .cfg file (YAML schema) into experiment configs.

    A file holds either one experiment mapping or a top-level
    ``experiments:`` list of them.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ValueError(f"invalid config syntax: {err}") from err
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a mapping")
    entries = doc["experiments"] if "experiments" in doc else [doc]
    configs = []
    for entry in entries:
        try:
            configs.append(_config_from_cfg_doc(entry))
        except KeyError as err:
            raise ValueError(
                f"config missing required field {err.args[0]!r}"
            ) from err
    return configs


def packaged_config(name: str) -> Path:
    """Path of a canned config shipped with the package."""
    path = Path(__file__).parent / "configs" / name
    if not path.exists():
        raise ValueError(f"no packaged config named {name!r}")
    return path


# ------------------------------------------------------------------ results


@dataclass(frozen=True)
class Row:
    """One table cell: a scenario point, a method, and one metric."""

    point: str
    method: str
    metric: str
    value: float
    mc_se: float
    reps: int

    def __post_init__(self):
        if self.metric not in (METRIC_TYPE_I, METRIC_POWER, METRIC_ASN):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.metric != METRIC_ASN and np.isfinite(self.value):
            if not 0.0 <= self.value <= 1.0:
                raise ValueError("rates must lie in [0, 1]")


@dataclass
class ResultsTable:
    rows: list

    def find(self, point=None, method=None, metric=None) -> list:
        out = []
        for row in self.rows:
            if point is not None and row.point != point:
                continue
            if method is not None and row.method != method:
                continue
            if metric is not None and row.metric != metric:
                continue
            out.append(row)
        return out

    def value(self, point: str, method: str, metric: str) -> float:
        rows = self.find(point, method, metric)
        if len(rows) != 1:
            raise KeyError(f"{len(rows)} rows match ({point}, {method}, {metric})")
        return rows[0].value

    def to_csv(self, path) -> None:
        lines = ["point,method,metric,value,mc_se,reps"]
        for row in self.rows:
            lines.append(
                f"{row.point},{row.method},{row.metric},"
                f"{row.value:.17g},{row.mc_se:.17g},{row.reps}"
            )
        text = "\n".join(lines) + "\n"
        if hasattr(path, "write"):
            path.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _point_label(point: dict) -> str:
    return ",".join(f"{key}={point[key]:g}" for key in sorted(point))


def _rate_row(point: str, method: str, metric: str, hits: np.ndarray) -> Row:
    reps = hits.size
    rate = float(np.mean(hits))
    se = float(np.sqrt(rate * (1.0 - rate) / reps))
    return Row(point=point, method=method, metric=metric, value=rate, mc_se=se, reps=reps)


# -------------------------------------------------------------------- cache


class CacheStore:
    """Hash-keyed artifact store: any change in the key dict moves the
    artifact to a new path, so edits to a config field invalidate every
    dependent cached object."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: dict, suffix: str) -> Path:
        digest = hashlib.sha256(_canonical_json(key).encode()).hexdigest()[:40]
        return self.root / f"{digest}{suffix}"

    def load_array(self, key: dict):
        path = self._path(key, ".npy")
        return np.load(path) if path.exists() else None

    def store_array(self, key: dict, value: np.ndarray) -> None:
        self._publish(self._path(key, ".npy"), lambda handle: np.save(handle, np.asarray(value)))

    def load_text(self, key: dict):
        path = self._path(key, ".json")
        return path.read_text(encoding="utf-8") if path.exists() else None

    def store_text(self, key: dict, value: str) -> None:
        self._publish(self._path(key, ".json"), lambda handle: handle.write(value.encode("utf-8")))

    @staticmethod
    def _publish(path: Path, write) -> None:
        # each writer fills its own tmp file and renames it over the
        # artifact atomically, so concurrent writers of one key never
        # share a partly written file
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "xb") as handle:
                write(handle)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


@lru_cache(maxsize=None)
def _source_digest(modules: tuple) -> str:
    """sha256 of the named package modules' source files, in order."""
    digest = hashlib.sha256()
    for name in modules:
        digest.update(f"{name}\0".encode())
        digest.update((Path(__file__).parent / f"{name}.py").read_bytes())
    return digest.hexdigest()


def _blas_threads() -> dict:
    """The BLAS thread settings, which change the bits of a matmul."""
    return {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}


def _design_key(design: DesignParams) -> dict:
    return {
        "kind": "n2-table",
        "source": _source_digest(_TABLE_SOURCES),
        "versions": _versions(),
        "blas_threads": _blas_threads(),
        "n1": design.n1,
        "n2_min": design.n2_min,
        "n2_max": design.n2_max,
        "cep_target": design.cep_target,
        "gamma": design.gamma,
        "alpha": design.alpha,
    }


def _cached_table(design: DesignParams, cache) -> np.ndarray:
    if cache is None:
        return n2_lookup_table(design)
    key = _design_key(design)
    table = cache.load_array(key)
    if table is None:
        table = n2_lookup_table(design)
        cache.store_array(key, table)
    return table


# ----------------------------------------------------------------- workers


def _star_apply(packed):
    fn, args = packed
    return fn(*args)


@contextmanager
def worker_pool(workers: int = 1):
    """Yield one order-preserving ``mapper(fn, tasks)`` over argument tuples.

    With workers <= 1 every map runs inline.  Otherwise the first map of
    more than one task starts a spawn pool of ``workers`` processes, which
    every later map reuses and which is shut down when the block exits,
    normally or by an error.  Results always come back in task order, so
    worker count never changes any output.
    """
    pool = None

    def mapper(fn, tasks) -> list:
        nonlocal pool
        tasks = list(tasks)
        if workers <= 1 or len(tasks) <= 1:
            return [fn(*task) for task in tasks]
        if pool is None:
            pool = multiprocessing.get_context("spawn").Pool(processes=workers)
        return pool.map(_star_apply, [(fn, task) for task in tasks], chunksize=1)

    try:
        yield mapper
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()


def pmap(fn, tasks, workers: int = 1) -> list:
    """Order-preserving map in a pool that lives for this one call (see
    worker_pool)."""
    tasks = list(tasks)
    with worker_pool(min(workers, len(tasks))) as mapper:
        return mapper(fn, tasks)


def _pool_for(mapper, workers: int):
    """Context yielding ``mapper`` when a caller passes one in, else a
    worker_pool of ``workers`` for this call alone."""
    return nullcontext(mapper) if mapper is not None else worker_pool(workers)


# ------------------------------------------------------------------ fitting


def _design_table(config: ExperimentConfig, cache) -> np.ndarray | None:
    """The config design's reassessment table, or None without a design."""
    return None if config.design is None else _cached_table(config.design, cache)


def fit_test(config: ExperimentConfig, workers: int = 1, cache=None, mapper=None):
    """Generate training data, fit both folds, calibrate the cutoff.

    Returns (FittedTest, reassessment table or None).  Runs
    train_statistic then calibrate_statistic.  With a cache, the
    finished bundle is stored under the fit-relevant config fields, a
    digest of the fitting code, the library versions and the BLAS thread
    settings, and reloaded on identical reruns.  Both candidate pools and
    the critical labels share one worker pool: the caller's ``mapper``
    (from worker_pool) if given, else one of ``workers`` processes.
    """
    with _stage("generate"):
        n2_table = _design_table(config, cache)
        bundle_key = None
        if cache is not None:
            doc = config_to_dict(config)
            for volatile in ("validation_points", "comparators", "bm_level"):
                doc.pop(volatile, None)
            bundle_key = {
                "kind": "fitted-test",
                "source": _source_digest(_BUNDLE_SOURCES),
                "versions": _versions(),
                "blas_threads": _blas_threads(),
                "config": doc,
            }
            cached = cache.load_text(bundle_key)
            if cached is not None:
                return pipeline.load_bundle(cached), n2_table

    with _pool_for(mapper, workers) as mapper:
        net, report = train_statistic(config, n2_table, mapper)
        test = calibrate_statistic(config, net, report.as_dict(), n2_table, mapper)
    if cache is not None:
        with _stage("calibrate"):
            cache.store_text(bundle_key, pipeline.save_bundle(test))
    return test, n2_table


def train_statistic(config: ExperimentConfig, n2_table=None, mapper=None) -> tuple:
    """Statistic stage: simulate the training data, then select and refit
    the statistic network.  Returns (network, selection report)."""
    root = RandomStream(seed=config.seed)
    with _stage("generate"):
        data = generate_training_data(
            config.scenario, root.child(_DATA_STREAM), design=config.design, n2_table=n2_table
        )
    with _stage("fit"):
        return pipeline.fit_statistic_net(
            data, config.first_pool, config.first_train, root.child(_FIT_STREAM), mapper
        )


def calibrate_statistic(
    config: ExperimentConfig, net, selection: dict, n2_table=None, mapper=None
) -> FittedTest:
    """Calibration stage: the cutoff of a trained statistic network.

    A family without a nuisance (critical dimension 0) gets a constant
    simulated cutoff; any other fits a critical surface to simulated
    null quantiles.  ``selection`` is the statistic's selection report,
    kept in the provenance.
    """
    spec = config.scenario
    stream = RandomStream(seed=config.seed).child(_CRIT_STREAM)
    with _stage("calibrate"):
        if spec.family.critical_dim == 0:
            critical = pipeline.calibrate_constant_cutoff(
                net, spec, config.sizes.b_prime, config.alpha, stream
            )
            crit_report = None
        else:
            crit = pipeline.fit_critical_surface(
                net,
                gen_critical_inputs(spec),
                partial(gen_null_features, spec, design=config.design, n2_table=n2_table),
                config.sizes.b_prime,
                config.alpha,
                config.second_pool,
                config.second_train,
                stream,
                mapper=mapper,
            )
            critical = crit.net
            crit_report = crit.report.as_dict()
        return FittedTest(
            statistic_net=net,
            critical_net=critical,
            scenario=spec,
            alpha=config.alpha,
            provenance={
                "config_sha256": config_hash(config),
                "seed": config.seed,
                "statistic_selection": selection,
                "critical_selection": crit_report,
            },
        )


# --------------------------------------------------------------- validation


def validate_point(
    test: FittedTest,
    design,
    n2_table,
    point: dict,
    b_val: int,
    comparators: tuple,
    bm_level: float,
    stream: RandomStream,
) -> list:
    """Monte Carlo rows (every method, plus ASN when the sample size is
    random) at one validation point; all methods share the same draws."""
    spec = test.scenario
    family = spec.family
    label = _point_label(point)
    metric = METRIC_TYPE_I if family.is_null(spec, point) else METRIC_POWER
    draws = family.sample(spec, point, b_val, stream, design, n2_table)
    stat, crit = family.features(spec, draws)
    rows = [_rate_row(label, "dnn", metric, pipeline.decide_batch(test, stat, crit))]
    for name, hits in family.comparators:
        if name in comparators:
            hit = hits(spec, draws, crit, test.alpha, bm_level)
            rows.append(_rate_row(label, name, metric, hit))
    if family.group_sizes is not None:
        per_group = family.group_sizes(spec, draws)
        rows.append(
            Row(
                point=label,
                method="design",
                metric=METRIC_ASN,
                value=float(np.mean(per_group)),
                mc_se=float(np.std(per_group) / np.sqrt(b_val)),
                reps=b_val,
            )
        )
    return rows


def validate(
    test: FittedTest,
    config: ExperimentConfig,
    workers: int = 1,
    n2_table=None,
    stream: RandomStream | None = None,
    mapper=None,
) -> ResultsTable:
    """Run the config's validation grid against a fitted test, in the
    caller's ``mapper`` if given, else in a pool of ``workers``."""
    if stream is None:
        stream = RandomStream(seed=config.seed).child(_VAL_STREAM)
    tasks = [
        (
            test,
            config.design,
            n2_table,
            point,
            config.sizes.b_val,
            config.comparators,
            config.bm_level,
            stream.child(i),
        )
        for i, point in enumerate(config.validation_points)
    ]
    with _stage("validate"):
        if mapper is None:
            row_lists = pmap(validate_point, tasks, workers)
        else:
            row_lists = mapper(validate_point, tasks)
    return ResultsTable(rows=[row for rows in row_lists for row in rows])


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    out_dir=None,
    cache=None,
    mapper=None,
):
    """Full pipeline: fit both folds, validate, persist artifacts.

    Returns (ResultsTable, FittedTest).  With out_dir set, writes
    results.csv, bundle.json, and manifest.json there.  Fit and
    validation share one worker pool (the caller's ``mapper`` if given).
    """
    started = time.time()
    with _pool_for(mapper, workers) as mapper:
        test, n2_table = fit_test(config, cache=cache, mapper=mapper)
        table = validate(test, config, n2_table=n2_table, mapper=mapper)
    with _stage("persist"):
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            table.to_csv(out / "results.csv")
            (out / "bundle.json").write_text(pipeline.save_bundle(test), encoding="utf-8")
            manifest = {
                "config_sha256": config_hash(config),
                "seed": config.seed,
                "wall_time_s": round(time.time() - started, 3),
                "rows": len(table.rows),
                "versions": _versions(),
                "workers": workers,
                "blas_threads": _blas_threads(),
            }
            (out / "manifest.json").write_text(
                json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8"
            )
    return table, test


def _versions() -> dict:
    import scipy

    from . import __version__

    return {"deeptest": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


# -------------------------------------------------------------- sample size


def recalibrate_critical(
    test: FittedTest,
    config: ExperimentConfig,
    design: DesignParams,
    n2_table: np.ndarray,
    stream: RandomStream,
    b_prime: int | None = None,
    mapper=None,
) -> FittedTest:
    """Refit the critical surface for a modified design.

    The locked statistic network and the selected surface structure are
    kept; only the quantile labels and the surface weights move.  The
    critical surface is design-specific, so any change to n2 limits
    requires this step before the test is used again.  ``mapper`` (from
    worker_pool) computes the labels; None computes them inline.
    """
    spec = test.scenario
    if spec.kind != KIND_ADAPTIVE:
        raise ValueError("recalibration applies to the adaptive scenario")
    if isinstance(test.critical_net, ConstantCutoff):
        raise ValueError("adaptive tests carry a critical network")
    if b_prime is None:
        b_prime = config.sizes.b_prime
    pool = CandidatePool(specs=(test.critical_net.spec,))
    crit = pipeline.fit_critical_surface(
        test.statistic_net,
        gen_critical_inputs(spec),
        partial(gen_null_features, spec, design=design, n2_table=n2_table),
        b_prime,
        test.alpha,
        pool,
        config.second_train,
        stream,
        mapper=mapper,
    )
    return FittedTest(
        statistic_net=test.statistic_net,
        critical_net=crit.net,
        scenario=spec,
        alpha=test.alpha,
        provenance={**test.provenance, "recalibrated_n2_max": design.n2_max},
    )


def _adaptive_power(
    method: str,
    test: FittedTest,
    design: DesignParams,
    n2_table: np.ndarray,
    pi_p: float,
    pi_t: float,
    reps: int,
    stream: RandomStream,
    alpha: float,
    bm_level: float,
) -> float:
    spec = test.scenario
    batch = simulate_trials(pi_p, pi_t, design, reps, stream, n2_table)
    comparators = dict(spec.family.comparators)
    if method == "dnn":
        hits = pipeline.decide_batch(test, *spec.family.features(spec, batch))
    elif method in comparators:
        hits = comparators[method](spec, batch, None, alpha, bm_level)
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(np.mean(hits))


def asn_for_power(
    config: ExperimentConfig,
    target_power: float,
    pi_p: float,
    pi_t: float,
    search_cap: int = 2048,
    power_reps: int = 50_000,
    asn_reps: int = 200_000,
    tol: float = 0.005,
    workers: int = 1,
    cache=None,
    test: FittedTest | None = None,
    mapper=None,
) -> ResultsTable:
    """Smallest n2_max reaching the target power, and its ASN, per method.

    Bisection over the integer cap; every candidate reuses one validation
    substream, so the search is stable.  The DNN cutoff surface is
    recalibrated at every candidate cap (the critical surface depends on
    the design), and the DNN search is confined to the stage-2 envelope
    the statistic was trained over (caps at design.n2_max): recalibration
    preserves the level beyond it, but the statistic itself is undefined
    extrapolation there and its power is no longer monotone in the cap.
    The classical methods are statistic-free and search the full cap.  A
    method that cannot reach the target within its search range gets an
    ``unreachable`` row instead of an error.  ASN is the per-group
    expected size n1 + E[n2].  The fit (when no test is given) and every
    recalibration in the search share one worker pool: the caller's
    ``mapper`` if given, else one of ``workers`` processes.
    """
    if config.scenario.kind != KIND_ADAPTIVE:
        raise ValueError("sample-size search applies to the adaptive scenario")
    if not 0.0 <= target_power < 1.0:
        raise ValueError("target power must lie in [0, 1)")
    if search_cap < config.design.n2_min:
        raise ValueError("search cap below the design's n2_min")
    asn_root = RandomStream(seed=config.seed).child(_ASN_STREAM)
    base_table = _cached_table(replace(config.design, n2_max=search_cap), cache)
    methods = ["dnn"] + list(config.comparators)
    rows = []
    with _pool_for(mapper, workers) as mapper:
        if test is None:
            test, _ = fit_test(config, cache=cache, mapper=mapper)
        for mi, method in enumerate(methods):
            m_stream = asn_root.child(10 + mi)
            recal_cache = {}
            method_cap = (
                min(search_cap, config.design.n2_max) if method == "dnn" else search_cap
            )

            def power_at(cap: int) -> float:
                design_c = replace(config.design, n2_max=cap)
                table_c = derive_capped_table(base_table, design_c)
                if method == "dnn":
                    if cap not in recal_cache:
                        recal_cache[cap] = recalibrate_critical(
                            test,
                            config,
                            design_c,
                            table_c,
                            m_stream.child(2).child(cap),
                            mapper=mapper,
                        )
                    test_c = recal_cache[cap]
                else:
                    test_c = test
                return _adaptive_power(
                    method,
                    test_c,
                    design_c,
                    table_c,
                    pi_p,
                    pi_t,
                    power_reps,
                    m_stream.child(1),
                    config.alpha,
                    config.bm_level,
                )

            chosen, achieved = _bisect_cap(
                power_at, config.design.n2_min, method_cap, target_power, tol
            )
            base_label = f"pi_p={pi_p:g},pi_t={pi_t:g}"
            if chosen is None:
                rows.append(
                    Row(
                        point=f"{base_label},n2_max=unreachable",
                        method=method,
                        metric=METRIC_ASN,
                        value=float("nan"),
                        mc_se=float("nan"),
                        reps=0,
                    )
                )
                continue
            design_f = replace(config.design, n2_max=chosen)
            table_f = derive_capped_table(base_table, design_f)
            batch = simulate_trials(pi_p, pi_t, design_f, asn_reps, m_stream.child(3), table_f)
            per_group = design_f.n1 + batch.n2.astype(np.float64)
            label = f"{base_label},n2_max={chosen}"
            rows.append(
                Row(
                    point=label,
                    method=method,
                    metric=METRIC_ASN,
                    value=float(np.mean(per_group)),
                    mc_se=float(np.std(per_group) / np.sqrt(asn_reps)),
                    reps=asn_reps,
                )
            )
            rows.append(
                Row(
                    point=label,
                    method=method,
                    metric=METRIC_POWER,
                    value=achieved,
                    mc_se=float(np.sqrt(achieved * (1.0 - achieved) / power_reps)),
                    reps=power_reps,
                )
            )
    return ResultsTable(rows=rows)


def _bisect_cap(power_at, floor: int, cap: int, target: float, tol: float):
    """Smallest integer cap whose power reaches the target (within tol)."""
    p_cap = power_at(cap)
    if p_cap < target - tol:
        return None, p_cap
    p_floor = power_at(floor)
    if p_floor >= target:
        return floor, p_floor
    best = (cap, p_cap)
    lo = floor
    hi = cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        p_mid = power_at(mid)
        if abs(p_mid - target) <= tol:
            return mid, p_mid
        if p_mid >= target:
            hi, best = mid, (mid, p_mid)
        else:
            lo = mid
    return best


# ------------------------------------------------------------------ heatmap


def _heatmap_row(
    test: FittedTest,
    design: DesignParams,
    n2_table: np.ndarray,
    pi_p: float,
    pi_t: float,
    reps: int,
    x_p1: int,
    stream: RandomStream,
) -> np.ndarray:
    side = design.n1 + 1
    gen = stream.generator()
    stage2 = [
        (gen.binomial(n2, pi_p, size=reps), gen.binomial(n2, pi_t, size=reps))
        for n2 in n2_table[x_p1].tolist()
    ]
    x_t1 = np.repeat(np.arange(side), reps)
    batch = TrialBatch(
        x_p1=np.full(x_t1.size, x_p1),
        x_t1=x_t1,
        n2=n2_table[x_p1][x_t1],
        x_p2=np.concatenate([x_p2 for x_p2, _ in stage2]),
        x_t2=np.concatenate([x_t2 for _, x_t2 in stage2]),
    )
    spec = test.scenario
    hits = pipeline.decide_batch(test, *spec.family.features(spec, batch))
    return hits.reshape(side, reps).mean(axis=1)


def heatmap_export(
    test: FittedTest,
    design: DesignParams,
    n2_table: np.ndarray,
    pi_p: float,
    pi_t: float,
    reps: int,
    stream: RandomStream,
    path=None,
    workers: int = 1,
    mapper=None,
) -> np.ndarray:
    """Rejection probability per stage-1 cell by conditional simulation.

    ``grid[i, j]`` is Pr(reject | x_p1 = i, x_t1 = j) with stage-2 data
    drawn at the given rates; the grid is (n1+1) x (n1+1).  Rows run in
    the caller's ``mapper`` if given, else in a pool of ``workers``.
    """
    if test.scenario.kind != KIND_ADAPTIVE:
        raise ValueError("heatmaps apply to the adaptive scenario")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    side = design.n1 + 1
    tasks = [
        (test, design, n2_table, pi_p, pi_t, reps, x_p1, stream.child(x_p1))
        for x_p1 in range(side)
    ]
    with _stage("heatmap"):
        if mapper is None:
            rows = pmap(_heatmap_row, tasks, workers)
        else:
            rows = mapper(_heatmap_row, tasks)
    grid = np.vstack(rows)
    if path is not None:
        np.savetxt(path, grid, fmt="%.17g", delimiter=",")
    return grid


# ---------------------------------------------------------------- exhibits


EXHIBITS = ("T1", "T2", "T3", "T4", "T5", "T6", "F1")

_EXHIBIT_FILES = {
    "T1": ("musec.cfg",),
    "T2": ("musec.cfg",),
    "T3": ("musec_designs.cfg",),
    "T4": ("table4.cfg",),
    "T5": ("table5.cfg",),
    "T6": ("table6.cfg",),
    "F1": ("musec.cfg",),
}

# published reference values keyed (point, method, metric)


def _t1_references() -> dict:
    refs = {}
    nulls = {0.17: (0.050, 0.050, 0.050, 405), 0.22: (0.050, 0.051, 0.050, 404),
             0.27: (0.050, 0.050, 0.050, 403), 0.32: (0.051, 0.051, 0.050, 402),
             0.37: (0.051, 0.050, 0.050, 403)}
    for rate, (dnn, incta, bm, asn) in nulls.items():
        label = f"pi_p={rate:g},pi_t={rate:g}"
        refs[(label, "dnn", METRIC_TYPE_I)] = dnn
        refs[(label, "incta", METRIC_TYPE_I)] = incta
        refs[(label, "bm", METRIC_TYPE_I)] = bm
        refs[(label, "design", METRIC_ASN)] = asn
    alts = {0.39: (0.909, 0.859, 0.888, 250), 0.40: (0.945, 0.887, 0.917, 227),
            0.41: (0.967, 0.907, 0.937, 208)}
    for rate, (dnn, incta, bm, asn) in alts.items():
        label = f"pi_p=0.27,pi_t={rate:g}"
        refs[(label, "dnn", METRIC_POWER)] = dnn
        refs[(label, "incta", METRIC_POWER)] = incta
        refs[(label, "bm", METRIC_POWER)] = bm
        refs[(label, "design", METRIC_ASN)] = asn
    return refs


def _t2_references() -> dict:
    # ASN to reach 90% power at (0.27, 0.40); n2_max differs per method so
    # the reference keys carry only the rate pair
    return {
        ("pi_p=0.27,pi_t=0.4", "dnn", METRIC_ASN): 189.0,
        ("pi_p=0.27,pi_t=0.4", "incta", METRIC_ASN): 272.0,
        ("pi_p=0.27,pi_t=0.4", "bm", METRIC_ASN): 203.0,
    }


def _t3_references() -> dict:
    refs = {}
    nulls = {0.17: (0.051, 0.051, 0.051), 0.22: (0.050, 0.051, 0.051),
             0.27: (0.050, 0.050, 0.050), 0.32: (0.051, 0.051, 0.051),
             0.37: (0.051, 0.050, 0.051)}
    for rate, (dnn, incta, bm) in nulls.items():
        label = f"pi_p={rate:g},pi_t={rate:g}"
        refs[(label, "dnn", METRIC_TYPE_I)] = dnn
        refs[(label, "incta", METRIC_TYPE_I)] = incta
        refs[(label, "bm", METRIC_TYPE_I)] = bm
    alts = {0.39: (0.929, 0.872, 0.908), 0.40: (0.962, 0.897, 0.934),
            0.41: (0.979, 0.912, 0.949)}
    for rate, (dnn, incta, bm) in alts.items():
        label = f"pi_p=0.27,pi_t={rate:g}"
        refs[(label, "dnn", METRIC_POWER)] = dnn
        refs[(label, "incta", METRIC_POWER)] = incta
        refs[(label, "bm", METRIC_POWER)] = bm
    return refs


def _t4_references() -> dict:
    refs = {}
    rows = [
        (50, 1, 0.233, 0.050, 0.050, 0.500, 0.500),
        (50, 1, 0.414, 0.050, 0.050, 0.900, 0.899),
        (150, 2, 0.269, 0.050, 0.050, 0.500, 0.500),
        (150, 2, 0.478, 0.050, 0.050, 0.901, 0.900),
    ]
    for n, sigma, mu1, dnn_t1, z_t1, dnn_pow, z_pow in rows:
        prefix = f"n={n},sigma={sigma:g}"
        refs[(f"{prefix},mu=0", "dnn", METRIC_TYPE_I)] = dnn_t1
        refs[(f"{prefix},mu=0", "z", METRIC_TYPE_I)] = z_t1
        refs[(f"{prefix},mu={mu1:g}", "dnn", METRIC_POWER)] = dnn_pow
        refs[(f"{prefix},mu={mu1:g}", "z", METRIC_POWER)] = z_pow
    return refs


def _t5_references() -> dict:
    refs = {}
    rows = [
        (100, 1.0, 0.293, 0.050, 0.050, 0.897, 0.896),
        (100, 1.5, 0.439, 0.050, 0.050, 0.897, 0.897),
        (100, 2.0, 0.585, 0.049, 0.050, 0.895, 0.896),
        (200, 1.0, 0.207, 0.050, 0.050, 0.898, 0.898),
        (200, 1.5, 0.310, 0.050, 0.050, 0.898, 0.898),
        (200, 2.0, 0.414, 0.050, 0.050, 0.897, 0.898),
    ]
    for n, sigma, mu1, dnn_t1, t_t1, dnn_pow, t_pow in rows:
        prefix = f"n={n}"
        refs[(f"{prefix},mu=0,sigma={sigma:g}", "dnn", METRIC_TYPE_I)] = dnn_t1
        refs[(f"{prefix},mu=0,sigma={sigma:g}", "t", METRIC_TYPE_I)] = t_t1
        refs[(f"{prefix},mu={mu1:g},sigma={sigma:g}", "dnn", METRIC_POWER)] = dnn_pow
        refs[(f"{prefix},mu={mu1:g},sigma={sigma:g}", "t", METRIC_POWER)] = t_pow
    return refs


def _t6_references() -> dict:
    refs = {}
    type_i = [
        (0.95, 0.95, 0.050, 0.050),
        (0.95, 1.1, 0.050, 0.050),
        (1.1, 0.95, 0.050, 0.050),
        (1.1, 1.1, 0.050, 0.050),
    ]
    for sp, st, dnn, welch in type_i:
        label = f"mu_p=0.5,mu_t=0.5,sigma_p={sp:g},sigma_t={st:g}"
        refs[(label, "dnn", METRIC_TYPE_I)] = dnn
        refs[(label, "welch", METRIC_TYPE_I)] = welch
    powers = [
        (0.95, 0.95, 0.834, 0.797, 0.797),
        (0.95, 0.95, 0.801, 0.720, 0.720),
        (0.95, 1.1, 0.861, 0.798, 0.797),
        (0.95, 1.1, 0.825, 0.722, 0.722),
        (1.1, 0.95, 0.861, 0.798, 0.798),
        (1.1, 0.95, 0.825, 0.721, 0.720),
        (1.1, 1.1, 0.887, 0.799, 0.798),
        (1.1, 1.1, 0.848, 0.723, 0.721),
    ]
    for sp, st, mu_t, dnn, welch in powers:
        label = f"mu_p=0.5,mu_t={mu_t:g},sigma_p={sp:g},sigma_t={st:g}"
        refs[(label, "dnn", METRIC_POWER)] = dnn
        refs[(label, "welch", METRIC_POWER)] = welch
    return refs


def reference_values(table_id: str) -> dict:
    """Published values for a canned exhibit, keyed (point, method, metric)."""
    builders = {
        "T1": _t1_references,
        "T2": _t2_references,
        "T3": _t3_references,
        "T4": _t4_references,
        "T5": _t5_references,
        "T6": _t6_references,
    }
    if table_id not in builders:
        return {}
    return builders[table_id]()


def _prefixed(rows: list, prefix: str) -> list:
    return [replace(row, point=f"{prefix},{row.point}") for row in rows]


def _reproduce_runs(table_id: str, scale: float, seed, cache, mapper) -> ResultsTable:
    rows = []
    for name in _EXHIBIT_FILES[table_id]:
        for config in load_config(packaged_config(name)):
            config = scaled_config(config, scale)
            if seed is not None:
                config = replace(config, seed=seed)
            label_prefix = config.scenario.family.label_prefix
            prefix = None if label_prefix is None else label_prefix(config.scenario)
            table, _ = run_experiment(config, cache=cache, mapper=mapper)
            rows.extend(table.rows if prefix is None else _prefixed(table.rows, prefix))
    return ResultsTable(rows=rows)


def _reproduce_table(table_id: str, scale: float, seed, out_dir, cache, mapper):
    if table_id == "T2":
        (config,) = load_config(packaged_config("musec.cfg"))
        config = scaled_config(config, scale)
        if seed is not None:
            config = replace(config, seed=seed)
        return asn_for_power(
            config,
            target_power=0.90,
            pi_p=0.27,
            pi_t=0.40,
            power_reps=max(2_000, config.sizes.b_val // 2),
            asn_reps=max(2_000, config.sizes.b_val),
            cache=cache,
            mapper=mapper,
        )
    if table_id == "F1":
        (config,) = load_config(packaged_config("musec.cfg"))
        config = scaled_config(config, scale)
        if seed is not None:
            config = replace(config, seed=seed)
        test, n2_table = fit_test(config, cache=cache, mapper=mapper)
        stream = RandomStream(seed=config.seed).child(7)
        reps = max(200, round(10_000 * scale))
        rows = []
        for panel, (pp, pt) in (("null", (0.27, 0.27)), ("alt", (0.27, 0.40))):
            path = None
            if out_dir is not None:
                Path(out_dir).mkdir(parents=True, exist_ok=True)
                path = Path(out_dir) / f"heatmap_{panel}.csv"
            grid = heatmap_export(
                test,
                config.design,
                n2_table,
                pp,
                pt,
                reps,
                stream.child(0 if panel == "null" else 1),
                path=path,
                mapper=mapper,
            )
            metric = METRIC_TYPE_I if panel == "null" else METRIC_POWER
            rows.append(
                Row(
                    point=f"panel={panel},cell=placebo10_ce60",
                    method="dnn",
                    metric=metric,
                    value=float(grid[10, 60]),
                    mc_se=float(np.sqrt(grid[10, 60] * (1 - grid[10, 60]) / reps)),
                    reps=reps,
                )
            )
            diag = float(np.max(np.diag(grid)))
            rows.append(
                Row(
                    point=f"panel={panel},cell=diagonal_max",
                    method="dnn",
                    metric=metric,
                    value=diag,
                    mc_se=float(np.sqrt(diag * (1 - diag) / reps)),
                    reps=reps,
                )
            )
        return ResultsTable(rows=rows)
    return _reproduce_runs(table_id, scale, seed, cache, mapper)


def reproduce(
    table_id: str,
    scale: float = 1.0,
    workers: int = 1,
    out_dir=None,
    cache=None,
    seed: int | None = None,
) -> ResultsTable:
    """Run a canned exhibit with all Monte Carlo sizes scaled.

    Emits a ResultsTable; with out_dir set, writes a side-by-side CSV
    (reference value next to the reproduced value) for external review.
    Every experiment of the exhibit runs in one worker pool.
    """
    if table_id not in EXHIBITS:
        raise ValueError(f"unknown exhibit {table_id!r}; choose from {EXHIBITS}")
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")

    with worker_pool(workers) as mapper:
        table = _reproduce_table(table_id, scale, seed, out_dir, cache, mapper)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_side_by_side(table, reference_values(table_id), out / f"reproduce_{table_id}.csv")
    return table


def _write_side_by_side(table: ResultsTable, references: dict, path) -> None:
    lines = ["point,method,metric,reference,value,mc_se,reps"]
    for row in table.rows:
        ref = references.get((row.point, row.method, row.metric))
        ref_text = "" if ref is None else f"{ref:.17g}"
        lines.append(
            f"{row.point},{row.method},{row.metric},{ref_text},"
            f"{row.value:.17g},{row.mc_se:.17g},{row.reps}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
