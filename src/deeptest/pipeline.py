"""Two-fold fitting pipeline and the final decision rule.

Fold one trains a logit classifier to separate null from alternative
simulations; with balanced class sizes its linear predictor estimates the
log likelihood ratio up to an additive constant, so it serves as the test
statistic.  Fold two learns the statistic's upper-alpha null quantile as
a function of the nuisance parameters (a constant when the null is fully
known).  A decision compares statistic to cutoff with strict inequality;
observed data reach the networks through the scenario family's feature
map (see scenarios), the one that training and calibration use, and a
single decision is a one-row batch.

Structure selection trains every candidate in the pool on one shared
80/20 split and keeps the smallest validation loss; per-candidate
training seeds are derived from the candidate's own architecture, so a
pool reordering cannot change any candidate's fit.  Candidates, like
critical labels, are independent tasks, so any order-preserving
``mapper(fn, tasks)`` (a worker pool, say) gives the sequential result
bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import nnet
from .nnet import (
    HEAD_CLASSIFIER,
    HEAD_REGRESSOR,
    Network,
    NetworkSpec,
    TrainConfig,
    TrainingDivergedError,
)
from .scenarios import Dataset, ScenarioSpec
from .stats import empirical_upper_quantile
from .streams import RandomStream, derive_seed

__all__ = [
    "CandidatePool",
    "SelectionReport",
    "ConstantCutoff",
    "CriticalFit",
    "FittedTest",
    "Decision",
    "select_structure",
    "fit_statistic_net",
    "calibrate_constant_cutoff",
    "critical_label_for_row",
    "critical_labels",
    "fit_critical_net",
    "fit_critical_surface",
    "observed_features",
    "decide",
    "decide_batch",
    "save_bundle",
    "load_bundle",
]

_BUNDLE_FORMAT = "deeptest-bundle"
_BUNDLE_VERSION = 1

_SPLIT_CHILD = 0x51
_RETRAIN_CHILD = 0x52
_SELECT_CHILD = 0x53
_LABEL_CHILD = 0x1ABE1


@dataclass(frozen=True)
class CandidatePool:
    """Architectures competing in structure selection."""

    specs: tuple

    def __post_init__(self):
        if len(self.specs) == 0:
            raise ValueError("candidate pool must be nonempty")
        dims = {s.input_dim for s in self.specs}
        heads = {s.head for s in self.specs}
        if len(dims) != 1 or len(heads) != 1:
            raise ValueError("pool candidates must share input_dim and head")

    @property
    def input_dim(self) -> int:
        return self.specs[0].input_dim

    @property
    def head(self) -> str:
        return self.specs[0].head


@dataclass(frozen=True)
class SelectionReport:
    """Validation losses per candidate; None marks a diverged candidate."""

    losses: tuple
    winner_index: int
    n_train: int
    n_val: int

    def as_dict(self) -> dict:
        return {
            "losses": [None if v is None else float(v) for v in self.losses],
            "winner_index": self.winner_index,
            "n_train": self.n_train,
            "n_val": self.n_val,
        }


@dataclass(frozen=True)
class ConstantCutoff:
    """Critical value that ignores the nuisance input."""

    value: float


@dataclass
class CriticalFit:
    """Second-fold fit: the surface plus its training artifacts."""

    net: Network
    report: SelectionReport
    inputs: np.ndarray
    labels: np.ndarray


@dataclass
class Decision:
    statistic: float
    cutoff: float
    reject: bool


@dataclass
class FittedTest:
    """Locked two-fold test: statistic network, critical surface, and the
    scenario/alpha they were calibrated for."""

    statistic_net: Network
    critical_net: object
    scenario: ScenarioSpec
    alpha: float
    provenance: dict

    def __post_init__(self):
        if self.statistic_net.spec.head != HEAD_CLASSIFIER:
            raise ValueError("statistic net must be a logit classifier")
        if isinstance(self.critical_net, Network):
            if self.critical_net.spec.head != HEAD_REGRESSOR:
                raise ValueError("critical net must be a linear regressor")
        elif not isinstance(self.critical_net, ConstantCutoff):
            raise ValueError("critical_net must be a Network or ConstantCutoff")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


def _spec_key(spec: NetworkSpec) -> int:
    text = json.dumps(
        [list(spec.hidden_layers), spec.head, spec.dropout_rate, spec.input_dim]
    )
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def _val_loss(net: Network, x_val: np.ndarray, y_val: np.ndarray, head: str) -> float:
    z = net.linear_predictor(x_val)
    if head == HEAD_CLASSIFIER:
        return nnet.bce_loss(z, y_val)
    return nnet.mse_loss(z, y_val)


def _map(mapper, fn, tasks) -> list:
    if mapper is None:
        return [fn(*task) for task in tasks]
    return mapper(fn, tasks)


def _fit_candidate(spec: NetworkSpec, x_tr, y_tr, x_val, y_val, config: TrainConfig) -> tuple:
    """Train one candidate; return (validation loss or None, divergence message)."""
    try:
        net = nnet.train(spec, (x_tr, y_tr), config)
    except TrainingDivergedError as err:
        return None, str(err)
    return _val_loss(net, x_val, y_val, spec.head), None


def select_structure(
    pool: CandidatePool, data, config: TrainConfig, stream: RandomStream, mapper=None
) -> tuple:
    """Train every candidate on one shared 80/20 split; return the spec
    with the smallest validation loss and the full loss report.

    Exact loss ties break toward fewer parameters, then fewer layers,
    then pool order.  A diverging candidate is excluded with a warning;
    if every candidate diverges selection fails.  Candidates go to
    ``mapper`` largest first, so a small pool of workers stays busy;
    their losses are reported in pool order.
    """
    features, labels = _unpack_dataset(data)
    n = labels.size
    if n < 10:
        raise ValueError("need at least 10 examples to select a structure")
    perm = stream.child(_SPLIT_CHILD).generator().permutation(n)
    n_val = max(1, int(round(config.validation_fraction * n)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_tr, y_tr = features[train_idx], labels[train_idx]
    x_val, y_val = features[val_idx], labels[val_idx]

    specs = pool.specs
    order = sorted(range(len(specs)), key=lambda i: -specs[i].n_params())
    tasks = [
        (
            specs[i],
            x_tr,
            y_tr,
            x_val,
            y_val,
            replace(config, seed=derive_seed(stream.child(_spec_key(specs[i])))),
        )
        for i in order
    ]
    outcomes = [None] * len(specs)
    for i, outcome in zip(order, _map(mapper, _fit_candidate, tasks)):
        outcomes[i] = outcome
    losses = []
    for spec, (loss, message) in zip(specs, outcomes):
        if message is not None:
            warnings.warn(f"candidate {spec.hidden_layers} diverged: {message}")
        losses.append(loss)

    if all(v is None for v in losses):
        raise RuntimeError("every candidate diverged during structure selection")
    winner = _pick_winner(specs, losses)
    report = SelectionReport(
        losses=tuple(losses), winner_index=winner, n_train=train_idx.size, n_val=val_idx.size
    )
    return specs[winner], report


def _pick_winner(specs, losses) -> int:
    order = [
        (losses[i], specs[i].n_params(), len(specs[i].hidden_layers), i)
        for i in range(len(specs))
        if losses[i] is not None
    ]
    return min(order)[3]


def _unpack_dataset(data):
    if isinstance(data, Dataset):
        return data.features, data.labels
    features, labels = data
    return np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.float64)


def fit_statistic_net(
    data, pool: CandidatePool, config: TrainConfig, stream: RandomStream, mapper=None
) -> tuple:
    """Select a structure, then retrain it on the full dataset.

    Returns (network, selection report); the report's losses refer to the
    selection split, not the final fit.  ``mapper`` fits the candidates
    (see select_structure).
    """
    if pool.head != HEAD_CLASSIFIER:
        raise ValueError("statistic pool must use the classifier head")
    spec, report = select_structure(pool, data, config, stream, mapper=mapper)
    final_config = replace(config, seed=derive_seed(stream.child(_RETRAIN_CHILD)))
    net = nnet.train(spec, _unpack_dataset(data), final_config)
    return net, report


def _statistic_values(statistic, features: np.ndarray, chunk: int = 100_000) -> np.ndarray:
    if features.shape[0] <= chunk:
        return statistic.linear_predictor(features)
    parts = [
        statistic.linear_predictor(features[i : i + chunk])
        for i in range(0, features.shape[0], chunk)
    ]
    return np.concatenate(parts)


def calibrate_constant_cutoff(
    statistic, null_spec: ScenarioSpec, b_prime: int, alpha: float, stream: RandomStream
) -> ConstantCutoff:
    """Upper-alpha empirical quantile of the statistic under the fully
    known null law."""
    from .scenarios import gen_null_features

    feats = gen_null_features(null_spec, None, b_prime, stream)
    values = _statistic_values(statistic, feats)
    return ConstantCutoff(value=empirical_upper_quantile(values, alpha))


def critical_label_for_row(
    statistic, row, null_simulator, b_prime: int, alpha: float, substream: RandomStream
) -> float:
    """Upper-alpha null quantile of the statistic at one nuisance value."""
    feats = null_simulator(row, b_prime, substream)
    values = _statistic_values(statistic, feats)
    return empirical_upper_quantile(values, alpha)


def critical_labels(
    statistic,
    critical_inputs: np.ndarray,
    null_simulator,
    b_prime: int,
    alpha: float,
    stream: RandomStream,
    mapper=None,
) -> np.ndarray:
    """Quantile labels for every critical-input row.

    ``null_simulator(nuisance_row, reps, stream)`` must return statistic
    inputs drawn under H0 at that nuisance value.  Row l always draws from
    ``stream.child(l)``, so labels are independent across rows and any
    order-preserving ``mapper(fn, tasks)`` (a worker pool, say) reproduces
    the sequential result bit for bit.
    """
    rows = np.asarray(critical_inputs, dtype=np.float64)
    tasks = [
        (statistic, rows[l], null_simulator, b_prime, alpha, stream.child(l))
        for l in range(rows.shape[0])
    ]
    return np.asarray(_map(mapper, critical_label_for_row, tasks), dtype=np.float64)


def fit_critical_net(
    critical_inputs: np.ndarray,
    labels: np.ndarray,
    pool: CandidatePool,
    config: TrainConfig,
    stream: RandomStream,
    mapper=None,
) -> CriticalFit:
    """Learn the upper-alpha null quantile surface over the nuisance grid.

    Labels come from ``critical_labels``; selection and the final refit
    use substreams of ``stream`` so the whole fit is reproducible.
    ``mapper`` fits the candidates (see select_structure).
    """
    critical_inputs = np.asarray(critical_inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if critical_inputs.ndim != 2 or critical_inputs.shape[0] < 2:
        raise ValueError("critical_inputs must be (L, k) with L >= 2")
    if labels.shape != (critical_inputs.shape[0],):
        raise ValueError("labels must align with critical_inputs rows")
    if pool.head != HEAD_REGRESSOR:
        raise ValueError("critical pool must use the regressor head")
    select_stream = stream.child(_SELECT_CHILD)
    spec, report = select_structure(
        pool, (critical_inputs, labels), config, select_stream, mapper=mapper
    )
    final_config = replace(config, seed=derive_seed(select_stream.child(_RETRAIN_CHILD)))
    net = nnet.train(spec, (critical_inputs, labels), final_config)
    return CriticalFit(net=net, report=report, inputs=critical_inputs, labels=labels)


def fit_critical_surface(
    statistic,
    critical_inputs: np.ndarray,
    null_simulator,
    b_prime: int,
    alpha: float,
    pool: CandidatePool,
    config: TrainConfig,
    stream: RandomStream,
    mapper=None,
) -> CriticalFit:
    """Label generation plus surface fit in one step.

    Labels draw from a dedicated substream so they never collide with the
    selection and refit substreams used by fit_critical_net.  ``mapper``
    serves both the labels and the candidate fits.
    """
    labels = critical_labels(
        statistic,
        critical_inputs,
        null_simulator,
        b_prime,
        alpha,
        stream.child(_LABEL_CHILD),
        mapper=mapper,
    )
    return fit_critical_net(critical_inputs, labels, pool, config, stream, mapper=mapper)


# ------------------------------------------------------------------ decide


def observed_features(spec: ScenarioSpec, observed) -> tuple:
    """Map raw observed data to (statistic input, critical input).

    The data's summaries go through the family's feature map, the one
    that training and calibration use; the critical input is None when
    the cutoff is a constant.
    """
    family = spec.family
    stat, crit = family.features(spec, family.observe(spec, observed))
    return stat[0], None if crit is None else crit[0]


def _scores(test: FittedTest, stat_features, crit_features) -> tuple:
    """Statistic values and cutoffs (a scalar for a constant cutoff)."""
    stats = _statistic_values(test.statistic_net, np.asarray(stat_features, dtype=np.float64))
    if isinstance(test.critical_net, ConstantCutoff):
        return stats, test.critical_net.value
    if crit_features is None:
        raise ValueError("critical features required for a learned surface")
    return stats, _statistic_values(test.critical_net, np.asarray(crit_features, dtype=np.float64))


def decide(test: FittedTest, observed) -> Decision:
    """Evaluate one observation as a one-row batch; reject when
    statistic > cutoff strictly."""
    stat, crit = observed_features(test.scenario, observed)
    stats, cutoffs = _scores(test, stat[None, :], None if crit is None else crit[None, :])
    statistic, cutoff = float(stats[0]), float(np.ravel(cutoffs)[0])
    return Decision(statistic=statistic, cutoff=cutoff, reject=bool(statistic > cutoff))


def decide_batch(
    test: FittedTest, stat_features: np.ndarray, crit_features: np.ndarray | None
) -> np.ndarray:
    """Vectorized decisions on precomputed feature matrices."""
    stats, cutoffs = _scores(test, stat_features, crit_features)
    return stats > cutoffs


# ------------------------------------------------------------------ bundle


def _scenario_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "kind": spec.kind,
        "null_params": list(spec.null_params),
        "alt_params": list(spec.alt_params),
        "nuisance_grid": [
            list(v) if isinstance(v, (tuple, list)) else v for v in spec.nuisance_grid
        ],
        "n": spec.n,
        "counts": {
            "b0": spec.counts.b0,
            "b1": spec.counts.b1,
            "a": spec.counts.a,
            "l": spec.counts.l,
            "b_prime": spec.counts.b_prime,
        },
    }


def _scenario_from_dict(doc: dict) -> ScenarioSpec:
    from .scenarios import DatasetCounts

    grid = tuple(
        tuple(v) if isinstance(v, list) else v for v in doc["nuisance_grid"]
    )
    return ScenarioSpec(
        kind=doc["kind"],
        null_params=tuple(doc["null_params"]),
        alt_params=tuple(doc["alt_params"]),
        nuisance_grid=grid,
        n=doc["n"],
        counts=DatasetCounts(**doc["counts"]),
    )


def save_bundle(test: FittedTest) -> str:
    """Serialize a fitted test (both models plus manifest) to JSON."""
    if isinstance(test.critical_net, ConstantCutoff):
        critical = {"kind": "constant", "value": float(test.critical_net.value)}
    else:
        critical = {"kind": "network", "model": json.loads(nnet.save(test.critical_net))}
    doc = {
        "format": _BUNDLE_FORMAT,
        "version": _BUNDLE_VERSION,
        "alpha": test.alpha,
        "scenario": _scenario_to_dict(test.scenario),
        "statistic_model": json.loads(nnet.save(test.statistic_net)),
        "critical": critical,
        "provenance": test.provenance,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def load_bundle(document: str) -> FittedTest:
    doc = json.loads(document)
    if doc.get("format") != _BUNDLE_FORMAT:
        raise ValueError("not a fitted-test bundle")
    if doc.get("version") != _BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {doc.get('version')!r}")
    statistic_net = nnet.load(json.dumps(doc["statistic_model"]))
    critical_doc = doc["critical"]
    if critical_doc["kind"] == "constant":
        critical = ConstantCutoff(value=float(critical_doc["value"]))
    else:
        critical = nnet.load(json.dumps(critical_doc["model"]))
    return FittedTest(
        statistic_net=statistic_net,
        critical_net=critical,
        scenario=_scenario_from_dict(doc["scenario"]),
        alpha=doc["alpha"],
        provenance=doc.get("provenance", {}),
    )
