"""Scenario families and the Monte Carlo builders for every dataset the
testing pipeline consumes.

Each scenario kind is one :class:`Family` record in ``FAMILIES``, keyed
by ``ScenarioSpec.kind``; every kind-specific rule lives in its record.
A record pairs a summary sampler for one parameter point with one
feature map, draws -> (statistic features, critical features), so
training data, null samples for calibration, validation, heatmaps and
decisions on observed data all see the same features:

    kind                 statistic features           critical features
    normal-known-sigma   [mean]                       none (constant cutoff)
    normal-unknown-sigma [mean, sd_mle]               [sd]
    behrens-fisher       [mean_t - mean_p, sd_p_mle,  [sd_p, sd_t]
                          sd_t_mle]
    adaptive-binomial    [stage-1 rate diff, stage-2  [pooled stage-1 rate]
                          rate diff, n2]

Statistic features use maximum-likelihood scale estimates, critical
features the unbiased ones.  Normal-scenario summaries are drawn from
their exact sampling law (mean and scaled-chi-square sd) instead of
averaging raw observations; the two routes agree in distribution and the
shortcut removes an n-fold simulation cost.

Generation is a pure function of (spec, stream) and regenerating with
the same spec and stream is bit-identical.  Known-sigma and adaptive
grid point a draws its null class from ``stream.child(2a)`` and its
alternative from ``stream.child(2a + 1)``; unknown-sigma and
Behrens-Fisher draw both classes, null first, from ``stream.child(a)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical import (
    t_decisions,
    welch_decisions,
    welch_mu_t_for_power,
    z_decisions,
    z_test_mu1_for_power,
)
from .ssr import (
    DesignParams,
    TrialBatch,
    TrialPath,
    bm_decisions,
    incta_decisions,
    n2_lookup_table,
    simulate_trials,
)
from .stats import normal_cdf, normal_quantile, summarize
from .streams import RandomStream

__all__ = [
    "KIND_KNOWN",
    "KIND_UNKNOWN",
    "KIND_BEHRENS_FISHER",
    "KIND_ADAPTIVE",
    "Family",
    "FAMILIES",
    "DatasetCounts",
    "ScenarioSpec",
    "Dataset",
    "known_sigma_scenario",
    "unknown_sigma_scenario",
    "behrens_fisher_scenario",
    "adaptive_scenario",
    "solve_pi_t",
    "summary_draws",
    "generate_training_data",
    "gen_critical_inputs",
    "gen_null_features",
]

KIND_KNOWN = "normal-known-sigma"
KIND_UNKNOWN = "normal-unknown-sigma"
KIND_BEHRENS_FISHER = "behrens-fisher"
KIND_ADAPTIVE = "adaptive-binomial"

_SHUFFLE_CHILD = 0x53484646


@dataclass(frozen=True)
class Family:
    """Every rule of one scenario kind.

    The fields hold only module-level functions, so specs and fitted
    tests, which find their record by kind, pickle into spawn workers.
    ``draws`` is what ``sample`` returns for one parameter point: summary
    arrays for the normal kinds, a TrialBatch for the adaptive kind.
    """

    kind: str
    feature_names: tuple  # statistic features
    critical_dim: int  # critical features; 0 means a constant cutoff
    point_keys: tuple  # keys of a validation point
    cfg_keys: tuple  # keys of the config's scenario section besides kind
    shared_stream: bool  # both classes of a grid point draw from child(a)
    check_grid: Callable  # (spec) -> None, raises ValueError
    from_cfg: Callable  # (scenario doc, sizes, critical points, alpha) -> spec
    point: Callable  # (spec, grid nuisance, alternative or None) -> point
    is_null: Callable  # (spec, point) -> bool
    sample: Callable  # (spec, point, reps, stream, design, n2_table) -> draws
    observe: Callable  # (spec, observed data) -> one row of draws
    features: Callable  # (spec, draws) -> (statistic, critical or None)
    # (name, hits(spec, draws, critical, alpha, bm_level)) per comparator
    comparators: tuple
    # (spec) -> prefix that tells apart the exhibit rows of several specs
    label_prefix: Callable | None = None
    group_sizes: Callable | None = None  # (spec, draws) -> per-group sizes


@dataclass(frozen=True)
class DatasetCounts:
    """Simulation sizes: per-grid-point class sizes b0/b1, grid size a,
    critical-input count l, and the calibration size b_prime."""

    b0: int
    b1: int
    a: int
    l: int
    b_prime: int

    def __post_init__(self):
        if self.b0 < 0 or self.b1 < 0 or self.b0 + self.b1 < 1:
            raise ValueError("need b0, b1 >= 0 with b0 + b1 >= 1")
        for name in ("a", "l", "b_prime"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one testing problem.

    ``nuisance_grid`` holds one entry per training set: a sigma for the
    normal kinds, a (sigma_p, sigma_t) pair for Behrens-Fisher, or a
    null rate pi_p for the adaptive kind.  ``alt_params`` aligns with it
    entry by entry (the alternative mean or treatment rate for that
    set); ``null_params`` is the kind's fixed null record.
    """

    kind: str
    null_params: tuple
    alt_params: tuple
    nuisance_grid: tuple
    n: int
    counts: DatasetCounts

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if len(self.nuisance_grid) == 0:
            raise ValueError("nuisance_grid must be nonempty")
        if self.n < 2:
            raise ValueError("per-group size n must be >= 2")
        if self.counts.a != len(self.nuisance_grid):
            raise ValueError("counts.a must equal len(nuisance_grid)")
        if self.counts.b1 > 0 and len(self.alt_params) != len(self.nuisance_grid):
            raise ValueError("alt_params must align with nuisance_grid")
        self.family.check_grid(self)

    @property
    def family(self) -> Family:
        return FAMILIES[self.kind]

    @property
    def feature_names(self) -> tuple:
        return self.family.feature_names

    @property
    def input_dim(self) -> int:
        return len(self.family.feature_names)


@dataclass
class Dataset:
    """Feature matrix plus labels (class indicators or quantile targets)."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be 2-d and labels 1-d")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on length")
        if self.features.shape[1] != len(self.feature_names):
            raise ValueError("feature_names must match feature width")
        if not np.all(np.isfinite(self.features)) or not np.all(np.isfinite(self.labels)):
            raise ValueError("non-finite values in dataset")

    def __len__(self):
        return self.labels.size


# ------------------------------------------------------------ constructors


def known_sigma_scenario(
    mu0: float, mu1: float, sigma: float, n: int, b0: int, b1: int, b_prime: int
) -> ScenarioSpec:
    return ScenarioSpec(
        kind=KIND_KNOWN,
        null_params=(mu0,),
        alt_params=(mu1,),
        nuisance_grid=(sigma,),
        n=n,
        counts=DatasetCounts(b0=b0, b1=b1, a=1, l=1, b_prime=b_prime),
    )


def unknown_sigma_scenario(
    mu0: float,
    sigma_grid,
    n: int,
    b0: int,
    b1: int,
    l: int,
    b_prime: int,
    power: float = 0.9,
    alpha: float = 0.05,
) -> ScenarioSpec:
    """Unknown-sigma scenario; per-sigma alternative means are set so the
    known-sigma z test would reach the target power."""
    sigma_grid = tuple(float(s) for s in sigma_grid)
    mu1 = tuple(z_test_mu1_for_power(mu0, s, n, alpha, power) for s in sigma_grid)
    return ScenarioSpec(
        kind=KIND_UNKNOWN,
        null_params=(mu0,),
        alt_params=mu1,
        nuisance_grid=sigma_grid,
        n=n,
        counts=DatasetCounts(b0=b0, b1=b1, a=len(sigma_grid), l=l, b_prime=b_prime),
    )


def behrens_fisher_scenario(
    mu_p: float,
    sigma_values,
    powers,
    n: int,
    b0: int,
    b1: int,
    l: int,
    b_prime: int,
    alpha: float = 0.05,
) -> ScenarioSpec:
    """All (sigma_p, sigma_t) pairs crossed with the target-power list;
    treatment means come from the Welch power approximation."""
    sigma_values = tuple(float(s) for s in sigma_values)
    powers = tuple(float(p) for p in powers)
    grid = []
    alts = []
    for power in powers:
        for sp in sigma_values:
            for st in sigma_values:
                grid.append((sp, st))
                alts.append(welch_mu_t_for_power(mu_p, sp, st, n, alpha, power))
    return ScenarioSpec(
        kind=KIND_BEHRENS_FISHER,
        null_params=(mu_p,),
        alt_params=tuple(alts),
        nuisance_grid=tuple(grid),
        n=n,
        counts=DatasetCounts(b0=b0, b1=b1, a=len(grid), l=l, b_prime=b_prime),
    )


def adaptive_scenario(
    pi_p_grid,
    n1: int,
    b0: int,
    b1: int,
    l: int,
    b_prime: int,
    power: float = 0.85,
    alpha: float = 0.05,
) -> ScenarioSpec:
    """Adaptive-binomial scenario; treatment rates solve the pooled-test
    power equation at the full two-stage size 2*n1."""
    pi_p_grid = tuple(float(p) for p in pi_p_grid)
    alts = tuple(solve_pi_t(p, power, 2 * n1, alpha) for p in pi_p_grid)
    return ScenarioSpec(
        kind=KIND_ADAPTIVE,
        null_params=(),
        alt_params=alts,
        nuisance_grid=pi_p_grid,
        n=n1,
        counts=DatasetCounts(b0=b0, b1=b1, a=len(pi_p_grid), l=l, b_prime=b_prime),
    )


def solve_pi_t(pi_p: float, power: float, n: int, alpha: float = 0.05) -> float:
    """Smallest treatment rate whose pooled-proportion-test power at
    per-group size n reaches the target (normal approximation, one-sided).

    The target power is monotone in pi_t, so bisection to 1e-6 applies.
    Targets at or below alpha are met in the limit pi_t -> pi_p.
    """
    if not 0.0 < pi_p < 1.0:
        raise ValueError("pi_p must lie in (0, 1)")
    if not 0.0 < power < 1.0:
        raise ValueError("power must lie in (0, 1)")
    z_a = normal_quantile(alpha)

    def approx_power(pi_t: float) -> float:
        pibar = 0.5 * (pi_p + pi_t)
        return normal_cdf((pi_t - pi_p) / np.sqrt(2.0 * pibar * (1.0 - pibar) / n) + z_a)

    if power <= alpha:
        return pi_p
    hi = 1.0 - 1e-9
    if approx_power(hi) < power:
        raise ValueError(f"no treatment rate below 1 reaches power {power}")
    lo = pi_p
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if approx_power(mid) >= power:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# -------------------------------------------------------------- generation


def summary_draws(gen, mu: float, sigma: float, n: int, reps: int):
    """Exact sampling law of (mean, MLE sd) for a normal sample of size n."""
    means = mu + sigma / np.sqrt(n) * gen.standard_normal(reps)
    sds = sigma * np.sqrt(gen.chisquare(n - 1, reps) / n)
    return means, sds


class _SharedGenerator:
    """Stands in for a RandomStream whose generator() calls all continue
    one generator, so successive samples draw in turn from one substream."""

    def __init__(self, stream: RandomStream):
        self._gen = stream.generator()

    def generator(self):
        return self._gen


def generate_training_data(
    spec: ScenarioSpec,
    stream: RandomStream,
    design: DesignParams | None = None,
    n2_table: np.ndarray | None = None,
) -> Dataset:
    """Labeled statistic features: b0 null and b1 alternative draws at
    every nuisance grid point, jointly shuffled.

    Adaptive specs need the design; without a precomputed reassessment
    table the design's table is built once here (it is seed-free, so the
    result is the same either way).
    """
    family = spec.family
    if design is not None and n2_table is None:
        n2_table = n2_lookup_table(design)
    blocks = []
    labels = []
    for a, nuisance in enumerate(spec.nuisance_grid):
        if family.shared_stream:
            shared = _SharedGenerator(stream.child(a))
            class_streams = (shared, shared)
        else:
            class_streams = (stream.child(2 * a), stream.child(2 * a + 1))
        class_sizes = (spec.counts.b0, spec.counts.b1)
        for label, reps, class_stream in zip((0, 1), class_sizes, class_streams):
            if reps == 0:
                continue
            point = family.point(spec, nuisance, spec.alt_params[a] if label else None)
            draws = family.sample(spec, point, reps, class_stream, design, n2_table)
            blocks.append(family.features(spec, draws)[0])
            labels.append(np.full(reps, float(label)))
    labels = np.concatenate(labels)
    perm = stream.child(_SHUFFLE_CHILD).generator().permutation(labels.size)
    return Dataset(
        features=np.vstack(blocks)[perm], labels=labels[perm], feature_names=family.feature_names
    )


def gen_critical_inputs(spec: ScenarioSpec) -> np.ndarray:
    """Nuisance-grid inputs the critical-value network trains on.

    A regular tensor grid spanning the nuisance range: L points for a
    1-d nuisance, sqrt(L) x sqrt(L) over the two scale axes of
    Behrens-Fisher.
    """
    L = spec.counts.l
    if L < 2:
        raise ValueError("need at least 2 critical-value inputs")
    dim = spec.family.critical_dim
    if dim == 0:
        raise ValueError(f"{spec.kind} tests use a constant cutoff, not a surface")
    side = round(L ** (1.0 / dim))
    if side**dim != L:
        raise ValueError(f"a {dim}-d critical grid needs L = side**{dim}, got {L}")
    grid = np.array(spec.nuisance_grid, dtype=np.float64).reshape(len(spec.nuisance_grid), dim)
    axes = [np.linspace(column.min(), column.max(), side) for column in grid.T]
    return np.column_stack([mesh.ravel() for mesh in np.meshgrid(*axes, indexing="ij")])


def gen_null_features(
    spec: ScenarioSpec,
    nuisance,
    reps: int,
    stream: RandomStream,
    design: DesignParams | None = None,
    n2_table: np.ndarray | None = None,
) -> np.ndarray:
    """Statistic-network inputs simulated under H0 at one nuisance value.

    ``nuisance`` is a scalar sigma or rate, or a (sigma_p, sigma_t) pair,
    matching the rows gen_critical_inputs produces for the kind; the
    known-sigma kind ignores it (sigma is fixed and known).
    """
    family = spec.family
    draws = family.sample(spec, family.point(spec, nuisance, None), reps, stream, design, n2_table)
    return family.features(spec, draws)[0]


# ------------------------------------------------------- family: normal mean


def _check_sigmas(spec: ScenarioSpec) -> None:
    if any(s <= 0.0 for s in spec.nuisance_grid):
        raise ValueError("sigma grid values must be positive")


def _unbiased(mle_sds: np.ndarray, n: int) -> np.ndarray:
    """Divisor n-1 sd from the divisor-n (MLE) sd."""
    return mle_sds * np.sqrt(n / (n - 1.0))


def _mean_point(spec: ScenarioSpec, nuisance, alt) -> dict:
    return {"mu": spec.null_params[0] if alt is None else alt}


def _sigma_point(spec: ScenarioSpec, nuisance, alt) -> dict:
    return {**_mean_point(spec, nuisance, alt), "sigma": float(np.ravel(nuisance)[0])}


def _mean_is_null(spec: ScenarioSpec, point: dict) -> bool:
    return point["mu"] == spec.null_params[0]


def _mean_sample(spec: ScenarioSpec, point: dict, reps: int, stream, design=None, n2_table=None):
    # a known-sigma point carries no sigma: it is the spec's only grid value
    sigma = point.get("sigma", spec.nuisance_grid[0])
    return summary_draws(stream.generator(), point["mu"], sigma, spec.n, reps)


def _mean_observe(spec: ScenarioSpec, observed) -> tuple:
    sample = np.asarray(observed, dtype=np.float64)
    if sample.ndim != 1 or sample.size != spec.n:
        raise ValueError(f"expected a 1-d sample of length {spec.n}")
    s = summarize(sample)
    return np.array([s.mean]), np.array([s.mle_sd])


def _known_features(spec: ScenarioSpec, draws) -> tuple:
    means, _ = draws
    return means[:, None], None


def _unknown_features(spec: ScenarioSpec, draws) -> tuple:
    means, sds = draws
    return np.column_stack([means, sds]), _unbiased(sds, spec.n)[:, None]


def _z_hits(spec, draws, critical, alpha, bm_level):
    return z_decisions(draws[0], spec.null_params[0], spec.nuisance_grid[0], spec.n, alpha)


def _t_hits(spec, draws, critical, alpha, bm_level):
    return t_decisions(draws[0], critical[:, 0], spec.n, spec.null_params[0], alpha)


def _known_from_cfg(doc: dict, sizes, critical_points: int, alpha: float) -> ScenarioSpec:
    return known_sigma_scenario(
        mu0=float(doc["mu0"]),
        mu1=float(doc["mu1"]),
        sigma=float(doc["sigma"]),
        n=int(doc["n"]),
        b0=sizes.b0,
        b1=sizes.b1,
        b_prime=sizes.b_prime,
    )


def _unknown_from_cfg(doc: dict, sizes, critical_points: int, alpha: float) -> ScenarioSpec:
    return unknown_sigma_scenario(
        mu0=float(doc["mu0"]),
        sigma_grid=doc["sigma_grid"],
        n=int(doc["n"]),
        b0=sizes.b0,
        b1=sizes.b1,
        l=critical_points,
        b_prime=sizes.b_prime,
        power=float(doc.get("training_power", 0.9)),
        alpha=alpha,
    )


def _known_prefix(spec: ScenarioSpec) -> str:
    return f"n={spec.n},sigma={spec.nuisance_grid[0]:g}"


def _unknown_prefix(spec: ScenarioSpec) -> str:
    return f"n={spec.n}"


# ------------------------------------------------ family: Behrens-Fisher


def _check_sigma_pairs(spec: ScenarioSpec) -> None:
    for pair in spec.nuisance_grid:
        if len(pair) != 2 or pair[0] <= 0.0 or pair[1] <= 0.0:
            raise ValueError("nuisance pairs must be positive (sigma_p, sigma_t)")


def _bf_point(spec: ScenarioSpec, nuisance, alt) -> dict:
    (mu_p,) = spec.null_params
    sigma_p, sigma_t = (float(v) for v in np.ravel(nuisance)[:2])
    mu_t = mu_p if alt is None else alt
    return {"mu_p": mu_p, "mu_t": mu_t, "sigma_p": sigma_p, "sigma_t": sigma_t}


def _bf_is_null(spec: ScenarioSpec, point: dict) -> bool:
    return point["mu_t"] == point["mu_p"]


def _bf_sample(spec: ScenarioSpec, point: dict, reps: int, stream, design=None, n2_table=None):
    gen = stream.generator()
    mp, sp = summary_draws(gen, point["mu_p"], point["sigma_p"], spec.n, reps)
    mt, st = summary_draws(gen, point["mu_t"], point["sigma_t"], spec.n, reps)
    return mp, sp, mt, st


def _bf_observe(spec: ScenarioSpec, observed) -> tuple:
    if not (isinstance(observed, (tuple, list)) and len(observed) == 2):
        raise ValueError("behrens-fisher data must be (placebo, treatment) samples")
    return _mean_observe(spec, observed[0]) + _mean_observe(spec, observed[1])


def _bf_features(spec: ScenarioSpec, draws) -> tuple:
    mp, sp, mt, st = draws
    critical = np.column_stack([_unbiased(sp, spec.n), _unbiased(st, spec.n)])
    return np.column_stack([mt - mp, sp, st]), critical


def _welch_hits(spec, draws, critical, alpha, bm_level):
    mean_p, mean_t = draws[0], draws[2]
    return welch_decisions(mean_p, critical[:, 0], spec.n, mean_t, critical[:, 1], spec.n, alpha)


def _bf_from_cfg(doc: dict, sizes, critical_points: int, alpha: float) -> ScenarioSpec:
    return behrens_fisher_scenario(
        mu_p=float(doc["mu_p"]),
        sigma_values=doc["sigma_values"],
        powers=doc["training_powers"],
        n=int(doc["n"]),
        b0=sizes.b0,
        b1=sizes.b1,
        l=critical_points,
        b_prime=sizes.b_prime,
        alpha=alpha,
    )


# ------------------------------------------------------ family: adaptive


def _check_rates(spec: ScenarioSpec) -> None:
    for rate in spec.nuisance_grid:
        if not 0.0 < rate < 1.0:
            raise ValueError("rate grid values must lie in (0, 1)")
    for rate in spec.alt_params:
        if not 0.0 < rate < 1.0:
            raise ValueError("alternative rates must lie in (0, 1)")


def _rate_point(spec: ScenarioSpec, nuisance, alt) -> dict:
    rate = float(np.ravel(nuisance)[0])
    return {"pi_p": rate, "pi_t": rate if alt is None else alt}


def _rate_is_null(spec: ScenarioSpec, point: dict) -> bool:
    return point["pi_t"] == point["pi_p"]


def _trial_sample(spec: ScenarioSpec, point: dict, reps: int, stream, design=None, n2_table=None):
    # n2 is data-dependent, so every draw simulates the full reassessed trial
    if design is None:
        raise ValueError("adaptive scenario needs DesignParams")
    if n2_table is None:
        n2_table = n2_lookup_table(design)
    return simulate_trials(point["pi_p"], point["pi_t"], design, reps, stream, n2_table)


def _trial_observe(spec: ScenarioSpec, observed) -> TrialBatch:
    if not isinstance(observed, TrialPath):
        raise ValueError("adaptive data must be a TrialPath")
    if not (0 <= observed.x_p1 <= spec.n and 0 <= observed.x_t1 <= spec.n):
        raise ValueError(f"stage-1 counts must lie in [0, {spec.n}]")
    if observed.n2 < 1:
        raise ValueError("n2 must be >= 1")
    if not (0 <= observed.x_p2 <= observed.n2 and 0 <= observed.x_t2 <= observed.n2):
        raise ValueError("stage-2 counts must lie in [0, n2]")
    counts = (observed.x_p1, observed.x_t1, observed.n2, observed.x_p2, observed.x_t2)
    return TrialBatch(*(np.array([count]) for count in counts))


def _trial_features(spec: ScenarioSpec, batch: TrialBatch) -> tuple:
    return batch.statistic_features(spec.n), batch.pooled_stage1_rate(spec.n)[:, None]


def _incta_hits(spec, batch, critical, alpha, bm_level):
    return incta_decisions(batch, spec.n, alpha)


def _bm_hits(spec, batch, critical, alpha, bm_level):
    return bm_decisions(batch, spec.n, bm_level)


def _trial_group_sizes(spec: ScenarioSpec, batch: TrialBatch) -> np.ndarray:
    return spec.n + batch.n2.astype(np.float64)


def _adaptive_from_cfg(doc: dict, sizes, critical_points: int, alpha: float) -> ScenarioSpec:
    grid = doc["pi_p_grid"]
    if isinstance(grid, dict):
        rates = np.linspace(float(grid["start"]), float(grid["stop"]), int(grid["count"]))
        grid = [round(float(r), 10) for r in rates]
    return adaptive_scenario(
        pi_p_grid=grid,
        n1=int(doc["n1"]),
        b0=sizes.b0,
        b1=sizes.b1,
        l=critical_points,
        b_prime=sizes.b_prime,
        power=float(doc.get("training_power", 0.85)),
        alpha=alpha,
    )


# ---------------------------------------------------------------- registry


FAMILIES = {
    family.kind: family
    for family in (
        Family(
            kind=KIND_KNOWN,
            feature_names=("mean",),
            critical_dim=0,
            point_keys=("mu",),
            cfg_keys=("mu0", "mu1", "sigma", "n"),
            shared_stream=False,
            check_grid=_check_sigmas,
            from_cfg=_known_from_cfg,
            point=_mean_point,
            is_null=_mean_is_null,
            sample=_mean_sample,
            observe=_mean_observe,
            features=_known_features,
            comparators=(("z", _z_hits),),
            label_prefix=_known_prefix,
        ),
        Family(
            kind=KIND_UNKNOWN,
            feature_names=("mean", "sd_mle"),
            critical_dim=1,
            point_keys=("mu", "sigma"),
            cfg_keys=("mu0", "sigma_grid", "n", "training_power"),
            shared_stream=True,
            check_grid=_check_sigmas,
            from_cfg=_unknown_from_cfg,
            point=_sigma_point,
            is_null=_mean_is_null,
            sample=_mean_sample,
            observe=_mean_observe,
            features=_unknown_features,
            comparators=(("t", _t_hits),),
            label_prefix=_unknown_prefix,
        ),
        Family(
            kind=KIND_BEHRENS_FISHER,
            feature_names=("diff", "sd_p_mle", "sd_t_mle"),
            critical_dim=2,
            point_keys=("mu_p", "mu_t", "sigma_p", "sigma_t"),
            cfg_keys=("mu_p", "sigma_values", "training_powers", "n"),
            shared_stream=True,
            check_grid=_check_sigma_pairs,
            from_cfg=_bf_from_cfg,
            point=_bf_point,
            is_null=_bf_is_null,
            sample=_bf_sample,
            observe=_bf_observe,
            features=_bf_features,
            comparators=(("welch", _welch_hits),),
        ),
        Family(
            kind=KIND_ADAPTIVE,
            feature_names=("d1", "d2", "n2"),
            critical_dim=1,
            point_keys=("pi_p", "pi_t"),
            cfg_keys=("n1", "pi_p_grid", "training_power"),
            shared_stream=False,
            check_grid=_check_rates,
            from_cfg=_adaptive_from_cfg,
            point=_rate_point,
            is_null=_rate_is_null,
            sample=_trial_sample,
            observe=_trial_observe,
            features=_trial_features,
            comparators=(("incta", _incta_hits), ("bm", _bm_hits)),
            group_sizes=_trial_group_sizes,
        ),
    )
}
