"""Monte Carlo builders for every dataset the testing pipeline consumes.

Each scenario kind pairs a null and an alternative sampling law and
exposes three things: labeled training data for the statistic network,
clean nuisance-grid inputs for the critical-value network, and null
feature samples for cutoff calibration.  Features are the sufficient
summaries the networks see:

    normal-known-sigma   [mean]
    normal-unknown-sigma [mean, sd_mle]
    behrens-fisher       [mean_t - mean_p, sd_p_mle, sd_t_mle]
    adaptive-binomial    [stage-1 rate diff, stage-2 rate diff, n2]

Normal-scenario summaries are drawn from their exact sampling law
(mean and scaled-chi-square sd) instead of averaging raw observations;
the two routes agree in distribution and the shortcut removes an
n-fold simulation cost.

Generation is a pure function of (spec, stream): grid points use
independent substreams, and regenerating with the same spec and stream
is bit-identical.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .ssr import DesignParams, n2_lookup_table, simulate_trials
from .stats import normal_cdf, normal_quantile
from .streams import RandomStream

__all__ = [
    "KIND_KNOWN",
    "KIND_UNKNOWN",
    "KIND_BEHRENS_FISHER",
    "KIND_ADAPTIVE",
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
    "gen_simple_known",
    "gen_simple_unknown",
    "gen_behrens_fisher",
    "gen_adaptive",
    "gen_critical_inputs",
    "gen_null_features",
]

KIND_KNOWN = "normal-known-sigma"
KIND_UNKNOWN = "normal-unknown-sigma"
KIND_BEHRENS_FISHER = "behrens-fisher"
KIND_ADAPTIVE = "adaptive-binomial"

_KINDS = (KIND_KNOWN, KIND_UNKNOWN, KIND_BEHRENS_FISHER, KIND_ADAPTIVE)

_SHUFFLE_CHILD = 0x53484646

_FEATURE_NAMES = {
    KIND_KNOWN: ("mean",),
    KIND_UNKNOWN: ("mean", "sd_mle"),
    KIND_BEHRENS_FISHER: ("diff", "sd_p_mle", "sd_t_mle"),
    KIND_ADAPTIVE: ("d1", "d2", "n2"),
}


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
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if len(self.nuisance_grid) == 0:
            raise ValueError("nuisance_grid must be nonempty")
        if self.n < 2:
            raise ValueError("per-group size n must be >= 2")
        if self.counts.a != len(self.nuisance_grid):
            raise ValueError("counts.a must equal len(nuisance_grid)")
        if self.counts.b1 > 0 and len(self.alt_params) != len(self.nuisance_grid):
            raise ValueError("alt_params must align with nuisance_grid")
        if self.kind in (KIND_KNOWN, KIND_UNKNOWN):
            if any(s <= 0.0 for s in self.nuisance_grid):
                raise ValueError("sigma grid values must be positive")
        elif self.kind == KIND_BEHRENS_FISHER:
            for pair in self.nuisance_grid:
                if len(pair) != 2 or pair[0] <= 0.0 or pair[1] <= 0.0:
                    raise ValueError("nuisance pairs must be positive (sigma_p, sigma_t)")
        else:
            for rate in self.nuisance_grid:
                if not 0.0 < rate < 1.0:
                    raise ValueError("rate grid values must lie in (0, 1)")
            for rate in self.alt_params:
                if not 0.0 < rate < 1.0:
                    raise ValueError("alternative rates must lie in (0, 1)")

    @property
    def feature_names(self) -> tuple:
        return _FEATURE_NAMES[self.kind]

    @property
    def input_dim(self) -> int:
        return len(_FEATURE_NAMES[self.kind])


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

    def class_slice(self, label: float) -> np.ndarray:
        return self.features[self.labels == label]

    def row_checksum(self) -> str:
        """Order-independent digest of the (feature, label) multiset."""
        import hashlib

        rows = np.column_stack([self.features, self.labels])
        order = np.lexsort(rows.T[::-1])
        return hashlib.sha256(np.ascontiguousarray(rows[order]).tobytes()).hexdigest()

    def to_csv(self, path) -> None:
        header = ",".join(list(self.feature_names) + ["label"])
        rows = np.column_stack([self.features, self.labels])
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        if hasattr(path, "read"):
            text = path.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        lines = text.splitlines()
        names = tuple(lines[0].split(","))
        if names[-1] != "label":
            raise ValueError("last column must be the label")
        body = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
        return cls(features=body[:, :-1], labels=body[:, -1], feature_names=names[:-1])


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
    from .classical import z_test_mu1_for_power

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
    from .classical import welch_mu_t_for_power

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


def _joint_shuffle(features: np.ndarray, labels: np.ndarray, stream: RandomStream):
    perm = stream.generator().permutation(labels.size)
    return features[perm], labels[perm]


def gen_simple_known(spec: ScenarioSpec, stream: RandomStream) -> Dataset:
    """Labeled sample means under the two point hypotheses."""
    if spec.kind != KIND_KNOWN:
        raise ValueError("spec kind must be normal-known-sigma")
    (mu0,) = spec.null_params
    (mu1,) = spec.alt_params
    (sigma,) = spec.nuisance_grid
    b0, b1 = spec.counts.b0, spec.counts.b1
    null_means, _ = summary_draws(stream.child(0).generator(), mu0, sigma, spec.n, b0)
    alt_means, _ = summary_draws(stream.child(1).generator(), mu1, sigma, spec.n, b1)
    features = np.concatenate([null_means, alt_means])[:, None]
    labels = np.concatenate([np.zeros(b0), np.ones(b1)])
    features, labels = _joint_shuffle(features, labels, stream.child(_SHUFFLE_CHILD))
    return Dataset(features=features, labels=labels, feature_names=spec.feature_names)


def gen_simple_unknown(spec: ScenarioSpec, stream: RandomStream) -> Dataset:
    """Labeled (mean, MLE sd) pairs stacked over the sigma grid."""
    if spec.kind != KIND_UNKNOWN:
        raise ValueError("spec kind must be normal-unknown-sigma")
    (mu0,) = spec.null_params
    b0, b1 = spec.counts.b0, spec.counts.b1
    blocks = []
    labels = []
    for a, sigma in enumerate(spec.nuisance_grid):
        gen = stream.child(a).generator()
        m0, s0 = summary_draws(gen, mu0, sigma, spec.n, b0)
        mu1 = spec.alt_params[a] if b1 > 0 else mu0
        m1, s1 = summary_draws(gen, mu1, sigma, spec.n, b1)
        blocks.append(np.column_stack([np.concatenate([m0, m1]), np.concatenate([s0, s1])]))
        labels.append(np.concatenate([np.zeros(b0), np.ones(b1)]))
    features = np.vstack(blocks)
    labels = np.concatenate(labels)
    features, labels = _joint_shuffle(features, labels, stream.child(_SHUFFLE_CHILD))
    return Dataset(features=features, labels=labels, feature_names=spec.feature_names)


def gen_behrens_fisher(spec: ScenarioSpec, stream: RandomStream) -> Dataset:
    """Labeled (mean diff, sd_p, sd_t) triples over the variance-pair grid."""
    if spec.kind != KIND_BEHRENS_FISHER:
        raise ValueError("spec kind must be behrens-fisher")
    (mu_p,) = spec.null_params
    b0, b1 = spec.counts.b0, spec.counts.b1
    blocks = []
    labels = []
    for a, (sigma_p, sigma_t) in enumerate(spec.nuisance_grid):
        gen = stream.child(a).generator()
        rows = []
        for label, mu_t, reps in ((0, mu_p, b0), (1, spec.alt_params[a] if b1 else mu_p, b1)):
            mp, sp = summary_draws(gen, mu_p, sigma_p, spec.n, reps)
            mt, st = summary_draws(gen, mu_t, sigma_t, spec.n, reps)
            rows.append(np.column_stack([mt - mp, sp, st]))
        blocks.append(np.vstack(rows))
        labels.append(np.concatenate([np.zeros(b0), np.ones(b1)]))
    features = np.vstack(blocks)
    labels = np.concatenate(labels)
    features, labels = _joint_shuffle(features, labels, stream.child(_SHUFFLE_CHILD))
    return Dataset(features=features, labels=labels, feature_names=spec.feature_names)


def gen_adaptive(
    spec: ScenarioSpec,
    design: DesignParams,
    stream: RandomStream,
    n2_table: np.ndarray | None = None,
) -> Dataset:
    """Labeled two-stage trial summaries over the null-rate grid.

    n2 is data-dependent, so every example comes from simulating the full
    reassessed trial.  Without a precomputed reassessment table, the
    design's table is built here (it is seed-free, so the result is the
    same either way).
    """
    if spec.kind != KIND_ADAPTIVE:
        raise ValueError("spec kind must be adaptive-binomial")
    if n2_table is None:
        n2_table = n2_lookup_table(design)
    b0, b1 = spec.counts.b0, spec.counts.b1
    blocks = []
    labels = []
    for a, pi_p in enumerate(spec.nuisance_grid):
        if b0 > 0:
            batch = simulate_trials(pi_p, pi_p, design, b0, stream.child(2 * a), n2_table)
            blocks.append(batch.statistic_features(design.n1))
            labels.append(np.zeros(b0))
        if b1 > 0:
            pi_t = spec.alt_params[a]
            batch = simulate_trials(pi_p, pi_t, design, b1, stream.child(2 * a + 1), n2_table)
            blocks.append(batch.statistic_features(design.n1))
            labels.append(np.ones(b1))
    features = np.vstack(blocks)
    labels = np.concatenate(labels)
    features, labels = _joint_shuffle(features, labels, stream.child(_SHUFFLE_CHILD))
    return Dataset(features=features, labels=labels, feature_names=spec.feature_names)


def generate_training_data(
    spec: ScenarioSpec,
    stream: RandomStream,
    design: DesignParams | None = None,
    n2_table: np.ndarray | None = None,
) -> Dataset:
    """Kind dispatcher for the four generators."""
    if spec.kind == KIND_KNOWN:
        return gen_simple_known(spec, stream)
    if spec.kind == KIND_UNKNOWN:
        return gen_simple_unknown(spec, stream)
    if spec.kind == KIND_BEHRENS_FISHER:
        return gen_behrens_fisher(spec, stream)
    if design is None:
        raise ValueError("adaptive scenario needs DesignParams")
    return gen_adaptive(spec, design, stream, n2_table=n2_table)


def gen_critical_inputs(spec: ScenarioSpec) -> np.ndarray:
    """Nuisance-grid inputs the critical-value network trains on.

    Regular sequences spanning the scenario's nuisance range; the
    Behrens-Fisher kind uses a sqrt(L) x sqrt(L) tensor grid over the
    two scale axes.
    """
    L = spec.counts.l
    if L < 2:
        raise ValueError("need at least 2 critical-value inputs")
    if spec.kind == KIND_KNOWN:
        raise ValueError("known-sigma tests use a constant cutoff, not a surface")
    if spec.kind == KIND_UNKNOWN:
        lo, hi = min(spec.nuisance_grid), max(spec.nuisance_grid)
        return np.linspace(lo, hi, L)[:, None]
    if spec.kind == KIND_ADAPTIVE:
        lo, hi = min(spec.nuisance_grid), max(spec.nuisance_grid)
        return np.linspace(lo, hi, L)[:, None]
    side = isqrt(L)
    if side * side != L:
        raise ValueError("Behrens-Fisher critical grid needs a square L")
    sp = np.array([p[0] for p in spec.nuisance_grid])
    st = np.array([p[1] for p in spec.nuisance_grid])
    ax_p = np.linspace(sp.min(), sp.max(), side)
    ax_t = np.linspace(st.min(), st.max(), side)
    gp, gt = np.meshgrid(ax_p, ax_t, indexing="ij")
    return np.column_stack([gp.ravel(), gt.ravel()])


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
    matching the rows gen_critical_inputs produces for the kind.
    """
    if spec.kind == KIND_KNOWN:
        # the nuisance argument is ignored: sigma is fixed and known
        (mu0,) = spec.null_params
        (sigma,) = spec.nuisance_grid
        means, _ = summary_draws(stream.generator(), mu0, sigma, spec.n, reps)
        return means[:, None]
    if spec.kind == KIND_UNKNOWN:
        (mu0,) = spec.null_params
        gen = stream.generator()
        means, sds = summary_draws(gen, mu0, float(np.ravel(nuisance)[0]), spec.n, reps)
        return np.column_stack([means, sds])
    if spec.kind == KIND_BEHRENS_FISHER:
        (mu_p,) = spec.null_params
        sigma_p, sigma_t = (float(v) for v in np.ravel(nuisance)[:2])
        gen = stream.generator()
        mp, sp = summary_draws(gen, mu_p, sigma_p, spec.n, reps)
        mt, st = summary_draws(gen, mu_p, sigma_t, spec.n, reps)
        return np.column_stack([mt - mp, sp, st])
    if design is None:
        raise ValueError("adaptive scenario needs DesignParams")
    if n2_table is None:
        n2_table = n2_lookup_table(design)
    rate = float(np.ravel(nuisance)[0])
    batch = simulate_trials(rate, rate, design, reps, stream, n2_table)
    return batch.statistic_features(design.n1)
