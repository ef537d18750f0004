"""Two-stage adaptive binomial design with CEP-based sample-size reassessment.

Stage 1 enrolls ``n1`` per group; the pooled-proportion statistic on the
interim data drives a conditional-expected-power (CEP) rule that picks the
stage-2 per-group size ``n2`` inside the design bounds.  Reassessment
depends on the data only through the stage-1 counts, so bulk simulation
precomputes ``n2`` for every (x_p1, x_t1) cell once per design and replays
trials by table lookup.

CEP is an expectation over two Beta priors, computed by a tensor
Gauss-Jacobi rule of QUAD_NODES nodes per prior (Golub-Welsch nodes from
``numpy.linalg.eigh``), so the table is a function of the design alone:
no seed and no random draws.  ``_reassess_block`` is the one
reassessment code: the table builder runs it on one x_p1 row at a time,
and every simulated trial, a single one included, reads the table.

INCTA (inverse-normal combination) and BM (pooled test at an adjusted
level) comparators score batches of trials on the same path, as do all
reported ASN figures (per-group accounting: n1 + mean n2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import beta_from_moments, normal_cdf, normal_quantile
from .streams import RandomStream

__all__ = [
    "DesignParams",
    "TrialPath",
    "TrialBatch",
    "proportion_stat",
    "conditional_power",
    "beta_rule",
    "n2_lookup_table",
    "derive_capped_table",
    "simulate_trials",
    "incta_decisions",
    "bm_decisions",
]

_CLIP = 1e-12
# Gauss-Jacobi nodes per prior: the smallest count whose n2 tables equal
# 96-node tables on musec.cfg, musec_designs.cfg and an n1 = 12 design
QUAD_NODES = 36


@dataclass(frozen=True)
class DesignParams:
    """Design constants of the reassessed two-stage trial."""

    n1: int = 85
    n2_min: int = 21
    n2_max: int = 340
    cep_target: float = 0.8
    gamma: float = 0.001
    alpha: float = 0.05

    def __post_init__(self):
        if self.n1 < 1:
            raise ValueError("n1 must be >= 1")
        if not 1 <= self.n2_min <= self.n2_max:
            raise ValueError("need 1 <= n2_min <= n2_max")
        if not 0.0 < self.cep_target < 1.0:
            raise ValueError("cep_target must lie in (0, 1)")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")


@dataclass(frozen=True)
class TrialPath:
    """One observed trial: stage counts and the reassessed n2."""

    x_p1: int
    x_t1: int
    n2: int
    x_p2: int
    x_t2: int


@dataclass
class TrialBatch:
    """Struct-of-arrays form of many simulated trials."""

    x_p1: np.ndarray
    x_t1: np.ndarray
    n2: np.ndarray
    x_p2: np.ndarray
    x_t2: np.ndarray

    def __len__(self):
        return self.x_p1.size

    def statistic_features(self, n1: int) -> np.ndarray:
        """Per-trial t^(s) = (stage-1 rate diff, stage-2 rate diff, n2)."""
        d1 = (self.x_t1 - self.x_p1) / n1
        d2 = (self.x_t2 - self.x_p2) / self.n2
        return np.column_stack([d1, d2, self.n2.astype(np.float64)])

    def pooled_stage1_rate(self, n1: int) -> np.ndarray:
        """Per-trial t^(c): pooled first-stage response rate."""
        return (self.x_p1 + self.x_t1) / (2.0 * n1)


def proportion_stat(x_p, x_t, n):
    """Pooled two-proportion statistic of the (treatment - placebo) diff.

    Degenerate pooled rates (0 or 1) carry no between-arm evidence and
    return 0 by convention.
    """
    xp = np.asarray(x_p, dtype=np.float64)
    xt = np.asarray(x_t, dtype=np.float64)
    if np.any(xp < 0) or np.any(xt < 0) or np.any(xp > n) or np.any(xt > n):
        raise ValueError("counts must lie in [0, n]")
    pooled = (xp + xt) / (2.0 * n)
    den = np.sqrt(2.0 * pooled * (1.0 - pooled) / n)
    num = (xt - xp) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return float(out) if out.ndim == 0 else out


def conditional_power(m1, n1: int, n2, pi_t, pi_p, alpha: float):
    """Probability of final rejection given the interim statistic m1.

    Normal-approximation display with z_alpha = Phi^{-1}(alpha) (negative
    for small alpha); under pi_t = pi_p and m1 = 0 the value tends to
    alpha as n2 grows.
    """
    pibar = 0.5 * (np.asarray(pi_t, dtype=np.float64) + np.asarray(pi_p, dtype=np.float64))
    if np.any(pibar <= 0.0) or np.any(pibar >= 1.0):
        raise ValueError("pooled rate (pi_t + pi_p)/2 must lie strictly inside (0, 1)")
    n2 = np.asarray(n2, dtype=np.float64)
    z_a = normal_quantile(alpha)
    drift = (np.asarray(pi_t) - np.asarray(pi_p)) * np.sqrt(n2)
    arg = (z_a * np.sqrt(n1 + n2) + np.asarray(m1) * np.sqrt(n1)) / np.sqrt(n2)
    arg = arg + drift / np.sqrt(2.0 * pibar * (1.0 - pibar))
    out = normal_cdf(arg)
    return float(out) if np.ndim(out) == 0 else out


def beta_rule(a: float, b: float, nodes: int):
    """Gauss-Jacobi rule for an expectation over Beta(a, b).

    Returns (nodes on (0, 1), weights summing to 1); the rule is exact for
    polynomials of degree below 2 * nodes.  Golub-Welsch: the nodes are
    the eigenvalues of the Jacobi matrix of the monic Jacobi recurrence
    with alpha = b - 1, beta = a - 1, shifted from [-1, 1] to [0, 1], and
    the weights the squared first components of its eigenvectors.
    """
    al, be = b - 1.0, a - 1.0
    k = np.arange(1, nodes, dtype=np.float64)
    s = 2.0 * k + al + be
    diag = np.empty(nodes)
    diag[0] = (be - al) / (al + be + 2.0)
    diag[1:] = (be * be - al * al) / (s * (s + 2.0))
    off2 = np.empty(nodes - 1)
    # k = 1 with the common factor (1 + alpha + beta) cancelled
    off2[:1] = 4.0 * (1.0 + al) * (1.0 + be) / ((2.0 + al + be) ** 2 * (3.0 + al + be))
    k, s = k[1:], s[1:]
    off2[1:] = 4.0 * k * (k + al) * (k + be) * (k + al + be) / (s * s * (s + 1.0) * (s - 1.0))
    off = 0.5 * np.sqrt(off2)
    jacobi = np.diag(0.5 * (1.0 + diag)) + np.diag(off, 1) + np.diag(off, -1)
    x, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0] ** 2
    return np.clip(x, _CLIP, 1.0 - _CLIP), weights / weights.sum()


def _cep(m1, n1: int, n2, t_rule: tuple, p_rule: tuple, alpha: float) -> np.ndarray:
    # CEP of k cells by the tensor rule: m1 and n2 have shape (k,), the
    # treatment rule (k, q) per cell, the placebo rule (q,) is shared.
    # Every sum runs along the last axis, one cell at a time, so a cell's
    # value does not depend on the other cells in the block.
    t_nodes, t_weights = t_rule
    p_nodes, p_weights = p_rule
    n2 = np.broadcast_to(np.asarray(n2, dtype=np.float64), m1.shape)
    cp = conditional_power(
        m1[:, None, None], n1, n2[:, None, None], t_nodes[:, :, None], p_nodes, alpha
    )
    return np.sum(np.sum(cp * p_weights, axis=2) * t_weights, axis=1)


def _stage1_prior(count: int, design: DesignParams) -> tuple:
    # Observed rate clipped away from {0,1}; gamma reduced only when it
    # breaches the Bernoulli variance bound.
    lo = 1.0 / (2.0 * design.n1)
    mean = min(max(count / design.n1, lo), 1.0 - lo)
    bound = mean * (1.0 - mean)
    var = design.gamma if design.gamma < bound else 0.9 * bound
    return beta_from_moments(mean, var)


def _stage1_rules(counts, design: DesignParams) -> tuple:
    """Prior rules of the given stage-1 counts, stacked: (nodes, weights),
    each of shape (len(counts), QUAD_NODES)."""
    rules = [beta_rule(*_stage1_prior(int(c), design), QUAD_NODES) for c in counts]
    return np.array([r[0] for r in rules]), np.array([r[1] for r in rules])


def _reassess_block(m1: np.ndarray, t_rule: tuple, p_rule: tuple, design: DesignParams) -> np.ndarray:
    """Reassessed n2 of a block of cells that share the placebo count.

    Per cell: the smallest n2 in the design bounds with CEP >= cep_target,
    else n2_max.  CEP is a fixed quadrature, so it is deterministic and
    bisectable: n2_min when CEP(n2_min) reaches the target, n2_max when
    CEP(n2_max) does not, else integer bisection; a linear scan covers
    the (rare) cells where CEP(n2_min) > CEP(n2_max).  Each search step
    evaluates CEP only for the cells still searching.
    """
    t_nodes, t_weights = t_rule

    def cep(cells, n2):
        rule = (t_nodes[cells], t_weights[cells])
        return _cep(m1[cells], design.n1, n2, rule, p_rule, design.alpha)

    lo, hi = design.n2_min, design.n2_max
    target = design.cep_target
    out = np.full(m1.size, hi, dtype=np.int64)
    cells = np.arange(m1.size)
    cep_lo = cep(cells, lo)
    out[cep_lo >= target] = lo
    cells = cells[cep_lo < target]
    if lo == hi or cells.size == 0:
        return out
    cep_hi = cep(cells, hi)
    rising = cep_lo[cells] <= cep_hi
    # smallest crossing by integer bisection: cep(lo) < t <= cep(hi)
    search = cells[rising & (cep_hi >= target)]
    below = np.full(search.size, lo)
    above = np.full(search.size, hi)
    while True:
        active = np.flatnonzero(above - below > 1)
        if active.size == 0:
            break
        mid = (below[active] + above[active]) // 2
        hit = cep(search[active], mid) >= target
        above[active[hit]] = mid[hit]
        below[active[~hit]] = mid[~hit]
    out[search] = above
    # non-monotone endpoints: scan for the smallest crossing
    for cell in cells[~rising]:
        for n2 in range(lo + 1, hi + 1):
            if cep(np.array([cell]), n2)[0] >= target:
                out[cell] = n2
                break
    return out


def n2_lookup_table(design: DesignParams) -> np.ndarray:
    """Reassessed n2 for every stage-1 cell (x_p1, x_t1).

    Seed-free: a function of the design alone.  The prior rule of each
    stage-1 count is computed once; each x_p1 row is one block.
    """
    side = design.n1 + 1
    counts = np.arange(side)
    nodes, weights = _stage1_rules(counts, design)
    table = np.empty((side, side), dtype=np.int64)
    for x_p1 in range(side):
        m1 = proportion_stat(x_p1, counts, design.n1)
        table[x_p1] = _reassess_block(m1, (nodes, weights), (nodes[x_p1], weights[x_p1]), design)
    return table


def derive_capped_table(base_table: np.ndarray, design: DesignParams) -> np.ndarray:
    """Reassessment table for a lower n2_max, derived from a base table.

    Valid because the smallest CEP crossing does not depend on the upper
    clamp: CEP is a fixed function of (cell, n2), so the reassessed n2
    under a smaller cap is min(base n2, new cap).  Entries below n2_min never occur in a
    base table with the same n2_min.
    """
    if np.any(base_table < design.n2_min):
        raise ValueError("base table has entries below the design's n2_min")
    return np.minimum(base_table, design.n2_max)


def simulate_trials(
    pi_p: float,
    pi_t: float,
    design: DesignParams,
    n_trials: int,
    stream: RandomStream,
    n2_table: np.ndarray,
) -> TrialBatch:
    """Vectorized trial simulation via the per-cell reassessment table."""
    for rate in (pi_p, pi_t):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rates must lie in [0, 1]")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    gen = stream.generator()
    x_p1 = gen.binomial(design.n1, pi_p, size=n_trials)
    x_t1 = gen.binomial(design.n1, pi_t, size=n_trials)
    n2 = n2_table[x_p1, x_t1]
    x_p2 = gen.binomial(n2, pi_p)
    x_t2 = gen.binomial(n2, pi_t)
    return TrialBatch(x_p1=x_p1, x_t1=x_t1, n2=n2, x_p2=x_p2, x_t2=x_t2)


def incta_decisions(batch: TrialBatch, n1: int, alpha: float) -> np.ndarray:
    """Inverse-normal combination of the stage statistics, equal weights."""
    z1 = proportion_stat(batch.x_p1, batch.x_t1, n1)
    z2 = proportion_stat(batch.x_p2, batch.x_t2, batch.n2)
    z = (z1 + z2) / np.sqrt(2.0)
    return z > normal_quantile(1.0 - alpha)


def bm_decisions(batch: TrialBatch, n1: int, adjusted_alpha: float = 0.033) -> np.ndarray:
    """Pooled-data proportion test at the adjusted nominal level."""
    stat = proportion_stat(batch.x_p1 + batch.x_p2, batch.x_t1 + batch.x_t2, n1 + batch.n2)
    return stat > normal_quantile(1.0 - adjusted_alpha)
