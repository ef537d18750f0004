"""Analytic comparator tests and the effect-size solvers behind the grids.

All tests are one-sided at level alpha, rejecting for large positive
statistics.  Each test is one batch function over arrays of sample
summaries, so the validation Monte Carlo scores a million replicates
without Python loops; a single sample is a batch of one.
"""

from __future__ import annotations

import numpy as np

from .stats import normal_cdf, normal_quantile, student_t_quantile

__all__ = [
    "z_test_mu1_for_power",
    "welch_mu_t_for_power",
    "z_decisions",
    "t_decisions",
    "welch_decisions",
    "welch_statistic",
]


def z_test_mu1_for_power(mu0: float, sigma: float, n: int, alpha: float, power: float) -> float:
    """Alternative mean at which the z-test attains the target power."""
    if sigma <= 0 or n < 1:
        raise ValueError("sigma must be positive and n >= 1")
    return mu0 + sigma * (normal_quantile(1.0 - alpha) + normal_quantile(power)) / np.sqrt(n)


def welch_statistic(mean_p, var_p, n_p, mean_t, var_t, n_t):
    """Welch statistic and Satterthwaite df from summary values.

    Works elementwise on arrays; callers guarantee not both variances
    vanish.
    """
    se2 = var_p / n_p + var_t / n_t
    stat = (mean_t - mean_p) / np.sqrt(se2)
    df = se2**2 / (
        (var_p / n_p) ** 2 / (n_p - 1) + (var_t / n_t) ** 2 / (n_t - 1)
    )
    return stat, df


def welch_mu_t_for_power(
    mu_p: float, sigma_p: float, sigma_t: float, n: int, alpha: float, power: float
) -> float:
    """Treatment mean hitting the target Welch power (normal approximation).

    Bisection on power(Delta) = Phi(Delta / sqrt(sigma_p^2/n + sigma_t^2/n)
    - z_{1-alpha}) to 1e-6.
    """
    if not 0.0 < power < 1.0:
        raise ValueError("power must lie in (0, 1)")
    se = np.sqrt((sigma_p**2 + sigma_t**2) / n)
    z_hi = normal_quantile(1.0 - alpha)

    def approx_power(delta: float) -> float:
        return normal_cdf(delta / se - z_hi)

    lo, hi = 0.0, se * (z_hi + 10.0)
    while approx_power(hi) < power:
        hi *= 2.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if approx_power(mid) < power:
            lo = mid
        else:
            hi = mid
    return mu_p + 0.5 * (lo + hi)


# --- batch decision helpers -------------------------------------------------


def z_decisions(means, mu0: float, sigma: float, n: int, alpha: float) -> np.ndarray:
    """Vectorized z-test rejections from sample means."""
    stats = (np.asarray(means, dtype=np.float64) - mu0) * np.sqrt(n) / sigma
    return stats > normal_quantile(1.0 - alpha)


def t_decisions(means, unbiased_sds, n: int, mu0: float, alpha: float) -> np.ndarray:
    """Vectorized one-sample t rejections from summary arrays."""
    sds = np.asarray(unbiased_sds, dtype=np.float64)
    stats = (np.asarray(means, dtype=np.float64) - mu0) * np.sqrt(n) / sds
    return stats > student_t_quantile(1.0 - alpha, n - 1)


def welch_decisions(
    mean_p, sd_p, n_p: int, mean_t, sd_t, n_t: int, alpha: float
) -> np.ndarray:
    """Vectorized Welch rejections from per-group summary arrays."""
    stat, df = welch_statistic(
        np.asarray(mean_p, dtype=np.float64),
        np.asarray(sd_p, dtype=np.float64) ** 2,
        n_p,
        np.asarray(mean_t, dtype=np.float64),
        np.asarray(sd_t, dtype=np.float64) ** 2,
        n_t,
    )
    return stat > student_t_quantile(1.0 - alpha, df)
