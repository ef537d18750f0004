"""Distributions, estimators, and quantiles shared by every module.

The package draws its random numbers elsewhere, from
:class:`~deeptest.streams.RandomStream` generators; this module holds
the deterministic pieces: normal and Student-t quantiles, Beta moment
matching, sample summaries and the empirical upper quantile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, stdtrit

__all__ = [
    "SampleSummary",
    "normal_quantile",
    "normal_cdf",
    "student_t_quantile",
    "beta_from_moments",
    "summarize",
    "empirical_upper_quantile",
]


@dataclass(frozen=True)
class SampleSummary:
    """Sufficient statistics of one univariate sample.

    ``mle_sd`` uses divisor n (the maximum-likelihood scale estimate),
    ``unbiased_sd`` uses divisor n - 1.  The two satisfy
    ``unbiased_sd**2 * (n - 1) == mle_sd**2 * n`` exactly.
    """

    n: int
    mean: float
    mle_sd: float
    unbiased_sd: float


def normal_quantile(u):
    """Standard normal quantile z_u with |Phi(z_u) - u| < 1e-12.

    Parameters
    ----------
    u : float or array_like
        Probability in the open interval (0, 1).
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("normal_quantile requires 0 < u < 1")
    out = ndtri(u)
    return float(out) if out.ndim == 0 else out


def normal_cdf(x):
    """Standard normal CDF Phi(x), elementwise."""
    out = ndtr(np.asarray(x, dtype=np.float64))
    return float(out) if out.ndim == 0 else out


def student_t_quantile(u, df):
    """Student-t quantile with ``df`` degrees of freedom.

    Accuracy is inherited from the incomplete-beta inversion and is
    checked against an independent continued-fraction oracle in the
    test suite.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("student_t_quantile requires 0 < u < 1")
    if np.any(np.asarray(df) <= 0):
        raise ValueError("degrees of freedom must be positive")
    out = stdtrit(df, u)
    return float(out) if out.ndim == 0 else out


def beta_from_moments(mean, variance):
    """Shape parameters (a, b) of the Beta law with the given moments.

    Requires ``0 < variance < mean * (1 - mean)``; the closed form
    round-trips to the input moments within 1e-10.
    """
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if np.any(mean <= 0.0) or np.any(mean >= 1.0):
        raise ValueError("mean must lie strictly inside (0, 1)")
    bound = mean * (1.0 - mean)
    if np.any(variance <= 0.0) or np.any(variance >= bound):
        raise ValueError("variance must satisfy 0 < variance < mean*(1-mean)")
    c = bound / variance - 1.0
    a = mean * c
    b = (1.0 - mean) * c
    if a.ndim == 0:
        return float(a), float(b)
    return a, b


def summarize(sample) -> SampleSummary:
    """Sufficient statistics (mean, MLE sd, unbiased sd) of a sample."""
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("summarize expects a one-dimensional sample")
    n = x.size
    if n < 2:
        raise ValueError(f"summarize needs n >= 2 observations, got {n}")
    mean = float(x.mean())
    ss = float(np.sum((x - mean) ** 2))
    return SampleSummary(
        n=n,
        mean=mean,
        mle_sd=float(np.sqrt(ss / n)),
        unbiased_sd=float(np.sqrt(ss / (n - 1))),
    )


def empirical_upper_quantile(values, alpha: float) -> float:
    """Upper-alpha empirical quantile: the ceil((1-alpha)*B)-th order statistic.

    No interpolation is applied; the returned value is an element of
    ``values``, which guarantees the strictly-exceeding fraction on the
    calibration sample itself is at most alpha.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("empirical_upper_quantile requires a nonempty vector")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rank = int(np.ceil((1.0 - alpha) * v.size))
    rank = min(max(rank, 1), v.size)
    return float(np.partition(v, rank - 1)[rank - 1])
