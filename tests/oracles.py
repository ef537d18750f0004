"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from different primitives than
the library (quadrature instead of closed-form inverses, continued
fractions instead of scipy's incomplete-beta inversion, full sorts
instead of partial selection) so the two routes stay independent.  The
raw samplers at the end draw whole observations on a RandomStream, the
route the library's exact-law summary draws shortcut.
"""

import math

import numpy as np
from scipy.integrate import quad


def phi_quadrature(z: float) -> float:
    """Standard normal CDF by adaptive quadrature of the density."""
    val, _ = quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        0.0,
        z,
        epsabs=1e-15,
        epsrel=1e-13,
    )
    return 0.5 + val


def normal_quantile_quadrature(u: float) -> float:
    """Quantile by bisection on the quadrature CDF."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi_quadrature(mid) < u:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def _betacf(a: float, b: float, x: float, itmax: int = 300, eps: float = 3e-16) -> float:
    # Modified Lentz evaluation of the incomplete-beta continued fraction.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, itmax + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def _betai(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lfront = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(lfront) * _betacf(a, b, x) / a
    return 1.0 - math.exp(lfront) * _betacf(b, a, 1.0 - x) / b


def student_t_cdf_cf(t: float, df: float) -> float:
    """Student-t CDF via the incomplete-beta continued fraction."""
    x = df / (df + t * t)
    p = 0.5 * _betai(0.5 * df, 0.5, x)
    return 1.0 - p if t > 0 else p


def upper_quantile_by_sort(values, alpha: float) -> float:
    """Order-statistic upper quantile computed with a full sort."""
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    rank = int(np.ceil((1.0 - alpha) * v.size))
    rank = min(max(rank, 1), v.size)
    return float(v[rank - 1])


def mc_margin(p: float, n: int, z: float = 4.0) -> float:
    """z Monte Carlo standard errors for a proportion estimate."""
    return z * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def cep_gauss_legendre(cp_fn, prior_t, prior_p, nodes: int = 80) -> float:
    """Expected conditional power by tensor Gauss-Legendre quadrature.

    ``cp_fn(pi_t, pi_p)`` must accept array arguments.  Each Beta prior is
    integrated on its own effective support [ppf(1e-12), ppf(1-1e-12)]
    so the narrow priors used by the reassessment rule are resolved.
    """
    from scipy.stats import beta as beta_dist

    x, w = np.polynomial.legendre.leggauss(nodes)

    def axis(prior):
        a, b = prior
        lo = beta_dist.ppf(1e-12, a, b)
        hi = beta_dist.ppf(1.0 - 1e-12, a, b)
        t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        wt = 0.5 * (hi - lo) * w * beta_dist.pdf(t, a, b)
        return t, wt

    t_nodes, t_w = axis(prior_t)
    p_nodes, p_w = axis(prior_p)
    tt, pp = np.meshgrid(t_nodes, p_nodes, indexing="ij")
    vals = cp_fn(tt.ravel(), pp.ravel()).reshape(nodes, nodes)
    total = float(t_w.sum() * p_w.sum())
    return float(np.einsum("i,ij,j->", t_w, vals, p_w) / total)


def sample_normal(stream, mu, sigma, n):
    """``n`` i.i.d. N(mu, sigma^2) draws by inverse CDF of 53-bit uniforms.

    A raw-sample route independent of the library's exact-law summary
    draws (standard normal plus scaled chi-square); the uniforms sit half
    a step off the endpoints, so the inverse CDF never sees 0 or 1.
    """
    from scipy.special import ndtri

    if np.any(np.asarray(sigma) <= 0):
        raise ValueError("sigma must be positive")
    if np.isscalar(n) and n < 1:
        raise ValueError("n must be at least 1")
    k = stream.generator().integers(0, 1 << 53, size=n, dtype=np.int64)
    return np.asarray(mu) + np.asarray(sigma) * ndtri((k.astype(np.float64) + 0.5) * 2.0**-53)


def summarize_rows(samples):
    """Row-wise (mean, MLE sd, unbiased sd) arrays of a 2-D sample block."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("summarize_rows expects a 2-D block with >= 2 columns")
    n = x.shape[1]
    mean = x.mean(axis=1)
    ss = np.sum((x - mean[:, None]) ** 2, axis=1)
    return mean, np.sqrt(ss / n), np.sqrt(ss / (n - 1))


def sample_binomial(stream, n, p, size=None):
    """Binomial(n, p) counts on the stream's generator (an int when
    ``size`` is None and both arguments are scalars)."""
    if np.any(np.asarray(p, dtype=np.float64) < 0.0) or np.any(np.asarray(p) > 1.0):
        raise ValueError("p must lie in [0, 1]")
    if np.any(np.asarray(n) < 0):
        raise ValueError("n must be nonnegative")
    out = stream.generator().binomial(n, p, size=size)
    return int(out) if size is None and np.isscalar(n) and np.isscalar(p) else out


def sample_beta(stream, a, b, size=None):
    """Beta(a, b) draws on the stream's generator (a float when ``size``
    is None and both shapes are scalars)."""
    if np.any(np.asarray(a) <= 0) or np.any(np.asarray(b) <= 0):
        raise ValueError("beta shape parameters must be positive")
    out = stream.generator().beta(a, b, size=size)
    return float(out) if size is None and np.isscalar(a) and np.isscalar(b) else out
