"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from different primitives than
the library (quadrature instead of closed-form inverses, continued
fractions instead of scipy's incomplete-beta inversion, full sorts
instead of partial selection, scipy p-values and plain-Python statistics
instead of the batch decision arrays) so the two routes stay
independent.  The raw samplers draw whole observations on a
RandomStream, the route the library's exact-law summary draws shortcut.

The rest is reference code built on library primitives, which no
library path calls: ``library_cep`` evaluates the library's CEP
quadrature for one cell (the side the Gauss-Legendre oracle checks);
``calibrate_bm`` bisects the BM comparator's nominal level over a null
grid by simulation, the source of the 0.033 the configs use; and
``gradient_check`` with its loss helpers finite-differences the
library's backprop, in extended precision where float64 differencing is
noise-limited.
"""

import math
import statistics

import numpy as np
from scipy.integrate import quad
from scipy.stats import ttest_1samp, ttest_ind


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


def cep_gauss_legendre(cp_fn, prior_t, prior_p, nodes: int = 80):
    """Expected conditional power by tensor Gauss-Legendre quadrature.

    ``cp_fn(pi_t, pi_p)`` must accept array arguments; it may broadcast
    them against leading axes (several n2 at once, say), and the result
    then keeps those axes.  Each Beta prior is integrated on its own
    effective support [ppf(1e-12), ppf(1-1e-12)] so the narrow priors
    used by the reassessment rule are resolved; a shape below 1 (the
    priors of extreme stage-1 counts) puts a pole at that end of the
    support, which the change of variable in ``_beta_axis`` removes.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    t_nodes, t_w = _beta_axis(*prior_t, x, w)
    p_nodes, p_w = _beta_axis(*prior_p, x, w)
    tt, pp = np.meshgrid(t_nodes, p_nodes, indexing="ij")
    vals = np.asarray(cp_fn(tt.ravel(), pp.ravel()))
    vals = vals.reshape(vals.shape[:-1] + (t_nodes.size, p_nodes.size))
    total = float(t_w.sum() * p_w.sum())
    cep = np.einsum("i,...ij,j->...", t_w, vals, p_w) / total
    return float(cep) if cep.ndim == 0 else cep


def _beta_axis(a: float, b: float, x: np.ndarray, w: np.ndarray) -> tuple:
    # Nodes and weights of E[f(p)], p ~ Beta(a, b), from the Legendre rule
    # (x, w) on [-1, 1].  With both shapes >= 1 the density is smooth and
    # is integrated in p.  A shape a < 1 is a pole p^(a-1) at 0, which the
    # variable s = p^a cancels (p^(a-1) dp = ds / a); b < 1 likewise with
    # s = (1-p)^b at 1.  With both below 1, each half of [0, 1] takes its
    # own variable.
    from scipy.special import betaln
    from scipy.stats import beta as beta_dist

    def legendre(lo, hi):
        return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w

    lo, hi = beta_dist.ppf(1e-12, a, b), beta_dist.ppf(1.0 - 1e-12, a, b)
    if a >= 1.0 and b >= 1.0:
        t, wt = legendre(lo, hi)
        return t, wt * beta_dist.pdf(t, a, b)
    norm = math.exp(-betaln(a, b))
    pieces = []
    if a < 1.0:
        s, ws = legendre(0.0, (0.5 if b < 1.0 else hi) ** a)
        p = s ** (1.0 / a)
        pieces.append((p, ws * norm / a * (1.0 - p) ** (b - 1.0)))
    if b < 1.0:
        s, ws = legendre(0.0, (0.5 if a < 1.0 else 1.0 - lo) ** b)
        q = s ** (1.0 / b)
        pieces.append((1.0 - q, ws * norm / b * (1.0 - q) ** (a - 1.0)))
    t = np.concatenate([p for p, _ in pieces])
    # a node that underflows to 0 (or rounds to 1) is moved just inside,
    # where the conditional power is defined
    t = np.clip(t, np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg)
    return t, np.concatenate([wt for _, wt in pieces])


def library_cep(m1: float, n1: int, n2, prior_t, prior_p, alpha: float) -> float:
    """The library's CEP of one stage-1 cell, the value the oracle above
    checks: ``ssr._cep`` on the ``ssr.beta_rule`` rules of the priors."""
    from deeptest import ssr

    t_nodes, t_weights = ssr.beta_rule(*prior_t, ssr.QUAD_NODES)
    p_rule = ssr.beta_rule(*prior_p, ssr.QUAD_NODES)
    t_rule = (t_nodes[None], t_weights[None])
    return float(ssr._cep(np.array([m1], dtype=np.float64), n1, n2, t_rule, p_rule, alpha)[0])


def z_statistic(sample, mu0: float, sigma: float) -> float:
    """Known-sigma z statistic of a raw sample, in plain Python."""
    return (statistics.fmean(sample) - mu0) / (sigma / math.sqrt(len(sample)))


def z_test_rejects(sample, mu0: float, sigma: float, alpha: float) -> bool:
    """One-sided z-test decision against the NormalDist upper quantile."""
    return z_statistic(sample, mu0, sigma) > statistics.NormalDist().inv_cdf(1.0 - alpha)


def t_test_rejects(sample, mu0: float, alpha: float) -> bool:
    """One-sided one-sample t-test decision from scipy's p-value."""
    return bool(ttest_1samp(sample, mu0, alternative="greater").pvalue < alpha)


def welch_test_rejects(sample_p, sample_t, alpha: float) -> bool:
    """One-sided Welch decision (treatment mean above placebo) from
    scipy's p-value."""
    test = ttest_ind(sample_t, sample_p, equal_var=False, alternative="greater")
    return bool(test.pvalue < alpha)


def pooled_z(x_p: int, x_t: int, n: int) -> float:
    """Pooled two-proportion z of (treatment - placebo) counts out of n
    per group, in plain Python; 0 when the pooled rate is 0 or 1."""
    if x_p + x_t in (0, 2 * n):
        return 0.0
    rate = (x_p + x_t) / (2 * n)
    return (x_t - x_p) / math.sqrt(2 * n * rate * (1 - rate))


def incta_rejects(trial, n1: int, alpha: float) -> bool:
    """Equal-weight inverse-normal combination of the two stage z's."""
    x_p1, x_t1, n2, x_p2, x_t2 = trial
    z = (pooled_z(x_p1, x_t1, n1) + pooled_z(x_p2, x_t2, n2)) / math.sqrt(2)
    return z > statistics.NormalDist().inv_cdf(1.0 - alpha)


def bm_rejects(trial, n1: int, level: float) -> bool:
    """Pooled z of both stages' counts at the nominal level."""
    x_p1, x_t1, n2, x_p2, x_t2 = trial
    z = pooled_z(x_p1 + x_p2, x_t1 + x_t2, n1 + n2)
    return z > statistics.NormalDist().inv_cdf(1.0 - level)


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


def calibrate_bm(design, pi_grid, target_alpha: float, stream, n2_table, n_trials: int = 100_000):
    """Nominal BM level whose max type I over the null grid hits the target.

    The pooled statistics are simulated once per grid point; rejection at
    a nominal level a uses threshold z_{1-a}, so the max type I curve is
    monotone in a and plain bisection applies (to within 0.002).
    """
    from deeptest.ssr import proportion_stat, simulate_trials
    from deeptest.stats import normal_quantile

    stats = []
    for i, pi in enumerate(pi_grid):
        batch = simulate_trials(pi, pi, design, n_trials, stream.child(1 + i), n2_table)
        stats.append(
            proportion_stat(batch.x_p1 + batch.x_p2, batch.x_t1 + batch.x_t2, design.n1 + batch.n2)
        )

    def max_type_i(level: float) -> float:
        thr = normal_quantile(1.0 - level)
        return max(float(np.mean(s > thr)) for s in stats)

    lo, hi = 1e-4, target_alpha
    if max_type_i(hi) <= target_alpha:
        return hi
    if max_type_i(lo) > target_alpha:
        raise RuntimeError("calibration failed: type I above target at the bracket floor")
    while True:
        mid = 0.5 * (lo + hi)
        t = max_type_i(mid)
        if abs(t - target_alpha) <= 0.002 or hi - lo < 1e-6:
            return mid
        if t > target_alpha:
            hi = mid
        else:
            lo = mid


def loss_of(net, x_std: np.ndarray, y: np.ndarray) -> float:
    """Inference-mode batch loss of a network on standardized inputs."""
    from deeptest.nnet import HEAD_CLASSIFIER, _forward_train, bce_loss, mse_loss

    z, _, _ = _forward_train(net, x_std, gen=None)
    if net.spec.head == HEAD_CLASSIFIER:
        return bce_loss(z, y)
    return mse_loss(z, y)


def _loss_longdouble(weights, biases, x, y, classifier: bool) -> np.longdouble:
    # Extended-precision forward + loss for the finite-difference probe;
    # pure numpy so the longdouble type is preserved end to end.
    a = x
    last = len(weights) - 1
    for k in range(last):
        a = np.maximum(a @ weights[k] + biases[k], np.longdouble(0.0))
    z = (a @ weights[last] + biases[last])[:, 0]
    if classifier:
        vals = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    else:
        vals = (z - y) ** 2
    return vals.mean()


def gradient_check(spec, features, label, seed: int = 1234) -> float:
    """Max relative error between backprop and central finite differences.

    Dropout is disabled; the step is 1e-6 and the normalizer is
    |analytic| + |fd| + 1e-12.  The probe network uses positively
    coupled, layer-scaled weights so no ReLU sits near its kink and no
    gradient is driven to the float64 rounding floor by path
    cancellation; parameters whose gradients are nevertheless small are
    re-differenced in extended precision.
    """
    from scipy.special import expit

    from deeptest.nnet import HEAD_CLASSIFIER, Network, _backprop, _forward_train

    x = np.asarray(features, dtype=np.float64).reshape(1, -1)
    y = np.asarray([label], dtype=np.float64)
    gen = np.random.Generator(np.random.Philox(key=seed))
    widths = spec.widths
    weights = [
        gen.uniform(0.3, 1.0, size=(widths[k], widths[k + 1])) * (2.0 / widths[k])
        for k in range(len(widths) - 1)
    ]
    biases = [np.full(widths[k + 1], 0.02) for k in range(len(widths) - 1)]
    net = Network(spec=spec, weights=weights, biases=biases)

    z, acts, masks = _forward_train(net, x, gen=None)
    classifier = spec.head == HEAD_CLASSIFIER
    if classifier:
        dz = expit(z) - y
    else:
        dz = 2.0 * (z - y)
    g_w, g_b = _backprop(net, acts, masks, dz)
    analytic = g_w + g_b

    w_ld = [w.astype(np.longdouble) for w in net.weights]
    b_ld = [b.astype(np.longdouble) for b in net.biases]
    x_ld = x.astype(np.longdouble)
    y_ld = y.astype(np.longdouble)

    h = 1e-6
    h_ld = np.longdouble(h)
    worst = 0.0
    params = net.weights + net.biases
    params_ld = w_ld + b_ld
    for p, p_ld, g in zip(params, params_ld, analytic):
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            up = loss_of(net, x, y)
            p[ix] = orig - h
            dn = loss_of(net, x, y)
            p[ix] = orig
            fd = (up - dn) / (2.0 * h)
            a = float(g[ix])
            if abs(a) + abs(fd) < 1e-3:
                # float64 differencing is noise-limited here; redo in
                # 80-bit precision
                orig_ld = p_ld[ix]
                p_ld[ix] = orig_ld + h_ld
                up_ld = _loss_longdouble(w_ld, b_ld, x_ld, y_ld, classifier)
                p_ld[ix] = orig_ld - h_ld
                dn_ld = _loss_longdouble(w_ld, b_ld, x_ld, y_ld, classifier)
                p_ld[ix] = orig_ld
                fd = float((up_ld - dn_ld) / (2.0 * h_ld))
            rel = abs(a - fd) / (abs(a) + abs(fd) + 1e-12)
            worst = max(worst, rel)
            it.iternext()
    return worst
