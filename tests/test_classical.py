import numpy as np
import pytest

from deeptest.classical import (
    t_decisions,
    welch_decisions,
    welch_mu_t_for_power,
    z_decisions,
    z_test_mu1_for_power,
)
from deeptest.stats import normal_quantile

from oracles import mc_margin, t_test_rejects, welch_test_rejects, z_statistic, z_test_rejects

ALPHAS = (0.01, 0.05, 0.2, 0.3)


def _normal_summaries(rng, mu, sigma, n, reps):
    """Exact sampling law of (mean, unbiased sd) for normal data."""
    means = rng.normal(mu, sigma / np.sqrt(n), size=reps)
    sds = sigma * np.sqrt(rng.chisquare(n - 1, size=reps) / (n - 1))
    return means, sds


def _t(sample, mu0, alpha):
    # t_decisions on one raw sample, a batch of one
    x = np.asarray(sample, dtype=np.float64)
    return bool(t_decisions([x.mean()], [x.std(ddof=1)], x.size, mu0, alpha)[0])


def _welch(sample_p, sample_t, alpha):
    # welch_decisions on one pair of raw samples, a batch of one
    p, t = (np.asarray(x, dtype=np.float64) for x in (sample_p, sample_t))
    return bool(
        welch_decisions(
            [p.mean()], [p.std(ddof=1)], p.size, [t.mean()], [t.std(ddof=1)], t.size, alpha
        )[0]
    )


class TestZTest:
    def test_null_mean_no_reject(self):
        sample = np.full(50, 3.0)
        assert z_statistic(sample, 3.0, 1.0) == 0.0
        assert not z_decisions([sample.mean()], mu0=3.0, sigma=1.0, n=50, alpha=0.05)[0]

    def test_arithmetic_anchor(self):
        sample = np.full(50, 0.3)
        assert z_statistic(sample, 0.0, 1.0) == pytest.approx(2.121, abs=1e-3)
        assert z_decisions([0.3], mu0=0.0, sigma=1.0, n=50, alpha=0.05)[0]
        assert not z_decisions([0.3], mu0=0.0, sigma=1.0, n=50, alpha=0.01)[0]

    def test_reject_iff_statistic_above_threshold(self):
        # batch decisions against the plain-Python statistic and quantile
        rng = np.random.default_rng(0)
        samples = rng.normal(0.3, 1.0, size=(400, 30))
        for alpha in ALPHAS:
            batch = z_decisions(samples.mean(axis=1), 0.0, 1.0, 30, alpha)
            assert batch.tolist() == [z_test_rejects(x, 0.0, 1.0, alpha) for x in samples]

    def test_simulated_power_50pct(self):
        # mu1 tuned for 50% power at n=50, sigma=1
        mu1 = z_test_mu1_for_power(0.0, 1.0, 50, 0.05, 0.50)
        rng = np.random.default_rng(1)
        means = rng.normal(mu1, 1.0 / np.sqrt(50), size=100_000)
        power = z_decisions(means, 0.0, 1.0, 50, 0.05).mean()
        assert abs(power - 0.500) < mc_margin(0.5, 100_000), f"power {power:.4f}"

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        means = rng.normal(1.0, 2.0, size=(200, 40)).mean(axis=1)
        for alpha in ALPHAS:
            base = z_decisions(means, 0.5, 2.0, 40, alpha)
            assert np.array_equal(z_decisions(means + 7.0, 7.5, 2.0, 40, alpha), base)
            assert np.array_equal(z_decisions(3.0 * means, 1.5, 6.0, 40, alpha), base)


class TestZMu1Solver:
    def test_table_anchors(self):
        assert z_test_mu1_for_power(0, 1, 50, 0.05, 0.50) == pytest.approx(0.2326, abs=5e-4)
        assert z_test_mu1_for_power(0, 1, 50, 0.05, 0.90) == pytest.approx(0.4139, abs=5e-4)
        assert z_test_mu1_for_power(0, 2, 150, 0.05, 0.90) == pytest.approx(0.4780, abs=5e-4)
        assert z_test_mu1_for_power(0, 2, 150, 0.05, 0.50) == pytest.approx(0.2687, abs=5e-4)

    def test_monotone_in_power(self):
        lo = z_test_mu1_for_power(0, 1, 50, 0.05, 0.4)
        hi = z_test_mu1_for_power(0, 1, 50, 0.05, 0.8)
        assert hi > lo


class TestOneSampleT:
    def test_no_reject_at_null_mean(self):
        x = np.array([1.0, 2.0, 3.0])
        for alpha in ALPHAS:
            assert not _t(x, 2.0, alpha)
            assert not t_test_rejects(x, 2.0, alpha)

    def test_minimal_n2_runs(self):
        # n = 2 (one degree of freedom): t = 1, below t_{0.95,1} = 6.31 but
        # above t_{0.7,1} = 0.73
        assert not _t([0.0, 1.0], 0.0, 0.05)
        assert _t([0.0, 1.0], 0.0, 0.3)
        for alpha in ALPHAS:
            assert _t([0.0, 1.0], 0.0, alpha) == t_test_rejects([0.0, 1.0], 0.0, alpha)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.4, 1.3, size=(200, 25))
        means, sds = x.mean(axis=1), x.std(axis=1, ddof=1)
        for alpha in ALPHAS:
            base = t_decisions(means, sds, 25, 0.1, alpha)
            assert np.array_equal(t_decisions(5.0 * means, 5.0 * sds, 25, 0.5, alpha), base)

    def test_decisions_match_scipy_oracle(self):
        rng = np.random.default_rng(9)
        for k in range(1_000):
            x = rng.normal(0.2, 1.0, size=int(rng.integers(2, 40)))
            alpha = ALPHAS[k % len(ALPHAS)]
            assert _t(x, 0.0, alpha) == t_test_rejects(x, 0.0, alpha)

    def test_simulated_power_anchor(self):
        # n=100, sigma=1.5, mu1=0.439: simulated t-test power ~ 89.7%
        rng = np.random.default_rng(4)
        means, sds = _normal_summaries(rng, 0.439, 1.5, 100, 100_000)
        power = t_decisions(means, sds, 100, 0.0, 0.05).mean()
        assert abs(power - 0.897) < mc_margin(0.897, 100_000) + 0.002, f"power {power:.4f}"

    def test_type_i_calibrated(self):
        rng = np.random.default_rng(5)
        means, sds = _normal_summaries(rng, 0.0, 2.0, 200, 100_000)
        rate = t_decisions(means, sds, 200, 0.0, 0.05).mean()
        assert abs(rate - 0.05) < mc_margin(0.05, 100_000), f"type I {rate:.4f}"


class TestWelch:
    def test_equal_samples_no_reject(self):
        x = np.array([0.1, 0.5, 0.9, 1.3])
        for alpha in ALPHAS:
            assert not _welch(x, x.copy(), alpha)
            assert not welch_test_rejects(x, x.copy(), alpha)

    @pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
    def test_one_degenerate_ok(self):
        # statistic 0.655 on 2 df: above t_{0.7,2} = 0.62, below t_{0.95,2}
        p, t = [1.0, 1.0, 1.0], [0.0, 1.0, 5.0]
        assert not _welch(p, t, 0.05)
        assert _welch(p, t, 0.3)
        for alpha in ALPHAS:
            assert _welch(p, t, alpha) == welch_test_rejects(p, t, alpha)

    def test_decisions_match_scipy_oracle(self):
        rng = np.random.default_rng(10)
        for k in range(1_000):
            p = rng.normal(0.0, rng.uniform(0.5, 2.0), size=int(rng.integers(2, 40)))
            t = rng.normal(0.4, rng.uniform(0.5, 2.0), size=int(rng.integers(2, 40)))
            alpha = ALPHAS[k % len(ALPHAS)]
            assert _welch(p, t, alpha) == welch_test_rejects(p, t, alpha)

    def test_df_bounds_property(self):
        rng = np.random.default_rng(6)
        from deeptest.classical import welch_statistic

        for _ in range(50):
            n_p = int(rng.integers(2, 40))
            n_t = int(rng.integers(2, 40))
            vp = float(rng.uniform(0.1, 4.0))
            vt = float(rng.uniform(0.1, 4.0))
            _, df = welch_statistic(0.0, vp, n_p, 0.1, vt, n_t)
            assert min(n_p, n_t) - 1 - 1e-9 <= df <= n_p + n_t - 2 + 1e-9

    def test_type_i_anchor(self):
        rng = np.random.default_rng(7)
        mp, sp = _normal_summaries(rng, 0.5, 0.95, 100, 100_000)
        mt, st = _normal_summaries(rng, 0.5, 1.1, 100, 100_000)
        rate = welch_decisions(mp, sp, 100, mt, st, 100, 0.05).mean()
        assert abs(rate - 0.05) < mc_margin(0.05, 100_000), f"type I {rate:.4f}"

    def test_simulated_power_anchor(self):
        # sigma_p=0.95, sigma_t=1.1, Delta=0.361 at n=100: power ~ 79.7%
        rng = np.random.default_rng(8)
        mp, sp = _normal_summaries(rng, 0.5, 0.95, 100, 100_000)
        mt, st = _normal_summaries(rng, 0.861, 1.1, 100, 100_000)
        power = welch_decisions(mp, sp, 100, mt, st, 100, 0.05).mean()
        assert abs(power - 0.797) < mc_margin(0.797, 100_000) + 0.002, f"power {power:.4f}"


class TestWelchMuTSolver:
    def test_80pct_anchors(self):
        assert welch_mu_t_for_power(0.5, 0.95, 0.95, 100, 0.05, 0.80) == pytest.approx(
            0.834, abs=1e-3
        )
        assert welch_mu_t_for_power(0.5, 0.95, 1.1, 100, 0.05, 0.80) == pytest.approx(
            0.861, abs=1e-3
        )
        assert welch_mu_t_for_power(0.5, 1.1, 1.1, 100, 0.05, 0.80) == pytest.approx(
            0.887, abs=1e-3
        )

    def test_self_consistency(self):
        # returned mu_t plugs back into the approximation at the target
        from deeptest.stats import normal_cdf

        for power in (0.3, 0.6, 0.72, 0.9):
            for sp, st in ((0.95, 0.95), (0.8, 1.2)):
                mu_t = welch_mu_t_for_power(0.5, sp, st, 100, 0.05, power)
                se = np.sqrt((sp**2 + st**2) / 100)
                back = normal_cdf((mu_t - 0.5) / se - normal_quantile(0.95))
                assert back == pytest.approx(power, abs=1e-5)

    def test_low_target_approaches_mu_p(self):
        mu_t = welch_mu_t_for_power(0.5, 1.0, 1.0, 100, 0.05, 0.051)
        assert mu_t == pytest.approx(0.5, abs=0.01)

    def test_symmetric_in_sigmas(self):
        a = welch_mu_t_for_power(0.0, 0.8, 1.2, 100, 0.05, 0.7)
        b = welch_mu_t_for_power(0.0, 1.2, 0.8, 100, 0.05, 0.7)
        assert a == pytest.approx(b, abs=1e-9)

    def test_power_validation(self):
        with pytest.raises(ValueError):
            welch_mu_t_for_power(0.5, 1.0, 1.0, 100, 0.05, 1.0)


def test_threshold_values():
    # z threshold and the BM-style adjusted threshold
    assert normal_quantile(0.95) == pytest.approx(1.6449, abs=1e-4)
    assert normal_quantile(1.0 - 0.033) == pytest.approx(1.8384, abs=1e-3)
