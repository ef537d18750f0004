import numpy as np
import pytest

from deeptest.stats import (
    beta_from_moments,
    empirical_upper_quantile,
    normal_cdf,
    normal_quantile,
    student_t_quantile,
    summarize,
)
from deeptest.streams import RandomStream

from oracles import (
    mc_margin,
    normal_quantile_quadrature,
    sample_beta,
    sample_binomial,
    sample_normal,
    student_t_cdf_cf,
    summarize_rows,
    upper_quantile_by_sort,
)

# Frozen from the quadrature+bisection oracle in oracles.py
# (normal_quantile_quadrature at u = 0.95 / 0.05 / 0.967).
Z_095_ORACLE = 1.6448536269514946
Z_005_ORACLE = -1.6448536269514946
Z_0967_ORACLE = 1.838423669247753


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_against_quadrature_oracle(self):
        assert normal_quantile(0.95) == pytest.approx(Z_095_ORACLE, abs=1e-4)
        assert normal_quantile(0.05) == pytest.approx(Z_005_ORACLE, abs=1e-4)
        assert normal_quantile(0.967) == pytest.approx(Z_0967_ORACLE, abs=1e-4)

    def test_high_accuracy_roundtrip(self):
        # |Phi(z_u) - u| < 1e-12 across a probability grid.
        for u in np.linspace(0.001, 0.999, 97):
            assert abs(normal_cdf(normal_quantile(u)) - u) < 1e-12

    def test_quadrature_oracle_dense_grid(self):
        for u in (0.01, 0.1, 0.3, 0.7, 0.9, 0.99):
            assert normal_quantile(u) == pytest.approx(
                normal_quantile_quadrature(u), abs=1e-9
            )

    def test_antisymmetry(self):
        assert normal_quantile(0.05) == pytest.approx(-normal_quantile(0.95), abs=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestStudentT:
    def test_cdf_against_continued_fraction_oracle(self):
        # scipy-backed quantile must invert to the CF-evaluated CDF
        # within 1e-10 over the df values the package actually uses.
        from scipy.special import stdtr

        for df in (1, 2, 9, 49, 99, 169, 199, 335):
            for u in (0.01, 0.05, 0.5, 0.9, 0.95, 0.975):
                t = student_t_quantile(u, df)
                assert abs(student_t_cdf_cf(t, float(df)) - u) < 1e-10
                assert abs(stdtr(df, t) - student_t_cdf_cf(t, float(df))) < 1e-10

    def test_heavy_tail_vs_normal(self):
        assert student_t_quantile(0.95, 3) > normal_quantile(0.95)
        assert student_t_quantile(0.95, 10_000) == pytest.approx(
            normal_quantile(0.95), abs=1e-3
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            student_t_quantile(0.5, -1)


class TestSampleNormal:
    def test_mean_converges(self):
        x = sample_normal(RandomStream(seed=11), mu=0.0, sigma=1.0, n=1_000_000)
        assert abs(x.mean()) < 0.004  # 4 sigma / sqrt(n)

    def test_sd_converges(self):
        x = sample_normal(RandomStream(seed=12), mu=0.0, sigma=2.0, n=1_000_000)
        assert np.std(x, ddof=1) == pytest.approx(2.0, abs=0.01)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_normal(RandomStream(seed=1), mu=5.0, sigma=0.0, n=10)

    def test_replay(self):
        s = RandomStream(seed=5, stream_id=3)
        assert np.array_equal(
            sample_normal(s, 1.0, 2.0, 100), sample_normal(s, 1.0, 2.0, 100)
        )

    def test_draws_never_hit_inverse_cdf_endpoints(self):
        x = sample_normal(RandomStream(seed=13), 0.0, 1.0, 2_000_000)
        assert np.all(np.isfinite(x))


class TestSampleBinomial:
    def test_degenerate_rates(self):
        assert sample_binomial(RandomStream(seed=2), 85, 0.0) == 0
        assert sample_binomial(RandomStream(seed=2), 85, 1.0) == 85

    def test_mean_matches_np(self):
        draws = sample_binomial(RandomStream(seed=3), 85, 0.27, size=100_000)
        assert draws.mean() == pytest.approx(22.95, abs=0.1)
        assert draws.min() >= 0 and draws.max() <= 85

    def test_rate_domain(self):
        with pytest.raises(ValueError):
            sample_binomial(RandomStream(seed=1), 10, 1.5)

    def test_complement_sums_to_n_in_mean(self):
        b = 200_000
        x = sample_binomial(RandomStream(seed=4), 85, 0.27, size=b)
        y = sample_binomial(RandomStream(seed=5), 85, 0.73, size=b)
        tol = 4.0 * np.sqrt(85 / 4.0 * b) / b
        assert abs((x.mean() + y.mean()) - 85.0) < tol


class TestSampleBeta:
    def test_uniform_case(self):
        draws = sample_beta(RandomStream(seed=6), 1.0, 1.0, size=100_000)
        assert draws.mean() == pytest.approx(0.5, abs=0.005)

    def test_mean_a_over_apb(self):
        draws = sample_beta(RandomStream(seed=7), 2.0, 6.0, size=100_000)
        assert draws.mean() == pytest.approx(0.25, abs=0.005)

    def test_support(self):
        draws = sample_beta(RandomStream(seed=8), 0.03, 0.05, size=50_000)
        assert np.all(draws >= 0.0) and np.all(draws <= 1.0)

    def test_shape_domain(self):
        with pytest.raises(ValueError):
            sample_beta(RandomStream(seed=1), 0.0, 1.0)


class TestBetaFromMoments:
    def test_uniform(self):
        a, b = beta_from_moments(0.5, 1.0 / 12.0)
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_anchor(self):
        # c = 0.27*0.73/0.001 - 1 = 196.1; a = 0.27c, b = 0.73c.
        a, b = beta_from_moments(0.27, 0.001)
        assert a == pytest.approx(52.947, abs=1e-3)
        assert b == pytest.approx(143.153, abs=1e-3)

    def test_roundtrip_grid(self):
        for mean in (0.01, 0.1, 0.27, 0.5, 0.9, 0.99):
            for frac in (0.05, 0.3, 0.9):
                var = frac * mean * (1.0 - mean)
                a, b = beta_from_moments(mean, var)
                m_back = a / (a + b)
                v_back = a * b / ((a + b) ** 2 * (a + b + 1.0))
                assert m_back == pytest.approx(mean, abs=1e-10)
                assert v_back == pytest.approx(var, abs=1e-10)

    def test_infeasible_variance(self):
        with pytest.raises(ValueError):
            beta_from_moments(0.27, 0.3)
        with pytest.raises(ValueError):
            beta_from_moments(0.5, 0.25)


class TestSummarize:
    def test_constant_sample(self):
        s = summarize([1.0, 1.0, 1.0, 1.0])
        assert (s.mean, s.mle_sd, s.unbiased_sd) == (1.0, 0.0, 0.0)

    def test_hand_arithmetic(self):
        s = summarize([0.0, 2.0])
        assert s.mean == 1.0
        assert s.mle_sd == pytest.approx(1.0, abs=1e-15)
        assert s.unbiased_sd == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_divisor_identity(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 50):
            s = summarize(rng.normal(size=n))
            assert s.unbiased_sd**2 * (n - 1) == pytest.approx(
                s.mle_sd**2 * n, rel=1e-12
            )

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            summarize([3.0])

    def test_rows_variant_matches_scalar(self):
        rng = np.random.default_rng(2)
        block = rng.normal(size=(20, 7))
        means, mles, unbs = summarize_rows(block)
        for i in range(20):
            s = summarize(block[i])
            assert means[i] == pytest.approx(s.mean, rel=1e-14)
            assert mles[i] == pytest.approx(s.mle_sd, rel=1e-12)
            assert unbs[i] == pytest.approx(s.unbiased_sd, rel=1e-12)


class TestEmpiricalUpperQuantile:
    def test_forced_order_statistic(self):
        values = np.arange(1.0, 101.0)
        assert empirical_upper_quantile(values, 0.05) == 95.0

    def test_single_element(self):
        assert empirical_upper_quantile([7.0], 0.05) == 7.0

    def test_against_sort_oracle_exact(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n = int(rng.integers(1, 500))
            v = rng.normal(size=n)
            alpha = float(rng.uniform(0.005, 0.6))
            assert empirical_upper_quantile(v, alpha) == upper_quantile_by_sort(v, alpha)

    def test_normal_draws_anchor(self):
        v = sample_normal(RandomStream(seed=9), 0.0, 1.0, 1_000_000)
        assert empirical_upper_quantile(v, 0.05) == pytest.approx(
            normal_quantile(0.95), abs=0.01
        )

    def test_sandwich_property(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n = int(rng.integers(2, 400))
            v = rng.normal(size=n)
            alpha = float(rng.uniform(0.01, 0.5))
            q = empirical_upper_quantile(v, alpha)
            frac_above = np.mean(v > q)
            assert frac_above <= alpha + 1e-12
            # one rank lower must push the exceed fraction above alpha
            rank = int(np.ceil((1.0 - alpha) * n))
            if rank >= 2:
                q_lower = np.sort(v)[rank - 2]
                assert np.mean(v > q_lower) > alpha

    def test_empty_input(self):
        with pytest.raises(ValueError):
            empirical_upper_quantile([], 0.05)


def test_sampling_tolerances_are_mc_consistent():
    # Sanity on the shared margin helper the other suites lean on.
    assert mc_margin(0.05, 100_000) == pytest.approx(4 * np.sqrt(0.05 * 0.95 / 1e5))
