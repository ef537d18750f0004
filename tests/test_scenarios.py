"""Tests for the scenario generators: dataset shapes, class bookkeeping,
sampling-law fidelity (including the summary-statistic shortcut against
raw-sample simulation), grid construction, and reproducibility."""

import pickle

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import ks_2samp

from deeptest import pipeline
from deeptest import scenarios as sc
from deeptest.ssr import DesignParams, TrialBatch, TrialPath, n2_lookup_table, simulate_trials
from deeptest.streams import RandomStream

from oracles import sample_normal, summarize_rows


def mle_sd_expectation(sigma: float, n: int) -> float:
    # E[sigma_hat] for the divisor-n estimator of a normal sd
    return sigma * np.sqrt(2.0 / n) * np.exp(gammaln(n / 2.0) - gammaln((n - 1) / 2.0))


# ------------------------------------------------------------------- types


def test_counts_validation():
    with pytest.raises(ValueError):
        sc.DatasetCounts(b0=0, b1=0, a=1, l=1, b_prime=1)
    with pytest.raises(ValueError):
        sc.DatasetCounts(b0=10, b1=-1, a=1, l=1, b_prime=1)
    with pytest.raises(ValueError):
        sc.DatasetCounts(b0=10, b1=10, a=0, l=1, b_prime=1)
    # one-class datasets are legitimate (null-only calibration sets)
    sc.DatasetCounts(b0=10, b1=0, a=1, l=1, b_prime=1)


def test_scenario_spec_validation():
    counts = sc.DatasetCounts(b0=10, b1=10, a=1, l=2, b_prime=10)
    with pytest.raises(ValueError):
        sc.ScenarioSpec("no-such-kind", (0.0,), (1.0,), (1.0,), 50, counts)
    with pytest.raises(ValueError):
        sc.ScenarioSpec(sc.KIND_KNOWN, (0.0,), (1.0,), (), 50, counts)
    with pytest.raises(ValueError):
        sc.ScenarioSpec(sc.KIND_KNOWN, (0.0,), (1.0,), (-1.0,), 50, counts)
    with pytest.raises(ValueError):
        sc.ScenarioSpec(sc.KIND_KNOWN, (0.0,), (1.0,), (1.0,), 1, counts)
    with pytest.raises(ValueError):
        sc.ScenarioSpec(
            sc.KIND_UNKNOWN,
            (0.0,),
            (0.3,),
            (1.0, 2.0),
            50,
            counts,
        )
    with pytest.raises(ValueError):
        sc.ScenarioSpec(
            sc.KIND_ADAPTIVE,
            (),
            (1.2,),
            (0.27,),
            85,
            counts,
        )


def test_dataset_validation():
    with pytest.raises(ValueError):
        sc.Dataset(features=np.zeros((3, 2)), labels=np.zeros(4), feature_names=("a", "b"))
    with pytest.raises(ValueError):
        sc.Dataset(features=np.zeros((3, 2)), labels=np.zeros(3), feature_names=("a",))
    bad = np.zeros((3, 1))
    bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        sc.Dataset(features=bad, labels=np.zeros(3), feature_names=("a",))


# ------------------------------------------------------------- known sigma


def test_known_sizes_and_class_counts():
    spec = sc.known_sigma_scenario(0.0, 0.414, 1.0, 50, 1000, 1000, 10)
    ds = sc.generate_training_data(spec, RandomStream(seed=22))
    assert len(ds) == 2000
    assert ds.features.shape == (2000, 1)
    assert int(ds.labels.sum()) == 1000
    assert set(np.unique(ds.labels)) == {0.0, 1.0}


def test_known_alt_feature_mean_anchor():
    # [DERIVED] sampling distribution of the mean: 0.414 +- 0.02 band
    spec = sc.known_sigma_scenario(0.0, 0.414, 1.0, 50, 1000, 1000, 10)
    ds = sc.generate_training_data(spec, RandomStream(seed=23))
    assert abs(float(ds.features[ds.labels == 1.0].mean()) - 0.414) <= 0.02
    assert abs(float(ds.features[ds.labels == 0.0].mean())) <= 0.02


def test_known_null_only():
    spec = sc.known_sigma_scenario(0.0, 0.414, 1.0, 50, 500, 0, 10)
    ds = sc.generate_training_data(spec, RandomStream(seed=24))
    assert np.all(ds.labels == 0.0)


def test_known_equal_means_indistinguishable():
    # with mu1 = mu0 the class features share one law: the two-sample KS
    # statistic stays under its 95% critical value in >= 18/20 replicates
    spec = sc.known_sigma_scenario(0.3, 0.3, 1.0, 50, 500, 500, 10)
    crit = 1.358 * np.sqrt((500 + 500) / (500 * 500))
    root = RandomStream(seed=25)
    below = 0
    for rep in range(20):
        ds = sc.generate_training_data(spec, root.child(rep))
        null, alt = ds.features[ds.labels == 0.0], ds.features[ds.labels == 1.0]
        stat = ks_2samp(null[:, 0], alt[:, 0]).statistic
        below += stat < crit
    assert below >= 18


def test_known_regeneration_bit_identical():
    spec = sc.known_sigma_scenario(0.0, 0.414, 1.0, 50, 300, 300, 10)
    a = sc.generate_training_data(spec, RandomStream(seed=26))
    b = sc.generate_training_data(spec, RandomStream(seed=26))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


# ----------------------------------------------------------- unknown sigma


def test_unknown_sizes_exact():
    spec = sc.unknown_sigma_scenario(
        0.0, [0.6 + 0.2 * i for i in range(10)], n=100, b0=200, b1=300, l=100, b_prime=10
    )
    ds = sc.generate_training_data(spec, RandomStream(seed=27))
    assert len(ds) == 10 * 500
    assert ds.features.shape == (5000, 2)
    assert int(ds.labels.sum()) == 10 * 300
    assert int((ds.labels == 0).sum()) == 10 * 200


def test_unknown_mle_sd_bias_anchor():
    # [DERIVED] the divisor-n sd estimator at n=100 has expectation
    # sigma*sqrt(2/n)*Gamma(n/2)/Gamma((n-1)/2) ~ 0.9925; the looser
    # published band 0.9975 +- 0.01 also covers it
    spec = sc.ScenarioSpec(
        kind=sc.KIND_UNKNOWN,
        null_params=(0.0,),
        alt_params=(0.3,),
        nuisance_grid=(1.0,),
        n=100,
        counts=sc.DatasetCounts(b0=50_000, b1=0, a=1, l=2, b_prime=1),
    )
    ds = sc.generate_training_data(spec, RandomStream(seed=28))
    got = float(ds.features[:, 1].mean())
    exact = mle_sd_expectation(1.0, 100)
    # se of the sd estimate ~ sigma/sqrt(2n)/sqrt(B) ~ 3.2e-4
    assert abs(got - exact) <= 4 * 1.0 / np.sqrt(2 * 100) / np.sqrt(50_000)
    assert abs(got - 0.9975) <= 0.01


def test_unknown_shortcut_matches_raw_sampling_law():
    # dual route for the summary-statistic shortcut: exact-law draws vs
    # summaries of raw normal samples must agree in distribution
    n, reps = 50, 20_000
    spec = sc.ScenarioSpec(
        kind=sc.KIND_UNKNOWN,
        null_params=(0.2,),
        alt_params=(0.5,),
        nuisance_grid=(1.3,),
        n=n,
        counts=sc.DatasetCounts(b0=reps, b1=0, a=1, l=2, b_prime=1),
    )
    ds = sc.generate_training_data(spec, RandomStream(seed=29))
    raw = sample_normal(RandomStream(seed=30), 0.2, 1.3, n * reps).reshape(reps, n)
    means, mle_sds, _ = summarize_rows(raw)
    assert ks_2samp(ds.features[:, 0], means).pvalue > 1e-3
    assert ks_2samp(ds.features[:, 1], mle_sds).pvalue > 1e-3


def test_unknown_regeneration_bit_identical():
    spec = sc.unknown_sigma_scenario(0.0, [1.0, 2.0], n=100, b0=100, b1=100, l=10, b_prime=5)
    a = sc.generate_training_data(spec, RandomStream(seed=31))
    b = sc.generate_training_data(spec, RandomStream(seed=31))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_unknown_alt_means_track_power_targets():
    spec = sc.unknown_sigma_scenario(0.0, [1.0, 1.5, 2.0], n=100, b0=10, b1=10, l=10, b_prime=5)
    # z-test 90% power effects at n=100: 0.293, 0.439, 0.585
    assert spec.alt_params[0] == pytest.approx(0.2926, abs=5e-4)
    assert spec.alt_params[1] == pytest.approx(0.4389, abs=5e-4)
    assert spec.alt_params[2] == pytest.approx(0.5852, abs=5e-4)


# ----------------------------------------------------------- behrens-fisher


def test_bf_grid_structure():
    spec = sc.behrens_fisher_scenario(
        0.0, [0.8, 0.9, 1.0, 1.1, 1.2], [0.6, 0.8], n=100, b0=10, b1=10, l=100, b_prime=5
    )
    assert spec.counts.a == 50
    assert len(spec.nuisance_grid) == 50
    assert len(set(spec.nuisance_grid)) == 25
    # alternative effects are larger for the higher power target
    assert spec.alt_params[25] > spec.alt_params[0]


def test_bf_null_diff_centered():
    spec = sc.behrens_fisher_scenario(
        0.0, [0.8, 1.0, 1.2], [0.8], n=100, b0=2000, b1=0, l=9, b_prime=5
    )
    ds = sc.generate_training_data(spec, RandomStream(seed=32))
    assert abs(float(ds.features[:, 0].mean())) <= 0.002


def test_bf_sd_features_track_pair():
    spec = sc.ScenarioSpec(
        kind=sc.KIND_BEHRENS_FISHER,
        null_params=(0.0,),
        alt_params=(0.3,),
        nuisance_grid=((0.8, 1.2),),
        n=100,
        counts=sc.DatasetCounts(b0=20_000, b1=0, a=1, l=4, b_prime=1),
    )
    ds = sc.generate_training_data(spec, RandomStream(seed=33))
    sd_p = float(ds.features[:, 1].mean())
    sd_t = float(ds.features[:, 2].mean())
    assert abs(sd_p - 0.8) <= 0.01 and abs(sd_t - 1.2) <= 0.01
    assert abs(sd_p - mle_sd_expectation(0.8, 100)) <= 4 * 0.8 / np.sqrt(200) / np.sqrt(20_000)
    assert abs(sd_t - mle_sd_expectation(1.2, 100)) <= 4 * 1.2 / np.sqrt(200) / np.sqrt(20_000)


def test_bf_alt_diff_tracks_effect():
    spec = sc.behrens_fisher_scenario(
        0.5, [0.95, 1.1], [0.8], n=100, b0=0, b1=5000, l=4, b_prime=5
    )
    ds = sc.generate_training_data(spec, RandomStream(seed=34))
    effects = np.array(spec.alt_params) - 0.5
    got = float(ds.features[:, 0].mean())
    assert abs(got - effects.mean()) <= 0.01


def test_bf_regeneration_bit_identical():
    spec = sc.behrens_fisher_scenario(
        0.0, [0.9, 1.1], [0.8], n=50, b0=100, b1=100, l=4, b_prime=5
    )
    a = sc.generate_training_data(spec, RandomStream(seed=35))
    b = sc.generate_training_data(spec, RandomStream(seed=35))
    assert np.array_equal(a.features, b.features)


# ---------------------------------------------------------------- adaptive


def test_adaptive_sizes_and_ranges(musec_table):
    spec = sc.adaptive_scenario(
        [0.20, 0.27, 0.35], n1=85, b0=500, b1=500, l=100, b_prime=10
    )
    design = DesignParams()
    ds = sc.generate_training_data(
        spec, RandomStream(seed=36), design=design, n2_table=musec_table
    )
    assert len(ds) == 3 * 1000
    assert ds.features.shape == (3000, 3)
    assert int(ds.labels.sum()) == 1500
    n2 = ds.features[:, 2]
    assert np.all((n2 >= design.n2_min) & (n2 <= design.n2_max))
    assert np.all(np.abs(ds.features[:, 0]) <= 1.0)
    assert np.all(np.abs(ds.features[:, 1]) <= 1.0)


def test_adaptive_null_slice_centered(musec_table):
    spec = sc.adaptive_scenario([0.2, 0.27, 0.35], n1=85, b0=500, b1=500, l=100, b_prime=10)
    ds = sc.generate_training_data(
        spec, RandomStream(seed=37), design=DesignParams(), n2_table=musec_table
    )
    null_d1 = ds.features[ds.labels == 0.0][:, 0]
    assert abs(float(null_d1.mean())) <= 0.007
    alt_d1 = ds.features[ds.labels == 1.0][:, 0]
    assert float(alt_d1.mean()) > 0.05


def test_adaptive_regeneration_bit_identical(musec_table):
    spec = sc.adaptive_scenario([0.27], n1=85, b0=200, b1=200, l=100, b_prime=10)
    a, b = (
        sc.generate_training_data(
            spec, RandomStream(seed=38), design=DesignParams(), n2_table=musec_table
        )
        for _ in range(2)
    )
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_adaptive_internal_table_deterministic():
    design = DesignParams(n1=12, n2_min=5, n2_max=60)
    spec = sc.ScenarioSpec(
        kind=sc.KIND_ADAPTIVE,
        null_params=(),
        alt_params=(0.45,),
        nuisance_grid=(0.25,),
        n=12,
        counts=sc.DatasetCounts(b0=100, b1=100, a=1, l=10, b_prime=10),
    )
    a = sc.generate_training_data(spec, RandomStream(seed=39), design=design)
    b = sc.generate_training_data(spec, RandomStream(seed=39), design=design)
    assert np.array_equal(a.features, b.features)
    # the internal table is the design's seed-free table
    c = sc.generate_training_data(
        spec, RandomStream(seed=39), design=design, n2_table=n2_lookup_table(design)
    )
    assert np.array_equal(a.features, c.features)


def test_generate_training_data_dispatch(musec_table):
    known = sc.known_sigma_scenario(0.0, 0.4, 1.0, 50, 50, 50, 10)
    assert sc.generate_training_data(known, RandomStream(seed=40)).features.shape[1] == 1
    adaptive = sc.adaptive_scenario([0.27], n1=85, b0=50, b1=50, l=100, b_prime=10)
    with pytest.raises(ValueError):
        sc.generate_training_data(adaptive, RandomStream(seed=41))
    ds = sc.generate_training_data(
        adaptive, RandomStream(seed=41), design=DesignParams(), n2_table=musec_table
    )
    assert ds.features.shape[1] == 3


# ------------------------------------------------------------------ solver


def test_solve_pi_t_anchor():
    # [PAPER] control rate 0.27 needs a treatment rate near 0.40 for 85%
    # power of the pooled test at the full per-group size 170
    assert abs(sc.solve_pi_t(0.27, 0.85, 170, 0.05) - 0.40) <= 0.01


def test_solve_pi_t_limits_and_monotonicity():
    assert sc.solve_pi_t(0.27, 0.04, 170, 0.05) == 0.27
    values = [sc.solve_pi_t(0.27, p, 170, 0.05) for p in (0.5, 0.7, 0.85, 0.95)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] > 0.27


def test_solve_pi_t_infeasible():
    with pytest.raises(ValueError):
        sc.solve_pi_t(0.98, 0.99, 10, 0.05)


def test_solve_pi_t_input_validation():
    with pytest.raises(ValueError):
        sc.solve_pi_t(0.0, 0.85, 170, 0.05)
    with pytest.raises(ValueError):
        sc.solve_pi_t(0.27, 1.0, 170, 0.05)


# -------------------------------------------------------- critical inputs


def test_critical_inputs_unknown_sequence():
    spec = sc.unknown_sigma_scenario(
        0.0, [0.6 + 0.2 * i for i in range(10)], n=100, b0=10, b1=10, l=100, b_prime=5
    )
    grid = sc.gen_critical_inputs(spec)
    assert grid.shape == (100, 1)
    assert grid[0, 0] == pytest.approx(0.6)
    assert grid[-1, 0] == pytest.approx(2.4)
    assert np.allclose(np.diff(grid[:, 0]), 1.8 / 99)


def test_critical_inputs_adaptive_sequence():
    spec = sc.adaptive_scenario(
        [0.05 + 0.01 * i for i in range(46)], n1=85, b0=10, b1=10, l=100, b_prime=5
    )
    grid = sc.gen_critical_inputs(spec)
    assert grid.shape == (100, 1)
    assert grid[0, 0] == pytest.approx(0.05)
    assert grid[-1, 0] == pytest.approx(0.50)


def test_critical_inputs_bf_tensor_grid():
    spec = sc.behrens_fisher_scenario(
        0.0, [0.8, 0.9, 1.0, 1.1, 1.2], [0.6, 0.8], n=100, b0=10, b1=10, l=100, b_prime=5
    )
    grid = sc.gen_critical_inputs(spec)
    assert grid.shape == (100, 2)
    assert np.allclose(grid[0], [0.8, 0.8])
    assert np.allclose(grid[-1], [1.2, 1.2])
    assert np.unique(grid[:, 0]).size == 10
    assert np.unique(grid[:, 1]).size == 10


def test_critical_inputs_errors():
    known = sc.known_sigma_scenario(0.0, 0.4, 1.0, 50, 10, 10, 5)
    with pytest.raises(ValueError):
        sc.gen_critical_inputs(known)
    bf = sc.behrens_fisher_scenario(
        0.0, [0.8, 1.2], [0.8], n=100, b0=10, b1=10, l=50, b_prime=5
    )
    with pytest.raises(ValueError):
        sc.gen_critical_inputs(bf)


# ----------------------------------------------------------- null features


def test_null_features_known():
    spec = sc.known_sigma_scenario(0.1, 0.4, 2.0, 50, 10, 10, 5)
    feats = sc.gen_null_features(spec, None, 20_000, RandomStream(seed=50))
    assert feats.shape == (20_000, 1)
    assert abs(float(feats.mean()) - 0.1) <= 4 * 2.0 / np.sqrt(50) / np.sqrt(20_000)


def test_null_features_unknown_off_grid_sigma():
    spec = sc.unknown_sigma_scenario(0.0, [1.0, 2.0], n=100, b0=10, b1=10, l=10, b_prime=5)
    feats = sc.gen_null_features(spec, 1.5, 20_000, RandomStream(seed=51))
    assert feats.shape == (20_000, 2)
    assert abs(float(feats[:, 1].mean()) - mle_sd_expectation(1.5, 100)) <= 0.005


def test_null_features_bf_pair():
    spec = sc.behrens_fisher_scenario(
        0.0, [0.8, 1.2], [0.8], n=100, b0=10, b1=10, l=4, b_prime=5
    )
    feats = sc.gen_null_features(spec, (0.9, 1.15), 20_000, RandomStream(seed=52))
    assert feats.shape == (20_000, 3)
    assert abs(float(feats[:, 0].mean())) <= 0.005
    assert abs(float(feats[:, 1].mean()) - mle_sd_expectation(0.9, 100)) <= 0.005
    assert abs(float(feats[:, 2].mean()) - mle_sd_expectation(1.15, 100)) <= 0.005


def test_null_features_adaptive(musec_table):
    spec = sc.adaptive_scenario([0.27], n1=85, b0=10, b1=10, l=100, b_prime=5)
    design = DesignParams()
    feats = sc.gen_null_features(
        spec, 0.27, 10_000, RandomStream(seed=53), design=design, n2_table=musec_table
    )
    assert feats.shape == (10_000, 3)
    assert np.all((feats[:, 2] >= design.n2_min) & (feats[:, 2] <= design.n2_max))
    assert abs(float(feats[:, 0].mean())) <= 0.004


def test_null_features_deterministic():
    spec = sc.unknown_sigma_scenario(0.0, [1.0, 2.0], n=100, b0=10, b1=10, l=10, b_prime=5)
    a = sc.gen_null_features(spec, 1.2, 500, RandomStream(seed=54))
    b = sc.gen_null_features(spec, 1.2, 500, RandomStream(seed=54))
    assert np.array_equal(a, b)


# ----------------------------------------------------------- family records


def test_registry_covers_every_kind():
    kinds = (sc.KIND_KNOWN, sc.KIND_UNKNOWN, sc.KIND_BEHRENS_FISHER, sc.KIND_ADAPTIVE)
    assert set(sc.FAMILIES) == set(kinds)
    for kind, family in sc.FAMILIES.items():
        assert family.kind == kind
        assert pickle.loads(pickle.dumps(family)) == family


def test_known_map_parity():
    spec = sc.known_sigma_scenario(0.1, 0.4, 2.0, 50, 10, 10, 5)
    family = spec.family
    stream = RandomStream(seed=60)
    draws = sc.summary_draws(stream.generator(), 0.1, 2.0, 50, 500)
    assert np.array_equal(
        sc.gen_null_features(spec, None, 500, stream), family.features(spec, draws)[0]
    )
    sample = np.random.default_rng(60).normal(0.3, 2.0, size=50)
    stat, crit = pipeline.observed_features(spec, sample)
    mapped, no_crit = family.features(spec, (np.array([sample.mean()]), np.array([sample.std()])))
    np.testing.assert_allclose(stat, mapped[0], rtol=1e-14)
    assert crit is None and no_crit is None


def test_unknown_map_parity():
    spec = sc.unknown_sigma_scenario(0.0, [1.0, 2.0], n=30, b0=10, b1=10, l=10, b_prime=5)
    family = spec.family
    stream = RandomStream(seed=61)
    draws = sc.summary_draws(stream.generator(), 0.0, 1.5, 30, 500)
    assert np.array_equal(
        sc.gen_null_features(spec, 1.5, 500, stream), family.features(spec, draws)[0]
    )
    sample = np.random.default_rng(61).normal(0.2, 1.3, size=30)
    stat, crit = pipeline.observed_features(spec, sample)
    mapped, mapped_crit = family.features(
        spec, (np.array([sample.mean()]), np.array([sample.std()]))
    )
    np.testing.assert_allclose(stat, mapped[0], rtol=1e-14)
    np.testing.assert_allclose(crit, mapped_crit[0], rtol=1e-14)
    np.testing.assert_allclose(crit, [sample.std(ddof=1)], rtol=1e-14)


def test_behrens_fisher_map_parity():
    spec = sc.behrens_fisher_scenario(
        0.2, [0.8, 1.2], [0.8], n=30, b0=10, b1=10, l=4, b_prime=5
    )
    family = spec.family
    stream = RandomStream(seed=62)
    gen = stream.generator()
    placebo = sc.summary_draws(gen, 0.2, 0.9, 30, 500)
    treatment = sc.summary_draws(gen, 0.2, 1.15, 30, 500)
    assert np.array_equal(
        sc.gen_null_features(spec, (0.9, 1.15), 500, stream),
        family.features(spec, placebo + treatment)[0],
    )
    rng = np.random.default_rng(62)
    samples = (rng.normal(0.2, 0.9, size=30), rng.normal(0.7, 1.15, size=30))
    stat, crit = pipeline.observed_features(spec, samples)
    summaries = tuple(np.array([f(x)]) for x in samples for f in (np.mean, np.std))
    mapped, mapped_crit = family.features(spec, summaries)
    np.testing.assert_allclose(stat, mapped[0], rtol=1e-13)
    np.testing.assert_allclose(crit, mapped_crit[0], rtol=1e-14)
    np.testing.assert_allclose(crit, [x.std(ddof=1) for x in samples], rtol=1e-14)


def test_adaptive_map_parity(musec_table):
    spec = sc.adaptive_scenario([0.27], n1=85, b0=10, b1=10, l=100, b_prime=5)
    family = spec.family
    design = DesignParams()
    stream = RandomStream(seed=63)
    batch = simulate_trials(0.27, 0.27, design, 500, stream, musec_table)
    feats = sc.gen_null_features(spec, 0.27, 500, stream, design=design, n2_table=musec_table)
    assert np.array_equal(feats, family.features(spec, batch)[0])
    # n2 = 21 at this cell, so the stage-2 counts stay within it
    path = TrialPath(x_p1=20, x_t1=31, n2=int(musec_table[20, 31]), x_p2=6, x_t2=9)
    stat, crit = pipeline.observed_features(spec, path)
    one = TrialBatch(*(np.array([v]) for v in (20, 31, path.n2, 6, 9)))
    mapped, mapped_crit = family.features(spec, one)
    assert np.array_equal(stat, mapped[0]) and np.array_equal(crit, mapped_crit[0])
    assert np.array_equal(stat, [11 / 85, 3 / path.n2, path.n2])
    assert np.array_equal(crit, [51 / 170])
