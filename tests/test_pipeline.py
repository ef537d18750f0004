"""Tests for the two-fold fitting pipeline: structure selection, the
statistic network, cutoff calibration, the critical surface, the decision
rule, and bundle persistence.

Fitted-model fixtures are module scoped; each is trained once at desk
scale and shared by every assertion that reads it.
"""

import json
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from deeptest import nnet, pipeline
from deeptest.harness import worker_pool
from deeptest.classical import t_decisions, z_decisions
from deeptest.nnet import (
    HEAD_CLASSIFIER,
    HEAD_REGRESSOR,
    Network,
    NetworkSpec,
    TrainConfig,
    TrainingDivergedError,
)
from deeptest.scenarios import (
    adaptive_scenario,
    behrens_fisher_scenario,
    gen_critical_inputs,
    gen_null_features,
    generate_training_data,
    known_sigma_scenario,
    unknown_sigma_scenario,
)
from deeptest.ssr import DesignParams, TrialPath, n2_lookup_table, simulate_trials
from deeptest.stats import normal_quantile
from deeptest.streams import RandomStream

from oracles import summarize_rows

ROOT = RandomStream(seed=4242)

KNOWN_N = 50
KNOWN_SIGMA = 1.0
KNOWN_MU1 = 0.414

TINY_DESIGN = DesignParams(
    n1=12, n2_min=5, n2_max=60, cep_target=0.8, gamma=0.001, alpha=0.05
)


def _reversed_mapper(fn, tasks):
    out = [None] * len(tasks)
    for i in reversed(range(len(tasks))):
        out[i] = fn(*tasks[i])
    return out


def _pool(input_dim, head, depths, widths):
    # the candidates depths x widths, dropout 0.1, in config order
    specs = tuple(
        NetworkSpec(
            input_dim=input_dim, hidden_layers=(w,) * d, head=head, dropout_rate=0.1
        )
        for d in depths
        for w in widths
    )
    return pipeline.CandidatePool(specs=specs)


class _Statistic:
    """Stand-in statistic: any function of the feature rows."""

    def __init__(self, fn):
        self.linear_predictor = fn


def _toy_dataset(n=2000, seed=11):
    gen = RandomStream(seed=seed).generator()
    x = gen.normal(0.0, 1.0, size=(n, 1))
    labels = (x[:, 0] + 0.3 * gen.standard_normal(n) > 0.0).astype(float)
    return x, labels


@pytest.fixture(scope="module")
def known_fit():
    spec = known_sigma_scenario(
        mu0=0.0, mu1=KNOWN_MU1, sigma=KNOWN_SIGMA, n=KNOWN_N, b0=20_000, b1=20_000, b_prime=50_000
    )
    stream = ROOT.child(1)
    data = generate_training_data(spec, stream.child(0))
    config = TrainConfig(epochs=10, batch_size=500)
    net, report = pipeline.fit_statistic_net(
        data, _pool(1, HEAD_CLASSIFIER, (2, 4), (10, 40)), config, stream.child(1)
    )
    cutoff = pipeline.calibrate_constant_cutoff(
        net, spec, spec.counts.b_prime, 0.05, stream.child(2)
    )
    test = pipeline.FittedTest(
        statistic_net=net, critical_net=cutoff, scenario=spec, alpha=0.05, provenance={}
    )
    return test, report


@pytest.fixture(scope="module")
def unknown_fit():
    spec = unknown_sigma_scenario(
        mu0=0.0,
        sigma_grid=(0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4),
        n=100,
        b0=5_000,
        b1=5_000,
        l=100,
        b_prime=100_000,
    )
    stream = ROOT.child(2)
    data = generate_training_data(spec, stream.child(0))
    net, _ = pipeline.fit_statistic_net(
        data,
        _pool(2, HEAD_CLASSIFIER, (2, 4), (10, 40)),
        TrainConfig(epochs=10, batch_size=500),
        stream.child(1),
    )
    crit = pipeline.fit_critical_surface(
        net,
        gen_critical_inputs(spec),
        partial(gen_null_features, spec),
        spec.counts.b_prime,
        0.05,
        _pool(1, HEAD_REGRESSOR, (2, 3), (30, 40, 50)),
        TrainConfig(epochs=1000, batch_size=10),
        stream.child(2),
    )
    test = pipeline.FittedTest(
        statistic_net=net, critical_net=crit.net, scenario=spec, alpha=0.05, provenance={}
    )
    return test, crit


@pytest.fixture(scope="module")
def adaptive_fit():
    spec = adaptive_scenario(
        pi_p_grid=(0.20, 0.30, 0.40), n1=12, b0=4_000, b1=4_000, l=21, b_prime=20_000
    )
    stream = ROOT.child(3)
    table = n2_lookup_table(TINY_DESIGN)
    data = generate_training_data(spec, stream.child(1), design=TINY_DESIGN, n2_table=table)
    pool = pipeline.CandidatePool(
        specs=(NetworkSpec(input_dim=3, hidden_layers=(10, 10), head=HEAD_CLASSIFIER),)
    )
    net, _ = pipeline.fit_statistic_net(
        data, pool, TrainConfig(epochs=8, batch_size=200), stream.child(2)
    )
    crit = pipeline.fit_critical_surface(
        net,
        gen_critical_inputs(spec),
        partial(gen_null_features, spec, design=TINY_DESIGN, n2_table=table),
        spec.counts.b_prime,
        0.05,
        pipeline.CandidatePool(
            specs=(NetworkSpec(input_dim=1, hidden_layers=(30, 30), head=HEAD_REGRESSOR),)
        ),
        TrainConfig(epochs=600, batch_size=10),
        stream.child(3),
    )
    test = pipeline.FittedTest(
        statistic_net=net, critical_net=crit.net, scenario=spec, alpha=0.05, provenance={}
    )
    return test, crit, table


# ------------------------------------------------------------------- types


def _packaged_configs():
    from deeptest.harness import load_config, packaged_config

    names = ("musec.cfg", "musec_designs.cfg", "table4.cfg", "table5.cfg", "table6.cfg")
    return [config for name in names for config in load_config(packaged_config(name))]


def test_first_fold_pool_layout():
    # every shipped experiment selects its statistic net from the
    # reference pool: depths {2, 4} x widths {10, 40}, dropout 0.1
    for config in _packaged_configs():
        pool = config.first_pool
        layers = sorted(s.hidden_layers for s in pool.specs)
        assert layers == sorted([(10, 10), (40, 40), (10, 10, 10, 10), (40, 40, 40, 40)])
        assert pool.head == HEAD_CLASSIFIER
        assert pool.input_dim == config.scenario.input_dim
        assert all(s.dropout_rate == 0.1 for s in pool.specs)


def test_second_fold_pool_layout():
    # and its critical net, where it has one, from depths {2, 3} x
    # widths {30, 40, 50}
    pools = [c.second_pool for c in _packaged_configs() if c.second_pool is not None]
    assert len(pools) == 5
    for pool in pools:
        layers = sorted(s.hidden_layers for s in pool.specs)
        assert layers == sorted([(w,) * d for d in (2, 3) for w in (30, 40, 50)])
        assert pool.head == HEAD_REGRESSOR


def test_pool_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        pipeline.CandidatePool(specs=())
    mixed_dim = (
        NetworkSpec(input_dim=1, hidden_layers=(5,)),
        NetworkSpec(input_dim=2, hidden_layers=(5,)),
    )
    with pytest.raises(ValueError):
        pipeline.CandidatePool(specs=mixed_dim)
    mixed_head = (
        NetworkSpec(input_dim=1, hidden_layers=(5,), head=HEAD_CLASSIFIER),
        NetworkSpec(input_dim=1, hidden_layers=(5,), head=HEAD_REGRESSOR),
    )
    with pytest.raises(ValueError):
        pipeline.CandidatePool(specs=mixed_head)


def test_fitted_test_head_validation(known_fit):
    test, _ = known_fit
    regressor = nnet.train(
        NetworkSpec(input_dim=1, hidden_layers=(4,), head=HEAD_REGRESSOR),
        (np.linspace(0, 1, 40)[:, None], np.linspace(0, 1, 40)),
        TrainConfig(epochs=2, batch_size=8),
    )
    with pytest.raises(ValueError):
        pipeline.FittedTest(
            statistic_net=regressor,
            critical_net=test.critical_net,
            scenario=test.scenario,
            alpha=0.05,
            provenance={},
        )
    with pytest.raises(ValueError):
        pipeline.FittedTest(
            statistic_net=test.statistic_net,
            critical_net=test.statistic_net,
            scenario=test.scenario,
            alpha=0.05,
            provenance={},
        )
    with pytest.raises(ValueError):
        pipeline.FittedTest(
            statistic_net=test.statistic_net,
            critical_net=test.critical_net,
            scenario=test.scenario,
            alpha=1.0,
            provenance={},
        )


def test_constant_cutoff_shapes(known_fit):
    # a constant cutoff is one scalar, compared with every row's statistic
    test, _ = known_fit
    cut = pipeline.ConstantCutoff(value=1.25)
    test = replace(test, critical_net=cut)
    feats = np.linspace(-1.0, 1.0, 5)[:, None]
    stats = test.statistic_net.linear_predictor(feats)
    assert np.array_equal(pipeline.decide_batch(test, feats, None), stats > 1.25)
    assert not hasattr(cut, "linear_predictor")


# --------------------------------------------------------------- selection


def test_select_pool_of_one():
    x, y = _toy_dataset()
    spec = NetworkSpec(input_dim=1, hidden_layers=(8,))
    pool = pipeline.CandidatePool(specs=(spec,))
    chosen, report = pipeline.select_structure(
        pool, (x, y), TrainConfig(epochs=3, batch_size=100), ROOT.child(10)
    )
    assert chosen == spec
    assert report.winner_index == 0
    assert len(report.losses) == 1


def test_select_separable_toy_losses_small():
    x, y = _toy_dataset(n=4000)
    pool = pipeline.CandidatePool(
        specs=(
            NetworkSpec(input_dim=1, hidden_layers=(8,)),
            NetworkSpec(input_dim=1, hidden_layers=(16, 16)),
        )
    )
    _, report = pipeline.select_structure(
        pool, (x, y), TrainConfig(epochs=10, batch_size=100), ROOT.child(11)
    )
    # near-separable labels: every candidate should fit well
    assert all(v is not None and v < 0.35 for v in report.losses)


def test_select_deterministic_and_split_shared():
    x, y = _toy_dataset()
    pool = pipeline.CandidatePool(
        specs=(
            NetworkSpec(input_dim=1, hidden_layers=(8,)),
            NetworkSpec(input_dim=1, hidden_layers=(12,)),
        )
    )
    config = TrainConfig(epochs=3, batch_size=100)
    _, first = pipeline.select_structure(pool, (x, y), config, ROOT.child(12))
    _, second = pipeline.select_structure(pool, (x, y), config, ROOT.child(12))
    assert first == second


def test_select_duplicated_spec_exact_tie_breaks_to_first():
    # training seeds are keyed by architecture content, so identical specs
    # produce bit-identical losses and the tie resolves to pool order
    x, y = _toy_dataset()
    spec = NetworkSpec(input_dim=1, hidden_layers=(8,))
    pool = pipeline.CandidatePool(specs=(spec, spec))
    _, report = pipeline.select_structure(
        pool, (x, y), TrainConfig(epochs=3, batch_size=100), ROOT.child(13)
    )
    assert report.losses[0] == report.losses[1]
    assert report.winner_index == 0


def test_pick_winner_tie_prefers_fewer_params_then_depth():
    wide = NetworkSpec(input_dim=1, hidden_layers=(40, 40))
    narrow = NetworkSpec(input_dim=1, hidden_layers=(10, 10))
    deep = NetworkSpec(input_dim=1, hidden_layers=(8, 8, 8))
    shallow_same = NetworkSpec(input_dim=1, hidden_layers=(2, 41))
    assert pipeline._pick_winner((wide, narrow), (0.5, 0.5)) == 1
    assert shallow_same.n_params() == deep.n_params()
    assert pipeline._pick_winner((deep, shallow_same), (0.5, 0.5)) == 1


def test_select_diverged_candidate_excluded_with_warning(monkeypatch):
    x, y = _toy_dataset()
    bad = NetworkSpec(input_dim=1, hidden_layers=(7,))
    good = NetworkSpec(input_dim=1, hidden_layers=(8,))
    real_train = nnet.train

    def flaky_train(spec, data, config):
        if spec.hidden_layers == (7,):
            raise TrainingDivergedError("loss became non-finite", 1)
        return real_train(spec, data, config)

    monkeypatch.setattr(nnet, "train", flaky_train)
    pool = pipeline.CandidatePool(specs=(bad, good))
    with pytest.warns(UserWarning, match="diverged"):
        chosen, report = pipeline.select_structure(
            pool, (x, y), TrainConfig(epochs=2, batch_size=100), ROOT.child(14)
        )
    assert chosen == good
    assert report.losses[0] is None
    assert report.winner_index == 1


def test_select_all_diverged_raises(monkeypatch):
    x, y = _toy_dataset()

    def always_diverge(spec, data, config):
        raise TrainingDivergedError("loss became non-finite", 1)

    monkeypatch.setattr(nnet, "train", always_diverge)
    pool = pipeline.CandidatePool(specs=(NetworkSpec(input_dim=1, hidden_layers=(8,)),))
    with pytest.raises(RuntimeError, match="diverged"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pipeline.select_structure(
            pool, (x, y), TrainConfig(epochs=2, batch_size=100), ROOT.child(15)
        )


def test_select_requires_ten_examples():
    x = np.zeros((9, 1))
    y = np.zeros(9)
    pool = pipeline.CandidatePool(specs=(NetworkSpec(input_dim=1, hidden_layers=(4,)),))
    with pytest.raises(ValueError):
        pipeline.select_structure(pool, (x, y), TrainConfig(epochs=1, batch_size=4), ROOT)


def test_select_report_split_sizes():
    x, y = _toy_dataset(n=1000)
    pool = pipeline.CandidatePool(specs=(NetworkSpec(input_dim=1, hidden_layers=(4,)),))
    _, report = pipeline.select_structure(
        pool, (x, y), TrainConfig(epochs=1, batch_size=100), ROOT.child(16)
    )
    assert report.n_val == 200
    assert report.n_train == 800
    assert report.as_dict()["n_val"] == 200


def test_fit_statistic_net_rejects_regressor_pool():
    x, y = _toy_dataset(n=100)
    pool = pipeline.CandidatePool(
        specs=(NetworkSpec(input_dim=1, hidden_layers=(4,), head=HEAD_REGRESSOR),)
    )
    with pytest.raises(ValueError):
        pipeline.fit_statistic_net(
            (x, y), pool, TrainConfig(epochs=1, batch_size=10), ROOT.child(17)
        )


def test_fit_statistic_deterministic():
    x, y = _toy_dataset()
    pool = pipeline.CandidatePool(
        specs=(
            NetworkSpec(input_dim=1, hidden_layers=(8,)),
            NetworkSpec(input_dim=1, hidden_layers=(12,)),
        )
    )
    config = TrainConfig(epochs=3, batch_size=100)
    net_a, _ = pipeline.fit_statistic_net((x, y), pool, config, ROOT.child(18))
    net_b, _ = pipeline.fit_statistic_net((x, y), pool, config, ROOT.child(18))
    assert all(np.array_equal(wa, wb) for wa, wb in zip(net_a.weights, net_b.weights))
    assert all(np.array_equal(ba, bb) for ba, bb in zip(net_a.biases, net_b.biases))


def test_select_mapped_candidates_match_inline():
    # candidates are independent tasks: a reversed in-process map and a
    # two-process pool reproduce the inline selection and refit bit for bit
    x, y = _toy_dataset()
    pool = pipeline.CandidatePool(
        specs=tuple(
            NetworkSpec(input_dim=1, hidden_layers=layers, dropout_rate=0.1)
            for layers in ((8,), (12, 6), (4,))
        )
    )
    config = TrainConfig(epochs=3, batch_size=100)
    dispatched = []

    def recording_mapper(fn, tasks):
        dispatched.extend(task[0] for task in tasks)
        return _reversed_mapper(fn, tasks)

    net, report = pipeline.fit_statistic_net((x, y), pool, config, ROOT.child(19))
    fits = [pipeline.fit_statistic_net((x, y), pool, config, ROOT.child(19), recording_mapper)]
    with worker_pool(2) as mapper:
        fits.append(pipeline.fit_statistic_net((x, y), pool, config, ROOT.child(19), mapper))
    for other_net, other_report in fits:
        assert other_report == report
        assert nnet.save(other_net) == nnet.save(net)
    # largest candidate first, so two workers finish close together
    assert dispatched == [pool.specs[1], pool.specs[0], pool.specs[2]]


def test_select_mapped_divergence_warns_in_parent(monkeypatch):
    x, y = _toy_dataset()
    bad = NetworkSpec(input_dim=1, hidden_layers=(7,))
    good = NetworkSpec(input_dim=1, hidden_layers=(8,))
    real_train = nnet.train

    def flaky_train(spec, data, config):
        if spec.hidden_layers == (7,):
            raise TrainingDivergedError("loss became non-finite", 1)
        return real_train(spec, data, config)

    def worker_like_mapper(fn, tasks):
        # warnings raised inside a pool worker never reach the parent, so
        # a task must report divergence rather than warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _reversed_mapper(fn, tasks)

    monkeypatch.setattr(nnet, "train", flaky_train)
    pool = pipeline.CandidatePool(specs=(bad, good))
    with pytest.warns(UserWarning, match=r"candidate \(7,\) diverged: loss became non-finite"):
        chosen, report = pipeline.select_structure(
            pool, (x, y), TrainConfig(epochs=2, batch_size=100), ROOT.child(14), worker_like_mapper
        )
    assert chosen == good
    assert report.losses[0] is None
    assert report.winner_index == 1


# ----------------------------------------------------------- statistic net


def test_known_statistic_monotone_sweep(known_fit):
    # realized likelihood-ratio ordering: nondecreasing in the sample mean
    # on a +-5 sigma/sqrt(n) sweep, with a 1% training-noise allowance
    test, _ = known_fit
    half_width = 5.0 * KNOWN_SIGMA / np.sqrt(KNOWN_N)
    sweep = np.linspace(-half_width, half_width, 1000)[:, None]
    values = test.statistic_net.linear_predictor(sweep)
    violations = np.mean(np.diff(values) < 0.0)
    assert violations <= 0.01


def test_label_flipped_fit_is_decreasing():
    spec = known_sigma_scenario(
        mu0=0.0, mu1=KNOWN_MU1, sigma=KNOWN_SIGMA, n=KNOWN_N, b0=4_000, b1=4_000, b_prime=1_000
    )
    data = generate_training_data(spec, ROOT.child(20))
    flipped = (data.features, 1.0 - data.labels)
    pool = pipeline.CandidatePool(specs=(NetworkSpec(input_dim=1, hidden_layers=(10, 10)),))
    net, _ = pipeline.fit_statistic_net(
        flipped, pool, TrainConfig(epochs=10, batch_size=200), ROOT.child(21)
    )
    sweep = np.linspace(-0.7, 0.7, 1000)[:, None]
    values = net.linear_predictor(sweep)
    assert np.mean(np.diff(values) > 0.0) <= 0.01


def test_behrens_fisher_monotone_in_diff():
    spec = behrens_fisher_scenario(
        mu_p=0.0,
        sigma_values=(0.9, 1.1),
        powers=(0.8,),
        n=100,
        b0=3_000,
        b1=3_000,
        l=4,
        b_prime=1_000,
    )
    data = generate_training_data(spec, ROOT.child(22))
    pool = pipeline.CandidatePool(specs=(NetworkSpec(input_dim=3, hidden_layers=(10, 10)),))
    net, _ = pipeline.fit_statistic_net(
        data, pool, TrainConfig(epochs=10, batch_size=200), ROOT.child(23)
    )
    diffs = np.linspace(-0.5, 0.5, 500)
    sweep = np.column_stack([diffs, np.full(500, 1.0), np.full(500, 1.0)])
    values = net.linear_predictor(sweep)
    assert np.mean(np.diff(values) < 0.0) <= 0.01


# ------------------------------------------------------------------ cutoffs


def test_constant_cutoff_alpha_half_is_median(known_fit):
    test, _ = known_fit
    spec = test.scenario
    stream = ROOT.child(24)
    cut = pipeline.calibrate_constant_cutoff(test.statistic_net, spec, 20_001, 0.5, stream)
    values = test.statistic_net.linear_predictor(
        gen_null_features(spec, None, 20_001, stream)
    )
    assert cut.value == pytest.approx(float(np.median(values)), abs=1e-12)


def test_identity_statistic_cutoff_matches_closed_form():
    # with the raw mean as the statistic the calibrated cutoff is the
    # analytic critical value sigma * z_{0.95} / sqrt(n) + mu0
    spec = known_sigma_scenario(
        mu0=0.0, mu1=KNOWN_MU1, sigma=KNOWN_SIGMA, n=KNOWN_N, b0=10, b1=10, b_prime=400_000
    )
    cut = pipeline.calibrate_constant_cutoff(
        _Statistic(lambda feats: feats[:, 0]), spec, 400_000, 0.05, ROOT.child(25)
    )
    analytic = KNOWN_SIGMA * normal_quantile(0.95) / np.sqrt(KNOWN_N)
    assert cut.value == pytest.approx(analytic, abs=2.5e-3)


def test_known_fresh_type_i(known_fit):
    test, _ = known_fit
    feats = gen_null_features(test.scenario, None, 100_000, ROOT.child(26))
    rate = float(np.mean(pipeline.decide_batch(test, feats, None)))
    assert abs(rate - 0.05) < 0.006


def test_known_z_agreement(known_fit):
    # decision agreement with the exact z test on fresh validation draws
    test, _ = known_fit
    spec = test.scenario
    stream = ROOT.child(27)
    null = gen_null_features(spec, None, 50_000, stream.child(0))
    gen = stream.child(1).generator()
    alt = (KNOWN_MU1 + KNOWN_SIGMA / np.sqrt(KNOWN_N) * gen.standard_normal(50_000))[:, None]
    feats = np.vstack([null, alt])
    dnn = pipeline.decide_batch(test, feats, None)
    z = z_decisions(feats[:, 0], 0.0, KNOWN_SIGMA, KNOWN_N, 0.05)
    assert np.mean(dnn == z) >= 0.98


def test_known_power_tracks_z(known_fit):
    test, _ = known_fit
    gen = ROOT.child(28).generator()
    alt = (KNOWN_MU1 + KNOWN_SIGMA / np.sqrt(KNOWN_N) * gen.standard_normal(100_000))[:, None]
    dnn_power = float(np.mean(pipeline.decide_batch(test, alt, None)))
    z_power = float(np.mean(z_decisions(alt[:, 0], 0.0, KNOWN_SIGMA, KNOWN_N, 0.05)))
    assert abs(dnn_power - z_power) < 0.015


# ------------------------------------------------------------ critical net


def test_unknown_surface_mse_contract(unknown_fit):
    # second-fold validation MSE at B' = 1e5 labels; the desk-scale
    # statistic net leaves a slightly rougher quantile curve than a
    # full-size fit, so the bound is looser than the production target
    _, crit = unknown_fit
    losses = [v for v in crit.report.losses if v is not None]
    assert min(losses) <= 2.5e-3


def test_unknown_labels_match_inputs(unknown_fit):
    _, crit = unknown_fit
    assert crit.inputs.shape == (100, 1)
    assert crit.labels.shape == (100,)
    assert np.all(np.isfinite(crit.labels))


def test_critical_labels_mapper_is_order_safe(unknown_fit):
    test, _ = unknown_fit
    spec = test.scenario
    inputs = np.linspace(0.8, 2.0, 7)[:, None]
    stream = ROOT.child(29)
    direct = pipeline.critical_labels(
        test.statistic_net, inputs, partial(gen_null_features, spec), 5_000, 0.05, stream
    )
    mapped = pipeline.critical_labels(
        test.statistic_net,
        inputs,
        partial(gen_null_features, spec),
        5_000,
        0.05,
        stream,
        mapper=_reversed_mapper,
    )
    assert np.array_equal(direct, mapped)


def test_constant_statistic_gives_constant_surface():
    inputs = np.linspace(0.6, 2.4, 40)[:, None]

    labels = pipeline.critical_labels(
        _Statistic(lambda feats: np.full(feats.shape[0], 2.5)),
        inputs,
        lambda row, reps, stream: np.zeros((reps, 1)),
        1_000,
        0.05,
        ROOT.child(30),
    )
    assert np.all(labels == 2.5)
    pool = pipeline.CandidatePool(
        specs=(NetworkSpec(input_dim=1, hidden_layers=(30, 30), head=HEAD_REGRESSOR),)
    )
    crit = pipeline.fit_critical_net(
        inputs, labels, pool, TrainConfig(epochs=1000, batch_size=10), ROOT.child(31)
    )
    preds = crit.net.linear_predictor(inputs)
    assert np.max(np.abs(preds - 2.5)) < 5e-3


def test_critical_net_rejects_bad_inputs(unknown_fit):
    test, _ = unknown_fit
    pool = _pool(1, HEAD_REGRESSOR, (2, 3), (30, 40, 50))
    config = TrainConfig(epochs=1, batch_size=10)
    with pytest.raises(ValueError):
        pipeline.fit_critical_net(np.zeros((1, 1)), np.zeros(1), pool, config, ROOT)
    with pytest.raises(ValueError):
        pipeline.fit_critical_net(np.zeros((5, 1)), np.zeros(4), pool, config, ROOT)
    classifier_pool = pipeline.CandidatePool(
        specs=(NetworkSpec(input_dim=1, hidden_layers=(4,), head=HEAD_CLASSIFIER),)
    )
    with pytest.raises(ValueError):
        pipeline.fit_critical_net(
            np.zeros((5, 1)), np.zeros(5), classifier_pool, config, ROOT
        )


def test_adaptive_surface_interpolates_between_labels(adaptive_fit):
    # direct recalibration at grid midpoints stays inside the band spanned
    # by the neighboring labels, up to label noise and fit error
    test, crit, table = adaptive_fit
    grid = crit.inputs[:, 0]
    mids = 0.5 * (grid[:-1] + grid[1:])
    preds = test.critical_net.linear_predictor(mids[:, None])
    residual = float(np.max(np.abs(crit.net.linear_predictor(crit.inputs) - crit.labels)))
    tol = max(0.08, 4.0 * residual)
    lo = np.minimum(crit.labels[:-1], crit.labels[1:]) - tol
    hi = np.maximum(crit.labels[:-1], crit.labels[1:]) + tol
    assert np.all(preds >= lo) and np.all(preds <= hi)


def test_adaptive_midpoint_matches_direct_recalibration(adaptive_fit):
    test, crit, table = adaptive_fit
    spec = test.scenario
    mid = float(0.5 * (crit.inputs[3, 0] + crit.inputs[4, 0]))
    direct = pipeline.critical_label_for_row(
        test.statistic_net,
        np.array([mid]),
        partial(gen_null_features, spec, design=TINY_DESIGN, n2_table=table),
        40_000,
        0.05,
        ROOT.child(32),
    )
    pred = float(test.critical_net.linear_predictor(np.array([[mid]]))[0])
    assert abs(pred - direct) < 0.15


# ------------------------------------------------------------------ decide


def test_observed_features_unknown_mapping():
    spec = unknown_sigma_scenario(
        mu0=0.0, sigma_grid=(1.0, 2.0), n=4, b0=10, b1=10, l=2, b_prime=10
    )
    sample = np.array([1.0, 2.0, 3.0, 6.0])
    stat, crit = pipeline.observed_features(spec, sample)
    assert stat[0] == pytest.approx(3.0)
    assert stat[1] == pytest.approx(np.std(sample))
    assert crit[0] == pytest.approx(np.std(sample, ddof=1))


def test_observed_features_behrens_fisher_mapping():
    spec = behrens_fisher_scenario(
        mu_p=0.0, sigma_values=(1.0,), powers=(0.8,), n=4, b0=10, b1=10, l=4, b_prime=10
    )
    placebo = np.array([0.0, 1.0, 2.0, 3.0])
    treatment = np.array([1.0, 2.0, 3.0, 8.0])
    stat, crit = pipeline.observed_features(spec, (placebo, treatment))
    assert stat[0] == pytest.approx(np.mean(treatment) - np.mean(placebo))
    assert stat[1] == pytest.approx(np.std(placebo))
    assert stat[2] == pytest.approx(np.std(treatment))
    assert crit[0] == pytest.approx(np.std(placebo, ddof=1))
    assert crit[1] == pytest.approx(np.std(treatment, ddof=1))


def test_observed_features_adaptive_mapping():
    spec = adaptive_scenario(
        pi_p_grid=(0.2, 0.3), n1=12, b0=10, b1=10, l=2, b_prime=10
    )
    path = TrialPath(x_p1=3, x_t1=6, n2=20, x_p2=5, x_t2=10)
    stat, crit = pipeline.observed_features(spec, path)
    assert stat[0] == pytest.approx(3.0 / 12.0)
    assert stat[1] == pytest.approx(5.0 / 20.0)
    assert stat[2] == 20.0
    assert crit[0] == pytest.approx(9.0 / 24.0)


def test_observed_features_usage_errors():
    known = known_sigma_scenario(
        mu0=0.0, mu1=0.4, sigma=1.0, n=5, b0=10, b1=10, b_prime=10
    )
    with pytest.raises(ValueError):
        pipeline.observed_features(known, np.zeros(4))
    bf = behrens_fisher_scenario(
        mu_p=0.0, sigma_values=(1.0,), powers=(0.8,), n=4, b0=10, b1=10, l=4, b_prime=10
    )
    with pytest.raises(ValueError):
        pipeline.observed_features(bf, np.zeros(4))
    adaptive = adaptive_scenario(pi_p_grid=(0.2,), n1=12, b0=10, b1=10, l=2, b_prime=10)
    with pytest.raises(ValueError):
        pipeline.observed_features(adaptive, np.zeros(4))


def test_decide_statistic_equal_cutoff_accepts():
    # strict inequality: a tie is a non-rejection
    spec = NetworkSpec(input_dim=1, hidden_layers=(1,), head=HEAD_CLASSIFIER)
    net = Network(
        spec=spec,
        weights=[np.array([[1.0]]), np.array([[1.0]])],
        biases=[np.array([0.0]), np.array([0.0])],
    )
    scenario = known_sigma_scenario(
        mu0=0.0, mu1=0.4, sigma=1.0, n=4, b0=10, b1=10, b_prime=10
    )
    statistic_at_two = float(net.linear_predictor(np.array([[2.0]]))[0])
    test = pipeline.FittedTest(
        statistic_net=net,
        critical_net=pipeline.ConstantCutoff(value=statistic_at_two),
        scenario=scenario,
        alpha=0.05,
        provenance={},
    )
    decision = pipeline.decide(test, np.full(4, 2.0))
    assert decision.statistic == decision.cutoff
    assert not decision.reject
    below = pipeline.decide(test, np.full(4, 1.0))
    assert not below.reject


def test_decide_far_above_rejects(known_fit):
    test, _ = known_fit
    decision = pipeline.decide(test, np.full(KNOWN_N, 3.0 * KNOWN_MU1))
    assert decision.reject
    assert decision.statistic > decision.cutoff


def test_decide_adaptive_all_zero_accepts(adaptive_fit):
    test, crit, table = adaptive_fit
    n2 = int(table[0, 0])
    path = TrialPath(x_p1=0, x_t1=0, n2=n2, x_p2=0, x_t2=0)
    decision = pipeline.decide(test, path)
    assert not decision.reject


def test_decide_batch_matches_scalar_unknown(unknown_fit):
    test, _ = unknown_fit
    spec = test.scenario
    gen = ROOT.child(33).generator()
    samples = gen.normal(0.1, 1.3, size=(50, spec.n))
    mean, mle_sd, unbiased_sd = summarize_rows(samples)
    stat_feats = np.column_stack([mean, mle_sd])
    crit_feats = unbiased_sd[:, None]
    batch = pipeline.decide_batch(test, stat_feats, crit_feats)
    singles = np.array([pipeline.decide(test, row).reject for row in samples])
    assert np.array_equal(batch, singles)


def _random_net(input_dim, head, seed):
    spec = NetworkSpec(input_dim=input_dim, hidden_layers=(20, 20), head=head)
    gen = RandomStream(seed=seed).generator()
    weights, biases = nnet._init_params(spec, gen)
    biases = [gen.normal(size=b.shape) for b in biases]
    return Network(spec=spec, weights=weights, biases=biases)


def _assert_cutoffs_match(gathered, direct):
    # A row's last bits can depend on its place in a BLAS call (the kernel
    # OpenBLAS picks for a small matrix, the tail of a row tile), and the
    # distinct rows sit elsewhere than in the full batch.
    np.testing.assert_allclose(gathered, direct, rtol=1e-13, atol=1e-13)


def test_distinct_rows_inverts_exactly():
    # ties in the first column that differ in the second stay apart
    rows = np.array([[0.5, 2.0], [0.5, 1.0], [0.25, 2.0], [0.5, 2.0], [0.5, 1.0], [-0.0, 3.0]])
    distinct, inverse = pipeline._distinct_rows(rows)
    assert np.array_equal(distinct[inverse], rows)
    assert distinct.shape == (4, 2)
    empty, none = pipeline._distinct_rows(np.empty((0, 2)))
    assert empty.shape == (0, 2) and none.shape == (0,)


def test_decide_batch_adaptive_matches_one_evaluation_per_row(adaptive_fit):
    # pooled stage-1 rates repeat: 5,000 trials take at most 2 n1 + 1 values
    test, _, table = adaptive_fit
    batch = simulate_trials(0.30, 0.30, TINY_DESIGN, 5_000, ROOT.child(41), table)
    stat, crit = test.scenario.family.features(test.scenario, batch)
    assert np.unique(crit).size <= 2 * TINY_DESIGN.n1 + 1
    cutoffs = test.critical_net.linear_predictor(crit)
    _assert_cutoffs_match(pipeline._scores(test, stat, crit)[1], cutoffs)
    expected = test.statistic_net.linear_predictor(stat) > cutoffs
    assert np.array_equal(pipeline.decide_batch(test, stat, crit), expected)


def test_decide_batch_behrens_fisher_matches_one_evaluation_per_row():
    spec = behrens_fisher_scenario(
        mu_p=0.0, sigma_values=(1.0, 1.2), powers=(0.8,), n=20, b0=10, b1=10, l=4, b_prime=10
    )
    family = spec.family
    draws = family.sample(spec, family.point(spec, (1.0, 1.2), None), 3_000, ROOT.child(42))
    stat, crit = family.features(spec, draws)
    # continuous inputs never repeat; add exact repeats and rows that tie
    # in the first column but differ in the second
    pick = np.array([0, 1, 2, 0, 1])
    crit = np.vstack([crit, crit[pick], np.column_stack([crit[:3, 0], crit[3:6, 1]])])
    stat = np.vstack([stat, stat[pick], stat[:3]])
    test = pipeline.FittedTest(
        statistic_net=_random_net(3, HEAD_CLASSIFIER, 43),
        critical_net=_random_net(2, HEAD_REGRESSOR, 44),
        scenario=spec,
        alpha=0.05,
        provenance={},
    )
    cutoffs = test.critical_net.linear_predictor(crit)
    _assert_cutoffs_match(pipeline._scores(test, stat, crit)[1], cutoffs)
    expected = test.statistic_net.linear_predictor(stat) > cutoffs
    assert np.array_equal(pipeline.decide_batch(test, stat, crit), expected)


def test_decide_batch_memory_is_bounded(adaptive_fit):
    # inference runs in row blocks and the surface once per distinct input,
    # so the peak stays a few arrays of one value per row
    test, _, table = adaptive_fit
    batch = simulate_trials(0.30, 0.30, TINY_DESIGN, 200_000, ROOT.child(45), table)
    stat, crit = test.scenario.family.features(test.scenario, batch)
    tracemalloc.start()
    try:
        pipeline.decide_batch(test, stat, crit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, f"decide_batch peak {peak / 2**20:.1f} MB"


def test_decide_batch_requires_crit_features(unknown_fit):
    test, _ = unknown_fit
    with pytest.raises(ValueError):
        pipeline.decide_batch(test, np.zeros((3, 2)), None)
    with pytest.raises(ValueError):
        pipeline.decide_batch(test, np.zeros((3, 2)), np.zeros(3))


def test_unknown_type_i_on_and_off_grid(unknown_fit):
    # sigma = 1.5 sits between training grid points
    test, _ = unknown_fit
    spec = test.scenario
    for k, sigma in enumerate((1.0, 1.5, 2.0)):
        feats = gen_null_features(spec, sigma, 50_000, ROOT.child(34).child(k))
        crit_feats = (feats[:, 1] * np.sqrt(spec.n / (spec.n - 1.0)))[:, None]
        rate = float(np.mean(pipeline.decide_batch(test, feats, crit_feats)))
        assert abs(rate - 0.05) < 0.007, f"sigma={sigma}: {rate}"


def test_unknown_power_tracks_t_test(unknown_fit):
    test, _ = unknown_fit
    spec = test.scenario
    sigma, mu1 = 1.5, 0.439
    gen = ROOT.child(35).generator()
    means = mu1 + sigma / np.sqrt(spec.n) * gen.standard_normal(50_000)
    sds = sigma * np.sqrt(gen.chisquare(spec.n - 1, 50_000) / spec.n)
    unbiased = sds * np.sqrt(spec.n / (spec.n - 1.0))
    dnn = pipeline.decide_batch(
        test, np.column_stack([means, sds]), unbiased[:, None]
    )
    t = t_decisions(means, unbiased, spec.n, 0.0, 0.05)
    assert abs(float(np.mean(dnn)) - float(np.mean(t))) < 0.015


def test_level_alpha_consistency_direct_recalibration(unknown_fit):
    # swapping the learned surface for direct recalibration at the observed
    # nuisance moves the rejection rate by less than 0.005
    test, _ = unknown_fit
    spec = test.scenario
    sigma = 1.3
    feats = gen_null_features(spec, sigma, 100_000, ROOT.child(36))
    crit_feats = (feats[:, 1] * np.sqrt(spec.n / (spec.n - 1.0)))[:, None]
    rate_net = float(np.mean(pipeline.decide_batch(test, feats, crit_feats)))
    direct = pipeline.critical_label_for_row(
        test.statistic_net,
        np.array([sigma]),
        partial(gen_null_features, spec),
        100_000,
        0.05,
        ROOT.child(37),
    )
    stats = test.statistic_net.linear_predictor(feats)
    rate_direct = float(np.mean(stats > direct))
    assert abs(rate_net - rate_direct) < 0.005


def test_statistic_and_cutoff_finite(unknown_fit):
    test, _ = unknown_fit
    spec = test.scenario
    feats = gen_null_features(spec, 2.2, 10_000, ROOT.child(38))
    stats = test.statistic_net.linear_predictor(feats)
    cuts = test.critical_net.linear_predictor(
        (feats[:, 1] * np.sqrt(spec.n / (spec.n - 1.0)))[:, None]
    )
    assert np.all(np.isfinite(stats))
    assert np.all(np.isfinite(cuts))


# ------------------------------------------------------------------ bundle


def test_bundle_roundtrip_constant(known_fit):
    test, _ = known_fit
    loaded = pipeline.load_bundle(pipeline.save_bundle(test))
    assert isinstance(loaded.critical_net, pipeline.ConstantCutoff)
    assert loaded.critical_net.value == test.critical_net.value
    assert loaded.scenario == test.scenario
    assert loaded.alpha == test.alpha
    probe = np.linspace(-1.0, 1.0, 64)[:, None]
    assert np.array_equal(
        loaded.statistic_net.linear_predictor(probe),
        test.statistic_net.linear_predictor(probe),
    )


def test_bundle_roundtrip_network_bit_exact(unknown_fit):
    test, _ = unknown_fit
    doc = pipeline.save_bundle(test)
    loaded = pipeline.load_bundle(doc)
    probe_stat = np.column_stack([np.linspace(-0.5, 0.5, 64), np.linspace(0.6, 2.4, 64)])
    probe_crit = np.linspace(0.6, 2.4, 64)[:, None]
    assert np.array_equal(
        loaded.statistic_net.linear_predictor(probe_stat),
        test.statistic_net.linear_predictor(probe_stat),
    )
    assert np.array_equal(
        loaded.critical_net.linear_predictor(probe_crit),
        test.critical_net.linear_predictor(probe_crit),
    )
    assert pipeline.save_bundle(loaded) == doc


def test_bundle_rejects_foreign_documents(known_fit):
    test, _ = known_fit
    with pytest.raises(ValueError):
        pipeline.load_bundle(json.dumps({"format": "something-else"}))
    doc = json.loads(pipeline.save_bundle(test))
    doc["version"] = 99
    with pytest.raises(ValueError):
        pipeline.load_bundle(json.dumps(doc))
