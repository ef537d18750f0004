import hashlib
import json

import numpy as np
import pytest
from scipy.special import expit

from deeptest.nnet import (
    HEAD_CLASSIFIER,
    HEAD_REGRESSOR,
    PREDICT_BLOCK_ROWS,
    Network,
    NetworkSpec,
    TrainConfig,
    TrainingDivergedError,
    _backprop,
    _forward_train,
    _init_params,
    bce_loss,
    load,
    mse_loss,
    save,
    train,
)

from oracles import gradient_check, linear_predictor_one_call, loss_of


def _zero_net(spec: NetworkSpec) -> Network:
    widths = spec.widths
    weights = [np.zeros((widths[k], widths[k + 1])) for k in range(len(widths) - 1)]
    biases = [np.zeros(widths[k + 1]) for k in range(len(widths) - 1)]
    return Network(spec=spec, weights=weights, biases=biases)


def _separable_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x_neg = rng.uniform(-2.0, -1.0, size=n // 2)
    x_pos = rng.uniform(1.0, 2.0, size=n // 2)
    x = np.concatenate([x_neg, x_pos])[:, None]
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    order = rng.permutation(n)
    return x[order], y[order]


class TestSpecValidation:
    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(input_dim=0, hidden_layers=(5,))
        with pytest.raises(ValueError):
            NetworkSpec(input_dim=2, hidden_layers=(0,))
        with pytest.raises(ValueError):
            NetworkSpec(input_dim=2, hidden_layers=(5,), dropout_rate=1.0)
        with pytest.raises(ValueError):
            NetworkSpec(input_dim=2, hidden_layers=(5,), head="softmax")

    def test_param_count(self):
        spec = NetworkSpec(input_dim=3, hidden_layers=(10, 10))
        # 3*10+10 + 10*10+10 + 10*1+1
        assert spec.n_params() == 40 + 110 + 11

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0, batch_size=10)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=1, validation_fraction=0.0)


class TestForward:
    def test_zero_network_outputs_half(self):
        spec = NetworkSpec(input_dim=3, hidden_layers=(4,), head=HEAD_CLASSIFIER)
        lp = _zero_net(spec).linear_predictor(np.array([[0.3, -1.0, 2.0], [5.0, 0.0, -2.0]]))
        assert lp.tolist() == [0.0, 0.0]
        assert expit(lp).tolist() == [0.5, 0.5]

    def test_affine_identity_no_hidden(self):
        spec = NetworkSpec(input_dim=1, hidden_layers=(), head=HEAD_REGRESSOR)
        net = Network(
            spec=spec, weights=[np.array([[2.0]])], biases=[np.array([0.0])]
        )
        assert net.linear_predictor(np.array([[1.5], [-0.25]])).tolist() == [3.0, -0.5]

    def test_classifier_output_monotone_in_predictor(self):
        spec = NetworkSpec(input_dim=1, hidden_layers=(), head=HEAD_CLASSIFIER)
        net = Network(spec=spec, weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        xs = np.linspace(-4, 4, 41)
        assert np.all(np.diff(expit(net.linear_predictor(xs[:, None]))) > 0)

    def test_dimension_mismatch(self):
        spec = NetworkSpec(input_dim=2, hidden_layers=(3,))
        with pytest.raises(ValueError):
            _zero_net(spec).linear_predictor(np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ValueError):
            _zero_net(spec).linear_predictor(np.array([1.0, 2.0]))

    def test_train_mode_without_dropout_matches_inference(self):
        spec = NetworkSpec(input_dim=2, hidden_layers=(7, 7), head=HEAD_REGRESSOR)
        gen = np.random.Generator(np.random.Philox(key=5))
        w, b = _init_params(spec, gen)
        net = Network(spec=spec, weights=w, biases=b)
        x = gen.normal(size=(9, 2))
        z_train, _, _ = _forward_train(net, x, gen=None)
        z_inf = net.linear_predictor(x)
        assert np.array_equal(z_train, z_inf)

    def test_blocked_inference_matches_one_call(self):
        # A batch that ends in a partial block.  A row's last bits depend on
        # the BLAS kernel its block runs on (OpenBLAS takes a small-matrix
        # kernel below about 1e6 multiply-adds), so blocked and one-call
        # values agree to rounding, not always to the bit.
        gen = np.random.Generator(np.random.Philox(key=6))
        x = gen.normal(size=(3 * PREDICT_BLOCK_ROWS + 37, 3))
        for width in (20, 50):
            spec = NetworkSpec(input_dim=3, hidden_layers=(width,) * 3, head=HEAD_CLASSIFIER)
            w, b = _init_params(spec, gen)
            b = [gen.normal(size=bias.shape) for bias in b]
            net = Network(spec=spec, weights=w, biases=b, shift=gen.normal(size=3))
            ref = linear_predictor_one_call(net, x)
            np.testing.assert_allclose(
                net.linear_predictor(x), ref, rtol=0.0, atol=1e-14 * np.max(np.abs(ref))
            )
        # whole blocks end on whole tiles of the BLAS row kernels
        assert PREDICT_BLOCK_ROWS % 16 == 0

    def test_empty_batch(self):
        spec = NetworkSpec(input_dim=2, hidden_layers=(3,))
        assert _zero_net(spec).linear_predictor(np.empty((0, 2))).shape == (0,)


class TestLosses:
    def test_bce_at_even_odds(self):
        assert bce_loss([0.0], [1.0]) == pytest.approx(np.log(2.0), abs=1e-15)
        assert bce_loss([0.0, 0.0], [0.0, 1.0]) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_bce_saturation_is_finite_and_tiny(self):
        loss = bce_loss([50.0], [1.0])
        assert 0.0 <= loss <= 1e-20

    def test_bce_stability_extremes(self):
        for z in (-1e6, -3e5, 3e5, 1e6):
            assert np.isfinite(bce_loss([z], [1.0]))
            assert np.isfinite(bce_loss([z], [0.0]))

    def test_bce_shape_and_label_validation(self):
        with pytest.raises(ValueError):
            bce_loss([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            bce_loss([0.0], [0.5])

    def test_mse_values(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse_loss([0.0], [2.0]) == 4.0
        assert mse_loss([1.0, 3.0], [0.0, 0.0]) == 5.0

    def test_mse_shape_validation(self):
        with pytest.raises(ValueError):
            mse_loss([0.0, 1.0], [1.0])


class TestGradientCheck:
    # Criterion: backprop matches central differences on every candidate
    # pool structure, both heads, at the input widths used downstream.
    FIRST_POOL = [(d, w) for d in (2, 4) for w in (10, 40)]
    SECOND_POOL = [(d, w) for d in (2, 3) for w in (30, 40, 50)]

    @pytest.mark.parametrize("depth,width", FIRST_POOL)
    @pytest.mark.parametrize("input_dim", [1, 3])
    def test_first_pool_classifier(self, depth, width, input_dim):
        spec = NetworkSpec(
            input_dim=input_dim, hidden_layers=(width,) * depth, head=HEAD_CLASSIFIER
        )
        rng = np.random.default_rng(7)
        err = gradient_check(spec, rng.normal(size=input_dim), 1.0)
        assert err < 1e-5, f"gradient check failed at {err:.2e}"

    @pytest.mark.parametrize("depth,width", SECOND_POOL)
    @pytest.mark.parametrize("input_dim", [1, 2])
    def test_second_pool_regressor(self, depth, width, input_dim):
        spec = NetworkSpec(
            input_dim=input_dim, hidden_layers=(width,) * depth, head=HEAD_REGRESSOR
        )
        rng = np.random.default_rng(8)
        err = gradient_check(spec, rng.normal(size=input_dim), 0.37)
        assert err < 1e-5, f"gradient check failed at {err:.2e}"

    def test_generic_signed_net_absolute_agreement(self):
        # Mixed-sign weights exercise the ReLU masks; tiny gradients are
        # compared absolutely (float64 differencing is noise-limited
        # below ~1e-10).
        spec = NetworkSpec(input_dim=3, hidden_layers=(12, 12), head=HEAD_CLASSIFIER)
        gen = np.random.Generator(np.random.Philox(key=77))
        w, b = _init_params(spec, gen)
        net = Network(spec=spec, weights=[0.7 * wi for wi in w], biases=b)
        x = gen.normal(size=(1, 3))
        y = np.array([1.0])
        z, acts, masks = _forward_train(net, x, gen=None)
        dz = expit(z) - y
        g_w, g_b = _backprop(net, acts, masks, dz)
        h = 1e-6
        for p, g in zip(net.weights + net.biases, g_w + g_b):
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
                assert abs(a - fd) < 1e-8
                if abs(a) + abs(fd) > 1e-4:
                    assert abs(a - fd) / (abs(a) + abs(fd)) < 1e-5
                it.iternext()

    def test_zero_network_dead_relu_gradients(self):
        # All-zero weights and inputs: hidden activations sit exactly at
        # the ReLU kink, whose subgradient convention is 0.
        spec = NetworkSpec(input_dim=2, hidden_layers=(4, 4), head=HEAD_CLASSIFIER)
        net = _zero_net(spec)
        x = np.zeros((1, 2))
        z, acts, masks = _forward_train(net, x, gen=None)
        from scipy.special import expit

        dz = expit(z) - np.array([1.0])
        g_w, g_b = _backprop(net, acts, masks, dz)
        for g in g_w[:-1] + g_b[:-1]:
            assert np.all(g == 0.0)
        # head bias still learns
        assert g_b[-1][0] != 0.0


class TestTrain:
    def test_separable_held_out_accuracy(self):
        x, y = _separable_data(n=400, seed=1)
        x_tr, y_tr = x[:320], y[:320]
        x_te, y_te = x[320:], y[320:]
        spec = NetworkSpec(input_dim=1, hidden_layers=(8, 8), head=HEAD_CLASSIFIER)
        net = train(spec, (x_tr, y_tr), TrainConfig(epochs=60, batch_size=32, seed=3))
        acc = np.mean((net.linear_predictor(x_te) > 0.0) == (y_te == 1.0))
        assert acc >= 0.99, f"held-out accuracy {acc}"

    def test_regression_grid(self):
        x = np.linspace(0.0, 1.0, 200)[:, None]
        y = 3.0 * x[:, 0]
        spec = NetworkSpec(input_dim=1, hidden_layers=(16,), head=HEAD_REGRESSOR)
        net = train(spec, (x, y), TrainConfig(epochs=400, batch_size=32, seed=4))
        pred = net.linear_predictor(x[::2])
        assert mse_loss(pred, y[::2]) <= 1e-3

    def test_empty_data_rejected(self):
        spec = NetworkSpec(input_dim=1, hidden_layers=(4,))
        with pytest.raises(ValueError):
            train(spec, (np.empty((0, 1)), np.empty(0)), TrainConfig(epochs=1, batch_size=4))

    def test_nonbinary_classifier_labels_rejected(self):
        spec = NetworkSpec(input_dim=1, hidden_layers=(4,))
        x = np.zeros((4, 1))
        with pytest.raises(ValueError, match="binary"):
            train(spec, (x, np.array([0.0, 1.0, 0.5, 1.0])), TrainConfig(epochs=1, batch_size=2))

    def test_nonfinite_features_diverge_error(self):
        spec = NetworkSpec(input_dim=1, hidden_layers=(4,))
        x = np.array([[0.0], [np.inf]])
        with pytest.raises(TrainingDivergedError) as exc:
            train(spec, (x, np.array([0.0, 1.0])), TrainConfig(epochs=1, batch_size=2))
        assert exc.value.epoch == 0

    def test_training_reduces_loss_from_init(self):
        x, y = _separable_data(n=300, seed=5)
        spec = NetworkSpec(input_dim=1, hidden_layers=(8,), head=HEAD_CLASSIFIER)
        cfg = TrainConfig(epochs=30, batch_size=32, seed=6)
        net = train(spec, (x, y), cfg)
        # replay the exact initialization train() used
        gen = np.random.Generator(np.random.Philox(key=cfg.seed))
        w0, b0 = _init_params(spec, gen)
        init = Network(spec=spec, weights=w0, biases=b0, shift=net.shift, scale=net.scale)
        x_std_loss_init = bce_loss(init.linear_predictor(x), y)
        x_std_loss_final = bce_loss(net.linear_predictor(x), y)
        assert x_std_loss_final <= x_std_loss_init

    def test_determinism_same_seed(self):
        x, y = _separable_data(n=200, seed=7)
        spec = NetworkSpec(input_dim=1, hidden_layers=(6, 6), head=HEAD_CLASSIFIER, dropout_rate=0.1)
        cfg = TrainConfig(epochs=10, batch_size=25, seed=11)
        n1 = train(spec, (x, y), cfg)
        n2 = train(spec, (x, y), cfg)
        for a, b in zip(n1.weights + n1.biases, n2.weights + n2.biases):
            assert np.array_equal(a, b)

    def test_different_seeds_differ_but_both_learn(self):
        x, y = _separable_data(n=400, seed=8)
        x_tr, y_tr = x[:320], y[:320]
        x_te, y_te = x[320:], y[320:]
        spec = NetworkSpec(input_dim=1, hidden_layers=(8,), head=HEAD_CLASSIFIER)
        net_a = train(spec, (x_tr, y_tr), TrainConfig(epochs=40, batch_size=32, seed=1))
        net_b = train(spec, (x_tr, y_tr), TrainConfig(epochs=40, batch_size=32, seed=2))
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(net_a.weights + net_a.biases, net_b.weights + net_b.biases)
        )
        loss_a = bce_loss(net_a.linear_predictor(x_te), y_te)
        loss_b = bce_loss(net_b.linear_predictor(x_te), y_te)
        assert abs(loss_a - loss_b) < 0.1  # same task, noise-band gap

    def test_standardizer_persisted(self):
        rng = np.random.default_rng(9)
        x = np.column_stack([rng.normal(100.0, 5.0, 300), rng.uniform(21, 340, 300)])
        y = (x[:, 0] > 100.0).astype(float)
        spec = NetworkSpec(input_dim=2, hidden_layers=(4,), head=HEAD_CLASSIFIER)
        net = train(spec, (x, y), TrainConfig(epochs=5, batch_size=50, seed=10))
        assert net.shift == pytest.approx(x.mean(axis=0))
        assert net.scale == pytest.approx(x.std(axis=0))
        assert np.all(net.scale > 0)


class TestGoldenTraining:
    """sha256 of the saved network for two small fits with dropout.

    The hashes were recorded before the training step moved to flat
    parameter buffers and in-place boolean dropout masks, which left every
    bit unchanged.  Any change to a random stream (init, shuffles, masks)
    or to the arithmetic order of a step changes them: update them only
    knowingly, and name the stream change.  The values hold for float64
    with single-threaded BLAS, as conftest pins it.
    """

    CLASSIFIER_SHA256 = "1b313d031cb82c12bb18557e34f6f9a9e5ce9c4cc154b4885ec3d6466b97e3ab"
    REGRESSOR_SHA256 = "57e3718f3e6b5985b203b48bc140c50ee73262e88cb82acc6624318968ee7337"

    @staticmethod
    def _digest(net: Network) -> str:
        return hashlib.sha256(save(net).encode()).hexdigest()

    def test_classifier_bits(self):
        # 300 rows in batches of 64 leave a partial last batch
        gen = np.random.Generator(np.random.Philox(key=2024))
        x = gen.normal(size=(300, 2))
        y = (x[:, 0] + 0.5 * x[:, 1] + 0.3 * gen.normal(size=300) > 0).astype(float)
        spec = NetworkSpec(input_dim=2, hidden_layers=(12, 8), dropout_rate=0.1)
        net = train(spec, (x, y), TrainConfig(epochs=6, batch_size=64, seed=11))
        assert self._digest(net) == self.CLASSIFIER_SHA256

    def test_regressor_bits(self):
        u = np.linspace(0.0, 1.0, 40)[:, None]
        spec = NetworkSpec(
            input_dim=1, hidden_layers=(9, 7, 5), head=HEAD_REGRESSOR, dropout_rate=0.1
        )
        net = train(spec, (u, np.sin(3.0 * u[:, 0])), TrainConfig(epochs=40, batch_size=7, seed=12))
        assert self._digest(net) == self.REGRESSOR_SHA256


class TestDropout:
    def test_inference_ignores_dropout(self):
        spec = NetworkSpec(input_dim=1, hidden_layers=(12,), head=HEAD_REGRESSOR, dropout_rate=0.5)
        gen = np.random.Generator(np.random.Philox(key=21))
        w, b = _init_params(spec, gen)
        net = Network(spec=spec, weights=w, biases=b)
        x = np.array([[0.7]])
        assert net.linear_predictor(x) == net.linear_predictor(x)

    def test_inverted_dropout_unbiased(self):
        # Expected train-mode pre-activation equals the inference one.
        spec = NetworkSpec(input_dim=2, hidden_layers=(20,), head=HEAD_REGRESSOR, dropout_rate=0.1)
        gen = np.random.Generator(np.random.Philox(key=22))
        w, b = _init_params(spec, gen)
        net = Network(spec=spec, weights=w, biases=b)
        x = np.array([[0.4, -1.3]])
        z_inf = float(net.linear_predictor(x)[0])
        reps = 20_000
        draws = np.empty(reps)
        for r in range(reps):
            z, _, _ = _forward_train(net, x, gen)
            draws[r] = z[0]
        se = draws.std(ddof=1) / np.sqrt(reps)
        assert abs(draws.mean() - z_inf) < 3.0 * se + 1e-12, (
            f"mean {draws.mean():.6f} vs inference {z_inf:.6f} (se {se:.2e})"
        )


class TestSerialization:
    def _trained_net(self):
        x, y = _separable_data(n=200, seed=12)
        spec = NetworkSpec(input_dim=1, hidden_layers=(6,), head=HEAD_CLASSIFIER, dropout_rate=0.1)
        return train(spec, (x, y), TrainConfig(epochs=5, batch_size=25, seed=13))

    def test_roundtrip_bit_identical(self):
        net = self._trained_net()
        clone = load(save(net))
        rng = np.random.default_rng(14)
        probe = rng.normal(size=(100, 1))
        assert np.array_equal(net.linear_predictor(probe), clone.linear_predictor(probe))

    def test_double_roundtrip_stable(self):
        doc = save(self._trained_net())
        assert save(load(doc)) == doc

    def test_corrupt_layer_rejected(self):
        doc = json.loads(save(self._trained_net()))
        doc["layers"][0]["weights"] = doc["layers"][0]["weights"][:-1]
        with pytest.raises(ValueError):
            load(json.dumps(doc))

    def test_version_mismatch_rejected(self):
        doc = json.loads(save(self._trained_net()))
        doc["version"] = 999
        with pytest.raises(ValueError):
            load(json.dumps(doc))

    def test_spec_vs_weights_mismatch_rejected(self):
        doc = json.loads(save(self._trained_net()))
        doc["spec"]["input_dim"] = 2
        with pytest.raises(ValueError):
            load(json.dumps(doc))

    def test_not_a_model_document(self):
        with pytest.raises(ValueError):
            load("{}")
        with pytest.raises(ValueError):
            load("not json at all")
