"""From-scratch dense network engine (forward, backprop, Adam, dropout).

The statistic network is a logit-classifier: its sigmoid output estimates
the posterior probability of the alternative, and its final pre-activation
(the linear predictor) is the test statistic.  The critical-value network
is the same machine with a linear head trained under squared error.
Inference has one entry point, ``Network.linear_predictor`` on a batch of
feature rows; the sigmoid appears only inside the classifier's loss.

Everything is float64 and deterministic given ``TrainConfig.seed``: weight
init, epoch shuffles, and dropout masks all come from one Philox generator.
Each mask is drawn as float64 uniforms (``gen.random``), kept as a boolean
keep-mask and applied in place.  During training every weight and bias is
a view of one flat buffer and every gradient a view of a second one, so an
Adam step is a fixed handful of whole-buffer ufunc calls; the arithmetic
per element is the same as a per-array update, bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

__all__ = [
    "NetworkSpec",
    "TrainConfig",
    "Network",
    "TrainingDivergedError",
    "bce_loss",
    "mse_loss",
    "train",
    "gradient_check",
    "save",
    "load",
]

HEAD_CLASSIFIER = "logit-classifier"
HEAD_REGRESSOR = "linear-regressor"

_DOCUMENT_FORMAT = "deeptest-model"
_DOCUMENT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Raised when training hits non-finite features or loss."""

    def __init__(self, message: str, epoch: int):
        super().__init__(f"{message} (epoch {epoch})")
        self.epoch = epoch


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture descriptor: widths, head type, dropout rate."""

    input_dim: int
    hidden_layers: tuple[int, ...]
    head: str = HEAD_CLASSIFIER
    dropout_rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if any(w < 1 for w in self.hidden_layers):
            raise ValueError("every hidden width must be >= 1")
        if self.head not in (HEAD_CLASSIFIER, HEAD_REGRESSOR):
            raise ValueError(f"unknown head {self.head!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, 1)

    def n_params(self) -> int:
        w = self.widths
        return sum(w[i] * w[i + 1] + w[i + 1] for i in range(len(w) - 1))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float = 1e-3
    seed: int = 0
    validation_fraction: float = 0.2

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")


@dataclass
class Network:
    """A fitted dense network.

    ``weights[k]`` maps width(k) -> width(k+1) as ``x @ W + b``; the chain
    starts at ``spec.input_dim`` and ends at one output unit.  Inputs are
    standardized per feature with the persisted (shift, scale) pairs
    before the first affine map.
    """

    spec: NetworkSpec
    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    shift: np.ndarray = None
    scale: np.ndarray = None

    def __post_init__(self):
        widths = self.spec.widths
        if len(self.weights) != len(widths) - 1 or len(self.biases) != len(widths) - 1:
            raise ValueError("layer count does not match spec")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (widths[k], widths[k + 1]) or b.shape != (widths[k + 1],):
                raise ValueError(f"layer {k} shape mismatch: {w.shape}, {b.shape}")
        if self.shift is None:
            self.shift = np.zeros(self.spec.input_dim)
        if self.scale is None:
            self.scale = np.ones(self.spec.input_dim)
        self.shift = np.asarray(self.shift, dtype=np.float64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.shift.shape != (self.spec.input_dim,) or self.scale.shape != (self.spec.input_dim,):
            raise ValueError("standardizer shape mismatch")
        if np.any(self.scale <= 0):
            raise ValueError("standardizer scales must be strictly positive")

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.shift) / self.scale

    def linear_predictor(self, features: np.ndarray) -> np.ndarray:
        """Linear predictors (final pre-activations) of a (rows, input_dim)
        batch, inference mode."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ValueError(
                f"expected rows of {self.spec.input_dim} features, got shape {x.shape}"
            )
        a = self._standardize(x)
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w + b
            if k < last:
                np.maximum(a, 0.0, out=a)
        return a[:, 0]


def bce_loss(linear_predictors, labels) -> float:
    """Mean negative Bernoulli log-likelihood, evaluated on logits.

    Uses max(z,0) - z*y + log1p(exp(-|z|)), which stays finite for any
    predictor magnitude.
    """
    z = np.asarray(linear_predictors, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if z.shape != y.shape:
        raise ValueError("predictors and labels must have equal length")
    _check_binary(y)
    return float(_bce_mean(z, y))


def mse_loss(predictions, targets) -> float:
    """Mean squared error."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError("predictions and targets must have equal length")
    return float(_mse_mean(p, t))


def _check_binary(y: np.ndarray) -> None:
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("labels must be binary")


def _bce_mean(z: np.ndarray, y: np.ndarray):
    return np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z))))


def _mse_mean(p: np.ndarray, t: np.ndarray):
    return np.mean((p - t) ** 2)


def _unpack(data):
    if isinstance(data, tuple):
        features, labels = data
    else:
        features, labels = data.features, data.labels
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if x.ndim == 1:
        x = x[:, None]
    return x, y


def _init_params(spec: NetworkSpec, gen: np.random.Generator):
    # He-uniform on ReLU layers, Glorot-uniform on the head.
    widths = spec.widths
    weights, biases = [], []
    for k in range(len(widths) - 1):
        fan_in, fan_out = widths[k], widths[k + 1]
        if k < len(widths) - 2:
            limit = np.sqrt(6.0 / fan_in)
        else:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(gen.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _flat_views(widths, buffer: np.ndarray):
    """Per-layer weight and bias views of one flat float64 buffer."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(buffer[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(buffer[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def _forward_train(net: Network, x_std: np.ndarray, gen: np.random.Generator | None):
    """Training-mode forward pass on standardized inputs.

    Applies inverted dropout to hidden activations when ``gen`` is given
    and the spec has a positive rate.  Returns the cache backprop needs:
    the post-dropout activations and one boolean keep-mask (or None) per
    hidden layer.
    """
    rate = net.spec.dropout_rate
    dropout = gen is not None and rate > 0.0
    inv_keep = 1.0 / (1.0 - rate)
    acts = [x_std]
    masks = []
    a = x_std
    last = len(net.weights) - 1
    for k in range(last):
        a = a @ net.weights[k]
        a += net.biases[k]
        np.maximum(a, 0.0, out=a)
        keep = None
        if dropout:
            keep = gen.random(a.shape) >= rate
            a *= keep
            a *= inv_keep
        masks.append(keep)
        acts.append(a)
    z_out = (a @ net.weights[last] + net.biases[last])[:, 0]
    return z_out, acts, masks


def _backprop(net: Network, acts, masks, dz_out: np.ndarray, out=None):
    """Gradients of the batch loss w.r.t. every weight and bias.

    ``dz_out`` is dL/d(final pre-activation), shape (batch,).  ReLU
    subgradient at exactly 0 is taken as 0 (activation > 0 test).  With
    ``out = (g_w, g_b)``, lists of arrays shaped like the weights and
    biases, the gradients are written into them.
    """
    if out is None:
        out = ([np.empty_like(w) for w in net.weights], [np.empty_like(b) for b in net.biases])
    g_w, g_b = out
    inv_keep = 1.0 / (1.0 - net.spec.dropout_rate)
    last = len(net.weights) - 1
    delta = dz_out[:, None]
    np.matmul(acts[last].T, delta, out=g_w[last])
    np.add.reduce(delta, axis=0, out=g_b[last])
    da = delta @ net.weights[last].T
    for k in range(last - 1, -1, -1):
        if masks[k] is not None:
            da *= masks[k]
            da *= inv_keep
        da *= acts[k + 1] > 0.0
        np.matmul(acts[k].T, da, out=g_w[k])
        np.add.reduce(da, axis=0, out=g_b[k])
        if k > 0:
            da = da @ net.weights[k].T
    return g_w, g_b


def train(spec: NetworkSpec, data, config: TrainConfig) -> Network:
    """Mini-batch Adam training of ``spec`` on labeled examples.

    The standardizer is computed from the training features and stored
    in the returned model.  Raises :class:`TrainingDivergedError` on
    non-finite inputs or loss, and ValueError on non-binary classifier
    labels.
    """
    x, y = _unpack(data)
    if x.size == 0:
        raise ValueError("training data is empty")
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"feature dimension {x.shape[1]} != spec input_dim {spec.input_dim}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise TrainingDivergedError("non-finite training data", epoch=0)
    classifier = spec.head == HEAD_CLASSIFIER
    if classifier:
        _check_binary(y)

    shift = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    x_std = (x - shift) / scale

    gen = np.random.Generator(np.random.Philox(key=config.seed))
    params = np.empty(spec.n_params())
    weights, biases = _flat_views(spec.widths, params)
    init_weights, init_biases = _init_params(spec, gen)
    for view, init in zip(weights + biases, init_weights + init_biases):
        view[...] = init
    net = Network(spec=spec, weights=weights, biases=biases, shift=shift, scale=scale)

    grads = np.empty_like(params)
    grad_views = _flat_views(spec.widths, grads)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step_buf = np.empty_like(params)
    denom_buf = np.empty_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = config.learning_rate
    step = 0

    n = x_std.shape[0]
    for epoch in range(config.epochs):
        order = gen.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = x_std[idx], y[idx]
            z, acts, masks = _forward_train(net, xb, gen)
            if classifier:
                batch_loss = _bce_mean(z, yb)
                dz = (expit(z) - yb) / idx.size
            else:
                batch_loss = _mse_mean(z, yb)
                dz = 2.0 * (z - yb) / idx.size
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError("loss diverged", epoch=epoch)
            _backprop(net, acts, masks, dz, out=grad_views)
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
            # params -= lr*(m/corr1) / (sqrt(v/corr2) + eps)
            m *= beta1
            np.multiply(grads, 1.0 - beta1, out=step_buf)
            m += step_buf
            v *= beta2
            np.multiply(grads, 1.0 - beta2, out=step_buf)
            step_buf *= grads
            v += step_buf
            np.divide(m, corr1, out=step_buf)
            step_buf *= lr
            np.divide(v, corr2, out=denom_buf)
            np.sqrt(denom_buf, out=denom_buf)
            denom_buf += eps
            step_buf /= denom_buf
            params -= step_buf
    return net


def _loss_of(net: Network, x_std: np.ndarray, y: np.ndarray) -> float:
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


def gradient_check(spec: NetworkSpec, features, label, seed: int = 1234) -> float:
    """Max relative error between backprop and central finite differences.

    Dropout is disabled; the step is 1e-6 and the normalizer is
    |analytic| + |fd| + 1e-12.  The probe network uses positively
    coupled, layer-scaled weights so no ReLU sits near its kink and no
    gradient is driven to the float64 rounding floor by path
    cancellation; parameters whose gradients are nevertheless small are
    re-differenced in extended precision.
    """
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
            up = _loss_of(net, x, y)
            p[ix] = orig - h
            dn = _loss_of(net, x, y)
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


def save(net: Network) -> str:
    """Serialize to a versioned JSON document with exact float encoding."""
    doc = {
        "format": _DOCUMENT_FORMAT,
        "version": _DOCUMENT_VERSION,
        "spec": {
            "input_dim": net.spec.input_dim,
            "hidden_layers": list(net.spec.hidden_layers),
            "head": net.spec.head,
            "dropout_rate": net.spec.dropout_rate,
        },
        "standardizer": {
            "shift": net.shift.tolist(),
            "scale": net.scale.tolist(),
        },
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()}
            for w, b in zip(net.weights, net.biases)
        ],
    }
    return json.dumps(doc)


def load(document: str) -> Network:
    """Rebuild a Network from :func:`save` output.

    Raises ValueError on version or shape inconsistencies.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValueError(f"unparseable model document: {exc}") from exc
    if doc.get("format") != _DOCUMENT_FORMAT:
        raise ValueError("not a model document")
    if doc.get("version") != _DOCUMENT_VERSION:
        raise ValueError(f"unsupported model document version {doc.get('version')}")
    try:
        spec = NetworkSpec(
            input_dim=doc["spec"]["input_dim"],
            hidden_layers=tuple(doc["spec"]["hidden_layers"]),
            head=doc["spec"]["head"],
            dropout_rate=doc["spec"]["dropout_rate"],
        )
        weights = [np.asarray(layer["weights"], dtype=np.float64) for layer in doc["layers"]]
        biases = [np.asarray(layer["bias"], dtype=np.float64) for layer in doc["layers"]]
        net = Network(
            spec=spec,
            weights=weights,
            biases=biases,
            shift=np.asarray(doc["standardizer"]["shift"], dtype=np.float64),
            scale=np.asarray(doc["standardizer"]["scale"], dtype=np.float64),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    return net
