"""Dense feedforward network built directly on numpy.

Forward pass, per-unit binary cross-entropy cost with optional L2 penalty,
exact backpropagation, Adam updates, a deterministic mini-batch training
loop, and a compact binary model file ("BAGM1") for deployment.

The parameters have one flat layout, the BAGM1 payload order: layer by
layer, the weights row-major, then the biases; only `_param_views` knows
where a parameter lives in it. `train` keeps the parameters, their
gradients and Adam's moments in flat float64 arrays laid out this way: the
model's weights and biases are views of one, `_backward_into` writes into
views of another, and `_adam_update` updates them elementwise in place.
`export_model` writes the same order as one float32 block, and
`import_model` views the block it reads. Adam's decay rates and denominator
guard are the fixed constants `ADAM_BETA1`, `ADAM_BETA2` and `ADAM_EPSILON`.
Passes that take no gradient (the epoch loss, `evaluate`, `predict`) run
`forward_output`, which keeps one layer's activations at a time. A speed-up
of this module must keep every floating-point operation and its order, so
that exported models stay byte-identical for the same seed.

At import the module sets the OpenBLAS that numpy has loaded to one thread,
whatever the environment says: the default network's widest layer is 60
units, and a second thread doubled the CPU time of a build without making it
faster.
"""

from __future__ import annotations

import ctypes
import logging
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Normalizer, fit_normalizer

logger = logging.getLogger(__name__)

DEFAULT_LAYER_SIZES = (13, 15, 20, 25, 30, 60, 5)

# Saturated softmax outputs would send log() to -inf; clamp instead.
LOG_CLAMP = 1e-12

# Adam's decay rates for the first and second moments, and the guard added
# to the second moment's root (Kingma and Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

MODEL_MAGIC = b"BAGM"
MODEL_VERSION = 1

# OpenBLAS's thread-count setters: numpy >= 2 wheels, numpy 1.x wheels,
# distro builds
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _loaded_openblas():
    """Yield the OpenBLAS libraries already mapped into this process
    (Linux), opened without loading anything new."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        paths = ()
    for path in sorted(paths):
        try:
            yield ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:  # not a library, or unmapped since
            pass


def _one_blas_thread() -> bool:
    """Set numpy's OpenBLAS to one thread, process-wide; False when no
    loaded OpenBLAS has a known setter."""
    for lib in _loaded_openblas():
        for name in _BLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return True
    logger.debug("no loaded OpenBLAS thread setter; BLAS threads left as they are")
    return False


# once, for the whole process: OpenBLAS's thread count is global, so setting
# and restoring it around a build would race with another thread's predict
BLAS_ONE_THREAD = _one_blas_thread()


class ModelFormatError(Exception):
    """Base class for model file problems."""


class BadMagic(ModelFormatError):
    pass


class UnsupportedVersion(ModelFormatError):
    pass


class TruncatedStream(ModelFormatError):
    pass


class ShapeMismatch(ModelFormatError):
    pass


class BadModelChecksum(ModelFormatError):
    pass


class BadClassName(ModelFormatError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths of the network; hidden layers are ReLU, output is softmax."""

    layer_sizes: tuple = DEFAULT_LAYER_SIZES

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 3:
            raise ValueError("need input, at least one hidden, and output layer")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def input_width(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_width(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 10
    lam: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")


@dataclass
class ModelParams:
    """Weights, biases, and the feature normalizer baked in at training time.

    weights[l] has shape (s_{l+1}, s_l); biases[l] has length s_{l+1}.
    """

    weights: list
    biases: list
    normalizer: Normalizer

    @property
    def layer_sizes(self) -> tuple:
        return tuple([self.weights[0].shape[1]] + [w.shape[0] for w in self.weights])


@dataclass
class AdamState:
    """Step count and moment estimates, each shaped like the parameter
    array they update."""

    t: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros_like(cls, p: np.ndarray) -> "AdamState":
        return cls(0, np.zeros_like(p), np.zeros_like(p))


@dataclass
class TrainReport:
    epoch_losses: list
    train_accuracy: float
    test_accuracy: float | None
    confusion: np.ndarray


def _relu_inplace(z):
    """Elementwise max(z, 0), computed in place in the float array z."""
    return np.maximum(z, 0.0, out=z)


def _softmax_inplace(z):
    """Softmax over the last axis, computed in place in the float array z
    (max-subtracted, so large logits do not overflow)."""
    if z.size == 0:
        raise ValueError("softmax input must be non-empty")
    if not np.isfinite(z).all():
        raise ValueError("softmax input must be finite")
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def init_params(spec: ModelSpec, rng: np.random.Generator,
                normalizer: Normalizer | None = None) -> ModelParams:
    """He-style uniform init for hidden layers from the given generator;
    the output layer and all biases start at zero so the short default
    training budget goes into learning a clean readout."""
    weights, biases = [], []
    sizes = spec.layer_sizes
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        if i == len(sizes) - 2:
            weights.append(np.zeros((fan_out, fan_in)))
        else:
            limit = np.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    if normalizer is None:
        normalizer = Normalizer(np.zeros(sizes[0]), np.ones(sizes[0]))
    return ModelParams(weights, biases, normalizer)


def _input(params: ModelParams, x):
    """x as a float array, checked against the model's input width."""
    a = np.asarray(x, dtype=float)
    if a.shape[-1] != params.weights[0].shape[1]:
        raise ValueError(
            f"feature width {a.shape[-1]} != model input width "
            f"{params.weights[0].shape[1]}")
    return a


def _layer(a, w, b, output: bool):
    """One layer's activation from the previous one, in a fresh array: ReLU
    for a hidden layer, softmax for the output layer."""
    z = a @ w.T
    z += b
    return _softmax_inplace(z) if output else _relu_inplace(z)


def forward(params: ModelParams, x):
    """Return the per-layer activations; the last entry is the output vector.

    Expects already-normalized features. Accepts a single vector or a
    (batch, width) matrix.
    """
    a = _input(params, x)
    activations = [a]
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = _layer(a, w, b, l == last)
        activations.append(a)
    return activations


def forward_output(params: ModelParams, x):
    """`forward(params, x)[-1]`, the same bits, without keeping every
    layer's activations; for passes that take no gradient."""
    a = _input(params, x)
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = _layer(a, w, b, l == last)
    return a


def _loss(params: ModelParams, probs, y, lam: float) -> float:
    """Per-unit binary cross-entropy of the network outputs probs of a
    non-empty batch against its one-hot labels y, plus an L2 penalty on
    weights (biases excluded); probs is left as it was."""
    m = probs.shape[0]
    p = np.clip(probs, LOG_CLAMP, 1.0 - LOG_CLAMP)
    total = -np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)) / m
    if lam:
        total += lam / (2.0 * m) * sum(float(np.sum(w * w))
                                       for w in params.weights)
    return float(total)


def _param_views(flat, sizes):
    """The weights and the biases of a network with these layer sizes, as
    views into the flat array that holds them in BAGM1 payload order: layer
    by layer, the weights row-major, then the biases."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = start + fan_out * fan_in
        weights.append(flat[start:end].reshape(fan_out, fan_in))
        biases.append(flat[end:end + fan_out])
        start = end + fan_out
    return weights, biases


def _flat_params(params: ModelParams) -> list:
    """Each parameter array flattened, in `_param_views` order."""
    return [a.ravel() for layer in zip(params.weights, params.biases)
            for a in layer]


def _backward_into(params: ModelParams, x, y, lam: float, grad_w, grad_b):
    """Analytic gradient of `_loss` for every weight and bias, for a
    non-empty batch, written into grad_w and grad_b shaped like the
    parameters."""
    m = x.shape[0]
    activations = forward(params, x)
    p = activations[-1]
    pc = np.clip(p, LOG_CLAMP, 1.0 - LOG_CLAMP)
    # d(data loss)/dp, then through the softmax Jacobian.
    g_p = -(y / pc - (1.0 - y) / (1.0 - pc)) / m
    dz = p * (g_p - (g_p * p).sum(axis=1, keepdims=True))

    for l in range(len(params.weights) - 1, -1, -1):
        np.matmul(dz.T, activations[l], out=grad_w[l])
        if lam:
            grad_w[l] += (lam / m) * params.weights[l]
        dz.sum(axis=0, out=grad_b[l])
        if l > 0:
            dz = dz @ params.weights[l]
            dz *= activations[l] > 0


def _adam_update(p, g, state: AdamState, learning_rate: float):
    """One bias-corrected Adam update of the parameter array p, in place,
    given the gradient g shaped like it; mutates state too. Adam is
    elementwise, so updating all arrays laid end to end gives the same bits
    as updating each array in turn."""
    # in place: at the default network's 4000 parameters the textbook
    # form, with its temporaries, took 43 us per call against 38 us
    state.t += 1
    b1, b2, m, v = ADAM_BETA1, ADAM_BETA2, state.m, state.v
    m *= b1
    m += (1 - b1) * g
    gg = (1 - b2) * g
    gg *= g
    v *= b2
    v += gg
    m_hat = m / (1 - b1 ** state.t)
    v_hat = v / (1 - b2 ** state.t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPSILON
    m_hat *= learning_rate
    m_hat /= v_hat
    p -= m_hat


def train(train_set: Dataset, spec: ModelSpec, hyper: Hyperparams,
          test_set: Dataset | None = None):
    """Mini-batch Adam training; deterministic given (dataset, spec, hyper).

    Fits a z-score normalizer on the training set and stores it on the model.
    Returns (ModelParams, TrainReport); the confusion matrix in the report is
    computed on test_set when given, else on the training set.
    """
    if len(train_set) == 0:
        raise ValueError("empty training set")
    if train_set.features.shape[1] != spec.input_width:
        raise ValueError(
            f"dataset width {train_set.features.shape[1]} != spec input "
            f"width {spec.input_width}")

    norm = fit_normalizer(train_set)
    x_all = norm.apply(train_set.features)
    y_all = np.eye(spec.output_width)[train_set.labels]

    rng = np.random.default_rng(hyper.seed)
    params = init_params(spec, rng, normalizer=norm)
    flat = np.concatenate(_flat_params(params))
    params.weights, params.biases = _param_views(flat, spec.layer_sizes)
    flat_grads = np.empty_like(flat)
    grad_w, grad_b = _param_views(flat_grads, spec.layer_sizes)
    state = AdamState.zeros_like(flat)

    n = len(train_set)
    epoch_losses = []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            _backward_into(params, x_all[idx], y_all[idx], hyper.lam,
                           grad_w, grad_b)
            _adam_update(flat, flat_grads, state, hyper.learning_rate)
        probs = forward_output(params, x_all)
        epoch_losses.append(_loss(params, probs, y_all, hyper.lam))

    # the last epoch's outputs are those evaluate would compute again
    train_acc, confusion = _score(probs.argmax(axis=1), train_set.labels,
                                  spec.output_width)
    test_acc = None
    if test_set is not None:
        test_acc, confusion = evaluate(params, test_set)
    return params, TrainReport(epoch_losses, train_acc, test_acc, confusion)


def predict(params: ModelParams, raw_features):
    """Classify one raw (un-normalized) feature vector.

    Returns (class index, probability vector); argmax ties break toward the
    lowest class index.
    """
    x = np.asarray(raw_features, dtype=float)
    if x.ndim != 1 or x.shape[0] != params.weights[0].shape[1]:
        raise ValueError("feature width mismatch")
    probs = forward_output(params, params.normalizer.apply(x))
    return int(np.argmax(probs)), probs


def evaluate(params: ModelParams, dataset: Dataset):
    """Accuracy and confusion matrix (rows = true class, cols = predicted)."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    x = params.normalizer.apply(dataset.features)
    probs = forward_output(params, x)
    return _score(probs.argmax(axis=1), dataset.labels, probs.shape[-1])


def _score(preds, labels, k: int):
    """`evaluate` from the predicted and true labels of k classes."""
    confusion = np.bincount(labels * k + preds, minlength=k * k).reshape(k, k)
    return float(np.trace(confusion)) / len(labels), confusion


def export_model(params: ModelParams, spec: ModelSpec, vocabulary) -> bytes:
    """Serialize to the BAGM1 binary format (f32 payload, CRC32 trailer)."""
    sizes = spec.layer_sizes
    if tuple(params.layer_sizes) != sizes:
        raise ShapeMismatch("params do not match spec layer sizes")
    names = list(vocabulary)
    if len(names) != spec.output_width:
        raise ShapeMismatch("class count does not match output width")
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack("<BB", MODEL_VERSION, len(sizes))
    out += struct.pack(f"<{len(sizes)}I", *sizes)
    out += struct.pack("<B", len(names))
    for name in names:
        raw = name.encode("utf-8")
        out += struct.pack("<B", len(raw)) + raw
    payload = [params.normalizer.mean, params.normalizer.std]
    out += np.concatenate(payload + _flat_params(params)).astype("<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedStream(f"need {n} bytes at offset {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk


def import_model(data: bytes):
    """Parse a BAGM1 stream; returns (ModelParams, ModelSpec, vocabulary)."""
    if len(data) < 4:
        raise TruncatedStream("stream shorter than magic")
    if data[:4] != MODEL_MAGIC:
        raise BadMagic(f"bad magic {data[:4]!r}")
    if len(data) < 8:
        raise TruncatedStream("stream too short for header")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise BadModelChecksum("CRC32 mismatch")

    r = _Reader(data[:-4])
    r.take(4)  # magic
    version, n_layers = struct.unpack("<BB", r.take(2))
    if version != MODEL_VERSION:
        raise UnsupportedVersion(f"version {version}")
    if n_layers < 3:
        raise ShapeMismatch("need at least 3 layers")
    sizes = struct.unpack(f"<{n_layers}I", r.take(4 * n_layers))
    if min(sizes) < 1:
        raise ShapeMismatch(f"layer sizes {sizes} must be positive")
    (k,) = struct.unpack("<B", r.take(1))
    if k != sizes[-1]:
        raise ShapeMismatch(f"class count {k} != output width {sizes[-1]}")
    names = []
    for _ in range(k):
        (n,) = struct.unpack("<B", r.take(1))
        try:
            names.append(r.take(n).decode("utf-8"))
        except UnicodeDecodeError as e:
            raise BadClassName(f"class name is not UTF-8: {e}") from None
    width = sizes[0]
    mean = np.frombuffer(r.take(4 * width), dtype="<f4").astype(float)
    std = np.frombuffer(r.take(4 * width), dtype="<f4").astype(float)
    if np.any(std <= 0):
        raise ShapeMismatch("normalizer stddev must be positive")
    count = sum(fan_out * (fan_in + 1)
                for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    flat = np.frombuffer(r.take(4 * count), dtype="<f4").astype(float)
    if r.pos != len(r.data):
        raise ShapeMismatch(f"{len(r.data) - r.pos} trailing bytes")
    params = ModelParams(*_param_views(flat, sizes), Normalizer(mean, std))
    return params, ModelSpec(sizes), tuple(names)
