"""Dense network math for the two classifier architectures.

Implements exactly two models: a linear map (W x + b) and a single tanh
hidden layer (W2 tanh(W1 x + b1) + b2).  Networks emit logits; softmax is
max-shifted for numerical stability, and prediction is argmax of the logits
(equivalent to argmax of the softmax).  Labels are class indices, checked by
:func:`checked_labels`.  Gradients are analytic; the optimizer is standard
Adam with bias correction.  All math is float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Union

import numpy as np

from . import seeding
from .jsonfile import checked, read_json, write_json

ARCH_LINEAR = "linear"
ARCH_HIDDEN_TANH = "hidden_tanh"
ARCHS = (ARCH_LINEAR, ARCH_HIDDEN_TANH)

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def _bind_flat(params: NetworkParams) -> None:
    """Copy the fields into one finite float64 buffer, ``params.flat``, and
    rebind each field as a view into it."""
    arrays = [np.asarray(getattr(params, f.name), dtype=np.float64) for f in fields(params)]
    params.flat = np.concatenate([a.ravel() for a in arrays])
    offset = 0
    for f, a in zip(fields(params), arrays):
        setattr(params, f.name, params.flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    if not np.isfinite(params.flat).all():
        raise ValueError("parameters must be finite")


def _rebuild(params: NetworkParams) -> tuple:
    # copy, deepcopy and pickle rebuild through the constructor, so a copy's
    # fields are views of its own ``flat``, not arrays cut loose from it.
    return type(params), tuple(getattr(params, f.name) for f in fields(params))


@dataclass
class LinearParams:
    """Weights (n_classes x n_channels) and bias (n_classes,), views into ``flat``."""

    weights: np.ndarray
    bias: np.ndarray

    arch = ARCH_LINEAR
    __reduce__ = _rebuild

    def __post_init__(self):
        _bind_flat(self)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"inconsistent shapes: weights {self.weights.shape}, bias {self.bias.shape}"
            )

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_channels(self) -> int:
        return self.weights.shape[1]


@dataclass
class HiddenTanhParams:
    """Parameters of the single-hidden-layer tanh network, views into ``flat``."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    arch = ARCH_HIDDEN_TANH
    __reduce__ = _rebuild

    def __post_init__(self):
        _bind_flat(self)
        width = self.w1.shape[0] if self.w1.ndim == 2 else -1
        ok = (
            self.w1.ndim == 2
            and self.b1.shape == (width,)
            and self.w2.ndim == 2
            and self.w2.shape[1] == width
            and self.b2.shape == (self.w2.shape[0],)
        )
        if not ok:
            raise ValueError(
                "inconsistent shapes: "
                f"w1 {self.w1.shape}, b1 {self.b1.shape}, w2 {self.w2.shape}, b2 {self.b2.shape}"
            )

    @property
    def width(self) -> int:
        return self.w1.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[0]

    @property
    def n_channels(self) -> int:
        return self.w1.shape[1]


NetworkParams = Union[LinearParams, HiddenTanhParams]


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=(fan_out, fan_in))


def init_params(
    arch: str,
    n_channels: int,
    n_classes: int,
    seed: int,
    width: int = 64,
) -> NetworkParams:
    """Uniform Glorot weights, zero biases, deterministic per seed."""
    if n_channels < 1 or n_classes < 1:
        raise ValueError(f"need positive dimensions, got {n_channels} x {n_classes}")
    rng = seeding.rng(seed)
    if arch == ARCH_LINEAR:
        return LinearParams(_glorot(rng, n_classes, n_channels), np.zeros(n_classes))
    if arch == ARCH_HIDDEN_TANH:
        if width < 1:
            raise ValueError(f"hidden width must be positive, got {width}")
        w1 = _glorot(rng, width, n_channels)
        w2 = _glorot(rng, n_classes, width)
        return HiddenTanhParams(w1, np.zeros(width), w2, np.zeros(n_classes))
    raise ValueError(f"unknown architecture {arch!r}")


def _check_input(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.n_channels:
        raise ValueError(f"input has {x.shape[-1]} channels, model expects {params.n_channels}")
    return x


def forward_linear(params: LinearParams, x: np.ndarray) -> np.ndarray:
    """Logits W x + b; accepts one input vector or a (n, channels) batch."""
    if not isinstance(params, LinearParams):
        raise ValueError("forward_linear requires linear-architecture parameters")
    x = _check_input(params, x)
    return x @ params.weights.T + params.bias


def forward_hidden(params: HiddenTanhParams, x: np.ndarray) -> np.ndarray:
    """Logits W2 tanh(W1 x + b1) + b2; accepts a vector or a batch."""
    if not isinstance(params, HiddenTanhParams):
        raise ValueError("forward_hidden requires hidden-architecture parameters")
    x = _check_input(params, x)
    hidden = x @ params.w1.T
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    logits = hidden @ params.w2.T
    logits += params.b2
    return logits


def forward(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    if isinstance(params, LinearParams):
        return forward_linear(params, x)
    return forward_hidden(params, x)


def checked_labels(labels, n: int, n_classes: int) -> np.ndarray:
    """``labels`` as an intp copy, checked as ``n`` class indices in ``[0, n_classes)``."""
    labels = np.asarray(labels)
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be {n} class indices, got {labels.dtype} {labels.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must be class indices in [0, {n_classes})")
    return labels.astype(np.intp)


# The class-axis reductions below walk the few class columns of an (n, k)
# matrix and match numpy's ``max``/``sum``/``argmax`` over the last axis bit
# for bit while k < 8: numpy sums fewer than 8 cells left to right from +0.0,
# and 8 or more in 8 partial sums.  Every task has fewer than 8 classes.


def _row_max(x: np.ndarray) -> np.ndarray:
    """``np.max(x, axis=-1)`` of an (n, k) matrix, one column at a time."""
    top = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        np.maximum(top, x[:, j], out=top)
    return top


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, axis=-1)`` of an (n, k) matrix, one column at a time."""
    total = np.zeros(x.shape[0])
    for j in range(x.shape[1]):
        total += x[:, j]
    return total


def _row_argmax(x: np.ndarray) -> np.ndarray:
    """``np.argmax(x, axis=-1)`` of an (n, k) matrix: each row's first maximum."""
    top, index = x[:, 0].copy(), np.zeros(x.shape[0], dtype=np.intp)
    for j in range(1, x.shape[1]):
        np.copyto(index, j, where=x[:, j] > top)
        np.maximum(top, x[:, j], out=top)
    return index


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis of one logit vector or a batch."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    rows = logits.reshape(-1, logits.shape[-1])
    expz = np.exp(rows - _row_max(rows)[:, None])
    expz /= _row_sum(expz)[:, None]
    return expz.reshape(logits.shape)


def cross_entropy(probs: np.ndarray, labels) -> float:
    """-log probability of the true class, given one vector and its class index
    or an ``(n, classes)`` batch and ``n`` class indices; mean over a batch.

    The picked probability is floored at 1e-12 so a confidently wrong
    prediction yields a large finite loss instead of infinity.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim == 1:
        probs, labels = probs[None, :], labels[None]
    if probs.ndim != 2:
        raise ValueError(f"probs must be one vector or a batch, got shape {probs.shape}")
    labels = checked_labels(labels, probs.shape[0], probs.shape[1])
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


def _zeros_like(params: NetworkParams) -> NetworkParams:
    """A container of ``params``' type and shapes over a new zero buffer."""
    return type(params)(*(np.zeros_like(getattr(params, f.name)) for f in fields(params)))


def _gradients_into(
    grads: NetworkParams, params: NetworkParams, x: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Write the gradients of the mean loss over the rows ``(x, labels)`` into
    ``grads``' fields, views of ``grads.flat``; return the probabilities.

    Unchecked: ``x`` is a float64 ``(n, channels)`` batch, ``labels`` its
    ``n`` class indices and ``grads`` of ``params``' type.
    Logits that overflow raise ``ValueError`` (from :func:`softmax`).
    """
    # The output layer is linear over ``y1``: the input, or the tanh hidden layer.
    linear = isinstance(params, LinearParams)
    y1 = x if linear else np.tanh(x @ params.w1.T + params.b1)
    w_out, b_out = (params.weights, params.bias) if linear else (params.w2, params.b2)
    probs = softmax(y1 @ w_out.T + b_out)
    dlogits = probs.copy()  # (probs - one_hot) / n bit for bit, as p - 0.0 == p
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)
    np.matmul(dlogits.T, y1, out=grads.weights if linear else grads.w2)
    np.sum(dlogits, axis=0, out=grads.bias if linear else grads.b2)
    if not linear:
        dz1 = (dlogits @ params.w2) * (1.0 - y1 * y1)
        np.matmul(dz1.T, x, out=grads.w1)
        np.sum(dz1, axis=0, out=grads.b1)
    return probs


def backward(params: NetworkParams, x: np.ndarray, labels):
    """Loss and analytic gradients of mean softmax cross-entropy.

    Accepts one input vector with one class index, or an ``(n, channels)``
    batch with ``n`` class indices; gradients are of the mean loss, so batch
    and single-item conventions agree at n = 1.
    """
    x = _check_input(params, x)
    labels = np.asarray(labels)
    if x.ndim == 1:
        x, labels = x[None, :], labels[None]
    labels = checked_labels(labels, x.shape[0], params.n_classes)
    grads = _zeros_like(params)
    probs = _gradients_into(grads, params, x, labels)
    loss = cross_entropy(probs, labels)
    if not np.isfinite(grads.flat).all():
        raise ValueError("parameters must be finite")
    return loss, grads


@dataclass
class AdamState:
    """First/second moment estimates (flat, like ``params.flat``) and step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    hyper: AdamHyper = field(default_factory=AdamHyper)


def init_adam(params: NetworkParams, hyper: AdamHyper | None = None) -> AdamState:
    return AdamState(
        m=np.zeros_like(params.flat),
        v=np.zeros_like(params.flat),
        t=0,
        hyper=hyper or AdamHyper(),
    )


def _adam_update(theta: np.ndarray, g: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat ``theta`` and ``state`` in place; unchecked.

    Each operation writes into one of two scratch buffers, so the update
    allocates two arrays where the plain expressions would allocate nine.
    The operations and their order are those of

        m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g * g
        theta -= lr * m_hat / (sqrt(v_hat) + epsilon)
    """
    h = state.hyper
    state.t += 1
    a, b = np.empty_like(g), np.empty_like(g)
    state.m *= h.beta1
    state.m += np.multiply(g, 1.0 - h.beta1, out=a)
    state.v *= h.beta2
    np.multiply(g, g, out=a)
    state.v += np.multiply(a, 1.0 - h.beta2, out=a)
    m_hat = np.divide(state.m, 1.0 - h.beta1**state.t, out=a)
    denom = np.divide(state.v, 1.0 - h.beta2**state.t, out=b)
    np.sqrt(denom, out=denom)
    denom += h.epsilon
    step = np.multiply(m_hat, h.learning_rate, out=m_hat)
    step /= denom
    theta -= step


def adam_step(
    params: NetworkParams,
    grads: NetworkParams,
    state: AdamState,
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update of ``params`` and ``state`` in place; returns both."""
    if type(grads) is not type(params):
        raise ValueError(f"{params.arch} parameters need {params.arch} gradients, got {grads.arch}")
    for f in fields(params):
        theta, g = getattr(params, f.name), getattr(grads, f.name)
        if theta.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {theta.shape}")
    _adam_update(params.flat, grads.flat, state)
    return params, state


def save_model(path: str | Path, params: NetworkParams, train_config: dict | None = None) -> None:
    """Write a compact model JSON, one array per parameter field; floats round-trip exactly."""
    doc: dict = {
        "arch": params.arch,
        "n_channels": params.n_channels,
        "n_classes": params.n_classes,
        **{f.name: getattr(params, f.name).tolist() for f in fields(params)},
    }
    if isinstance(params, HiddenTanhParams):
        doc["width"] = params.width
    if train_config is not None:
        doc["train_config"] = train_config
    write_json(path, doc, indent=None)


# Each architecture's parameter type and the typed example of its model.json arrays.
_MODEL_ARRAYS = {
    ARCH_LINEAR: (LinearParams, {"weights": [[0.0]], "bias": [0.0]}),
    ARCH_HIDDEN_TANH: (HiddenTanhParams, {"w1": [[0.0]], "b1": [0.0], "w2": [[0.0]], "b2": [0.0]}),
}


def load_model(path: str | Path) -> tuple[NetworkParams, dict]:
    """Read a model JSON back; returns (params, train_config dict).

    Every array cell must be a float, else the error names its dotted key;
    the parameter constructor then checks the shapes.  A ``train_config``
    must be an object; a model without one has ``{}``.  Any error names the file.
    """
    doc = read_json(path, {"arch": ""})
    if doc["arch"] not in _MODEL_ARRAYS:
        raise ValueError(f"{path}: arch: unknown architecture {doc['arch']!r}")
    params_type, example = _MODEL_ARRAYS[doc["arch"]]
    try:
        arrays = checked(doc, example)
        params = params_type(*(arrays[f.name] for f in fields(params_type)))
        train_config = checked(doc.get("train_config", {}), {}, "train_config")
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"{path}: {err}") from err
    return params, train_config
