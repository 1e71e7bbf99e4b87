"""Minimal MLP engine: explicit forward/backward, Adam, LR schedule, losses.

Parameters are stored in float32; loss reductions accumulate in float64.
All randomness (init, dropout) flows through an explicit numpy Generator
so single-threaded training is bit-reproducible.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from frameport.errors import (
    CacheMismatch,
    ConfigError,
    DimensionMismatch,
    LabelOutOfRange,
)

RELU = "relu"
LEAKY_RELU = "leaky-relu"


@dataclass
class Mlp:
    """Fully connected layers with one activation between them.

    The activation (and dropout, in train mode) applies to every layer
    output except the last, which stays linear.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = RELU
    leaky_slope: float = 0.01
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.activation not in (RELU, LEAKY_RELU):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.leaky_slope < 1.0:
            # the max-based activation and gradient need a slope in [0, 1)
            raise ConfigError(f"leaky slope {self.leaky_slope} outside [0, 1)")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ConfigError("weights and biases must pair up")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise DimensionMismatch(f"bad layer shapes {w.shape} / {b.shape}")
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if prev.shape[1] != nxt.shape[0]:
                raise DimensionMismatch(
                    f"layer dims do not chain: {prev.shape} -> {nxt.shape}"
                )

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @classmethod
    def create(
        cls,
        dims: Sequence[int],
        activation: str = RELU,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
        leaky_slope: float = 0.01,
        dtype=np.float32,
        bias_scale: float = 0.0,
    ) -> "Mlp":
        """Xavier-uniform weights; biases zero, or uniform when bias_scale > 0.

        A nonzero ``bias_scale`` keeps pre-activations away from the exact
        activation kink, which matters for finite-difference checks.
        """
        if len(dims) < 2:
            raise ConfigError("an MLP needs at least input and output dims")
        rng = rng or np.random.default_rng(0)
        weights = []
        biases = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(
                rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)
            )
            if bias_scale > 0.0:
                biases.append(
                    rng.uniform(-bias_scale, bias_scale, size=fan_out).astype(dtype)
                )
            else:
                biases.append(np.zeros(fan_out, dtype=dtype))
        return cls(
            weights=weights,
            biases=biases,
            activation=activation,
            leaky_slope=leaky_slope,
            dropout=dropout,
        )

    def parameters(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def to_dict(self) -> dict:
        return {
            "weights": [encode_array(w) for w in self.weights],
            "biases": [encode_array(b) for b in self.biases],
            "activation": self.activation,
            "leaky_slope": self.leaky_slope,
            "dropout": self.dropout,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Mlp":
        return cls(
            weights=[decode_array(w) for w in doc["weights"]],
            biases=[decode_array(b) for b in doc["biases"]],
            activation=doc["activation"],
            leaky_slope=doc["leaky_slope"],
            dropout=doc["dropout"],
        )


@dataclass
class ForwardCache:
    mlp: Mlp
    inputs: list[np.ndarray]  # input to each layer (post-dropout)
    act_grads: list[np.ndarray]  # activation derivative per hidden layer
    masks: list[np.ndarray | None]  # dropout mask per hidden layer


def _activate(mlp: Mlp, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The activation at ``z`` and its derivative there.

    For a slope in [0, 1), ``max(z, slope * z)`` equals ``z if z > 0 else
    slope * z`` bit for bit, except at ``z = +inf`` with a slope that is 0 in
    ``z``'s dtype (``0 * inf`` is NaN); ``max(z > 0, slope)`` equals
    ``1 if z > 0 else slope``.
    """
    grad = (z > 0).astype(z.dtype)
    if mlp.activation == RELU:
        return np.maximum(z, 0), grad
    np.maximum(grad, z.dtype.type(mlp.leaky_slope), out=grad)
    return np.maximum(z, mlp.leaky_slope * z), grad


def forward(
    mlp: Mlp,
    x: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Batch forward pass; the cache feeds :func:`backward`."""
    if x.ndim != 2 or x.shape[1] != mlp.dims[0]:
        raise DimensionMismatch(f"input {x.shape} does not match dims {mlp.dims}")
    use_dropout = train_mode and mlp.dropout > 0.0
    if use_dropout and rng is None:
        raise ConfigError("train-mode forward with dropout needs an rng")
    keep = 1.0 - mlp.dropout
    a = x
    inputs: list[np.ndarray] = []
    act_grads: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(a)
        z = a @ w + b
        if l == last:
            a = z
        else:
            a, grad = _activate(mlp, z)
            act_grads.append(grad)
            if use_dropout:
                mask = (rng.random(a.shape) < keep).astype(a.dtype)
                a = a * mask / keep
                masks.append(mask)
            else:
                masks.append(None)
    return a, ForwardCache(mlp=mlp, inputs=inputs, act_grads=act_grads, masks=masks)


def backward(
    mlp: Mlp,
    cache: ForwardCache,
    upstream: np.ndarray,
    param_grads: bool = True,
    input_grad: bool = True,
) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
    """Gradients for every parameter (parameters() order) plus the input.

    ``param_grads=False`` skips every weight and bias gradient (the
    ``inputs.T @ dz`` products and the ``dz`` column sums) and returns None
    in their place; ``input_grad=False`` skips the input gradient (the first
    layer's ``dz @ W.T``) and returns None for it. The activation
    derivatives come from the forward pass. Skipping one part leaves the
    other bit for bit unchanged.
    """
    if cache.mlp is not mlp:
        raise CacheMismatch("cache was produced by a different model")
    if upstream.shape != (cache.inputs[0].shape[0], mlp.dims[-1]):
        raise DimensionMismatch(f"upstream gradient has shape {upstream.shape}")
    keep = 1.0 - mlp.dropout
    reversed_grads: list[np.ndarray] = []
    dz = upstream
    dx = None
    for l in reversed(range(len(mlp.weights))):
        if param_grads:
            reversed_grads += (dz.sum(axis=0), cache.inputs[l].T @ dz)
        if l > 0:
            da = dz @ mlp.weights[l].T
            mask = cache.masks[l - 1]
            if mask is not None:
                da = da * mask / keep
            dz = da * cache.act_grads[l - 1]
        elif input_grad:
            dx = dz @ mlp.weights[0].T
    return (reversed_grads[::-1] if param_grads else None), dx


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params: Sequence[np.ndarray], **kwargs) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            **kwargs,
        )

    def to_dict(self) -> dict:
        return {
            "m": [encode_array(a) for a in self.m],
            "v": [encode_array(a) for a in self.v],
            "step": self.step,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AdamState":
        return cls(
            m=[decode_array(a) for a in doc["m"]],
            v=[decode_array(a) for a in doc["v"]],
            step=int(doc["step"]),
            beta1=doc["beta1"],
            beta2=doc["beta2"],
            eps=doc["eps"],
        )


def adam_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """Standard bias-corrected Adam update, in place."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise DimensionMismatch("parameter/gradient/state lengths differ")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise DimensionMismatch(f"grad shape {g.shape} != param shape {p.shape}")
        # the textbook update, operation for operation, in three buffers:
        # ``scratch`` has g's dtype and ``denom`` and ``update`` have m's, as
        # the textbook temporaries do, so every result rounds the same way
        scratch = (1.0 - b1) * g
        m *= b1
        m += scratch
        np.square(g, out=scratch)
        scratch *= 1.0 - b2
        v *= b2
        v += scratch
        denom = v / (1.0 - b2**t)
        np.sqrt(denom, out=denom)
        denom += state.eps
        update = m / (1.0 - b1**t)
        update *= lr
        update /= denom
        p -= update.astype(p.dtype, copy=False)


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup to the peak, then inverse square-root decay."""

    peak_lr: float
    total_steps: int
    warmup_fraction: float = 0.10

    @property
    def warmup_steps(self) -> int:
        return max(1, round(self.total_steps * self.warmup_fraction))

    def lr_at(self, step: int) -> float:
        if step < 0:
            raise ConfigError("negative step")
        w = self.warmup_steps
        if step <= w:
            return self.peak_lr * step / w
        return self.peak_lr * float(np.sqrt(w / step))


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, label_smoothing: float = 0.0
) -> tuple[float, np.ndarray]:
    """Mean smoothed cross entropy and its gradient w.r.t. the logits."""
    if logits.ndim != 2:
        raise DimensionMismatch(f"logits must be 2-d, got {logits.shape}")
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionMismatch(f"labels shape {labels.shape} != ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise LabelOutOfRange(f"labels must lie in [0, {k})")
    if not 0.0 <= label_smoothing < 1.0:
        raise ConfigError(f"label smoothing {label_smoothing} outside [0, 1)")
    # log-probabilities in one buffer, exp() and products in the other; the
    # smoothed target is c off the label and t on it, so the label entries
    # are patched after each full-size operation instead of building it
    log_probs = logits - logits.max(axis=1, keepdims=True)
    work = np.exp(log_probs)
    log_probs -= np.log(work.sum(axis=1, keepdims=True))
    c = log_probs.dtype.type(label_smoothing / k)
    t = c + log_probs.dtype.type(1.0 - label_smoothing)
    rows = np.arange(n)
    np.multiply(log_probs, c, out=work)
    work[rows, labels] = t * log_probs[rows, labels]
    loss = float(-np.sum(work, dtype=np.float64) / n)
    np.exp(log_probs, out=work)
    on_label = work[rows, labels] - t
    work -= c
    work[rows, labels] = on_label
    work /= n
    return loss, work.astype(logits.dtype, copy=False)


def binary_cross_entropy(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean single-logit BCE (numerically stable) and its logit gradient.

    ``targets`` are probabilities in [0, 1], so smoothed labels plug in
    directly.
    """
    flat = logits.reshape(-1)
    t = np.asarray(targets, dtype=flat.dtype).reshape(-1)
    if flat.shape != t.shape:
        raise DimensionMismatch(f"logits {logits.shape} vs targets {targets.shape}")
    # max(x, 0) - x * t + log(1 + exp(-|x|))
    per = np.maximum(flat, 0) - flat * t + np.log1p(np.exp(-np.abs(flat)))
    loss = float(np.sum(per, dtype=np.float64) / max(len(flat), 1))
    grad = ((sigmoid(flat) - t) / max(len(flat), 1)).reshape(logits.shape)
    return loss, grad.astype(logits.dtype, copy=False)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=np.result_type(x.dtype, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# -- array (de)serialization for checkpoints --------------------------------


def encode_array(a: np.ndarray) -> dict:
    little = a.astype(a.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": base64.b64encode(little.tobytes()).decode("ascii"),
    }


def decode_array(doc: dict) -> np.ndarray:
    dtype = np.dtype(doc["dtype"]).newbyteorder("<")
    raw = base64.b64decode(doc["data"])
    a = np.frombuffer(raw, dtype=dtype).reshape(doc["shape"])
    return a.astype(doc["dtype"]).copy()
