"""Neural primitives: forward/backward against finite differences,
losses against closed forms, Adam against a hand-rolled reference."""

from __future__ import annotations

import math

import numpy as np
import pytest

from frameport import nn as fnn
from frameport.errors import (
    CacheMismatch,
    ConfigError,
    DimensionMismatch,
    LabelOutOfRange,
)
from helpers import FD_EPS, fd_gradients, random_mlp, rel_error, to_f64


def test_create_shapes_and_chaining():
    rng = np.random.default_rng(0)
    mlp = fnn.Mlp.create([4, 8, 3], activation=fnn.RELU, dropout=0.1, rng=rng)
    assert mlp.dims == (4, 8, 3)
    assert [w.shape for w in mlp.weights] == [(4, 8), (8, 3)]
    assert [b.shape for b in mlp.biases] == [(8,), (3,)]
    assert all(w.dtype == np.float32 for w in mlp.weights)
    with pytest.raises(DimensionMismatch):
        fnn.Mlp(
            weights=[np.zeros((4, 8), np.float32), np.zeros((9, 3), np.float32)],
            biases=[np.zeros(8, np.float32), np.zeros(3, np.float32)],
        )


def test_forward_shapes_and_dropout_gating():
    rng = np.random.default_rng(1)
    mlp = fnn.Mlp.create([5, 7, 2], dropout=0.5, rng=rng)
    x = rng.standard_normal((3, 5)).astype(np.float32)
    out_eval, _ = fnn.forward(mlp, x)
    assert out_eval.shape == (3, 2)
    with pytest.raises(ConfigError):
        fnn.forward(mlp, x, train_mode=True)
    out_a, _ = fnn.forward(mlp, x, train_mode=True, rng=np.random.default_rng(9))
    out_b, _ = fnn.forward(mlp, x, train_mode=True, rng=np.random.default_rng(9))
    assert np.array_equal(out_a, out_b)
    with pytest.raises(DimensionMismatch):
        fnn.forward(mlp, x[:, :4])


def test_backward_rejects_foreign_cache():
    rng = np.random.default_rng(2)
    a = fnn.Mlp.create([3, 3], rng=rng)
    b = fnn.Mlp.create([3, 3], rng=rng)
    x = rng.standard_normal((2, 3)).astype(np.float32)
    _, cache = fnn.forward(a, x)
    with pytest.raises(CacheMismatch):
        fnn.backward(b, cache, np.ones((2, 3)))


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(8):
        mlp = random_mlp(rng)
        x = rng.standard_normal((4, mlp.dims[0]))
        target = rng.standard_normal((4, mlp.dims[-1]))
        train = trial % 2 == 1

        def loss() -> float:
            frng = np.random.default_rng(77) if train else None
            out, _ = fnn.forward(mlp, x, train_mode=train, rng=frng)
            return float(0.5 * np.sum((out - target) ** 2))

        frng = np.random.default_rng(77) if train else None
        out, cache = fnn.forward(mlp, x, train_mode=train, rng=frng)
        grads, dx = fnn.backward(mlp, cache, out - target)
        numeric = fd_gradients(loss, mlp.parameters())
        for a, n in zip(grads, numeric):
            worst = max(worst, rel_error(np.asarray(a, np.float64), n))
        numeric_dx = fd_gradients(loss, [x])[0]
        worst = max(worst, rel_error(np.asarray(dx, np.float64), numeric_dx))
    assert worst < 1e-4, worst


def test_softmax_cross_entropy_uniform_logits_is_ln_k():
    for k in (2, 5, 11):
        logits = np.zeros((3, k))
        labels = np.array([0, 1, k - 1])
        for eps in (0.0, 0.1, 0.5):
            loss, _ = fnn.softmax_cross_entropy(logits, labels, label_smoothing=eps)
            assert math.isclose(loss, math.log(k), rel_tol=0, abs_tol=1e-12)


def test_softmax_cross_entropy_matches_manual_formula():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((6, 5))
    labels = rng.integers(0, 5, 6)
    eps = 0.1
    loss, grad = fnn.softmax_cross_entropy(logits, labels, label_smoothing=eps)

    # independent recomputation in plain float64
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    q = np.full((6, 5), eps / 5)
    q[np.arange(6), labels] += 1.0 - eps
    ref_loss = float(-(q * np.log(p)).sum(axis=1).mean())
    ref_grad = (p - q) / 6
    assert math.isclose(loss, ref_loss, rel_tol=1e-12)
    assert np.allclose(grad, ref_grad, rtol=1e-12, atol=1e-15)

    with pytest.raises(LabelOutOfRange):
        fnn.softmax_cross_entropy(logits, np.array([0, 1, 2, 3, 4, 5]))


def test_softmax_cross_entropy_gradient_finite_difference():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((4, 3))
    labels = rng.integers(0, 3, 4)

    def loss() -> float:
        value, _ = fnn.softmax_cross_entropy(logits, labels, label_smoothing=0.1)
        return float(value)

    _, grad = fnn.softmax_cross_entropy(logits, labels, label_smoothing=0.1)
    numeric = fd_gradients(loss, [logits])[0]
    assert rel_error(np.asarray(grad), numeric) < 1e-6


def test_binary_cross_entropy_closed_forms_and_stability():
    # logit 0 gives ln 2 for any target mix
    loss, _ = fnn.binary_cross_entropy(np.zeros(4), np.array([0.0, 1.0, 0.3, 0.9]))
    assert math.isclose(loss, math.log(2), abs_tol=1e-12)
    # extreme logits stay finite (stable formulation)
    loss, grad = fnn.binary_cross_entropy(
        np.array([1e4, -1e4]), np.array([1.0, 0.0])
    )
    assert math.isfinite(loss) and loss < 1e-6
    assert np.all(np.isfinite(grad))
    # manual check of loss and gradient
    x = np.array([0.7, -1.2, 2.5])
    t = np.array([1.0, 0.05, 0.95])
    loss, grad = fnn.binary_cross_entropy(x, t)
    p = 1.0 / (1.0 + np.exp(-x))
    ref = float(-(t * np.log(p) + (1 - t) * np.log(1 - p)).mean())
    assert math.isclose(loss, ref, rel_tol=1e-12)
    assert np.allclose(grad, (p - t) / 3, rtol=1e-12)


def test_sigmoid_stable_and_correct():
    x = np.array([-1e4, -3.0, 0.0, 3.0, 1e4])
    s = fnn.sigmoid(x)
    assert np.all(np.isfinite(s))
    assert math.isclose(float(s[2]), 0.5, abs_tol=1e-15)
    assert np.allclose(s[1:4], 1 / (1 + np.exp(-x[1:4])), rtol=1e-12)
    assert s[0] >= 0.0 and s[-1] <= 1.0


def test_adam_step_matches_reference_updates():
    rng = np.random.default_rng(6)
    p = rng.standard_normal((3, 2))
    state = fnn.AdamState.init([p])
    ref_p = p.copy()
    ref_m = np.zeros_like(p)
    ref_v = np.zeros_like(p)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        g = rng.standard_normal((3, 2))
        fnn.adam_step([p], [g], state, lr)
        ref_m = b1 * ref_m + (1 - b1) * g
        ref_v = b2 * ref_v + (1 - b2) * g * g
        m_hat = ref_m / (1 - b1**t)
        v_hat = ref_v / (1 - b2**t)
        ref_p = ref_p - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.allclose(p, ref_p, rtol=1e-12, atol=1e-15)
    assert state.step == 5
    with pytest.raises(DimensionMismatch):
        fnn.adam_step([p], [np.zeros(5)], state, lr)


def test_lr_schedule_warmup_and_decay():
    s = fnn.LrSchedule(peak_lr=1e-3, total_steps=100)
    assert s.warmup_steps == 10
    assert s.lr_at(0) == 0.0
    assert math.isclose(s.lr_at(5), 1e-3 * 5 / 10, rel_tol=1e-15)
    assert math.isclose(s.lr_at(10), 1e-3, rel_tol=1e-15)
    assert math.isclose(s.lr_at(40), 1e-3 * math.sqrt(10 / 40), rel_tol=1e-12)
    assert math.isclose(s.lr_at(100), 1e-3 * math.sqrt(0.1), rel_tol=1e-12)
    # warmup never collapses to zero steps
    assert fnn.LrSchedule(peak_lr=1.0, total_steps=3).warmup_steps == 1
    with pytest.raises(ConfigError):
        s.lr_at(-1)


def test_array_codec_round_trip():
    rng = np.random.default_rng(7)
    for a in (
        rng.standard_normal((3, 4)).astype(np.float32),
        rng.standard_normal(5),
        np.arange(6, dtype=np.int64).reshape(2, 3),
    ):
        doc = fnn.encode_array(a)
        b = fnn.decode_array(doc)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def test_mlp_serialization_round_trip():
    rng = np.random.default_rng(8)
    mlp = fnn.Mlp.create([4, 6, 2], activation=fnn.LEAKY_RELU, dropout=0.2, rng=rng)
    back = fnn.Mlp.from_dict(mlp.to_dict())
    assert back.dims == mlp.dims
    assert back.activation == mlp.activation
    assert back.dropout == mlp.dropout
    for a, b in zip(mlp.parameters(), back.parameters()):
        assert np.array_equal(a, b)


def test_dropout_scaling_preserves_expectation():
    rng = np.random.default_rng(9)
    mlp = fnn.Mlp.create([6, 64, 64, 4], dropout=0.5, rng=rng)
    mlp = to_f64(mlp)
    x = rng.standard_normal((8, 6))
    out_eval, _ = fnn.forward(mlp, x)
    acc = np.zeros_like(out_eval)
    n = 400
    for i in range(n):
        out, _ = fnn.forward(mlp, x, train_mode=True, rng=np.random.default_rng(i))
        acc += out
    # inverted dropout keeps hidden activations unbiased; the final linear
    # layer then keeps outputs comparable in scale (loose statistical bound)
    assert np.median(np.abs(acc / n - out_eval)) < 0.35


def test_finite_difference_epsilon_is_sane():
    # central differences in float64: truncation ~ eps^2, cancellation
    # ~ machine_eps / eps; both stay well under 1e-4 inside this window
    assert 1e-6 <= FD_EPS <= 1e-4


def test_leaky_slope_outside_unit_interval_is_rejected():
    for slope in (-0.1, 1.5):
        with pytest.raises(ConfigError):
            fnn.Mlp.create([3, 4, 2], activation=fnn.LEAKY_RELU, leaky_slope=slope)


# -- bit-level oracles: the textbook forms, kept here as the reference --------

UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(a.view(UINT[a.dtype]), b.view(UINT[b.dtype]))
    )


def _where_activate(mlp, z):
    if mlp.activation == fnn.RELU:
        return np.maximum(z, 0)
    return np.where(z > 0, z, mlp.leaky_slope * z)


def _where_activate_grad(mlp, z):
    if mlp.activation == fnn.RELU:
        return (z > 0).astype(z.dtype)
    return np.where(z > 0, z.dtype.type(1), z.dtype.type(mlp.leaky_slope))


def _special_inputs(rng, dtype, with_pos_inf: bool) -> np.ndarray:
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.nan, -np.nan, -np.inf, 1.0, -1.0, info.tiny,
               -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
               info.max, -info.max]
    if with_pos_inf:
        special.append(np.inf)
    scale = 10.0 ** rng.integers(-30, 30, 500)
    return np.concatenate([special, rng.standard_normal(500) * scale]).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_activation_and_gradient_match_the_where_forms_bitwise(dtype):
    rng = np.random.default_rng(20)
    slopes = [0.0, 1e-300, 0.01, 0.2, 0.5, float(np.nextafter(1.0, 0.0))]
    slopes += rng.uniform(0.0, 1.0, 20).tolist()
    cases = [(fnn.RELU, 0.01)] + [(fnn.LEAKY_RELU, s) for s in slopes]
    for activation, slope in cases:
        mlp = fnn.Mlp.create([2, 2], activation=activation, leaky_slope=slope)
        # where the slope is 0 in this dtype, slope * inf is NaN, so
        # max(inf, slope * inf) is NaN where the where form gives inf: +inf is
        # left out there
        with_pos_inf = activation == fnn.RELU or dtype(slope) > 0.0
        z = _special_inputs(rng, dtype, with_pos_inf)
        with np.errstate(invalid="ignore", over="ignore"):
            out, grad = fnn._activate(mlp, z)
            ref_out = _where_activate(mlp, z)
        assert _same_bits(out, ref_out), (activation, slope)
        assert _same_bits(grad, _where_activate_grad(mlp, z)), (activation, slope)


def _recomputing_forward_backward(mlp, x, upstream, train_mode, rng):
    """Forward and backward that store pre-activations, take the activation
    gradient from them in every backward, and compute every gradient."""
    keep = 1.0 - mlp.dropout
    a, inputs, pre, masks = x, [], [], []
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(a)
        z = a @ w + b
        pre.append(z)
        if l == last:
            a = z
            continue
        a = _where_activate(mlp, z)
        mask = None
        if train_mode and mlp.dropout > 0.0:
            mask = (rng.random(a.shape) < keep).astype(a.dtype)
            a = a * mask / keep
        masks.append(mask)
    grads = []
    dz = upstream
    for l in reversed(range(len(mlp.weights))):
        grads[:0] = [inputs[l].T @ dz, dz.sum(axis=0)]
        da = dz @ mlp.weights[l].T
        if l == 0:
            dx = da
        else:
            if masks[l - 1] is not None:
                da = da * masks[l - 1] / keep
            dz = da * _where_activate_grad(mlp, pre[l - 1])
    return a, grads, dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_and_backward_match_the_recomputing_form_bitwise(dtype):
    rng = np.random.default_rng(23)
    for trial in range(24):
        mlp = random_mlp(rng)
        mlp.weights = [w.astype(dtype) for w in mlp.weights]
        # zero biases on half the trials, so zero rows of x hit the kink
        mlp.biases = [b.astype(dtype) * (trial % 2) for b in mlp.biases]
        x = rng.standard_normal((6, mlp.dims[0])).astype(dtype)
        x[0] = 0.0
        upstream = rng.standard_normal((6, mlp.dims[-1])).astype(dtype)
        train_mode = trial % 4 < 2
        seed = int(rng.integers(1 << 30))
        ref_out, ref_grads, ref_dx = _recomputing_forward_backward(
            mlp, x, upstream, train_mode, np.random.default_rng(seed)
        )
        out, cache = fnn.forward(mlp, x, train_mode, np.random.default_rng(seed))
        assert _same_bits(out, ref_out)
        grads, dx = fnn.backward(mlp, cache, upstream)
        assert all(_same_bits(g, r) for g, r in zip(grads, ref_grads, strict=True))
        assert _same_bits(dx, ref_dx)
        only_grads, none = fnn.backward(mlp, cache, upstream, input_grad=False)
        assert none is None
        assert all(_same_bits(g, r) for g, r in zip(only_grads, ref_grads, strict=True))
        none, only_dx = fnn.backward(mlp, cache, upstream, param_grads=False)
        assert none is None and _same_bits(only_dx, ref_dx)


def _target_form_softmax_cross_entropy(logits, labels, label_smoothing):
    n, k = logits.shape
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    target = np.full_like(logits, label_smoothing / k)
    target[np.arange(n), labels] += 1.0 - label_smoothing
    loss = float(-np.sum(target * log_probs, dtype=np.float64) / n)
    grad = (np.exp(log_probs) - target) / n
    return loss, grad.astype(logits.dtype, copy=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_softmax_cross_entropy_matches_the_target_form_bitwise(dtype, smoothing):
    rng = np.random.default_rng(21)
    for n, k, scale in [(1, 1, 1.0), (3, 2, 1.0), (7, 5, 30.0), (128, 750, 4.0),
                        (16, 40, 300.0)]:
        logits = (rng.standard_normal((n, k)) * scale).astype(dtype)
        labels = rng.integers(0, k, n)
        if k > 2:
            logits[0, (labels[0] + 1) % k] = -np.inf
        with np.errstate(invalid="ignore"):
            loss, grad = fnn.softmax_cross_entropy(logits, labels, smoothing)
            ref_loss, ref_grad = _target_form_softmax_cross_entropy(logits, labels, smoothing)
        assert _same_bits(np.float64(loss), np.float64(ref_loss)), (n, k)
        assert _same_bits(grad, ref_grad), (n, k)


def _allocating_adam_step(params, grads, state, lr):
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.dtype, copy=False)


@pytest.mark.parametrize(
    "p_dtype, g_dtype",
    [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)],
)
def test_adam_step_matches_the_allocating_form_bitwise(p_dtype, g_dtype):
    rng = np.random.default_rng(22)
    shapes = [(64, 750), (64,), (3, 5), (1,)]
    params = [rng.standard_normal(s).astype(p_dtype) for s in shapes]
    ref_params = [p.copy() for p in params]
    state = fnn.AdamState.init(params)
    ref_state = fnn.AdamState.init(ref_params)
    for step in range(1, 8):
        grads = [(rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)).astype(g_dtype)
                 for s in shapes]
        lr = 1e-3 * step
        fnn.adam_step(params, grads, state, lr)
        _allocating_adam_step(ref_params, grads, ref_state, lr)
        assert state.step == ref_state.step == step
        for got, ref in zip(params + state.m + state.v,
                            ref_params + ref_state.m + ref_state.v):
            assert _same_bits(got, ref), step
