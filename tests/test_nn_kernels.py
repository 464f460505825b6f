"""Property tests (hypothesis) for the GEMM-backed nn kernel layer.

The im2col GEMM path is an *optimization* of the retained naive
einsum/tap-loop path, so its contract is exact equivalence, pinned down
over random shapes, strides, and padding modes:

* forward outputs and all three gradients (dx, dW, db) of the two
  backends agree to float64 round-off for Conv1D and Conv2D;
* the GEMM backward agrees with central finite differences (gradcheck);
* ``fit(workers=N)`` is bit-identical for every worker count, including
  the classic serial loop's sharded ``workers=1``;
* the flat-buffer optimizers preserve the original step semantics while
  rebinding every parameter to a view of one contiguous buffer;
* pooling backward passes preserve the incoming gradient dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.nn.conv import Conv1D, Conv2D, GlobalAveragePool, GlobalMaxPool, MaxPool2D
from repro.nn.kernels import ScratchCache, backend, cached_einsum, use_naive
from repro.nn.layers import Dense, Dropout, Flatten, Parameter
from repro.nn.network import Sequential
from repro.nn.optim import SGD, Adam
from repro.nn.train import TrainConfig, fit

ATOL = 1e-10

conv1d_shapes = st.tuples(
    st.integers(min_value=1, max_value=3),   # batch
    st.integers(min_value=5, max_value=16),  # time
    st.integers(min_value=1, max_value=3),   # channels in
    st.integers(min_value=1, max_value=4),   # channels out
    st.integers(min_value=1, max_value=5),   # kernel
    st.integers(min_value=1, max_value=3),   # stride
    st.sampled_from(["same", "valid"]),
)

conv2d_shapes = st.tuples(
    st.integers(min_value=1, max_value=3),   # batch
    st.integers(min_value=4, max_value=10),  # height
    st.integers(min_value=4, max_value=10),  # width
    st.integers(min_value=1, max_value=3),   # channels in
    st.integers(min_value=1, max_value=4),   # channels out
    st.integers(min_value=1, max_value=4),   # kernel
    st.integers(min_value=1, max_value=3),   # stride
    st.sampled_from(["same", "valid"]),
)


def _run_both(layer_cls, kwargs, x_shape, seed):
    """Forward+backward the same layer on both backends; return all grads."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(x_shape)
    out = {}
    for name, ctx in (("naive", use_naive), ("gemm", None)):
        layer = layer_cls(**kwargs, seed=7)
        if ctx is None:
            y = layer.forward(x)
            g = np.random.default_rng(seed + 1).standard_normal(y.shape)
            dx = layer.backward(g)
        else:
            with ctx():
                y = layer.forward(x)
                g = np.random.default_rng(seed + 1).standard_normal(y.shape)
                dx = layer.backward(g)
        out[name] = (y, dx, layer.weight.grad.copy(), layer.bias.grad.copy())
    return out


@given(shape=conv1d_shapes, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_property_conv1d_gemm_matches_naive(shape, seed):
    b, t, c, o, k, s, padding = shape
    if k > t:
        return
    out = _run_both(
        Conv1D,
        dict(in_channels=c, out_channels=o, kernel_size=k, stride=s,
             padding=padding),
        (b, t, c),
        seed,
    )
    for a, g in zip(out["naive"], out["gemm"]):
        np.testing.assert_allclose(a, g, atol=ATOL)


@given(shape=conv2d_shapes, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_property_conv2d_gemm_matches_naive(shape, seed):
    b, h, w, c, o, k, s, padding = shape
    if k > min(h, w):
        return
    out = _run_both(
        Conv2D,
        dict(in_channels=c, out_channels=o, kernel_size=k, stride=s,
             padding=padding),
        (b, h, w, c),
        seed,
    )
    for a, g in zip(out["naive"], out["gemm"]):
        np.testing.assert_allclose(a, g, atol=ATOL)


def _gradcheck(layer, x, eps=1e-6, atol=1e-5):
    """Central finite differences vs the analytic backward."""
    rng = np.random.default_rng(3)
    y = layer.forward(x)
    g = rng.standard_normal(y.shape)
    dx = layer.backward(g)
    loss = lambda out: float((out * g).sum())  # noqa: E731

    def numeric(array):
        num = np.zeros_like(array)
        flat, nflat = array.ravel(), num.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss(layer.forward(x))
            flat[i] = orig - eps
            lo = loss(layer.forward(x))
            flat[i] = orig
            nflat[i] = (hi - lo) / (2 * eps)
        return num

    np.testing.assert_allclose(numeric(x), dx, atol=atol)
    np.testing.assert_allclose(numeric(layer.weight.value), layer.weight.grad,
                               atol=atol)
    np.testing.assert_allclose(numeric(layer.bias.value), layer.bias.grad,
                               atol=atol)


def test_gradcheck_conv1d_gemm_path():
    assert backend() == "im2col"
    layer = Conv1D(2, 3, 3, stride=2, padding="same", seed=11)
    _gradcheck(layer, np.random.default_rng(0).standard_normal((2, 9, 2)))


def test_gradcheck_conv2d_gemm_path():
    assert backend() == "im2col"
    layer = Conv2D(2, 3, 3, stride=2, padding="same", seed=11)
    _gradcheck(layer, np.random.default_rng(0).standard_normal((2, 7, 6, 2)))


# ---------------------------------------------------------------------------
# Data-parallel fit determinism
# ---------------------------------------------------------------------------


def _small_model(seed=5):
    return Sequential(
        [
            Conv2D(1, 4, 3, seed=seed),
            Flatten(),
            Dropout(0.25, seed=seed + 1),
            Dense(8 * 8 * 4, 3, seed=seed + 2),
        ]
    )


def _train(workers):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((24, 8, 8, 1))
    y = rng.integers(0, 3, size=24)
    model = _small_model()
    opt = Adam(model.parameters(), lr=1e-3)
    cfg = TrainConfig(epochs=2, batch_size=8, seed=9, clip_norm=1.0)
    history = fit(model, opt, x, y, cfg, workers=workers)
    return history, model.state_dict()


def test_fit_workers_bit_identical():
    """workers=1 and workers=4 must produce bit-identical training."""
    h1, s1 = _train(workers=1)
    with obs.capture_events() as events:
        h4, s4 = _train(workers=4)
    # The data-parallel steps really ran in a pool, not the serial fallback.
    modes = {e["wall"]["mode"] for e in events if e["kind"] == "pmap_finish"}
    assert modes == {"pool"}
    assert h1.loss == h4.loss
    assert h1.accuracy == h4.accuracy
    assert set(s1) == set(s4)
    for key in s1:
        np.testing.assert_array_equal(s1[key], s4[key])


def test_fit_sharded_rejects_batchnorm():
    from repro.nn.layers import BatchNorm

    model = Sequential([Dense(4, 4, seed=0), BatchNorm(4)])
    opt = SGD(model.parameters(), lr=0.1)
    x = np.zeros((8, 4))
    y = np.zeros(8, dtype=int)
    with pytest.raises(ValueError, match="BatchNorm"):
        fit(model, opt, x, y, TrainConfig(epochs=1), workers=2)


# ---------------------------------------------------------------------------
# Flat-buffer optimizers
# ---------------------------------------------------------------------------


def _params(rng):
    return [
        Parameter("w", rng.standard_normal((3, 4))),
        Parameter("b", rng.standard_normal(4)),
    ]


def test_flat_optimizer_rebinds_params_to_views():
    opt = SGD(_params(np.random.default_rng(0)), lr=0.1)
    for p in opt.params:
        assert p.value.base is opt._flat_value
        assert p.grad.base is opt._flat_grad


def test_flat_sgd_matches_reference_update():
    rng = np.random.default_rng(1)
    params = _params(rng)
    ref_v = [p.value.copy() for p in params]
    grads = [rng.standard_normal(p.value.shape) for p in params]
    opt = SGD(params, lr=0.05, momentum=0.9, weight_decay=0.01)
    for _ in range(3):
        for p, g in zip(opt.params, grads):
            p.grad[...] = g
        opt.step()
    vel = [np.zeros_like(v) for v in ref_v]
    for _ in range(3):
        for i, g in enumerate(grads):
            eff = g + 0.01 * ref_v[i]
            vel[i] = 0.9 * vel[i] + eff
            ref_v[i] = ref_v[i] - 0.05 * vel[i]
    for p, expected in zip(opt.params, ref_v):
        np.testing.assert_allclose(p.value, expected, atol=1e-12)


def test_flat_adam_matches_reference_update():
    rng = np.random.default_rng(2)
    params = _params(rng)
    ref_v = [p.value.copy() for p in params]
    grads = [rng.standard_normal(p.value.shape) for p in params]
    opt = Adam(params, lr=0.01, weight_decay=0.02)
    for _ in range(4):
        for p, g in zip(opt.params, grads):
            p.grad[...] = g
        opt.step()
    m = [np.zeros_like(v) for v in ref_v]
    v = [np.zeros_like(x) for x in ref_v]
    b1, b2, eps = opt.beta1, opt.beta2, opt.eps
    for t in range(1, 5):
        for i, g in enumerate(grads):
            eff = g + 0.02 * ref_v[i]
            m[i] = b1 * m[i] + (1 - b1) * eff
            v[i] = b2 * v[i] + (1 - b2) * eff * eff
            mh = m[i] / (1 - b1**t)
            vh = v[i] / (1 - b2**t)
            ref_v[i] = ref_v[i] - 0.01 * mh / (np.sqrt(vh) + eps)
    for p, expected in zip(opt.params, ref_v):
        np.testing.assert_allclose(p.value, expected, atol=1e-12)


def test_flat_clip_grad_norm():
    params = _params(np.random.default_rng(3))
    opt = SGD(params, lr=0.1)
    for p in opt.params:
        p.grad[...] = 3.0
    total = np.sqrt(sum((p.grad**2).sum() for p in opt.params))
    opt.clip_grad_norm(1.0)
    clipped = np.sqrt(sum((p.grad**2).sum() for p in opt.params))
    assert total > 1.0
    assert clipped == pytest.approx(1.0, rel=1e-6)


def test_flat_zero_grad_clears_every_view():
    opt = Adam(_params(np.random.default_rng(4)), lr=0.01)
    for p in opt.params:
        p.grad[...] = 7.0
    opt.zero_grad()
    for p in opt.params:
        assert not p.grad.any()


# ---------------------------------------------------------------------------
# Kernel-cache plumbing and pooling dtype preservation
# ---------------------------------------------------------------------------


def test_cached_einsum_matches_plain_einsum():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 6))
    np.testing.assert_allclose(
        cached_einsum("ij,jk->ik", a, b), np.einsum("ij,jk->ik", a, b)
    )


def test_scratch_cache_reuses_buffers_per_key():
    cache = ScratchCache()
    a = cache.get("x", (3, 4))
    b = cache.get("x", (3, 4))
    c = cache.get("x", (4, 3))
    assert a is b
    assert a is not c
    z = cache.zeros("x", (3, 4))
    assert z is a
    assert not z.any()


def test_scratch_cache_holds_only_the_largest_buffer():
    cache = ScratchCache()
    for batch in (16, 15, 32, 1):
        view = cache.get("cols", (batch, 5, 3))
        assert view.shape == (batch, 5, 3) and view.flags.c_contiguous
    assert cache.nbytes == 32 * 5 * 3 * 8
    assert cache.get("cols", (1, 5, 3)) is view
    cache.drop("cols")
    assert cache.nbytes == 0


def _conv_pair(cls, seed=3):
    """Two identically initialised layers and a matching input/gradient."""
    rng = np.random.default_rng(seed)
    if cls is Conv1D:
        x = rng.standard_normal((4, 11, 3))
        layers = [Conv1D(3, 5, 3, seed=seed) for _ in range(2)]
    else:
        x = rng.standard_normal((4, 7, 6, 3))
        layers = [Conv2D(3, 5, 3, seed=seed) for _ in range(2)]
    grad = rng.standard_normal(layers[0].forward(x).shape)
    return layers, x, grad


@pytest.mark.parametrize("cls", [Conv1D, Conv2D])
def test_eval_forward_leaves_no_patch_matrix(cls):
    (layer, _), x, grad = _conv_pair(cls)
    layer.forward(x)
    layer.backward(grad)
    x_pad_bytes = layer._padded(x)[0].nbytes
    assert layer._scratch.nbytes > x_pad_bytes  # training kept its patches
    layer.eval()
    layer.forward(x)
    # Only the padded input is left: no patch matrix, no patch gradient.
    assert layer._scratch.nbytes == x_pad_bytes


@pytest.mark.parametrize("cls", [Conv1D, Conv2D])
def test_eval_backward_equals_training_backward_bitwise(cls):
    (trained, evaluated), x, grad = _conv_pair(cls)
    evaluated.eval()
    out_t, out_e = trained.forward(x), evaluated.forward(x)
    dx_t, dx_e = trained.backward(grad), evaluated.backward(grad)
    assert np.array_equal(out_t, out_e)
    assert np.array_equal(dx_t, dx_e)
    assert np.array_equal(trained.weight.grad, evaluated.weight.grad)
    assert np.array_equal(trained.bias.grad, evaluated.bias.grad)


def test_use_naive_is_reentrant():
    assert backend() == "im2col"
    with use_naive():
        assert backend() == "naive"
        with use_naive():
            assert backend() == "naive"
        assert backend() == "naive"
    assert backend() == "im2col"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pooling_backward_preserves_dtype(dtype):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 6, 6, 3)).astype(dtype)
    for pool in (MaxPool2D(2), GlobalMaxPool(), GlobalAveragePool()):
        y = pool.forward(x)
        g = rng.standard_normal(y.shape).astype(dtype)
        assert pool.backward(g).dtype == dtype
