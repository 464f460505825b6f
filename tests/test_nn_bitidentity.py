"""The nn kernels against their reference formulas, bit for bit.

GELU, LayerNorm, the softmax, self-attention, the transformer block,
global average pooling and Dense's bias gradient compute into buffers of
their own and call the reductions without numpy's Python wrappers.  Each
must still apply the same ufuncs to the same operands in the same order,
so every output and gradient here must equal the plain formula's
bytes, not merely be close to them.
"""

import numpy as np
import pytest

from repro.nn.activations import GELU
from repro.nn.attention import MultiHeadSelfAttention, TransformerBlock
from repro.nn.conv import GlobalAveragePool
from repro.nn.layers import Dense, LayerNorm
from repro.nn.losses import softmax

# -- reference formulas ---------------------------------------------------------


def ref_softmax(logits, axis=-1):
    shifted = logits - logits.max(axis=axis, keepdims=True)
    if shifted.dtype.kind != "f":
        shifted = shifted.astype(float)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


class RefGELU(GELU):
    def forward(self, x):
        x = np.asarray(x, dtype=float)
        self._x = x
        t = np.tanh(self._C * (x + 0.044715 * (x * x * x)))
        self._t = t
        return 0.5 * x * (1.0 + t)

    def backward(self, grad):
        x, t = self._x, self._t
        dinner = self._C * (1.0 + 0.134145 * (x * x))
        return grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


class RefLayerNorm(LayerNorm):
    def forward(self, x):
        x = np.asarray(x, dtype=float)
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = np.mean(centered * centered, axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = centered * inv_std
        self._cache = (xhat, inv_std)
        return xhat * self.gamma.value + self.beta.value

    def backward(self, grad):
        xhat, inv_std = self._cache
        g2 = grad.reshape(-1, self.dim)
        xh2 = xhat.reshape(-1, self.dim)
        self.gamma.grad += (g2 * xh2).sum(axis=0)
        self.beta.grad += g2.sum(axis=0)
        gxhat = grad * self.gamma.value
        mean_g = gxhat.mean(axis=-1, keepdims=True)
        mean_gx = (gxhat * xhat).mean(axis=-1, keepdims=True)
        return (gxhat - mean_g - xhat * mean_gx) * inv_std


class RefDense(Dense):
    def backward(self, grad):
        x2 = self._x.reshape(-1, self.in_features)
        g2 = grad.reshape(-1, self.out_features)
        self.weight.grad += x2.T @ g2
        if self.bias is not None:
            self.bias.grad += g2.sum(axis=0)
        return (g2 @ self.weight.value.T).reshape(self._x.shape)


class RefAttention(MultiHeadSelfAttention):
    def forward(self, x):
        q = self._split(self.wq(x))
        k = self._split(self.wk(x))
        v = self._split(self.wv(x))
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ self._swap(k)) * scale
        attn = ref_softmax(scores, axis=-1)
        self._cache = (q, k, v, attn, scale)
        return self.wo(self._merge(attn @ v))

    def backward(self, grad):
        q, k, v, attn, scale = self._cache
        dctx = self._split(self.wo.backward(grad))
        dattn = dctx @ self._swap(v)
        dv = self._swap(attn) @ dctx
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores *= scale
        dq = dscores @ k
        dk = self._swap(dscores) @ q
        dx = self.wq.backward(self._merge(dq))
        dx = dx + self.wk.backward(self._merge(dk))
        dx = dx + self.wv.backward(self._merge(dv))
        return dx


def _ref_attention(dim, heads, seed):
    layer = RefAttention(dim, heads, seed=seed)
    base = seed
    for name, offset in (("wq", 0), ("wk", 1), ("wv", 2), ("wo", 3)):
        setattr(layer, name, RefDense(dim, dim, seed=base + offset))
    return layer


class RefBlock(TransformerBlock):
    def __init__(self, dim, heads, *, mlp_ratio=4, seed=0):
        super().__init__(dim, heads, mlp_ratio=mlp_ratio, seed=seed)
        self.ln1, self.ln2 = RefLayerNorm(dim), RefLayerNorm(dim)
        self.attn = _ref_attention(dim, heads, seed)
        self.fc1 = RefDense(dim, dim * mlp_ratio, seed=seed + 10)
        self.act = RefGELU()
        self.fc2 = RefDense(dim * mlp_ratio, dim, seed=seed + 11)

    def forward(self, x):
        x = x + self.attn(self.ln1(x))
        return x + self.fc2(self.act(self.fc1(self.ln2(x))))

    def backward(self, grad):
        g_mlp = self.ln2.backward(
            self.fc1.backward(self.act.backward(self.fc2.backward(grad)))
        )
        grad = grad + g_mlp
        g_attn = self.ln1.backward(self.attn.backward(grad))
        return grad + g_attn


class RefGlobalAveragePool(GlobalAveragePool):
    def forward(self, x):
        self._shape = x.shape
        return x.mean(axis=tuple(range(1, x.ndim - 1)))

    def backward(self, grad):
        shape = self._shape
        spatial = int(np.prod(shape[1:-1]))
        expand = grad.reshape(shape[0], *(1,) * (len(shape) - 2), shape[-1])
        out = np.empty(shape, dtype=grad.dtype)
        np.copyto(out, expand / spatial)
        return out


# -- helpers ---------------------------------------------------------------------


def assert_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


def _round_trip(layer, ref, x, grad, *, eval_mode, steps=2):
    """Forward and backward ``steps`` times; compare outputs, input
    gradients and every accumulated parameter gradient."""
    for net in (layer, ref):
        net.eval() if eval_mode else net.train()
    for _ in range(steps):
        assert_bits(layer.forward(x.copy()), ref.forward(x.copy()))
        assert_bits(layer.backward(grad.copy()), ref.backward(grad.copy()))
    for p, q in zip(layer.parameters(), ref.parameters(), strict=True):
        assert_bits(p.grad, q.grad)


SHAPES = [(1, 25, 8), (32, 25, 8), (3, 7, 16), (2, 1, 12), (16, 25, 10)]
SETTINGS = [
    pytest.param(shape, seed, eval_mode,
                 id=f"{'x'.join(map(str, shape))}-s{seed}-{'eval' if eval_mode else 'train'}")
    for shape in SHAPES for seed in (0, 1) for eval_mode in (False, True)
]


def _inputs(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=shape), rng.normal(size=shape)


# -- the layers --------------------------------------------------------------------


@pytest.mark.parametrize("shape,seed,eval_mode", SETTINGS)
def test_gelu_matches_the_reference_formula(shape, seed, eval_mode):
    x, grad = _inputs(shape, seed, scale=3.0)
    _round_trip(GELU(), RefGELU(), x, grad, eval_mode=eval_mode)


@pytest.mark.parametrize("shape,seed,eval_mode", SETTINGS)
def test_layernorm_matches_the_reference_formula(shape, seed, eval_mode):
    x, grad = _inputs(shape, seed, scale=2.0)
    layer, ref = LayerNorm(shape[-1]), RefLayerNorm(shape[-1])
    gamma, beta = _inputs((shape[-1],), seed + 100, scale=0.1)
    for net in (layer, ref):  # trained-looking affine parameters
        net.gamma.value[...] = 1.0 + gamma
        net.beta.value[...] = beta
    _round_trip(layer, ref, x, grad, eval_mode=eval_mode)


def test_layernorm_matches_on_a_strided_input():
    base, grad = _inputs((25, 4, 8), 3)
    x = base.transpose(1, 0, 2)  # not C-contiguous
    layer, ref = LayerNorm(8), RefLayerNorm(8)
    assert_bits(layer.forward(x), ref.forward(x))
    grad = np.ascontiguousarray(grad.transpose(1, 0, 2))
    assert_bits(layer.backward(grad), ref.backward(grad))


@pytest.mark.parametrize("axis", [-1, 0, 1])
@pytest.mark.parametrize("shape", [(1, 5, 3), (32, 2, 25), (4, 6, 2)])
def test_softmax_matches_the_reference_formula(shape, axis):
    logits, _ = _inputs(shape, 7, scale=5.0)
    assert_bits(softmax(logits, axis=axis), ref_softmax(logits, axis=axis))
    ints = np.arange(np.prod(shape)).reshape(shape) % 5
    assert_bits(softmax(ints, axis=axis), ref_softmax(ints, axis=axis))


@pytest.mark.parametrize("shape,seed,eval_mode", SETTINGS)
def test_attention_matches_the_reference_formula(shape, seed, eval_mode):
    x, grad = _inputs(shape, seed)
    layer = MultiHeadSelfAttention(shape[-1], 2, seed=seed)
    _round_trip(layer, _ref_attention(shape[-1], 2, seed), x, grad,
                eval_mode=eval_mode)


@pytest.mark.parametrize("shape,seed,eval_mode", SETTINGS)
def test_transformer_block_matches_the_reference_formula(shape, seed, eval_mode):
    x, grad = _inputs(shape, seed)
    layer = TransformerBlock(shape[-1], 2, seed=seed)
    _round_trip(layer, RefBlock(shape[-1], 2, seed=seed), x, grad,
                eval_mode=eval_mode)


@pytest.mark.parametrize("shape", [(1, 25, 8), (32, 25, 8), (4, 5, 5, 10), (3, 6)])
def test_global_average_pool_matches_the_reference_formula(shape):
    x, _ = _inputs(shape, 11)
    layer, ref = GlobalAveragePool(), RefGlobalAveragePool()
    out = layer.forward(x)
    assert_bits(out, ref.forward(x))
    grad = np.random.default_rng(12).normal(size=out.shape)
    assert_bits(layer.backward(grad), ref.backward(grad))


@pytest.mark.parametrize("shape", [(1, 25, 8), (32, 25, 32), (5, 8)])
def test_dense_bias_gradient_matches_the_reference_formula(shape):
    x, _ = _inputs(shape, 13)
    layer, ref = Dense(shape[-1], 6, seed=2), RefDense(shape[-1], 6, seed=2)
    grad = np.random.default_rng(14).normal(size=shape[:-1] + (6,))
    for net in (layer, ref):
        net.forward(x)
    assert_bits(layer.backward(grad), ref.backward(grad))
    assert_bits(layer.bias.grad, ref.bias.grad)
    assert_bits(layer.weight.grad, ref.weight.grad)
