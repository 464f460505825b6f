"""Attention, positional encoding, and a pre-norm transformer block.

These layers back the transformer-based classifiers in
:mod:`repro.malware` (BERT-like opcode classifier) and the attention head of
the particle-filter weighting study.  They follow the standard scaled
dot-product formulation; all heads are computed in one batched einsum.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import GELU
from repro.nn.layers import Dense, Layer, LayerNorm, Parameter
from repro.nn.losses import exp_normalize

__all__ = ["PositionalEncoding", "MultiHeadSelfAttention", "TransformerBlock"]


class PositionalEncoding(Layer):
    """Additive sinusoidal positional encoding (Vaswani et al.).

    The table is precomputed for ``max_len`` and sliced per batch; it carries
    no trainable parameters, so backward is the identity.
    """

    def __init__(self, dim: int, max_len: int = 4096) -> None:
        if dim % 2:
            raise ValueError(f"dim must be even, got {dim}")
        self.dim = int(dim)
        position = np.arange(max_len)[:, None]
        div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
        table = np.zeros((max_len, dim))
        table[:, 0::2] = np.sin(position * div)
        table[:, 1::2] = np.cos(position * div)
        self.table = table

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] > self.table.shape[0]:
            raise ValueError(
                f"sequence length {x.shape[1]} exceeds max_len {self.table.shape[0]}"
            )
        return x + self.table[: x.shape[1]]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad


class MultiHeadSelfAttention(Layer):
    """Multi-head scaled dot-product self-attention over ``(B, T, D)``."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        *,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if dim % n_heads:
            raise ValueError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.dim = int(dim)
        self.n_heads = int(n_heads)
        self.head_dim = dim // n_heads
        base = seed if isinstance(seed, int) else 0
        self.wq = Dense(dim, dim, seed=base)
        self.wk = Dense(dim, dim, seed=base + 1)
        self.wv = Dense(dim, dim, seed=base + 2)
        self.wo = Dense(dim, dim, seed=base + 3)
        self._cache: tuple | None = None

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    @staticmethod
    def _swap(x: np.ndarray) -> np.ndarray:
        """Transpose the last two axes (view, no copy)."""
        return x.transpose(0, 1, 3, 2)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = self._split(self.wq(x))
        k = self._split(self.wk(x))
        v = self._split(self.wv(x))
        scale = 1.0 / np.sqrt(self.head_dim)
        # All contractions are batched GEMMs over (b, h) slices — matmul
        # stays on the BLAS fast path and needs no per-call path search.
        scores = q @ self._swap(k)
        scores *= scale
        # The softmax of `scores`, computed in their own buffer.
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        attn = exp_normalize(scores, -1)
        ctx = attn @ v
        self._cache = (q, k, v, attn, scale)
        return self.wo(self._merge(ctx))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        q, k, v, attn, scale = self._cache
        dctx = self._split(self.wo.backward(grad))
        dattn = dctx @ self._swap(v)
        dv = self._swap(attn) @ dctx
        # Softmax Jacobian applied row-wise:
        # attn * (dattn - sum(dattn * attn)) * scale, in dattn's buffer.
        dscores = dattn
        dscores -= np.add.reduce(dattn * attn, axis=-1, keepdims=True)
        dscores *= attn
        dscores *= scale
        dq = dscores @ k
        dk = self._swap(dscores) @ q
        dx = self.wq.backward(self._merge(dq))
        dx += self.wk.backward(self._merge(dk))
        dx += self.wv.backward(self._merge(dv))
        return dx

    def parameters(self) -> list[Parameter]:
        return (
            self.wq.parameters()
            + self.wk.parameters()
            + self.wv.parameters()
            + self.wo.parameters()
        )


class TransformerBlock(Layer):
    """Pre-norm transformer encoder block: LN -> MHSA -> +res -> LN -> MLP -> +res."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        *,
        mlp_ratio: int = 4,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        base = seed if isinstance(seed, int) else 0
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, n_heads, seed=base)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Dense(dim, dim * mlp_ratio, seed=base + 10)
        self.act = GELU()
        self.fc2 = Dense(dim * mlp_ratio, dim, seed=base + 11)

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Each sublayer returns a fresh array: the residual adds into it.
        h = self.attn(self.ln1(x))
        h += x
        out = self.fc2(self.act(self.fc1(self.ln2(h))))
        out += h
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g_mlp = self.ln2.backward(
            self.fc1.backward(self.act.backward(self.fc2.backward(grad)))
        )
        g_mlp += grad
        g_attn = self.ln1.backward(self.attn.backward(g_mlp))
        g_attn += g_mlp
        return g_attn

    def parameters(self) -> list[Parameter]:
        return (
            self.ln1.parameters()
            + self.attn.parameters()
            + self.ln2.parameters()
            + self.fc1.parameters()
            + self.fc2.parameters()
        )

    def train(self) -> None:
        self.training = True
        for sub in (self.ln1, self.attn, self.ln2, self.fc1, self.act, self.fc2):
            sub.train()

    def eval(self) -> None:
        self.training = False
        for sub in (self.ln1, self.attn, self.ln2, self.fc1, self.act, self.fc2):
            sub.eval()
