"""Convolution and pooling layers (channels-last, GEMM-backed).

Forward passes gather all receptive fields into an explicit im2col patch
matrix (one strided copy) and run the whole contraction as a single BLAS
GEMM — ``cols @ weight`` — instead of an ``einsum`` over a non-contiguous
6-D window view, which falls off the BLAS fast path.  Backward passes are
two more GEMMs: the weight gradient reuses the forward's cached patch
matrix (``colsᵀ @ grad``), and the input gradient is one GEMM back into
patch space (``grad @ weightᵀ``) followed by a col2im scatter — K (or
K²) strided vector adds instead of the naive path's K/K² small GEMMs.

The original einsum/tap-loop implementation is retained as the ``naive``
backend (``REPRO_NN_NAIVE=1`` or :func:`repro.nn.kernels.use_naive`) and
serves as the semantic reference for the equivalence property tests.
Patch matrices and padded inputs live in a per-layer
:class:`~repro.nn.kernels.ScratchCache`, so steady-state training
allocates only the returned output/gradient arrays.  A patch matrix
(K or K² times the input) lives only from a training forward to its
backward: an eval forward's is a temporary, and the eval forward also
releases the one training left behind.  A backward after an eval forward
rebuilds the patches from the retained padded input.  The channels-inner
``(k, c)`` / ``(i, j, c)`` patch layout makes the packed weight a free
reshape view of the ``(K, C, O)`` / ``(K, K, C, O)`` parameter.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.kernels import (
    ScratchCache,
    backend,
    cached_einsum,
    col2im_1d,
    col2im_2d,
    im2col_1d,
    im2col_2d,
)
from repro.nn.layers import Layer, Parameter, he_normal, mean_over
from repro.utils.rng import as_generator

__all__ = [
    "Conv1D",
    "Conv2D",
    "GlobalAveragePool",
    "GlobalMaxPool",
    "MaxPool2D",
]


def _pad_amount(size: int, kernel: int, stride: int, padding: str) -> int:
    """Total padding along one axis for 'same' (stride-aware) or 'valid'."""
    if padding == "valid":
        return 0
    if padding == "same":
        out = -(-size // stride)  # ceil division
        return max((out - 1) * stride + kernel - size, 0)
    raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")


class Conv1D(Layer):
    """1-D convolution over sequences shaped ``(B, T, C_in)``.

    Parameters
    ----------
    in_channels, out_channels:
        Channel widths.
    kernel_size:
        Receptive-field length K.
    stride:
        Temporal stride.
    padding:
        ``'same'`` (output length ceil(T/stride)) or ``'valid'``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: str = "same",
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if kernel_size < 1 or stride < 1:
            raise ValueError("kernel_size and stride must be >= 1")
        rng = as_generator(seed)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = padding
        fan_in = in_channels * kernel_size
        self.weight = Parameter(
            "weight",
            he_normal((kernel_size, in_channels, out_channels), rng, fan_in=fan_in),
        )
        self.bias = Parameter("bias", np.zeros(out_channels))
        self._scratch = ScratchCache()
        self._cache: tuple | None = None

    def _padded(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        pad = _pad_amount(x.shape[1], self.kernel_size, self.stride, self.padding)
        if not pad:
            return x, 0
        b, t, c = x.shape
        buf = self._scratch.zeros("xpad", (b, t + pad, c))
        buf[:, pad // 2 : pad // 2 + t] = x
        return buf, pad

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"Conv1D expected (B, T, {self.in_channels}), got {x.shape}"
            )
        if backend() == "naive":
            return self._forward_naive(x)
        k, s, c, o = self.kernel_size, self.stride, self.in_channels, self.out_channels
        if k == 1 and s == 1:
            # Pointwise conv: a plain GEMM, no padding, no patch gather.
            x = np.ascontiguousarray(x)
            b, t, _ = x.shape
            self._cache = ("gemm1x1", x, b, t)
            out = x.reshape(b * t, c) @ self.weight.value.reshape(c, o)
            out += self.bias.value
            return out.reshape(b, t, o)
        x_pad, pad = self._padded(x)
        b, t_pad, _ = x_pad.shape
        t_out = (t_pad - k) // s + 1
        if self.training:
            cols = im2col_1d(x_pad, k, s, self._scratch)  # (B*T_out, K*C)
            x_eval = None
        else:
            self._scratch.drop("cols", "dcols")
            cols = im2col_1d(x_pad, k, s, None)
            x_eval = x_pad
        # (k, c) patch layout: the packed weight is a free reshape view.
        w2 = self.weight.value.reshape(k * c, o)
        self._cache = ("im2col", t_pad, pad, t_out, b, x_eval)
        out = cols @ w2
        out += self.bias.value
        return out.reshape(b, t_out, o)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        if self._cache[0] == "naive":
            return self._backward_naive(grad)
        c, o = self.in_channels, self.out_channels
        if self._cache[0] == "gemm1x1":
            _, x, b, t = self._cache
            g2 = np.ascontiguousarray(grad).reshape(b * t, o)
            x2 = x.reshape(b * t, c)
            self.weight.grad += (x2.T @ g2).reshape(1, c, o)
            self.bias.grad += g2.sum(axis=0)
            return (g2 @ self.weight.value.reshape(c, o).T).reshape(b, t, c)
        _, t_pad, pad, t_out, b, x_eval = self._cache
        k, s, c, o = self.kernel_size, self.stride, self.in_channels, self.out_channels
        grad = np.ascontiguousarray(grad)
        g2 = grad.reshape(b * t_out, o)
        if x_eval is None:
            cols = self._scratch.get("cols", (b * t_out, k * c))
        else:
            cols = im2col_1d(x_eval, k, s, None)
        # dW = colsᵀ @ grad, already laid out (k, c, o).
        dw2 = cols.T @ g2
        self.weight.grad += dw2.reshape(k, c, o)
        self.bias.grad += g2.sum(axis=0)
        # dx: one GEMM into patch space, then a K-tap col2im scatter.
        w2 = self.weight.value.reshape(k * c, o)
        dcols = self._scratch.get("dcols", (b * t_out, k * c))
        np.matmul(g2, w2.T, out=dcols)
        dx = col2im_1d(dcols, (b, t_pad, c), k, s, t_out)
        if pad == 0:
            return dx
        lo = pad // 2
        return dx[:, lo : t_pad - (pad - lo)]

    # -- naive reference path (einsum + tap loop) -----------------------

    def _forward_naive(self, x: np.ndarray) -> np.ndarray:
        pad = _pad_amount(x.shape[1], self.kernel_size, self.stride, self.padding)
        if pad:
            x = np.pad(x, ((0, 0), (pad // 2, pad - pad // 2), (0, 0)))
        self._cache = ("naive", x, pad)
        # (B, T_pad - K + 1, C, K) -> stride slice -> contract taps+channels.
        win = sliding_window_view(x, self.kernel_size, axis=1)[:, :: self.stride]
        out = cached_einsum("btck,kco->bto", win, self.weight.value)
        return out + self.bias.value

    def _backward_naive(self, grad: np.ndarray) -> np.ndarray:
        _, x_pad, pad = self._cache
        win = sliding_window_view(x_pad, self.kernel_size, axis=1)[:, :: self.stride]
        self.weight.grad += cached_einsum("btck,bto->kco", win, grad)
        self.bias.grad += grad.sum(axis=(0, 1))
        dx = np.zeros_like(x_pad)
        t_out = grad.shape[1]
        # One full-batch GEMM per kernel tap.
        for k in range(self.kernel_size):
            contrib = grad @ self.weight.value[k].T  # (B, T_out, C_in)
            dx[:, k : k + t_out * self.stride : self.stride] += contrib
        if pad:
            lo = pad // 2
            dx = dx[:, lo : dx.shape[1] - (pad - lo)]
        return dx

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class Conv2D(Layer):
    """2-D convolution over images shaped ``(B, H, W, C_in)``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: str = "same",
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if kernel_size < 1 or stride < 1:
            raise ValueError("kernel_size and stride must be >= 1")
        rng = as_generator(seed)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            "weight",
            he_normal(
                (kernel_size, kernel_size, in_channels, out_channels),
                rng,
                fan_in=fan_in,
            ),
        )
        self.bias = Parameter("bias", np.zeros(out_channels))
        self._scratch = ScratchCache()
        self._cache: tuple | None = None

    def _padded(self, x: np.ndarray) -> tuple[np.ndarray, int, int]:
        k, s = self.kernel_size, self.stride
        pad_h = _pad_amount(x.shape[1], k, s, self.padding)
        pad_w = _pad_amount(x.shape[2], k, s, self.padding)
        if not (pad_h or pad_w):
            return x, 0, 0
        b, h, w, c = x.shape
        buf = self._scratch.zeros("xpad", (b, h + pad_h, w + pad_w, c))
        buf[:, pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w] = x
        return buf, pad_h, pad_w

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (B, H, W, {self.in_channels}), got {x.shape}"
            )
        if backend() == "naive":
            return self._forward_naive(x)
        k, s, c, o = self.kernel_size, self.stride, self.in_channels, self.out_channels
        if k == 1 and s == 1:
            # Pointwise conv: a plain GEMM, no padding, no patch gather.
            x = np.ascontiguousarray(x)
            b, h, w, _ = x.shape
            self._cache = ("gemm1x1", x, b, h, w)
            out = x.reshape(b * h * w, c) @ self.weight.value.reshape(c, o)
            out += self.bias.value
            return out.reshape(b, h, w, o)
        x_pad, pad_h, pad_w = self._padded(x)
        b, h_pad, w_pad, _ = x_pad.shape
        h_out = (h_pad - k) // s + 1
        w_out = (w_pad - k) // s + 1
        if self.training:
            # (B*H_out*W_out, K*K*C)
            cols = im2col_2d(x_pad, k, s, self._scratch)
            x_eval = None
        else:
            self._scratch.drop("cols", "dcols")
            cols = im2col_2d(x_pad, k, s, None)
            x_eval = x_pad
        # (i, j, c) patch layout: the packed weight is a free reshape view.
        w2 = self.weight.value.reshape(k * k * c, o)
        self._cache = (
            "im2col", h_pad, w_pad, pad_h, pad_w, h_out, w_out, b, x_eval
        )
        out = cols @ w2
        out += self.bias.value
        return out.reshape(b, h_out, w_out, o)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        if self._cache[0] == "naive":
            return self._backward_naive(grad)
        c, o = self.in_channels, self.out_channels
        if self._cache[0] == "gemm1x1":
            _, x, b, h, w = self._cache
            g2 = np.ascontiguousarray(grad).reshape(b * h * w, o)
            x2 = x.reshape(b * h * w, c)
            self.weight.grad += (x2.T @ g2).reshape(1, 1, c, o)
            self.bias.grad += g2.sum(axis=0)
            return (g2 @ self.weight.value.reshape(c, o).T).reshape(b, h, w, c)
        _, h_pad, w_pad, pad_h, pad_w, h_out, w_out, b, x_eval = self._cache
        k, s, c, o = self.kernel_size, self.stride, self.in_channels, self.out_channels
        grad = np.ascontiguousarray(grad)
        g2 = grad.reshape(b * h_out * w_out, o)
        if x_eval is None:
            cols = self._scratch.get("cols", (b * h_out * w_out, k * k * c))
        else:
            cols = im2col_2d(x_eval, k, s, None)
        # dW = colsᵀ @ grad, already laid out (i, j, c, o).
        dw2 = cols.T @ g2
        self.weight.grad += dw2.reshape(k, k, c, o)
        self.bias.grad += g2.sum(axis=0)
        # dx: either one GEMM into patch space + a K²-tap col2im scatter,
        # or — when the patch-gradient matrix would blow the cache (large,
        # or merely big while the GEMM is too thin to amortize it) — K²
        # small GEMMs accumulated straight into the padded gradient.
        dcols_bytes = b * h_out * w_out * k * k * c * grad.dtype.itemsize
        if dcols_bytes > 2**22 or (dcols_bytes > 2**20 and k * k * c <= 32):
            dx = np.zeros((b, h_pad, w_pad, c), dtype=grad.dtype)
            # C-contiguous (O, C) tap weights: the strided ``.T`` view
            # makes each stacked matmul several times slower, same bits.
            w_t = self.weight.value.transpose(0, 1, 3, 2).copy()
            for i in range(k):
                for j in range(k):
                    dx[
                        :,
                        i : i + h_out * s : s,
                        j : j + w_out * s : s,
                    ] += grad @ w_t[i, j]
        else:
            w2 = self.weight.value.reshape(k * k * c, o)
            dcols = self._scratch.get("dcols", (b * h_out * w_out, k * k * c))
            np.matmul(g2, w2.T, out=dcols)
            dx = col2im_2d(dcols, (b, h_pad, w_pad, c), k, s, h_out, w_out)
        if pad_h == 0 and pad_w == 0:
            return dx
        lo_h, lo_w = pad_h // 2, pad_w // 2
        return dx[
            :,
            lo_h : h_pad - (pad_h - lo_h),
            lo_w : w_pad - (pad_w - lo_w),
        ]

    # -- naive reference path (einsum + tap loop) -----------------------

    def _forward_naive(self, x: np.ndarray) -> np.ndarray:
        k, s = self.kernel_size, self.stride
        pad_h = _pad_amount(x.shape[1], k, s, self.padding)
        pad_w = _pad_amount(x.shape[2], k, s, self.padding)
        if pad_h or pad_w:
            x = np.pad(
                x,
                (
                    (0, 0),
                    (pad_h // 2, pad_h - pad_h // 2),
                    (pad_w // 2, pad_w - pad_w // 2),
                    (0, 0),
                ),
            )
        self._cache = ("naive", x, pad_h, pad_w)
        win = sliding_window_view(x, (k, k), axis=(1, 2))[:, ::s, ::s]
        # win: (B, H_out, W_out, C, k, k); weight: (k, k, C, O).
        out = cached_einsum("bhwcij,ijco->bhwo", win, self.weight.value)
        return out + self.bias.value

    def _backward_naive(self, grad: np.ndarray) -> np.ndarray:
        _, x_pad, pad_h, pad_w = self._cache
        k, s = self.kernel_size, self.stride
        win = sliding_window_view(x_pad, (k, k), axis=(1, 2))[:, ::s, ::s]
        self.weight.grad += cached_einsum("bhwcij,bhwo->ijco", win, grad)
        self.bias.grad += grad.sum(axis=(0, 1, 2))
        dx = np.zeros_like(x_pad)
        h_out, w_out = grad.shape[1], grad.shape[2]
        for i in range(k):
            for j in range(k):
                contrib = grad @ self.weight.value[i, j].T  # (B, H_out, W_out, C)
                dx[:, i : i + h_out * s : s, j : j + w_out * s : s] += contrib
        lo_h, lo_w = pad_h // 2, pad_w // 2
        if pad_h or pad_w:
            dx = dx[
                :,
                lo_h : dx.shape[1] - (pad_h - lo_h),
                lo_w : dx.shape[2] - (pad_w - lo_w),
            ]
        return dx

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class MaxPool2D(Layer):
    """Non-overlapping max pooling over ``(B, H, W, C)``.

    ``H`` and ``W`` must be divisible by ``pool``; with random continuous
    inputs argmax ties have measure zero, and on ties the gradient is routed
    to the first maximal element (matching ``argmax`` semantics).
    """

    def __init__(self, pool: int = 2) -> None:
        if pool < 1:
            raise ValueError("pool must be >= 1")
        self.pool = int(pool)
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Elementwise max over the p^2 strided window slices — no block
        # transpose copy and no argmax reduction; the winner is recovered
        # in backward by comparing each slice against the pooled value.
        p = self.pool
        _, h, w, _ = x.shape
        if h % p or w % p:
            raise ValueError(f"spatial dims {h}x{w} not divisible by pool {p}")
        out = x[:, ::p, ::p, :].copy()
        for i in range(p):
            for j in range(p):
                if i or j:
                    np.maximum(out, x[:, i::p, j::p, :], out=out)
        self._cache = (x, out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, out = self._cache
        p = self.pool
        dx = np.zeros(x.shape, dtype=grad.dtype)
        # `taken` routes ties to the first maximal element in (i, j) order,
        # matching the row-major argmax semantics documented above.
        taken = np.zeros(out.shape, dtype=bool)
        for i in range(p):
            for j in range(p):
                hit = x[:, i::p, j::p, :] == out
                hit &= ~taken
                np.copyto(dx[:, i::p, j::p, :], grad, where=hit)
                taken |= hit
        return dx


class GlobalMaxPool(Layer):
    """Max over all spatial axes: ``(B, ..., C)`` -> ``(B, C)``.

    Used as max-over-time pooling in sequence CNNs (one feature per filter,
    wherever in the sequence it fires — which is what lets a convolutional
    malware classifier see signatures anywhere in a long opcode stream).
    """

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, tuple[int, ...]] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        shape = x.shape
        flat = x.reshape(shape[0], -1, shape[-1])
        arg = flat.argmax(axis=1)
        self._cache = (arg, shape)
        return np.take_along_axis(flat, arg[:, None, :], axis=1)[:, 0, :]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        arg, shape = self._cache
        flat = np.zeros(
            (shape[0], int(np.prod(shape[1:-1])), shape[-1]), dtype=grad.dtype
        )
        np.put_along_axis(flat, arg[:, None, :], grad[:, None, :], axis=1)
        return flat.reshape(shape)


class GlobalAveragePool(Layer):
    """Average over all spatial axes: ``(B, ..., C)`` -> ``(B, C)``."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return mean_over(x, tuple(range(1, x.ndim - 1)))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        shape = self._shape
        spatial = int(np.prod(shape[1:-1]))
        expand = grad.reshape(shape[0], *(1,) * (len(shape) - 2), shape[-1])
        return np.divide(expand, spatial, out=np.empty(shape, dtype=grad.dtype))
