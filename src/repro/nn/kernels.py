"""Shared kernel machinery: backend selection, path caches, im2col buffers.

The convolution layers have two execution paths:

* ``"im2col"`` (default) — receptive fields are gathered into an explicit
  patch matrix once per pass and the whole contraction runs as a single
  BLAS GEMM (``cols @ weight``).  The backward pass is two more GEMMs:
  the weight gradient reuses the cached forward patch matrix
  (``colsᵀ @ grad``), and the input gradient is one GEMM into patch
  space (``grad @ weightᵀ``) followed by a col2im scatter — K (or K²)
  strided vector adds, replacing the naive path's K/K² small GEMMs.
* ``"naive"`` — the original ``einsum``-over-``sliding_window_view``
  contraction and K/K² tap-loop backward, kept as the semantic reference
  for equivalence testing and reachable via ``REPRO_NN_NAIVE=1`` or the
  :func:`use_naive` context manager.

Two caches keep the steady state allocation-free and path-search-free:

* :func:`cached_einsum` — ``np.einsum`` re-runs its contraction-path
  search on *every* call when ``optimize=True``; for layers that run the
  same shapes thousands of times (attention predicts at batch size 1 in
  the RL experiment) the search dominates the contraction.  The helper
  memoizes the optimal path per ``(subscripts, shapes)``.
* :class:`ScratchCache` — one flat per-layer buffer per tag and dtype,
  grown to the largest request, so patch matrices and padded inputs are
  allocated once and reused for the rest of training — a last partial
  batch or a bigger inference batch does not leave a second copy behind.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "backend",
    "use_naive",
    "cached_einsum",
    "ScratchCache",
    "im2col_1d",
    "im2col_2d",
    "col2im_1d",
    "col2im_2d",
]

_NAIVE_ENV = "REPRO_NN_NAIVE"
_force_naive = 0  # nesting depth of use_naive() contexts


def backend() -> str:
    """The active convolution backend: ``"im2col"`` or ``"naive"``."""
    if _force_naive or os.environ.get(_NAIVE_ENV, "") == "1":
        return "naive"
    return "im2col"


@contextmanager
def use_naive() -> Iterator[None]:
    """Force the naive reference path within the context (re-entrant)."""
    global _force_naive
    _force_naive += 1
    try:
        yield
    finally:
        _force_naive -= 1


# ---------------------------------------------------------------------------
# Contraction-path cache
# ---------------------------------------------------------------------------

_PATH_CACHE: dict[tuple, list] = {}


def cached_einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum`` with the contraction path memoized per input shapes.

    The path found by ``einsum_path`` is a pure function of the subscripts
    and operand shapes, so caching it preserves bit-identical results while
    removing the per-call path search.
    """
    key = (subscripts,) + tuple(op.shape for op in operands)
    path = _PATH_CACHE.get(key)
    if path is None:
        path, _ = np.einsum_path(subscripts, *operands, optimize="optimal")
        _PATH_CACHE[key] = path
    return np.einsum(subscripts, *operands, optimize=path)


class ScratchCache:
    """Per-owner reusable scratch: one flat buffer per ``(tag, dtype)``.

    ``get`` returns a C-contiguous view of the buffer's head shaped as
    asked, uninitialized (callers overwrite it entirely); ``zeros``
    additionally clears it in place.  The buffer grows to the largest
    request of its tag, so a layer fed batches of 16, 15, 32 and 1 holds
    one 32-batch buffer, not four.  Views are cached per shape, so
    training loops that present the same shapes step after step perform
    no allocation at all; growing a buffer drops its tag's cached views.
    Views of one tag alias each other: a caller may rely on a view's
    contents only until the next request for that tag in another shape.
    """

    def __init__(self) -> None:
        self._flat: dict[tuple, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}

    def get(self, tag: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        key = (tag, shape, dtype)
        view = self._views.get(key)
        if view is None:
            size = math.prod(shape)
            flat = self._flat.get((tag, dtype))
            if flat is None or flat.size < size:
                flat = self._flat[(tag, dtype)] = np.empty(size, dtype=dtype)
                self._views = {
                    k: v for k, v in self._views.items() if k[::2] != (tag, dtype)
                }
            view = self._views[key] = flat[:size].reshape(shape)
        return view

    def zeros(self, tag: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        buf = self.get(tag, shape, dtype)
        buf[...] = 0.0
        return buf

    def drop(self, *tags: str) -> None:
        """Release the buffers of ``tags`` (every dtype)."""
        if any(key[0] in tags for key in self._flat):
            self._flat = {k: v for k, v in self._flat.items() if k[0] not in tags}
            self._views = {k: v for k, v in self._views.items() if k[0] not in tags}

    @property
    def nbytes(self) -> int:
        """Bytes held across all tags."""
        return sum(flat.nbytes for flat in self._flat.values())


# ---------------------------------------------------------------------------
# im2col / dilation helpers
# ---------------------------------------------------------------------------


def _patch_buffer(
    scratch: ScratchCache | None, tag: str, shape: tuple[int, int], dtype
) -> np.ndarray:
    if scratch is None:
        return np.empty(shape, dtype=dtype)
    return scratch.get(tag, shape, dtype)


def im2col_1d(
    x: np.ndarray, kernel: int, stride: int, scratch: ScratchCache | None,
    tag: str = "cols",
) -> np.ndarray:
    """Patch matrix for 1-D convolution over ``(B, T, C)``.

    Returns ``(B * T_out, K * C)`` with the per-patch layout ``(k, c)`` —
    channels innermost, so each tap copies a contiguous C-run of the
    input (3x faster gather than channel-major) and the packed weight is
    the free view ``weight.reshape(K * C, O)`` for a ``(K, C, O)`` weight.
    With ``scratch=None`` the matrix is a fresh array owned by the caller.
    """
    b, t, c = x.shape
    t_out = (t - kernel) // stride + 1
    win = sliding_window_view(x, kernel, axis=1)[:, :: stride * 1]
    # win: (B, T_out, C, K) -> copy as (B, T_out, K, C).
    cols = _patch_buffer(scratch, tag, (b * t_out, kernel * c), x.dtype)
    np.copyto(cols.reshape(b, t_out, kernel, c), win.transpose(0, 1, 3, 2))
    return cols


def im2col_2d(
    x: np.ndarray, kernel: int, stride: int, scratch: ScratchCache | None,
    tag: str = "cols",
) -> np.ndarray:
    """Patch matrix for 2-D convolution over ``(B, H, W, C)``.

    Returns ``(B * H_out * W_out, K * K * C)`` with per-patch layout
    ``(i, j, c)`` — channels innermost, so each of the K² taps copies a
    contiguous C-run of the input (3x faster gather than channel-major)
    and the packed weight is the free view ``weight.reshape(K * K * C, O)``
    for a ``(K, K, C, O)`` weight.  With ``scratch=None`` the matrix is a
    fresh array owned by the caller.
    """
    b, h, w, c = x.shape
    h_out = (h - kernel) // stride + 1
    w_out = (w - kernel) // stride + 1
    win = sliding_window_view(x, (kernel, kernel), axis=(1, 2))[:, ::stride, ::stride]
    # win: (B, H_out, W_out, C, K, K) -> copy as (B, H_out, W_out, K, K, C).
    cols = _patch_buffer(
        scratch, tag, (b * h_out * w_out, kernel * kernel * c), x.dtype
    )
    np.copyto(
        cols.reshape(b, h_out, w_out, kernel, kernel, c),
        win.transpose(0, 1, 2, 4, 5, 3),
    )
    return cols


def col2im_1d(
    dcols: np.ndarray, shape: tuple[int, int, int], kernel: int, stride: int,
    t_out: int,
) -> np.ndarray:
    """Scatter patch-gradients ``(B * T_out, K * C)`` back to ``shape``.

    The inverse of :func:`im2col_1d`: each of the K tap columns is one
    strided add into the (padded) input gradient — K cheap vector adds
    instead of K small GEMMs.
    """
    b, t_pad, c = shape
    dx = np.zeros(shape, dtype=dcols.dtype)
    d = dcols.reshape(b, t_out, kernel, c)
    for ki in range(kernel):
        dx[:, ki : ki + t_out * stride : stride] += d[:, :, ki, :]
    return dx


def col2im_2d(
    dcols: np.ndarray, shape: tuple[int, int, int, int], kernel: int,
    stride: int, h_out: int, w_out: int,
) -> np.ndarray:
    """Scatter patch-gradients ``(B * H_out * W_out, K * K * C)`` back.

    The inverse of :func:`im2col_2d`: K² strided adds into the (padded)
    input gradient, each moving contiguous C-runs.
    """
    b, h_pad, w_pad, c = shape
    dx = np.zeros(shape, dtype=dcols.dtype)
    d = dcols.reshape(b, h_out, w_out, kernel, kernel, c)
    for i in range(kernel):
        for j in range(kernel):
            dx[
                :,
                i : i + h_out * stride : stride,
                j : j + w_out * stride : stride,
            ] += d[:, :, :, i, j, :]
    return dx
