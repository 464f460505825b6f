"""Elementwise activation layers.

Each activation caches only what its backward pass needs (guide idiom: be
easy on memory — keep views where possible, avoid gratuitous copies).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer

__all__ = ["ReLU", "Sigmoid", "Tanh", "GELU"]


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad, 0.0)


class Sigmoid(Layer):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Numerically stable piecewise evaluation.
        out = np.empty_like(np.asarray(x, dtype=float))
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad * self._out * (1.0 - self._out)


class Tanh(Layer):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad * (1.0 - self._out**2)


class GELU(Layer):
    """Gaussian error linear unit (tanh approximation, as used in BERT).

    Both passes apply the reference formulas' ufuncs to the same operands
    in the same order, but into buffers of their own instead of a fresh
    temporary per operator, so the results are bit-identical to them.
    """

    _C = np.sqrt(2.0 / np.pi)

    def __init__(self) -> None:
        self._x: np.ndarray | None = None
        self._t: np.ndarray | None = None
        self._half_x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._x = x
        # 0.5 * x * (1 + tanh(C * (x + 0.044715 * (x * x * x)))).  x*x*x
        # instead of x**3: np.power is an order of magnitude slower than
        # two multiplies.  tanh and 0.5 * x are cached for backward.
        t = x * x
        t *= x
        t *= 0.044715
        t += x
        t *= self._C
        np.tanh(t, out=t)
        self._t = t
        self._half_x = half_x = 0.5 * x
        out = 1.0 + t
        out *= half_x
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None or self._t is None or self._half_x is None:
            raise RuntimeError("backward called before forward")
        x, t = self._x, self._t
        # grad * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * dinner), with
        # dinner = C * (1 + 0.134145 * (x * x)).
        dinner = x * x
        dinner *= 0.134145
        dinner += 1.0
        dinner *= self._C
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        slope *= self._half_x
        slope *= dinner
        out = np.add(1.0, t, out=dinner)
        out *= 0.5
        out += slope
        out *= grad
        return out
