"""Core layer abstractions and dense/utility layers.

Design: a :class:`Layer` exposes ``forward``/``backward`` and a flat list of
:class:`Parameter` objects.  Backward passes accumulate into
``Parameter.grad`` in place (guide idiom: avoid reallocating large arrays),
and optimizers update ``Parameter.value`` in place.  All arrays are float64
C-contiguous unless a layer documents otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import as_generator

__all__ = [
    "Parameter",
    "Layer",
    "BatchNorm",
    "Dense",
    "Flatten",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "glorot_uniform",
    "he_normal",
]


@dataclass
class Parameter:
    """A trainable tensor with its gradient accumulator."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.value = np.ascontiguousarray(self.value, dtype=float)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        """Reset the gradient accumulator in place."""
        self.grad[...] = 0.0

    @property
    def size(self) -> int:
        return int(self.value.size)


def glorot_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, *, fan_in: int, fan_out: int
) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(
    shape: tuple[int, ...], rng: np.random.Generator, *, fan_in: int
) -> np.ndarray:
    """He normal initialization, appropriate ahead of ReLU nonlinearities."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def mean_over(x: np.ndarray, axis: int | tuple[int, ...], *,
              keepdims: bool = False) -> np.ndarray:
    """``x.mean(axis, keepdims=keepdims)`` without np.mean's Python wrapper.

    The same ``np.add.reduce`` divided in place by the same count, so the
    result is bit-identical; the wrapper costs more than the reduction on
    the small arrays the layers normalize.
    """
    axes = (axis,) if isinstance(axis, int) else axis
    total = np.add.reduce(x, axis=axis, keepdims=keepdims)
    total /= math.prod(x.shape[a] for a in axes)
    return total


class Layer:
    """Base class: stateless by default, overridable hooks for training mode."""

    training: bool = True

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """Trainable parameters (empty for stateless layers)."""
        return []

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    @property
    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Include the additive bias term (default True).
    seed:
        Seed or generator for Glorot initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        rng = as_generator(seed)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(
            "weight",
            glorot_uniform(
                (in_features, out_features), rng, fan_in=in_features, fan_out=out_features
            ),
        )
        self.bias = Parameter("bias", np.zeros(out_features)) if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected last dim {self.in_features}, got {x.shape}"
            )
        self._x = x
        out = x @ self.weight.value
        if self.bias is not None:
            out += self.bias.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x = self._x
        # Collapse any leading batch dims so matmul handles (B, T, F) inputs.
        x2 = x.reshape(-1, self.in_features)
        g2 = grad.reshape(-1, self.out_features)
        self.weight.grad += x2.T @ g2
        if self.bias is not None:
            self.bias.grad += np.add.reduce(g2, axis=0)
        return (g2 @ self.weight.value.T).reshape(x.shape)

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params


class Flatten(Layer):
    """Flatten all dimensions after the batch dimension."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity in eval mode.

    The mask stream is owned by the layer so training runs are reproducible
    given the construction seed.
    """

    def __init__(self, rate: float, *, seed: int | np.random.Generator | None = 0) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must lie in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = as_generator(seed)
        self._mask: np.ndarray | None = None

    def reseed(self, seed: int) -> None:
        """Rebase the mask stream on ``seed``.

        Data-parallel training reseeds every dropout per (step, shard) so the
        mask stream is a pure function of the shard — not of which process
        computed it or what ran before.
        """
        self._rng = as_generator(int(seed))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class Embedding(Layer):
    """Token embedding lookup: integer ids ``(B, T)`` -> vectors ``(B, T, D)``."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        *,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        rng = as_generator(seed)
        self.vocab_size = int(vocab_size)
        self.dim = int(dim)
        self.weight = Parameter(
            "embedding", rng.normal(0.0, 0.02, size=(vocab_size, dim))
        )
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(f"Embedding expects integer ids, got dtype {ids.dtype}")
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.vocab_size:
            raise ValueError("token id out of range for embedding table")
        self._ids = ids
        return self.weight.value[ids]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        # Scatter-add gradients for repeated ids (np.add.at handles duplicates).
        np.add.at(self.weight.grad, self._ids.ravel(), grad.reshape(-1, self.dim))
        return np.zeros(self._ids.shape + (0,))  # ids carry no gradient

    def parameters(self) -> list[Parameter]:
        return [self.weight]


class BatchNorm(Layer):
    """Batch normalization over the channel (last) axis.

    Normalizes across the batch and any spatial axes, per channel, with
    affine parameters and exponential running statistics for eval mode.
    Input shape ``(B, ..., C)``; channels-last, like the conv layers.
    """

    def __init__(self, channels: int, *, momentum: float = 0.9, eps: float = 1e-5) -> None:
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
        self.channels = int(channels)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter("gamma", np.ones(channels))
        self.beta = Parameter("beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache: tuple[np.ndarray, np.ndarray, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.channels:
            raise ValueError(
                f"BatchNorm expected last dim {self.channels}, got {x.shape}"
            )
        axes = tuple(range(x.ndim - 1))
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean *= m
            self.running_mean += (1.0 - m) * mean
            self.running_var *= m
            self.running_var += (1.0 - m) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        n = int(np.prod(x.shape[:-1]))
        self._cache = (xhat, inv_std, n)
        return xhat * self.gamma.value + self.beta.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        xhat, inv_std, n = self._cache
        axes = tuple(range(grad.ndim - 1))
        self.gamma.grad += (grad * xhat).sum(axis=axes)
        self.beta.grad += grad.sum(axis=axes)
        gxhat = grad * self.gamma.value
        if not self.training:
            return gxhat * inv_std
        mean_g = gxhat.mean(axis=axes)
        mean_gx = (gxhat * xhat).mean(axis=axes)
        return (gxhat - mean_g - xhat * mean_gx) * inv_std

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]


class LayerNorm(Layer):
    """Layer normalization over the last dimension with affine parameters."""

    def __init__(self, dim: int, *, eps: float = 1e-5) -> None:
        self.dim = int(dim)
        self.eps = float(eps)
        self.gamma = Parameter("gamma", np.ones(dim))
        self.beta = Parameter("beta", np.zeros(dim))
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"LayerNorm expected last dim {self.dim}, got {x.shape}")
        mean = mean_over(x, -1, keepdims=True)
        centered = x - mean
        # One pass over the centered values; np.var computes the identical
        # mean(centered**2), but re-derives `centered` internally.
        square = centered * centered
        var = mean_over(square, -1, keepdims=True)
        var += self.eps
        inv_std = np.divide(1.0, np.sqrt(var, out=var), out=var)
        xhat = centered
        xhat *= inv_std
        self._cache = (xhat, inv_std)
        out = np.multiply(xhat, self.gamma.value, out=square)
        out += self.beta.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        xhat, inv_std = self._cache
        g2 = grad.reshape(-1, self.dim)
        xh2 = xhat.reshape(-1, self.dim)
        self.gamma.grad += np.add.reduce(g2 * xh2, axis=0)
        self.beta.grad += np.add.reduce(g2, axis=0)
        # Standard layernorm backward in normalized coordinates:
        # (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat)) * inv_std.
        gxhat = grad * self.gamma.value
        mean_g = mean_over(gxhat, -1, keepdims=True)
        product = gxhat * xhat
        mean_gx = mean_over(product, -1, keepdims=True)
        out = gxhat
        out -= mean_g
        out -= np.multiply(xhat, mean_gx, out=product)
        out *= inv_std
        return out

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]
