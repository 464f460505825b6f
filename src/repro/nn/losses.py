"""Loss functions.

:func:`softmax_cross_entropy` is fused — it returns the scalar loss *and*
the gradient with respect to the logits in one pass, which is both faster and
more numerically stable than composing a softmax layer with a log loss
(guide idiom: algorithmic optimization beats micro-optimization).
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "log_softmax", "softmax_cross_entropy", "mse_loss"]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.maximum.reduce(logits, axis=axis, keepdims=True)
    if shifted.dtype.kind != "f":
        shifted = shifted.astype(float)
    # The shifted copy is ours: exponentiate and normalize in place.
    return exp_normalize(shifted, axis)


def exp_normalize(shifted: np.ndarray, axis: int = -1) -> np.ndarray:
    """Turn max-shifted float scores into a softmax in place; returns them.

    The ufunc reductions are called directly: ``ndarray.max`` and
    ``ndarray.sum`` reach the same ones through a Python wrapper.
    """
    np.exp(shifted, out=shifted)
    shifted /= np.add.reduce(shifted, axis=axis, keepdims=True)
    return shifted


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of integer ``labels`` under ``softmax(logits)``.

    Parameters
    ----------
    logits:
        Shape ``(B, C)`` raw scores.
    labels:
        Shape ``(B,)`` integer class ids in ``[0, C)``.

    Returns
    -------
    (loss, dlogits):
        Scalar mean loss and its gradient w.r.t. ``logits`` (already divided
        by the batch size, so optimizers apply it directly).
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (B, C), got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[1]:
        raise ValueError("label out of range")
    n = logits.shape[0]
    logp = log_softmax(logits, axis=1)
    loss = float(-logp[np.arange(n), labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. ``pred``."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff**2))
    return loss, (2.0 / diff.size) * diff
