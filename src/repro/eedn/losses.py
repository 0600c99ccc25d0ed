"""Losses for Eedn training."""

from typing import Tuple

import numpy as np


def softmax_cross_entropy(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean softmax cross-entropy with soft or hard targets.

    Args:
        logits: ``(batch, classes)`` raw scores.
        targets: either integer class labels ``(batch,)`` or a soft target
            distribution ``(batch, classes)`` (rows need not be one-hot —
            the Parrot trainer uses normalised HoG histograms as targets).

    Returns:
        ``(loss, grad)`` where ``grad`` is d loss / d logits, shape
        ``(batch, classes)``.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"logits must be (batch, classes), got {z.shape}")
    batch, classes = z.shape
    t = np.asarray(targets)
    if t.ndim == 1:
        if t.shape[0] != batch:
            raise ValueError(f"need {batch} labels, got {t.shape}")
        one_hot = np.zeros((batch, classes), dtype=np.float64)
        one_hot[np.arange(batch), t.astype(np.int64)] = 1.0
        t = one_hot
    elif t.shape != z.shape:
        raise ValueError(f"soft targets must match logits shape {z.shape}, got {t.shape}")

    shifted = z - z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-(t * log_probs).sum() / batch)
    grad = (np.exp(log_probs) - t) / batch
    return loss, grad


__all__ = ["softmax_cross_entropy"]
