"""Greedy non-maximum suppression.

"The detection windows are then narrowed by performing non-maximum
suppression (NMS) with epsilon = 0.2" (paper, Section 4): a detection is
suppressed when it overlaps a higher-scored kept detection by more than
the epsilon threshold.
"""

from typing import List

import numpy as np


def box_iou(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise intersection-over-union of ``(x, y, w, h)`` boxes.

    Args:
        boxes_a: ``(n, 4)`` boxes.
        boxes_b: ``(m, 4)`` boxes.

    Returns:
        ``(n, m)`` IoU matrix.
    """
    a = np.atleast_2d(np.asarray(boxes_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(boxes_b, dtype=np.float64))
    ax1, ay1 = a[:, 0], a[:, 1]
    ax2, ay2 = a[:, 0] + a[:, 2], a[:, 1] + a[:, 3]
    bx1, by1 = b[:, 0], b[:, 1]
    bx2, by2 = b[:, 0] + b[:, 2], b[:, 1] + b[:, 3]

    inter_w = np.maximum(
        0.0, np.minimum(ax2[:, None], bx2[None, :]) - np.maximum(ax1[:, None], bx1[None, :])
    )
    inter_h = np.maximum(
        0.0, np.minimum(ay2[:, None], by2[None, :]) - np.maximum(ay1[:, None], by1[None, :])
    )
    intersection = inter_w * inter_h
    area_a = (a[:, 2] * a[:, 3])[:, None]
    area_b = (b[:, 2] * b[:, 3])[None, :]
    union = area_a + area_b - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, intersection / union, 0.0)
    # Guard against floating-point excursions just above 1.
    return np.clip(iou, 0.0, 1.0)


def non_maximum_suppression(
    boxes: np.ndarray, scores: np.ndarray, epsilon: float = 0.2
) -> List[int]:
    """Indices of detections surviving greedy NMS, by descending score.

    Args:
        boxes: ``(n, 4)`` boxes as ``(x, y, w, h)``.
        scores: ``(n,)`` detection scores.
        epsilon: IoU above which a lower-scored detection is suppressed.

    Returns:
        Kept indices into the input arrays, highest score first.
    """
    box_arr = np.atleast_2d(np.asarray(boxes, dtype=np.float64))
    score_arr = np.asarray(scores, dtype=np.float64).reshape(-1)
    if box_arr.shape[0] != score_arr.shape[0]:
        raise ValueError(
            f"{box_arr.shape[0]} boxes but {score_arr.shape[0]} scores"
        )
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if box_arr.shape[0] == 0:
        return []

    # Stable sort: numpy's default introsort breaks ties in a
    # platform-dependent order, which makes the kept set of tied-score
    # detections nondeterministic. Sorting the negated scores with
    # kind="stable" keeps tied detections in input order.
    order = np.argsort(-score_arr, kind="stable")
    kept: List[int] = []
    suppressed = np.zeros(box_arr.shape[0], dtype=bool)
    for index in order:
        if suppressed[index]:
            continue
        kept.append(int(index))
        # Only kept boxes suppress, so only their IoU rows are needed;
        # each row is the same elementwise arithmetic as the full matrix.
        suppressed |= box_iou(box_arr[index], box_arr)[0] > epsilon
    return kept


__all__ = ["box_iou", "non_maximum_suppression"]
