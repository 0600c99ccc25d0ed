"""Greedy NMS against the full-IoU-matrix oracle.

``non_maximum_suppression`` computes IoU rows only for the boxes it
keeps; the oracle below builds the whole ``box_iou(boxes, boxes)``
matrix up front, as the suppression step did before. The kept lists
must be identical, including under tied scores and zero-area boxes.
"""

from typing import List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.nms import box_iou, non_maximum_suppression


def _oracle_nms(boxes: np.ndarray, scores: np.ndarray, epsilon: float) -> List[int]:
    if boxes.shape[0] == 0:
        return []
    order = np.argsort(-scores, kind="stable")
    iou = box_iou(boxes, boxes)
    kept: List[int] = []
    suppressed = np.zeros(boxes.shape[0], dtype=bool)
    for index in order:
        if suppressed[index]:
            continue
        kept.append(int(index))
        suppressed |= iou[index] > epsilon
    return kept


# Coordinates on a coarse grid with sizes that include 0, so boxes
# overlap, coincide and degenerate often.
_box = st.tuples(
    st.integers(0, 12), st.integers(0, 12), st.integers(0, 8), st.integers(0, 8)
)


class TestAgainstFullMatrix:
    @given(
        boxes=st.lists(_box, min_size=0, max_size=40),
        scores=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=40, max_size=40),
        epsilon=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
        scale=st.sampled_from([1.0, 1.1, 8.0 * 1.1**3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_kept_list_identical(self, boxes, scores, epsilon, scale):
        box_arr = np.array(boxes, dtype=np.float64).reshape(-1, 4) * scale
        score_arr = np.array(scores[: len(boxes)])
        assert non_maximum_suppression(box_arr, score_arr, epsilon) == _oracle_nms(
            box_arr, score_arr, epsilon
        )

    def test_pipeline_shaped_candidates(self):
        rng = np.random.default_rng(0)
        n = 632
        scale = 1.1 ** rng.integers(0, 4, n)
        boxes = np.stack(
            [8 * rng.integers(0, 30, n) * scale, 8 * rng.integers(0, 15, n) * scale,
             64 * scale, 128 * scale],
            axis=1,
        )
        scores = rng.integers(1, 6, n).astype(np.float64)
        kept = non_maximum_suppression(boxes, scores, 0.2)
        assert kept == _oracle_nms(boxes, scores, 0.2)
        assert 1 < len(kept) < n
