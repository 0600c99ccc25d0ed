"""Multi-scale sliding-window pedestrian detection and its evaluation.

Implements the methodology of the paper's Section 4:

- an image pyramid with 1.1x scale steps
  (:mod:`repro.detection.pyramid`), including the full-HD cell-grid
  arithmetic behind Section 5.2 (57,749 cells per frame across six
  scales);
- 64x128 windows slid at cell (8 px) granularity over per-level cell
  grids (:mod:`repro.detection.pipeline`);
- greedy non-maximum suppression with overlap 0.2
  (:mod:`repro.detection.nms`);
- miss rate versus false-positives-per-image evaluation with 0.5-IoU
  matching and the log-average miss rate summary of Dollar et al.
  (:mod:`repro.detection.evaluate`).
"""

from repro.detection.pyramid import (
    FULL_HD_CELL_GRIDS,
    ImagePyramid,
    full_hd_cell_count,
)
from repro.detection.nms import non_maximum_suppression
from repro.detection.evaluate import (
    DetectionCurve,
    evaluate_detections,
    log_average_miss_rate,
)
from repro.detection.pipeline import (
    Detection,
    EednBinaryScorer,
    SlidingWindowDetector,
    TrueNorthBinaryScorer,
    sliding_window_features,
)

__all__ = [
    "Detection",
    "DetectionCurve",
    "EednBinaryScorer",
    "FULL_HD_CELL_GRIDS",
    "ImagePyramid",
    "SlidingWindowDetector",
    "TrueNorthBinaryScorer",
    "evaluate_detections",
    "full_hd_cell_count",
    "log_average_miss_rate",
    "non_maximum_suppression",
    "sliding_window_features",
]
