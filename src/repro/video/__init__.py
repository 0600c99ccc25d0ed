"""``repro.video`` — full-frame streaming video as a served workload.

The paper's headline deployment claim is full-HD pedestrian detection
at 26 fps: 57,749 cells per frame across 6 pyramid scales (Section
5.2). This package turns that claim into a measured end-to-end
trajectory: synthetic video sequences with exact ground truth
(:mod:`repro.video.synthesis`), a frame-level pipeline that decomposes
each frame into a pyramid, fans window rows out to the (optionally
sharded) micro-batching service, and reassembles detections through NMS
(:mod:`repro.video.pipeline`), plus the deployable window classifier it
scores with (:mod:`repro.video.workload`).

Quick start::

    from repro.serve import InferenceService
    from repro.video import (
        VideoConfig, VideoPipeline, VideoPipelineConfig,
        build_video_workload, synthesize_sequence,
    )

    workload = build_video_workload()
    sequence = synthesize_sequence(VideoConfig(motion="walk", n_frames=8))
    with InferenceService(workload.scorer) as service:
        pipeline = VideoPipeline(
            workload.extractor, service,
            VideoPipelineConfig(feature_scale=workload.feature_scale),
        )
        report = pipeline.run(sequence)
    print(report.fps, report.joules_per_frame, report.cache_hit_rate)

See ``docs/VIDEO_PIPELINE.md`` for the dataflow, deadline/degradation
semantics, and the cache-locality model.
"""

from repro.video.pipeline import (
    FrameResult,
    VideoPipeline,
    VideoPipelineConfig,
    VideoReport,
    pool_feature_rows,
    pooled_window_rows,
)
from repro.video.synthesis import (
    MOTION_LEVELS,
    VideoConfig,
    VideoSequence,
    synthesize_sequence,
)
from repro.video.workload import (
    VideoWorkload,
    build_video_workload,
    calibrated_feature_scale,
)

__all__ = [
    "MOTION_LEVELS",
    "FrameResult",
    "VideoConfig",
    "VideoPipeline",
    "VideoPipelineConfig",
    "VideoReport",
    "VideoSequence",
    "VideoWorkload",
    "build_video_workload",
    "calibrated_feature_scale",
    "pool_feature_rows",
    "pooled_window_rows",
    "synthesize_sequence",
]
