"""Streaming-video benchmark: fps, joules/frame, and cache locality.

Streams synthetic sequences at every motion level through the frame
pipeline (``repro.video``) and records, per motion level, the sustained
frame rate, the attributed joules/frame, and the serve LRU hit rate —
the measured counterpart of the paper's 26 fps full-HD deployment
claim. Before timing anything the bench runs a conformance probe: the
same sequence must produce bit-identical per-frame detections on the
reference and batch engines and across ``--workers 1`` and
``--workers 2`` sharded serving; a mismatch aborts with exit code 2.

Usage::

    PYTHONPATH=src python benchmarks/bench_video.py --quick

``--quick`` keeps the run within a CI smoke budget; ``--check`` exits
non-zero unless static-background sequences beat full-motion ones on
cache hit rate by at least ``--min-cache-separation``. The payload is
written to ``BENCH_video.json`` (``--output``) and gated against the
committed baseline by ``benchmarks/check_regression.py``.

Exit codes: 0 ok, 1 ``--check`` failure, 2 conformance mismatch.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve import InferenceService, ShardedInferenceService  # noqa: E402
from repro.video import (  # noqa: E402
    MOTION_LEVELS,
    VideoConfig,
    VideoPipeline,
    VideoPipelineConfig,
    build_video_workload,
    synthesize_sequence,
)

#: Seed of every sequence the bench streams (parity needs fixed pixels).
SEQUENCE_SEED = 3


def _pipeline_config(workload, args):
    """The shared pipeline configuration for every run."""
    return VideoPipelineConfig(
        scale_factor=args.scale_factor,
        max_levels=args.max_levels,
        feature_scale=workload.feature_scale,
    )


def _run_sequence(workload, scorer, sequence, args, workers=0):
    """Stream ``sequence`` through a fresh service; returns the report."""
    if workers > 0:
        service = ShardedInferenceService(
            scorer,
            workers=workers,
            max_batch_size=args.max_batch_size,
            cache_capacity=args.cache_capacity,
        )
    else:
        service = InferenceService(
            scorer,
            max_batch_size=args.max_batch_size,
            cache_capacity=args.cache_capacity,
        )
    with service:
        pipeline = VideoPipeline(
            workload.extractor, service, _pipeline_config(workload, args)
        )
        return pipeline.run(sequence)


def run_conformance(workload, args):
    """Bit-identity probe across engines and worker counts.

    Returns the parity payload; detections must match byte for byte
    because content coding pins every window's raster and NMS breaks
    ties stably — any divergence is a real engine or sharding bug.
    """
    sequence = synthesize_sequence(
        VideoConfig(
            shape=args.parity_shape,
            n_frames=args.parity_frames,
            motion="walk",
        ),
        rng=SEQUENCE_SEED,
    )
    keys = {}
    for engine in ("reference", "batch"):
        report = _run_sequence(
            workload, workload.scorer_for_engine(engine), sequence, args
        )
        keys[engine] = [frame.detections_key() for frame in report.frames]
        print(
            f"conformance: engine={engine}: "
            f"{sum(len(k) for k in keys[engine])} detections over "
            f"{len(keys[engine])} frames"
        )
    engines_identical = keys["reference"] == keys["batch"]

    worker_keys = {}
    for workers in (1, 2):
        report = _run_sequence(
            workload,
            workload.scorer_for_engine("batch"),
            sequence,
            args,
            workers=workers,
        )
        worker_keys[workers] = [frame.detections_key() for frame in report.frames]
        print(f"conformance: workers={workers}: "
              f"{sum(len(k) for k in worker_keys[workers])} detections")
    workers_identical = (
        keys["batch"] == worker_keys[1] == worker_keys[2]
    )
    return {
        "engines": ["reference", "batch"],
        "engines_identical": engines_identical,
        "workers": [0, 1, 2],
        "workers_identical": workers_identical,
        "frames": args.parity_frames,
    }


def run_motion_sweep(workload, args):
    """fps / joules/frame / hit rate at every motion level."""
    motions = {}
    for motion in MOTION_LEVELS:
        sequence = synthesize_sequence(
            VideoConfig(shape=args.shape, n_frames=args.frames, motion=motion),
            rng=SEQUENCE_SEED,
        )
        report = _run_sequence(workload, workload.scorer, sequence, args)
        entry = {
            "fps": report.fps,
            "joules_per_frame": report.joules_per_frame,
            "cache_hit_rate": report.cache_hit_rate,
            "windows_scored": report.windows_scored,
            "degraded_frames": report.degraded_frames,
        }
        if report.curve is not None:
            entry["log_average_miss_rate"] = report.curve.log_average_miss_rate()
        motions[motion] = entry
        print(
            f"motion={motion:<7s} {report.fps:7.2f} fps  "
            f"{report.joules_per_frame * 1e6:8.1f} uJ/frame  "
            f"hit rate {report.cache_hit_rate:6.1%}  "
            f"{report.windows_scored} windows"
        )
    return motions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=10, help="frames per motion run")
    parser.add_argument(
        "--shape", default="240x320", metavar="HxW", help="frame shape in pixels"
    )
    parser.add_argument("--ticks", type=int, default=6, help="scorer spike window")
    parser.add_argument("--hidden", type=int, default=16, help="classifier hidden width")
    parser.add_argument("--n-train", type=int, default=48, help="training windows per class")
    parser.add_argument("--epochs", type=int, default=12, help="classifier training epochs")
    parser.add_argument("--scale-factor", type=float, default=1.2, help="pyramid step")
    parser.add_argument("--max-levels", type=int, default=6, help="pyramid depth cap")
    parser.add_argument("--max-batch-size", type=int, default=64)
    parser.add_argument("--cache-capacity", type=int, default=8192)
    parser.add_argument(
        "--parity-frames", type=int, default=3,
        help="frames in the engine/worker conformance probe",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller frames and sequence (CI smoke budget)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless static beats full-motion cache hit "
        "rate by --min-cache-separation",
    )
    parser.add_argument("--min-cache-separation", type=float, default=0.25)
    parser.add_argument("--output", default="BENCH_video.json")
    args = parser.parse_args()

    if args.quick:
        args.frames = min(args.frames, 6)
        args.shape = "160x224"
        args.n_train = 24
        args.epochs = 8
        args.parity_frames = min(args.parity_frames, 2)
    try:
        height, width = (int(v) for v in args.shape.lower().split("x"))
    except ValueError:
        raise SystemExit(f"bad --shape {args.shape!r}, want HxW")
    args.shape = (height, width)
    args.parity_shape = (min(height, 160), min(width, 224))

    print(
        f"building workload: ticks={args.ticks} hidden={args.hidden} "
        f"n_train={args.n_train} epochs={args.epochs}"
    )
    workload = build_video_workload(
        ticks=args.ticks,
        hidden=args.hidden,
        n_train=args.n_train,
        epochs=args.epochs,
    )

    parity = run_conformance(workload, args)
    if not (parity["engines_identical"] and parity["workers_identical"]):
        print(
            "FAIL: per-frame detections diverged across engines or "
            "worker counts; refusing to record timings",
            file=sys.stderr,
        )
        return 2

    motions = run_motion_sweep(workload, args)

    payload = {
        "workload": {
            "frames": args.frames,
            "shape": list(args.shape),
            "ticks": args.ticks,
            "hidden": args.hidden,
            "n_train": args.n_train,
            "epochs": args.epochs,
            "scale_factor": args.scale_factor,
            "max_levels": args.max_levels,
        },
        "service": {
            "max_batch_size": args.max_batch_size,
            "cache_capacity": args.cache_capacity,
        },
        "motions": motions,
        "parity": parity,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        separation = (
            motions["static"]["cache_hit_rate"]
            - motions["full"]["cache_hit_rate"]
        )
        if separation < args.min_cache_separation:
            print(
                f"FAIL: static-vs-full cache hit separation "
                f"{separation:.2f} below the "
                f"{args.min_cache_separation:.2f} floor",
                file=sys.stderr,
            )
            return 1
        print(
            f"check passed: cache separation {separation:.2f} "
            f">= {args.min_cache_separation:.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
