"""The benchmark workloads and the run loop.

A run is a sequence of *epochs*. Every epoch starts a fresh service and
replays the same seeded inputs through it, so each epoch must produce
the same outputs and the same simulated ledger; the gate checks that,
together with the service's request accounting and a direct model call
on a sample of the served rows.

- ``video-static`` / ``video-full``: one epoch streams a clip of
  ``frames_per_clip`` synthetic frames through ``VideoPipeline`` into an
  in-process ``InferenceService``. A fresh service means a cold cache,
  so frame 0 of every clip misses and the simulated energy of a clip is
  the same in every epoch.
- ``serve-cells``: one epoch is a closed loop of ``CELL_CLIENTS`` threads,
  each sending ``rounds_per_epoch`` chunks of ``rows_per_call`` unique
  10x10 patches through ``ShardedInferenceService(workers=1)`` and
  waiting for each chunk before sending the next.

A *frame* is the unit a client waits for: a video frame, or one chunk on
``serve-cells``. A *request* is one row submitted to the serving tier: a
detection-window row, or one cell patch.

End-to-end metrics come from untraced epochs. With ``trace=True`` the
run alternates untraced and traced epochs; traced epochs run with the
per-layer probes of :mod:`perfbench.probes` installed and give the
per-layer metrics, and the two kinds together give the tracing cost.
"""

import contextlib
import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import measure, probes
from repro.detection.pyramid import ImagePyramid
from repro.obs import get_registry
from repro.serve import InferenceService, ShardedInferenceService
from repro.serve.workloads import NApproxCellModel, random_patch_rows
from repro.video import (
    VideoConfig,
    VideoPipeline,
    VideoPipelineConfig,
    build_video_workload,
    synthesize_sequence,
)
from repro.video import pipeline as video_pipeline

#: Set-ups timed per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: A run stops early once this much wall time has passed, whatever the
#: minimum counts say.
HARD_LIMIT_S = 140.0

#: ``InferenceService`` batch cap and cache size on the video workloads.
VIDEO_MAX_BATCH = 64
VIDEO_CACHE_ENTRIES = 8192

#: Closed-loop clients and shard workers on ``serve-cells``: two client
#: threads and one worker process fit the two cores this benchmark was
#: sized on without measuring CPU contention.
CELL_CLIENTS = 2
CELL_WORKERS = 1

#: NApprox spike window (data ticks per cell) on ``serve-cells``.
CELL_WINDOW = 16


@dataclass(frozen=True)
class VideoSettings:
    """Knobs of a video workload.

    Attributes:
        motion: ``synthesize_sequence`` motion level.
        shape: frame ``(height, width)``.
        frames_per_clip: frames per epoch. Nine frames of 887 windows
            stay below the service's 8192-sample latency reservoir and
            its 8192-entry cache, so neither drops a request of a clip.
        min_frames: untraced frames a run measures at least.
        n_train / train_epochs: classifier training size.
        gate_rows: served rows compared with a direct scorer call.
    """

    motion: str
    shape: Tuple[int, int] = (240, 320)
    frames_per_clip: int = 9
    min_frames: int = 40
    n_train: int = 48
    train_epochs: int = 12
    gate_rows: int = 16


@dataclass(frozen=True)
class CellSettings:
    """Knobs of the ``serve-cells`` workload.

    Attributes:
        rows_per_call: cell patches per ``score_many`` round trip.
        rounds_per_epoch: round trips per client per epoch.
        min_frames: untraced round trips a run measures at least.
        gate_rows: served rows compared with a direct model call.
    """

    rows_per_call: int = 16
    rounds_per_epoch: int = 4
    min_frames: int = 40
    gate_rows: int = 16


WORKLOADS = {
    "video-static": VideoSettings(motion="static"),
    "video-full": VideoSettings(motion="full"),
    "serve-cells": CellSettings(),
}

#: Seconds-scale settings for the benchmark's own tests.
TINY = {
    "video-static": VideoSettings(
        motion="static", shape=(144, 80), frames_per_clip=3, min_frames=1,
        n_train=24, train_epochs=8, gate_rows=4,
    ),
    "video-full": VideoSettings(
        motion="full", shape=(144, 80), frames_per_clip=3, min_frames=1,
        n_train=24, train_epochs=8, gate_rows=4,
    ),
    "serve-cells": CellSettings(
        rows_per_call=4, rounds_per_epoch=1, min_frames=1, gate_rows=4,
    ),
}


@dataclass
class Epoch:
    """What one epoch measured."""

    traced: bool
    wall_s: float
    frame_s: List[float]
    frames_attempted: int
    requests: int
    completed: int
    latency_s: Dict[float, float]
    ledger: Dict[str, int]
    energy_j: float
    outputs: str
    snapshot: Dict
    properties: Dict[str, float]
    layers: Optional[Dict[str, Dict[str, float]]] = None
    round_trip_s: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def frames(self) -> int:
        return len(self.frame_s)


def _latency_ladder(service) -> Dict[float, float]:
    """Request-latency percentiles (s) of the service's own reservoir."""
    return {q: service.stats.latency_percentile(q) for q in measure.LADDER}


def _attribution_problems(snapshot: Dict, led: Dict[str, int]) -> List[str]:
    """The service must attribute exactly the energy its runs consumed."""
    attributed = snapshot["counters"].get("energy_nanojoules", 0.0) * 1e-9
    energy = measure.ledger_energy_joules(led)
    if np.isclose(attributed, energy, rtol=1e-9, atol=0.0):
        return []
    return [f"service attributed {attributed!r} J, the ledger {energy!r} J"]


def _probe_scope(traced: bool):
    return probes.installed() if traced else contextlib.nullcontext()


class VideoBench:
    """``video-static`` / ``video-full``: frames through the pipeline."""

    kind = "video"

    def __init__(self, settings: VideoSettings, seed: int) -> None:
        self.settings = settings
        self.seed = seed
        self.workload = None
        self.sequence = None
        self.serve_model = None

    def setup(self) -> float:
        """Build classifier, clip and service once; returns seconds."""
        s = self.settings
        started = time.perf_counter()
        # Built the way ``python -m repro video`` builds it, minus the
        # explicit engine: the entry point's default engine is measured.
        workload = build_video_workload(
            ticks=6, hidden=16, n_train=s.n_train, epochs=s.train_epochs
        )
        sequence = synthesize_sequence(
            VideoConfig(shape=s.shape, n_frames=s.frames_per_clip, motion=s.motion),
            rng=self.seed,
        )
        service = InferenceService(
            workload.scorer,
            max_batch_size=VIDEO_MAX_BATCH,
            cache_capacity=VIDEO_CACHE_ENTRIES,
        )
        service.start()
        elapsed = time.perf_counter() - started
        service.close()
        if self.workload is not None and (
            workload.scorer.model_id != self.workload.scorer.model_id
        ):
            raise RuntimeError("repeated set-up built a different classifier")
        self.workload, self.sequence = workload, sequence
        self.serve_model = workload.scorer
        return elapsed

    @property
    def model(self):
        """The scorer the gate calls directly."""
        return self.workload.scorer

    def _config(self):
        return VideoPipelineConfig(feature_scale=self.workload.feature_scale)

    def window_rows(self, image: np.ndarray) -> np.ndarray:
        """Every pooled window row of ``image``, built from public calls."""
        config = self._config()
        extractor = self.workload.extractor
        n_bins = int(extractor.config.n_bins)
        cell = int(extractor.config.cell_size)
        window_cells = (config.window_shape[0] // cell, config.window_shape[1] // cell)
        levels = ImagePyramid(
            image,
            window_shape=config.window_shape,
            scale_factor=config.scale_factor,
            max_levels=config.max_levels,
        ).levels()
        rows = []
        for level in levels:
            grid = np.asarray(extractor.cell_grid(level.image), dtype=np.float64)
            raw, _ = video_pipeline.sliding_window_features(grid, window_cells)
            if raw.shape[0]:
                pooled = video_pipeline.pool_feature_rows(
                    raw, window_cells, n_bins, pool=config.pool,
                    bin_merge=config.bin_merge,
                )
                rows.append(np.clip(pooled * config.feature_scale, 0.0, 1.0))
        return np.vstack(rows)

    def gate_rows(self) -> np.ndarray:
        """The seeded sample of the clip's last frame the gate checks."""
        rows = self.window_rows(self.sequence[len(self.sequence) - 1].image)
        pick = np.random.default_rng(self.seed).choice(
            len(rows), size=min(self.settings.gate_rows, len(rows)), replace=False
        )
        return rows[np.sort(pick)]

    def epoch(self, traced: bool) -> Epoch:
        s = self.settings
        registry = get_registry()
        service = None
        try:
            with _probe_scope(traced):
                service = InferenceService(
                    self.serve_model,
                    max_batch_size=VIDEO_MAX_BATCH,
                    cache_capacity=VIDEO_CACHE_ENTRIES,
                )
                service.start()
                pipeline = VideoPipeline(
                    self.workload.extractor, service, self._config()
                )
                ledger0 = measure.ledger(registry)
                probes0 = probes.read(registry)
                results, frame_s = [], []
                began = time.perf_counter()
                for index, scene in enumerate(self.sequence):
                    t = time.perf_counter()
                    results.append(pipeline.process_frame(scene.image, index))
                    frame_s.append(time.perf_counter() - t)
                wall = time.perf_counter() - began
                layers = (
                    probes.delta(probes.read(registry), probes0) if traced else None
                )
                led = measure.ledger_delta(measure.ledger(registry), ledger0)
            snapshot = service.stats.snapshot()
            requests = sum(r.windows_scored for r in results)
            problems = measure.accounting_problems(snapshot["counters"], requests)
            problems += self._frame_problems(results)
            problems += self._sample_problems(service)
            problems += _attribution_problems(snapshot, led)
            return Epoch(
                traced=traced,
                wall_s=wall,
                frame_s=frame_s,
                frames_attempted=len(self.sequence),
                requests=requests,
                completed=int(snapshot["counters"].get("completed", 0)),
                latency_s=_latency_ladder(service),
                ledger=led,
                energy_j=measure.ledger_energy_joules(led),
                outputs=measure.digest(r.detections_key() for r in results),
                snapshot=snapshot,
                properties={
                    "windows_per_frame": float(results[0].windows_scored),
                    "pyramid_levels": float(results[0].levels_total),
                },
                layers=layers,
                problems=problems,
            )
        finally:
            if service is not None:
                service.close()

    @staticmethod
    def _frame_problems(results) -> List[str]:
        problems = []
        for r in results:
            if r.degraded or r.levels_scored != r.levels_total:
                problems.append(
                    f"frame {r.index} scored {r.levels_scored}/{r.levels_total} levels"
                )
            if r.windows_scored == 0:
                problems.append(f"frame {r.index} scored no windows")
        return problems

    def _sample_problems(self, service) -> List[str]:
        """Served scores of sampled rows must equal a direct call."""
        rows = self.gate_rows()
        hits0 = service.stats.counter("cache_hits")
        served = np.asarray(service.score_many(rows), dtype=np.float64)
        hits = service.stats.counter("cache_hits") - hits0
        direct = np.asarray(self.model.decision_function(rows), dtype=np.float64)
        problems = []
        if hits != len(rows):
            problems.append(
                f"{len(rows) - hits} of {len(rows)} sampled rows were never served"
            )
        if not np.array_equal(served, direct):
            bad = int(np.sum(served != direct))
            problems.append(
                f"{bad} of {len(rows)} served scores differ from decision_function"
            )
        return problems

    def final_problems(self) -> List[str]:
        return []


class CellBench:
    """``serve-cells``: a closed loop of cell chunks through shards."""

    kind = "cells"

    def __init__(self, settings: CellSettings, seed: int) -> None:
        self.settings = settings
        self.seed = seed
        self.model = None
        self.rows = None
        self.serve_model = None
        self._first_outputs: Optional[np.ndarray] = None

    @property
    def requests_per_epoch(self) -> int:
        s = self.settings
        return CELL_CLIENTS * s.rounds_per_epoch * s.rows_per_call

    def setup(self) -> float:
        """Build the cell module and requests, fork the shard; seconds."""
        s = self.settings
        started = time.perf_counter()
        model = NApproxCellModel(window=CELL_WINDOW)
        rows = random_patch_rows(self.requests_per_epoch, rng=self.seed)
        service = ShardedInferenceService(model, workers=CELL_WORKERS)
        service.start()
        elapsed = time.perf_counter() - started
        service.close()
        if len(np.unique(rows, axis=0)) != len(rows):
            raise RuntimeError("request rows repeat; serve-cells needs unique rows")
        if self.rows is not None and not np.array_equal(rows, self.rows):
            raise RuntimeError("repeated set-up drew different requests")
        self.model, self.rows = model, rows
        self.serve_model = model
        return elapsed

    def gate_rows(self) -> np.ndarray:
        return self.rows[self._gate_index()]

    def _gate_index(self) -> np.ndarray:
        pick = np.random.default_rng(self.seed).choice(
            len(self.rows), size=min(self.settings.gate_rows, len(self.rows)),
            replace=False,
        )
        return np.sort(pick)

    def epoch(self, traced: bool) -> Epoch:
        s = self.settings
        registry = get_registry()
        per = s.rows_per_call
        outputs: List[Optional[np.ndarray]] = [None] * (CELL_CLIENTS * s.rounds_per_epoch)
        chunk_s: List[List[float]] = [[] for _ in range(CELL_CLIENTS)]
        errors: List[str] = []
        service = None
        try:
            with _probe_scope(traced):
                # Forked after the probes are in place, so the worker
                # process inherits them.
                service = ShardedInferenceService(self.serve_model, workers=CELL_WORKERS)
                service.start()
                barrier = threading.Barrier(CELL_CLIENTS + 1)

                def client(c: int) -> None:
                    barrier.wait()
                    for r in range(s.rounds_per_epoch):
                        k = r * CELL_CLIENTS + c
                        t = time.perf_counter()
                        try:
                            out = service.score_many(self.rows[k * per : (k + 1) * per])
                        except Exception as exc:  # counted as failed requests
                            errors.append(f"{type(exc).__name__}: {exc}")
                            return
                        chunk_s[c].append(time.perf_counter() - t)
                        outputs[k] = out

                threads = [
                    threading.Thread(
                        target=client,
                        args=(c,),
                        name=f"perfbench-client-{c}",
                        daemon=True,  # a failed epoch must not hang the run
                    )
                    for c in range(CELL_CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                ledger0 = measure.ledger(registry)
                probes0 = probes.read(registry, service.stats.registry)
                barrier.wait()
                began = time.perf_counter()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - began
                layers = (
                    probes.delta(
                        probes.read(registry, service.stats.registry), probes0
                    )
                    if traced
                    else None
                )
                led = measure.ledger_delta(measure.ledger(registry), ledger0)
            snapshot = service.stats.snapshot()
            latency = _latency_ladder(service)
        finally:
            if service is not None:
                service.close()

        problems = measure.accounting_problems(
            snapshot["counters"], self.requests_per_epoch
        )
        problems += errors
        if any(out is None for out in outputs):
            problems.append("a client round trip never returned")
            served = np.zeros((0,))
        else:
            served = np.concatenate(outputs)
            if self._first_outputs is None:
                self._first_outputs = served
        problems += _attribution_problems(snapshot, led)
        execute = snapshot["spans"].get("span_serve_shard_execute_seconds", {})
        return Epoch(
            traced=traced,
            wall_s=wall,
            frame_s=[t for per_client in chunk_s for t in per_client],
            frames_attempted=len(outputs),
            requests=self.requests_per_epoch,
            completed=int(snapshot["counters"].get("completed", 0)),
            latency_s=latency,
            ledger=led,
            energy_j=measure.ledger_energy_joules(led),
            outputs=measure.digest([served]),
            snapshot=snapshot,
            properties={"windows_per_frame": 0.0, "pyramid_levels": 0.0},
            layers=layers,
            round_trip_s=float(execute.get("sum", 0.0)),
            problems=problems,
        )

    def final_problems(self) -> List[str]:
        """Served histograms of sampled rows must equal a direct call."""
        if self._first_outputs is None:
            return ["no epoch returned every histogram"]
        index = self._gate_index()
        direct = np.asarray(self.model(self.rows[index]))
        served = self._first_outputs[index]
        if not np.array_equal(served, direct):
            bad = int(np.sum(np.any(served != direct, axis=1)))
            return [f"{bad} of {len(index)} served histograms differ from the model"]
        return []


def make_bench(name: str, seed: int, tiny: bool = False):
    """The workload object behind ``name``."""
    table = TINY if tiny else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    settings = table[name]
    if isinstance(settings, VideoSettings):
        return VideoBench(settings, seed)
    return CellBench(settings, seed)


# ----------------------------------------------------------------------
# The run loop
# ----------------------------------------------------------------------
@dataclass
class RunReport:
    """Result of one benchmark run."""

    workload: str
    seed: int
    trace: bool
    correct: bool
    attempted: int
    failed: int
    frames: int
    frames_completed: int
    metrics: Dict[str, Tuple[float, str]]
    end_to_end: Dict[str, Tuple[float, str]]
    properties: Dict[str, float]
    notes: List[str]
    problems: List[str]

    def result_line(self) -> Dict:
        """The JSON object the benchmark prints last."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    process_started: Optional[float] = None,
    tiny: bool = False,
    serve_model_wrapper: Optional[Callable] = None,
) -> RunReport:
    """Set up, measure and check one workload.

    Args:
        name: workload name (see :data:`WORKLOADS`).
        seed: input seed.
        seconds: untraced (or, traced, total) epoch time to measure.
        trace: alternate untraced and probed epochs and report the
            per-layer metrics instead of the end-to-end ones.
        process_started: ``time.perf_counter()`` taken when the process
            began, so ``setup_s`` includes interpreter-side imports.
        tiny: use the seconds-scale :data:`TINY` settings.
        serve_model_wrapper: ``f(model, bench) -> model`` applied to the
            model handed to the service (never to the one the gate calls
            directly); tests use it to inject a faulty scorer.
    """
    started = time.perf_counter()
    imports_s = started - process_started if process_started is not None else 0.0
    bench = make_bench(name, seed, tiny=tiny)
    setup_times = [bench.setup() for _ in range(SETUP_REPEATS)]
    setup_s = imports_s + measure.median(setup_times)
    if serve_model_wrapper is not None:
        bench.serve_model = serve_model_wrapper(bench.model, bench)

    settings = bench.settings
    epochs: List[Epoch] = []
    while True:
        for traced in ((False, True) if trace else (False,)):
            gc.collect()
            epochs.append(bench.epoch(traced))
        untraced = [e for e in epochs if not e.traced]
        measured = sum(e.wall_s for e in (epochs if trace else untraced))
        frames = sum(e.frames for e in untraced)
        if time.perf_counter() - started > HARD_LIMIT_S:
            break
        if measured >= seconds and (trace or frames >= settings.min_frames):
            break

    problems = [p for e in epochs for p in e.problems]
    problems += bench.final_problems()
    problems += _consistency_problems(epochs)
    attempted = sum(e.requests for e in epochs)
    failed = sum(max(e.requests - e.completed, 0) for e in epochs)

    end_to_end, notes = _end_to_end(bench, epochs, setup_s)
    notes.append(
        f"setup_s is {imports_s:.3f} s of imports plus the median of "
        + ", ".join(f"{t:.3f}" for t in setup_times)
        + " s set-ups"
    )
    properties = _properties(epochs)
    metrics = _per_layer(bench, epochs, properties) if trace else end_to_end
    return RunReport(
        workload=name,
        seed=seed,
        trace=trace,
        correct=not problems,
        attempted=attempted,
        failed=failed,
        frames=sum(e.frames_attempted for e in epochs),
        frames_completed=sum(e.frames for e in epochs),
        metrics=metrics,
        end_to_end=end_to_end,
        properties=properties,
        notes=notes,
        problems=problems,
    )


def _consistency_problems(epochs: List[Epoch]) -> List[str]:
    """Every epoch replays the same inputs: outputs and ledgers match."""
    problems = []
    first = epochs[0]
    for i, epoch in enumerate(epochs[1:], start=1):
        if epoch.outputs != first.outputs:
            problems.append(f"epoch {i} outputs {epoch.outputs} != {first.outputs}")
        if epoch.ledger != first.ledger:
            problems.append(f"epoch {i} ledger {epoch.ledger} != {first.ledger}")
    return problems


def _end_to_end(bench, epochs: List[Epoch], setup_s: float):
    """End-to-end metrics over the untraced epochs, plus notes."""
    untraced = [e for e in epochs if not e.traced]
    wall = sum(e.wall_s for e in untraced)
    frame_s = [t for e in untraced for t in e.frame_s]
    first = epochs[0]
    frame_q = measure.tail_percentile(bench.settings.min_frames)
    latency_q = measure.tail_percentile(first.requests)
    metrics = {
        "fps": (measure.median(e.frames / e.wall_s for e in untraced), "1/s"),
        "frame_ms_p50": (measure.percentile(frame_s, 50.0) * 1e3, "ms"),
        "frame_ms_tail": (measure.percentile(frame_s, frame_q) * 1e3, "ms"),
        "joules_per_frame": (first.energy_j / first.frames, "J"),
        "requests_per_s": (
            measure.median(e.completed / e.wall_s for e in untraced), "1/s"
        ),
        "latency_ms_p50": (
            measure.median(e.latency_s[50.0] for e in untraced) * 1e3, "ms"
        ),
        "latency_ms_tail": (
            measure.median(e.latency_s[latency_q] for e in untraced) * 1e3, "ms"
        ),
        "nanojoules_per_request": (first.energy_j * 1e9 / first.requests, "nJ"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"frame_ms_tail is p{frame_q:g} of {len(frame_s)} frames "
        f"({measure.beyond(len(frame_s), frame_q)} above it)",
        f"latency_ms_tail is p{latency_q:g} of each epoch's {first.requests} "
        f"requests ({measure.beyond(first.requests, latency_q)} above it), "
        f"median over {len(untraced)} epochs",
        f"fps and requests_per_s are medians over {len(untraced)} untraced "
        f"epochs ({wall:.3f} s measured)",
    ]
    return metrics, notes


def _batch_totals(epochs: List[Epoch]) -> Tuple[int, int]:
    """``(rows batched, batches)`` over the epochs' batch histograms."""
    rows = batches = 0
    for e in epochs:
        for size, count in e.snapshot["batch_size_histogram"].items():
            rows += int(size) * count
            batches += count
    return rows, batches


def _properties(epochs: List[Epoch]) -> Dict[str, float]:
    """Input properties later optimisations condition on."""
    counters = [e.snapshot["counters"] for e in epochs]
    hits = sum(c.get("cache_hits", 0) for c in counters)
    lookups = hits + sum(c.get("cache_misses", 0) for c in counters)
    rows, batches = _batch_totals(epochs)
    first = epochs[0]
    ticks = measure.core_ticks(first.ledger)
    return {
        "cache_hit_rate": hits / lookups if lookups else 0.0,
        "active_core_fraction": (
            first.ledger["active_core_ticks"] / ticks if ticks else 0.0
        ),
        "windows_per_frame": first.properties["windows_per_frame"],
        "pyramid_levels": first.properties["pyramid_levels"],
        "batch_size_mean": rows / batches if batches else 0.0,
        "requests_per_frame": first.requests / first.frames,
    }


#: Per-layer probe seconds that together should cover a video frame.
VIDEO_FRAME_LAYERS = (
    "detection.pyramid",
    "napprox.cell_grid",
    "detection.sliding_window",
    "video.pool",
    "serve.score_many",
    "detection.nms",
)


def _per_layer(bench, epochs: List[Epoch], properties) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the traced epochs (per frame)."""
    traced = [e for e in epochs if e.traced]
    untraced = [e for e in epochs if not e.traced]
    frames = sum(e.frames for e in traced)
    wall = sum(e.wall_s for e in traced)
    totals = {
        layer: {
            key: sum(e.layers[layer][key] for e in traced)
            for key in ("seconds", "calls", "items")
        }
        for layer in probes.LAYERS
    }

    def per_frame(layer: str, key: str = "seconds") -> float:
        return totals[layer][key] / frames

    round_trip = sum(e.round_trip_s for e in traced)
    decision = totals["scorer.decision"]["seconds"]
    run_batch = totals["truenorth.run_batch"]["seconds"]
    lane_ticks = totals["truenorth.run_batch"]["items"]
    if bench.kind == "video":
        covered = sum(totals[layer]["seconds"] for layer in VIDEO_FRAME_LAYERS)
        unattributed = 1.0 - covered / sum(sum(e.frame_s) for e in traced)
    else:
        unattributed = 1.0 - round_trip / wall
    traced_frame = wall / frames
    untraced_frame = sum(e.wall_s for e in untraced) / sum(e.frames for e in untraced)
    first = epochs[0]
    return {
        "napprox.cell_grid_s": (per_frame("napprox.cell_grid"), "s"),
        "napprox.cells": (per_frame("napprox.cell_grid", "items"), "count"),
        "video.pool_s": (per_frame("video.pool"), "s"),
        "video.windows_per_frame": (properties["windows_per_frame"], "count"),
        "detection.pyramid_s": (per_frame("detection.pyramid"), "s"),
        "detection.pyramid_levels": (properties["pyramid_levels"], "count"),
        "detection.sliding_window_s": (per_frame("detection.sliding_window"), "s"),
        "detection.nms_s": (per_frame("detection.nms"), "s"),
        "detection.nms_candidates": (per_frame("detection.nms", "items"), "count"),
        "serve.score_many_s": (per_frame("serve.score_many"), "s"),
        "serve.submit_s": (per_frame("serve.submit"), "s"),
        "serve.self_s": (
            per_frame("serve.score_many") - decision / frames, "s"
        ),
        "serve.cache_hit_rate": (properties["cache_hit_rate"], "ratio"),
        "serve.batch_size_mean": (properties["batch_size_mean"], "count"),
        "serve.model_calls": (per_frame("scorer.decision", "calls"), "count"),
        "scorer.decision_s": (decision / frames, "s"),
        "scorer.encode_s": ((decision - run_batch) / frames, "s"),
        "truenorth.run_batch_s": (run_batch / frames, "s"),
        "truenorth.lane_ticks": (lane_ticks / frames, "count"),
        "truenorth.us_per_lane_tick": (
            run_batch / lane_ticks * 1e6 if lane_ticks else 0.0, "us"
        ),
        "truenorth.active_core_fraction": (
            properties["active_core_fraction"], "ratio"
        ),
        "truenorth.spikes": (first.ledger["spikes"] / first.frames, "count"),
        "truenorth.synaptic_events": (
            first.ledger["synaptic_events"] / first.frames, "count"
        ),
        "truenorth.router_hops": (first.ledger["router_hops"] / first.frames, "count"),
        "sharding.round_trip_s": (round_trip / frames, "s"),
        "sharding.overhead_s": (
            (round_trip - decision) / frames if round_trip else 0.0, "s"
        ),
        "obs.trace_overhead": (traced_frame / untraced_frame - 1.0, "ratio"),
        "unattributed_share": (unattributed, "ratio"),
    }


__all__ = [
    "CellSettings",
    "RunReport",
    "TINY",
    "VideoSettings",
    "WORKLOADS",
    "make_bench",
    "run",
]
