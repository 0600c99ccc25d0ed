"""Sustained req/s: micro-batching service vs sequential per-request scoring.

The workload is the NApprox cell unit — 10x10 pixel patches through the
22-core HoG cell module — served as concurrent single-patch requests.
The baseline is what a naive deployment does: one engine call per
request, no coalescing. The service wins by draining the bounded queue
into micro-batches for the PR-1 vectorized engine, so the per-tick cost
is amortised across every in-flight request.

Conformance is asserted before timing: served histograms must be
bit-identical to direct ``extract_batch`` calls.

The load is timed in paired arms — the observability layer fully on
(hardware counters + span and event tracing; the shipping
configuration and the headline number) vs configured off — after an
untimed warmup, with the arm order alternating per repeat; the median
of per-pair throughput ratios lands in ``BENCH_serve.json`` as
``obs_overhead_fraction``. The same paired measurement then runs
through the forked worker tier (``ShardedInferenceService``,
workers=2), where observability additionally pays for cross-process
trace-record and metrics-delta shipping, landing as
``sharded_obs_overhead_fraction``. The acceptance budget for both is
<=5 % (DESIGN.md §12, §16), enforced against the committed baseline by
``benchmarks/check_regression.py``.

A last section times admission itself: the serving tier around a
zero-cost model, fed the way the video pipeline feeds it (one frame of
887 unique window rows in 128-row ``score_many`` calls, batch size 64,
cache 8192), so it is all queueing, caching, batching and fan-out. Its
median over repeats lands as ``admission_ms_per_frame``, which
``check_regression.py`` gates against the committed baseline.

Run standalone (wall-clock timing, machine-readable JSON to
``BENCH_serve.json`` at the repo root):

    PYTHONPATH=src python benchmarks/bench_serve.py --quick

``--quick`` keeps the run within a CI smoke budget; ``--check`` exits
non-zero below the acceptance speedup of 4x at concurrency 32.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.obs import hwcounters, tracing
from repro.serve import (
    HardwarePacedModel,
    InferenceService,
    NApproxCellModel,
    ShardedInferenceService,
    closed_loop,
    random_patch_rows,
    sequential_baseline,
)
from repro.truenorth.power import TICK_SECONDS

REPO_ROOT = Path(__file__).resolve().parent.parent

#: One ``video-full`` frame as the serving tier sees it: its window rows
#: (96 pooled features each), sent in the video pipeline's chunks.
ADMISSION_WORKLOAD = {
    "model": "zero-cost",
    "rows_per_frame": 887,
    "rows_per_call": 128,
    "features": 96,
    "max_batch_size": 64,
    "cache_capacity": 8192,
    "frames_per_repeat": 30,
    "repeats": 7,
}


def _zero_cost_model(matrix):
    return np.zeros(len(matrix))


def run_admission() -> dict:
    """The ``admission`` payload: the per-frame cost of serving itself.

    Every repeat is a fresh service scoring ``frames_per_repeat``
    frames after two untimed ones; every row is unique, so each one
    misses the cache, is queued, batched, scored and written back, as
    on full-motion video. Reports the median and IQR over repeats of
    each repeat's median frame time.
    """
    w = ADMISSION_WORKLOAD
    rng = np.random.default_rng(3)
    per_repeat = []
    for _ in range(w["repeats"]):
        service = InferenceService(
            _zero_cost_model,
            max_batch_size=w["max_batch_size"],
            cache_capacity=w["cache_capacity"],
            model_id="zero-cost",
        )
        frame_seconds = []
        with service:
            for frame in range(w["frames_per_repeat"] + 2):
                rows = rng.random((w["rows_per_frame"], w["features"]))
                started = time.perf_counter()
                for start in range(0, len(rows), w["rows_per_call"]):
                    service.score_many(rows[start : start + w["rows_per_call"]])
                if frame >= 2:
                    frame_seconds.append(time.perf_counter() - started)
        per_repeat.append(statistics.median(frame_seconds) * 1e3)
    quartiles = statistics.quantiles(per_repeat, n=4)
    return {
        "workload": w,
        "median_ms": statistics.median(per_repeat),
        "iqr_ms": quartiles[2] - quartiles[0],
        "repeat_medians_ms": per_repeat,
    }


def _configure_obs(enabled: bool) -> None:
    """Flip the whole observability layer on or off for a timed arm.

    Covers every telemetry source the serving path touches: hardware
    activity counters and the trace log of spans and lifecycle events
    (whose cross-process shipping is the sharded tier's marginal cost).
    """
    hwcounters.configure(enabled)
    tracing.configure(enabled)


def _timed_load(model, rows, args):
    """One closed-loop service run; returns ``(report, snapshot)``."""
    service = InferenceService(
        model,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        queue_capacity=args.queue_capacity,
        cache_capacity=args.cache_capacity,
    )
    with service:
        report = closed_loop(
            service, rows, concurrency=args.concurrency, chunk_size=1
        )
        snapshot = service.stats.snapshot()
    return report, snapshot


def _sharded_service(model, args, workers):
    """The long-lived sharded service for the obs-overhead arms.

    One service serves both arms: the work messages carry the
    telemetry/tracing flags per batch, so toggling the parent-side
    configuration flips the whole fleet per run without re-forking —
    fork/teardown cost never touches a timed arm. The cache is
    disabled because the same rows repeat across runs, and an LRU hit
    would bypass the very engine-and-shipping path the measurement is
    about.
    """
    return ShardedInferenceService(
        model,
        workers=workers,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        queue_capacity=args.queue_capacity,
        cache_capacity=0,
    )


def run_workers_sweep(args):
    """Throughput of the sharded worker tier at N ∈ ``--sweep-workers``.

    The workload is device-paced: each micro-batch call holds its
    worker for ``--sweep-pace-ms`` of wall time, modeling the service
    interval of one chip assembly per batch — spike-window playback
    (``window`` ticks at ``TICK_SECONDS`` per tick, the chip's
    real-time cadence) plus the host-link round trip, which dominates
    it. Scale-out buys the ability to *overlap* those device intervals
    across assemblies, and that is exactly what the sweep measures; the
    pace is chosen to dominate host compute per batch so the numbers
    stay meaningful on a single-CPU runner (a CPU-bound sweep would
    measure process contention, not serving architecture).

    Before timing, every shard count is probed for bit-identity against
    the direct engine call; after timing, the per-N activity ledgers
    must agree exactly on router/cross-chip hop totals (scale-out
    replicates the placed model per worker, so cross-chip traffic per
    request is invariant in N — the "bounded cross-chip traffic"
    guarantee) and the attributed energy must match across N.

    Returns the ``workers_sweep`` payload dict, or ``None`` on an
    identity violation (the caller fails the bench).
    """
    worker_counts = tuple(
        int(n) for n in str(args.sweep_workers).split(",") if n.strip()
    )
    pace_s = args.sweep_pace_ms / 1e3
    window_s = args.sweep_window * TICK_SECONDS
    if pace_s < window_s:
        print(
            f"WARN: sweep pace {pace_s * 1e3:.0f} ms is below the "
            f"real-time spike window ({window_s * 1e3:.0f} ms); batches "
            "cannot finish faster than the window on hardware",
        )
    base = NApproxCellModel(
        window=args.sweep_window,
        cores_per_chip=args.cores_per_chip,
    )
    rows = random_patch_rows(args.sweep_requests, rng=1)
    probe = random_patch_rows(8, rng=2)
    direct = base(probe)

    print(
        f"workers sweep: pace {pace_s * 1e3:.0f} ms/batch "
        f"(window {args.sweep_window} at {TICK_SECONDS * 1e3:.0f} ms/tick "
        f"+ host link), {args.sweep_requests} requests, "
        f"batch {args.sweep_batch_size}"
    )
    points = []
    for workers in worker_counts:
        service = ShardedInferenceService(
            HardwarePacedModel(base, min_batch_seconds=pace_s),
            workers=workers,
            max_batch_size=args.sweep_batch_size,
            max_wait_ms=args.max_wait_ms,
            queue_capacity=args.queue_capacity,
            cache_capacity=0,  # unique rows: keep every request on-engine
        )
        with service:
            served = service.score_many(probe)
            if not np.array_equal(served, direct):
                print(
                    f"FAIL: workers={workers} served results differ from "
                    "direct calls",
                    file=sys.stderr,
                )
                return None
            report = closed_loop(
                service, rows, concurrency=args.concurrency, chunk_size=1
            )
            snapshot = service.stats.snapshot()
        if not report.accounted:
            print(
                f"FAIL: workers={workers} lost or failed requests",
                file=sys.stderr,
            )
            return None
        counters = snapshot["counters"]
        points.append(
            {
                "workers": workers,
                "requests_per_second": report.requests_per_second,
                "seconds": report.seconds,
                "mean_batch_size": snapshot["mean_batch_size"],
                "dispatches": counters.get("dispatches", 0),
                "router_hops": counters.get("hw_router_hops", 0),
                "cross_chip_hops": counters.get("hw_cross_chip_hops", 0),
                "intra_chip_hops": counters.get("hw_intra_chip_hops", 0),
                "energy_nj_total": snapshot["energy_nj"]["total"],
                "energy_requests": snapshot["energy_nj"]["count"],
            }
        )

    # Cross-N invariants: integer hop ledgers identical, energy equal to
    # float tolerance (same per-request energies, summed in per-N batch
    # order), cross-chip traffic per request constant.
    first = points[0]
    for point in points[1:]:
        for key in ("router_hops", "cross_chip_hops", "intra_chip_hops"):
            if point[key] != first[key]:
                print(
                    f"FAIL: workers={point['workers']} {key} "
                    f"{point[key]} != {first[key]} at workers="
                    f"{first['workers']}",
                    file=sys.stderr,
                )
                return None
        if not np.isclose(
            point["energy_nj_total"], first["energy_nj_total"], rtol=1e-9
        ):
            print(
                f"FAIL: workers={point['workers']} energy "
                f"{point['energy_nj_total']} != {first['energy_nj_total']}",
                file=sys.stderr,
            )
            return None

    base_rate = points[0]["requests_per_second"]
    for point in points:
        point["scaling"] = (
            point["requests_per_second"] / base_rate if base_rate else 0.0
        )
        hops = point["router_hops"]
        point["cross_chip_fraction"] = (
            point["cross_chip_hops"] / hops if hops else 0.0
        )
        print(
            f"  workers={point['workers']}: "
            f"{point['requests_per_second']:7.1f} req/s "
            f"({point['scaling']:.2f}x vs workers={points[0]['workers']}, "
            f"cross-chip {point['cross_chip_fraction']:.0%} of "
            f"{point['router_hops']} hops)"
        )
    return {
        "pace_seconds_per_batch": pace_s,
        "tick_seconds": TICK_SECONDS,
        "window": args.sweep_window,
        "cores_per_chip": args.cores_per_chip,
        "requests": args.sweep_requests,
        "batch_size": args.sweep_batch_size,
        "concurrency": args.concurrency,
        "points": points,
    }


def run_bench(args) -> int:
    model = NApproxCellModel(window=args.window)
    rows = random_patch_rows(
        args.requests, rng=0, duplicate_fraction=args.duplicate_fraction
    )

    # Conformance gate: served results must be bit-identical to the
    # direct engine call on the same patches. The probe service is
    # discarded so its cache never pre-warms the timed runs.
    with InferenceService(
        model, max_batch_size=args.max_batch_size, max_wait_ms=args.max_wait_ms
    ) as probe_service:
        probe = rows[: min(8, len(rows))]
        served = probe_service.score_many(probe)
        direct = model(probe)
        if not np.array_equal(served, direct):
            print("FAIL: served results differ from direct calls", file=sys.stderr)
            return 2

    # Timed loads, paired on/off arms: observability fully on (the
    # shipping configuration and the headline number) vs hardware
    # counters and span/event tracing configured off — the
    # baseline the <=5 % obs-overhead budget is measured against. A
    # warmup load pays the cold-start costs outside the timed arms,
    # the arm order alternates per repeat, and the overhead is the
    # *median of per-pair ratios*: adjacent runs share machine state,
    # so each ratio cancels load drift a best-of across distant runs
    # cannot.
    # The arms run a longer load than the nominal request count: the
    # micro-batcher's formation dynamics are chaotic at this scale
    # (a run that happens to form 24-row batches is ~30 % slower than
    # one forming 32-row batches), and only averaging over many batch
    # cycles separates a few-percent telemetry cost from that noise.
    arm_rows = random_patch_rows(
        args.requests * args.overhead_load_multiplier, rng=0,
        duplicate_fraction=args.duplicate_fraction,
    )
    on_runs, off_runs = [], []
    sharded_on, sharded_off = [], []
    pair_overheads, sharded_pair_overheads = [], []
    try:
        _configure_obs(True)
        _timed_load(model, rows, args)  # warmup, untimed
        for repeat in range(args.overhead_repeats):
            rates = {}
            for enabled in (True, False) if repeat % 2 == 0 else (False, True):
                _configure_obs(enabled)
                run = _timed_load(model, arm_rows, args)
                (on_runs if enabled else off_runs).append(run)
                rates[enabled] = run[0].requests_per_second
            if rates[False]:
                pair_overheads.append(1.0 - rates[True] / rates[False])
        # Same measurement through the forked worker tier, where the
        # obs layer additionally ships spans and metrics deltas across
        # the process boundary.
        _configure_obs(True)
        with _sharded_service(model, args, args.sharded_workers) as sharded:
            closed_loop(  # warmup, untimed
                sharded, rows, concurrency=args.concurrency, chunk_size=1
            )
            for repeat in range(args.overhead_repeats):
                rates = {}
                arm_order = (
                    (True, False) if repeat % 2 == 0 else (False, True)
                )
                for enabled in arm_order:
                    _configure_obs(enabled)
                    run = closed_loop(
                        sharded, arm_rows,
                        concurrency=args.concurrency, chunk_size=1,
                    )
                    (sharded_on if enabled else sharded_off).append(run)
                    rates[enabled] = run.requests_per_second
                if rates[False]:
                    sharded_pair_overheads.append(
                        1.0 - rates[True] / rates[False]
                    )
    finally:
        _configure_obs(True)
    report, snapshot = max(
        on_runs, key=lambda pair: pair[0].requests_per_second
    )
    report_off, _ = max(
        off_runs, key=lambda pair: pair[0].requests_per_second
    )
    obs_overhead = (
        statistics.median(pair_overheads) if pair_overheads else 0.0
    )
    sharded_report = max(
        sharded_on, key=lambda run: run.requests_per_second
    )
    sharded_report_off = max(
        sharded_off, key=lambda run: run.requests_per_second
    )
    sharded_obs_overhead = (
        statistics.median(sharded_pair_overheads)
        if sharded_pair_overheads
        else 0.0
    )

    seq_rows = rows[: args.sequential_requests]
    started = time.perf_counter()
    sequential_baseline(model, seq_rows)
    seq_seconds = time.perf_counter() - started
    seq_rate = len(seq_rows) / seq_seconds

    speedup = report.requests_per_second / seq_rate if seq_rate else 0.0
    print(
        f"workload: NApprox cell window={args.window} "
        f"({model.runner.core_count} cores)"
    )
    print(
        f"sequential: {len(seq_rows):4d} requests in {seq_seconds:6.2f}s "
        f"= {seq_rate:7.2f} req/s"
    )
    print(
        f"service(c={args.concurrency}): {report.completed:4d} requests in "
        f"{report.seconds:6.2f}s = {report.requests_per_second:7.2f} req/s"
    )
    print(
        f"speedup: {speedup:.1f}x  "
        f"(mean batch {snapshot['mean_batch_size']:.1f}, "
        f"p99 latency {snapshot['latency_ms']['p99']:.1f} ms, "
        f"accounted={report.accounted})"
    )
    print(
        f"obs overhead: {obs_overhead * 100:+.1f}% "
        f"(telemetry off: {report_off.requests_per_second:7.2f} req/s, "
        f"mean energy {snapshot['energy_nj']['mean']:.1f} nJ/request)"
    )
    print(
        f"sharded(w={args.sharded_workers}) obs overhead: "
        f"{sharded_obs_overhead * 100:+.1f}% "
        f"(on: {sharded_report.requests_per_second:7.2f} req/s, "
        f"off: {sharded_report_off.requests_per_second:7.2f} req/s; "
        "includes cross-process span + metrics-delta shipping)"
    )

    admission = run_admission()
    print(
        f"admission: {admission['median_ms']:.2f} ms per "
        f"{ADMISSION_WORKLOAD['rows_per_frame']}-row frame around a "
        f"zero-cost model (IQR {admission['iqr_ms']:.2f} ms over "
        f"{ADMISSION_WORKLOAD['repeats']} repeats)"
    )

    sweep = None
    if args.workers_sweep:
        sweep = run_workers_sweep(args)
        if sweep is None:
            return 2

    payload = {
        "benchmark": "bench_serve",
        "workload": {
            "kind": "napprox-cell",
            "window": args.window,
            "cores": model.runner.core_count,
            "requests": args.requests,
            "duplicate_fraction": args.duplicate_fraction,
        },
        "service": {
            "concurrency": args.concurrency,
            "max_batch_size": args.max_batch_size,
            "max_wait_ms": args.max_wait_ms,
            "queue_capacity": args.queue_capacity,
            "cache_capacity": args.cache_capacity,
        },
        "sequential_requests_per_second": seq_rate,
        "service_requests_per_second": report.requests_per_second,
        "telemetry_off_requests_per_second": report_off.requests_per_second,
        "obs_overhead_fraction": obs_overhead,
        "overhead_requests_per_arm_run": len(arm_rows),
        "overhead_repeats": args.overhead_repeats,
        "sharded_workers": args.sharded_workers,
        "sharded_requests_per_second": sharded_report.requests_per_second,
        "sharded_telemetry_off_requests_per_second": (
            sharded_report_off.requests_per_second
        ),
        "sharded_obs_overhead_fraction": sharded_obs_overhead,
        "speedup": speedup,
        "admission_ms_per_frame": admission["median_ms"],
        "admission": admission,
        "load": report.as_dict(),
        "stats": snapshot,
    }
    if sweep is not None:
        payload["workers_sweep"] = sweep
    output = Path(args.output) if args.output else REPO_ROOT / "BENCH_serve.json"
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")

    timed = [run for run, _ in on_runs + off_runs] + sharded_on + sharded_off
    if not all(run.accounted for run in timed):
        print("FAIL: requests lost or failed", file=sys.stderr)
        return 2
    if args.check and speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.1f}x < required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--window", type=int, default=32, help="spike window")
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=5.0)
    parser.add_argument("--queue-capacity", type=int, default=512)
    parser.add_argument(
        "--cache-capacity", type=int, default=4096,
        help="LRU entries (0 disables; unique requests never hit anyway)",
    )
    parser.add_argument("--duplicate-fraction", type=float, default=0.0)
    parser.add_argument(
        "--sequential-requests", type=int, default=24,
        help="requests timed on the sequential baseline (it is slow)",
    )
    parser.add_argument(
        "--overhead-repeats", type=int, default=3,
        help="telemetry on/off load pairs (order alternating, after an "
        "untimed warmup); the median per-pair ratio feeds the "
        "obs_overhead_fraction measurements",
    )
    parser.add_argument(
        "--sharded-workers", type=int, default=2,
        help="forked worker count for the sharded obs-overhead arms "
        "(sharded_obs_overhead_fraction in the payload)",
    )
    parser.add_argument(
        "--overhead-load-multiplier", type=int, default=3,
        help="the timed on/off arms score this multiple of --requests "
        "(averaging over enough batch cycles to separate a few-percent "
        "telemetry cost from batch-formation noise)",
    )
    parser.add_argument(
        "--workers-sweep", action="store_true",
        help="also sweep the sharded worker tier (hardware-paced "
        "workload) and record workers_sweep in the payload",
    )
    parser.add_argument(
        "--sweep-workers", default="1,2,4",
        help="comma-separated shard counts for --workers-sweep",
    )
    parser.add_argument(
        "--sweep-requests", type=int, default=96,
        help="requests per shard count in --workers-sweep",
    )
    parser.add_argument(
        "--sweep-window", type=int, default=4,
        help="spike window for the --workers-sweep model (kept small so "
        "host compute stays far below the pace)",
    )
    parser.add_argument(
        "--sweep-pace-ms", type=float, default=300.0,
        help="modeled device service interval per micro-batch during "
        "--workers-sweep: spike-window playback plus the host-link "
        "round trip (must dominate host compute for the sweep to "
        "measure scale-out rather than CPU contention)",
    )
    parser.add_argument(
        "--sweep-batch-size", type=int, default=4,
        help="micro-batch cap during --workers-sweep (small, so the "
        "hardware pace dominates host compute per batch)",
    )
    parser.add_argument(
        "--cores-per-chip", type=int, default=8,
        help="chip capacity for the placed sweep model (22 cores across "
        "ceil(22/N) chips drives the cross-chip hop accounting)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke setting: window 16, 96 requests, 12 sequential",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when the speedup misses --min-speedup",
    )
    parser.add_argument("--min-speedup", type=float, default=4.0)
    parser.add_argument(
        "--output", default=None,
        help="JSON result path (default: BENCH_serve.json at repo root)",
    )
    args = parser.parse_args()
    if args.quick:
        args.window = min(args.window, 16)
        args.requests = min(args.requests, 96)
        args.sequential_requests = min(args.sequential_requests, 12)
        args.sweep_requests = min(args.sweep_requests, 96)
    args.sequential_requests = min(args.sequential_requests, args.requests)
    return run_bench(args)


if __name__ == "__main__":
    sys.exit(main())
