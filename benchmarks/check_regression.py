"""Bench-trajectory regression gate over the committed BENCH_*.json files.

The repo's benchmark payloads are load-bearing: every PR commits
``BENCH_engine.json`` / ``BENCH_serve.json`` / ``BENCH_faults.json``
baselines, and this checker compares a fresh run ("current") against
the committed ones ("baseline"):

- **throughput** (engine ``batch_windows_per_second``, the engine's
  ``sparse_windows_per_second`` at the density sweep's 1 % point, serve
  ``service_requests_per_second``): fails on a drop of more than
  ``--max-throughput-regression`` (default 10 %);
- **serve admission cost** (serve ``admission_ms_per_frame``, the
  median per-frame cost of the serving tier around a zero-cost model):
  fails on a rise of more than ``--max-throughput-regression``;
- **observability overhead** (serve ``obs_overhead_fraction`` and the
  sharded worker tier's ``sharded_obs_overhead_fraction``, which adds
  cross-process span and metrics-delta shipping): fails when the
  current run spends more than ``--max-obs-overhead`` (default 5 %) of
  its throughput on telemetry — this is an absolute budget, not a
  delta; the sharded field warns and passes when absent (older
  payloads predate it);
- **worker scale-out** (serve ``workers_sweep``): with
  ``--min-worker-scaling WORKERS:FLOOR[,...]`` set, fails when the
  sharded tier's speedup over one worker falls below the floor at any
  listed shard count — also an absolute floor (off by default);
- **fault-free accuracy** (faults ``approaches.*.miss_rate[0]``): fails
  when any approach's zero-fault miss rate rises by more than
  ``--max-missrate-increase`` (default 0.05 absolute);
- **video parity + cache locality** (video ``parity`` and
  ``motions``): fails when the current run's engine/worker conformance
  flags are not both true, or when the static-background cache hit
  rate beats full-motion by less than ``--min-video-cache-separation``
  (default 0.25) — both absolute invariants; the walk-motion fps is
  additionally gated against the baseline like the other throughputs.

Comparisons only run between payloads of the *same* workload
configuration; a config mismatch (e.g. a ``--quick`` current run
against a full-size baseline) is reported and skipped. Missing files —
no prior baseline on a fresh branch, or a bench that was not re-run —
warn and pass, so the gate is non-blocking until both sides exist.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --baseline-dir . --current-dir /tmp/bench [--warn-only]
"""

import argparse
import json
import sys
from pathlib import Path

#: The benchmark payloads the gate knows how to compare.
BENCH_FILES = (
    "BENCH_engine.json",
    "BENCH_serve.json",
    "BENCH_faults.json",
    "BENCH_video.json",
)


def _load(path: Path):
    """The parsed payload, or ``None`` (with a warning) when unusable."""
    if not path.is_file():
        print(f"WARN: {path} missing; skipping")
        return None
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        print(f"WARN: {path} unparseable ({exc}); skipping")
        return None


def _config(payload, keys):
    """The comparable-configuration fingerprint of a payload."""
    return {key: payload.get(key) for key in keys}


def _check_throughput(name, metric, baseline, current, max_regression):
    """Failure strings for one higher-is-better throughput metric."""
    base = baseline.get(metric)
    cur = current.get(metric)
    if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)):
        print(f"WARN: {name}: {metric} absent on one side; skipping")
        return []
    if base <= 0:
        print(f"WARN: {name}: baseline {metric} is {base}; skipping")
        return []
    drop = 1.0 - cur / base
    verdict = "FAIL" if drop > max_regression else "ok"
    print(
        f"{verdict}: {name}: {metric} {base:.2f} -> {cur:.2f} "
        f"({-drop * 100:+.1f}%, floor {-max_regression * 100:.0f}%)"
    )
    if drop > max_regression:
        return [f"{name}: {metric} regressed {drop * 100:.1f}%"]
    return []


def _check_cost(name, metric, baseline, current, max_rise):
    """Failure strings for one lower-is-better cost metric."""
    base = baseline.get(metric)
    cur = current.get(metric)
    if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)):
        print(f"WARN: {name}: {metric} absent on one side; skipping")
        return []
    if base <= 0:
        print(f"WARN: {name}: baseline {metric} is {base}; skipping")
        return []
    rise = cur / base - 1.0
    verdict = "FAIL" if rise > max_rise else "ok"
    print(
        f"{verdict}: {name}: {metric} {base:.2f} -> {cur:.2f} "
        f"({rise * 100:+.1f}%, ceiling +{max_rise * 100:.0f}%)"
    )
    if rise > max_rise:
        return [f"{name}: {metric} rose {rise * 100:.1f}%"]
    return []


def check_engine(baseline, current, args):
    """Engine throughput, on the cell batch and on sparse input."""
    failures = []
    sweep_config = [
        payload.get("density_sweep", {}).get("workload")
        for payload in (baseline, current)
    ]
    if sweep_config[0] != sweep_config[1]:
        print("WARN: BENCH_engine.json: density sweep configs differ; "
              "skipping sparse throughput comparison")
    else:
        failures += _check_throughput(
            "BENCH_engine.json",
            "sparse_windows_per_second",
            baseline,
            current,
            args.max_throughput_regression,
        )
    keys = ("workload", "batch_size")
    if _config(baseline, keys) != _config(current, keys):
        print("WARN: BENCH_engine.json: workload configs differ; "
              "skipping throughput comparison")
        return failures
    failures += _check_throughput(
        "BENCH_engine.json",
        "batch_windows_per_second",
        baseline,
        current,
        args.max_throughput_regression,
    )
    return failures


def _parse_scaling_floors(spec):
    """``"2:1.6,4:2.5"`` -> ``{2: 1.6, 4: 2.5}`` (``{}`` on empty spec)."""
    floors = {}
    for part in str(spec or "").split(","):
        part = part.strip()
        if not part:
            continue
        workers, _, floor = part.partition(":")
        try:
            floors[int(workers)] = float(floor)
        except ValueError:
            raise SystemExit(
                f"bad --min-worker-scaling entry {part!r} "
                "(expected WORKERS:FLOOR, e.g. 2:1.6)"
            )
    return floors


def _check_workers_sweep(current, spec):
    """Absolute floors on sharded scale-out speedup vs one worker."""
    floors = _parse_scaling_floors(spec)
    if not floors:
        return []
    sweep = current.get("workers_sweep")
    if not isinstance(sweep, dict) or not sweep.get("points"):
        print("WARN: BENCH_serve.json: no workers_sweep in current run; "
              "skipping worker-scaling gate")
        return []
    by_workers = {
        point.get("workers"): point
        for point in sweep["points"]
        if isinstance(point.get("scaling"), (int, float))
    }
    failures = []
    for workers in sorted(floors):
        floor = floors[workers]
        point = by_workers.get(workers)
        if point is None:
            print(f"WARN: BENCH_serve.json: workers_sweep has no "
                  f"workers={workers} point; skipping its floor")
            continue
        scaling = point["scaling"]
        verdict = "FAIL" if scaling < floor else "ok"
        print(
            f"{verdict}: BENCH_serve.json: workers={workers} scale-out "
            f"{scaling:.2f}x over workers=1 (floor {floor:.1f}x)"
        )
        if scaling < floor:
            failures.append(
                f"BENCH_serve.json: workers={workers} scaling "
                f"{scaling:.2f}x below the {floor:.1f}x floor"
            )
    return failures


def check_serve(baseline, current, args):
    """Serve throughput and admission cost, plus the absolute
    telemetry-overhead budget."""
    failures = _check_workers_sweep(current, args.min_worker_scaling)
    admission_config = [
        payload.get("admission", {}).get("workload")
        for payload in (baseline, current)
    ]
    if admission_config[0] != admission_config[1]:
        print("WARN: BENCH_serve.json: admission workloads differ; "
              "skipping admission cost comparison")
    else:
        failures += _check_cost(
            "BENCH_serve.json",
            "admission_ms_per_frame",
            baseline,
            current,
            args.max_throughput_regression,
        )
    for field in ("obs_overhead_fraction", "sharded_obs_overhead_fraction"):
        overhead = current.get(field)
        if isinstance(overhead, (int, float)):
            verdict = "FAIL" if overhead > args.max_obs_overhead else "ok"
            print(
                f"{verdict}: BENCH_serve.json: {field} "
                f"{overhead * 100:+.1f}% "
                f"(budget {args.max_obs_overhead * 100:.0f}%)"
            )
            if overhead > args.max_obs_overhead:
                failures.append(
                    f"BENCH_serve.json: {field} {overhead * 100:.1f}% "
                    f"exceeds the {args.max_obs_overhead * 100:.0f}% budget"
                )
        else:
            print(f"WARN: BENCH_serve.json: no {field} in current run")
    keys = ("workload", "service")
    if _config(baseline, keys) != _config(current, keys):
        print("WARN: BENCH_serve.json: workload configs differ; "
              "skipping throughput comparison")
        return failures
    failures += _check_throughput(
        "BENCH_serve.json",
        "service_requests_per_second",
        baseline,
        current,
        args.max_throughput_regression,
    )
    return failures


def check_faults(baseline, current, args):
    """Fault-free accuracy: the zero-fault miss rate must not creep up."""
    keys = ("fault_kind", "rates", "fault_seeds", "ticks", "hidden")
    if _config(baseline, keys) != _config(current, keys):
        print("WARN: BENCH_faults.json: sweep configs differ; skipping")
        return []
    failures = []
    base_app = baseline.get("approaches", {})
    cur_app = current.get("approaches", {})
    for name in sorted(set(base_app) & set(cur_app)):
        try:
            base_miss = float(base_app[name]["miss_rate"][0])
            cur_miss = float(cur_app[name]["miss_rate"][0])
        except (KeyError, IndexError, TypeError, ValueError):
            print(f"WARN: BENCH_faults.json: no miss_rate[0] for {name}")
            continue
        rise = cur_miss - base_miss
        verdict = "FAIL" if rise > args.max_missrate_increase else "ok"
        print(
            f"{verdict}: BENCH_faults.json: {name} fault-free miss rate "
            f"{base_miss:.3f} -> {cur_miss:.3f} "
            f"(cap +{args.max_missrate_increase:.2f})"
        )
        if rise > args.max_missrate_increase:
            failures.append(
                f"BENCH_faults.json: {name} fault-free miss rate rose "
                f"{rise:.3f}"
            )
    return failures


def check_video(baseline, current, args):
    """Video parity flags, cache-locality separation, and walk fps."""
    failures = []
    parity = current.get("parity", {})
    for flag in ("engines_identical", "workers_identical"):
        value = parity.get(flag)
        verdict = "ok" if value is True else "FAIL"
        print(f"{verdict}: BENCH_video.json: parity.{flag} = {value}")
        if value is not True:
            failures.append(
                f"BENCH_video.json: parity.{flag} is {value!r}, not true"
            )
    motions = current.get("motions", {})
    static_hit = motions.get("static", {}).get("cache_hit_rate")
    full_hit = motions.get("full", {}).get("cache_hit_rate")
    if isinstance(static_hit, (int, float)) and isinstance(full_hit, (int, float)):
        separation = static_hit - full_hit
        floor = args.min_video_cache_separation
        verdict = "FAIL" if separation < floor else "ok"
        print(
            f"{verdict}: BENCH_video.json: static-vs-full cache hit "
            f"separation {separation:.2f} (floor {floor:.2f})"
        )
        if separation < floor:
            failures.append(
                f"BENCH_video.json: cache separation {separation:.2f} "
                f"below the {floor:.2f} floor"
            )
    else:
        print("WARN: BENCH_video.json: motion sweep hit rates absent; "
              "skipping cache-locality gate")
    keys = ("workload", "service")
    if _config(baseline, keys) != _config(current, keys):
        print("WARN: BENCH_video.json: workload configs differ; "
              "skipping fps comparison")
        return failures
    failures += _check_throughput(
        "BENCH_video.json (motion=walk)",
        "fps",
        baseline.get("motions", {}).get("walk", {}),
        current.get("motions", {}).get("walk", {}),
        args.max_throughput_regression,
    )
    return failures


CHECKS = {
    "BENCH_engine.json": check_engine,
    "BENCH_serve.json": check_serve,
    "BENCH_faults.json": check_faults,
    "BENCH_video.json": check_video,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir", default=".",
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--current-dir", default=".",
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--max-throughput-regression", type=float, default=0.10,
        help="allowed fractional throughput drop (and admission cost "
        "rise) vs baseline (default 0.10)",
    )
    parser.add_argument(
        "--max-obs-overhead", type=float, default=0.05,
        help="absolute telemetry-overhead budget (default 0.05)",
    )
    parser.add_argument(
        "--min-worker-scaling", default="",
        help="comma-separated WORKERS:FLOOR absolute floors on the "
        "sharded scale-out sweep, e.g. '2:1.6,4:2.5' (empty = gate off; "
        "warns and skips when the current payload has no workers_sweep)",
    )
    parser.add_argument(
        "--max-missrate-increase", type=float, default=0.05,
        help="allowed absolute rise of the fault-free miss rate",
    )
    parser.add_argument(
        "--min-video-cache-separation", type=float, default=0.25,
        help="required static-minus-full cache hit-rate gap in the "
        "video motion sweep (absolute floor, default 0.25)",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report failures but always exit 0 (rollout mode)",
    )
    args = parser.parse_args()

    failures = []
    compared = 0
    for name in BENCH_FILES:
        baseline = _load(Path(args.baseline_dir) / name)
        current = _load(Path(args.current_dir) / name)
        if baseline is None or current is None:
            continue
        compared += 1
        failures += CHECKS[name](baseline, current, args)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if args.warn_only:
            print("warn-only mode: failures reported, exiting 0")
            return 0
        return 1
    print(f"OK: {compared} benchmark payload(s) compared, no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
