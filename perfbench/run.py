"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload video-static --seed 1 --seconds 20 --trace 0

Prints one ``name value unit`` line per metric, the workload properties
and the correctness verdict, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones. Exit status: 0 when the correctness gate passes, 1 when
it fails, 2 when the program cannot be imported or a run raises.
"""

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="seconds-scale inputs (for smoke tests, not for measuring)",
    )
    args = parser.parse_args(argv)
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"imported repro from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    try:
        report = workloads.run(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            process_started=PROCESS_STARTED,
            tiny=args.tiny,
        )
    except Exception:
        traceback.print_exc()
        return 2

    print(
        f"workload {report.workload} seed {report.seed} "
        f"({'traced' if report.trace else 'untraced'}): "
        f"frames {report.frames} attempted, {report.frames_completed} completed, "
        f"{report.frames - report.frames_completed} failed; "
        f"requests {report.attempted} attempted, "
        f"{report.attempted - report.failed} completed, {report.failed} failed"
    )
    for name, (value, unit) in report.end_to_end.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    if report.trace:
        print("per-layer (per frame):")
        for name, (value, unit) in report.metrics.items():
            print(f"  {name:<32} {value:.6g} {unit}")
    for note in report.notes:
        print(f"  note: {note}")
    print(
        "properties: "
        + ", ".join(f"{k}={v:.4g}" for k, v in report.properties.items())
    )
    for problem in report.problems:
        print(f"GATE FAILED: {problem}")
    print(f"correct: {report.correct}")
    print(json.dumps(report.result_line()))
    sys.stdout.flush()
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
