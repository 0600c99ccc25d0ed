"""The bench-regression gate (``benchmarks/check_regression.py``).

The gate compares freshly generated BENCH_*.json payloads against the
committed baselines and must (a) fail on a >10 % throughput drop or a
blown telemetry budget, (b) warn-and-pass when either side is missing
or the workload configs differ, and (c) always exit 0 in ``--warn-only``
rollout mode. The script is a CLI, not a package module, so the tests
load it by path with :mod:`importlib`.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"


def _load_module():
    spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_regression = _load_module()


ENGINE = {
    "workload": {"cells": 8, "window": 64},
    "batch_size": 32,
    "batch_windows_per_second": 20.0,
}
SERVE = {
    "workload": {"requests": 96, "concurrency": 32},
    "service": {"max_batch_size": 8},
    "service_requests_per_second": 50.0,
    "obs_overhead_fraction": 0.02,
    "sharded_obs_overhead_fraction": 0.03,
}
FAULTS = {
    "fault_kind": "drop",
    "rates": [0.0, 0.5, 1.0],
    "fault_seeds": 2,
    "ticks": 16,
    "hidden": 32,
    "approaches": {
        "Parrot": {"miss_rate": [0.10, 0.40, 1.0]},
        "SVM": {"miss_rate": [0.05, 0.30, 1.0]},
    },
}


def _write_dir(path, engine=None, serve=None, faults=None):
    path.mkdir(parents=True, exist_ok=True)
    for name, payload in (
        ("BENCH_engine.json", engine),
        ("BENCH_serve.json", serve),
        ("BENCH_faults.json", faults),
    ):
        if payload is not None:
            (path / name).write_text(json.dumps(payload))


def _run(tmp_path, baseline, current, extra=()):
    """Exit code of ``main()`` over two payload directories."""
    base_dir = tmp_path / "baseline"
    cur_dir = tmp_path / "current"
    _write_dir(base_dir, **baseline)
    _write_dir(cur_dir, **current)
    argv = [
        "check_regression.py",
        "--baseline-dir", str(base_dir),
        "--current-dir", str(cur_dir),
        *extra,
    ]
    old_argv = sys.argv
    sys.argv = argv
    try:
        return check_regression.main()
    finally:
        sys.argv = old_argv


class TestPassPaths:
    def test_identical_payloads_pass(self, tmp_path, capsys):
        payloads = {"engine": ENGINE, "serve": SERVE, "faults": FAULTS}
        assert _run(tmp_path, payloads, payloads) == 0
        out = capsys.readouterr().out
        assert "OK: 3 benchmark payload(s) compared" in out

    def test_improvement_passes(self, tmp_path):
        current = {
            "engine": {**ENGINE, "batch_windows_per_second": 40.0},
            "serve": {**SERVE, "service_requests_per_second": 99.0},
        }
        assert _run(
            tmp_path, {"engine": ENGINE, "serve": SERVE}, current
        ) == 0

    def test_small_regression_within_floor_passes(self, tmp_path):
        current = {"engine": {**ENGINE, "batch_windows_per_second": 18.5}}
        assert _run(tmp_path, {"engine": ENGINE}, current) == 0


class TestFailPaths:
    def test_throughput_regression_fails(self, tmp_path, capsys):
        current = {"engine": {**ENGINE, "batch_windows_per_second": 10.0}}
        assert _run(tmp_path, {"engine": ENGINE}, current) == 1
        captured = capsys.readouterr()
        assert "regressed" in captured.err

    def test_serve_regression_fails(self, tmp_path):
        current = {"serve": {**SERVE, "service_requests_per_second": 30.0}}
        assert _run(tmp_path, {"serve": SERVE}, current) == 1

    def test_obs_overhead_budget_is_absolute(self, tmp_path, capsys):
        # Throughput identical, but the current run burns 12% on
        # telemetry: the budget check fails regardless of the baseline.
        current = {"serve": {**SERVE, "obs_overhead_fraction": 0.12}}
        assert _run(tmp_path, {"serve": SERVE}, current) == 1
        assert "budget" in capsys.readouterr().err

    def test_sharded_obs_overhead_shares_the_budget(self, tmp_path, capsys):
        # The in-process arm is within budget, but the worker tier's
        # span/delta shipping blows it: the gate fails on the sharded
        # field alone.
        current = {
            "serve": {**SERVE, "sharded_obs_overhead_fraction": 0.12}
        }
        assert _run(tmp_path, {"serve": SERVE}, current) == 1
        err = capsys.readouterr().err
        assert "sharded_obs_overhead_fraction" in err

    def test_missrate_rise_fails(self, tmp_path):
        bad = json.loads(json.dumps(FAULTS))
        bad["approaches"]["Parrot"]["miss_rate"][0] = 0.30
        assert _run(tmp_path, {"faults": FAULTS}, {"faults": bad}) == 1

    def test_threshold_flags_are_honored(self, tmp_path):
        current = {"engine": {**ENGINE, "batch_windows_per_second": 12.0}}
        assert _run(
            tmp_path,
            {"engine": ENGINE},
            current,
            extra=("--max-throughput-regression", "0.5"),
        ) == 0


class TestWarnAndPass:
    def test_warn_only_reports_but_exits_zero(self, tmp_path, capsys):
        current = {"engine": {**ENGINE, "batch_windows_per_second": 1.0}}
        assert _run(
            tmp_path, {"engine": ENGINE}, current, extra=("--warn-only",)
        ) == 0
        captured = capsys.readouterr()
        assert "regressed" in captured.err
        assert "warn-only" in captured.out

    def test_payload_without_sharded_overhead_warns_and_passes(
        self, tmp_path, capsys
    ):
        # Payloads generated before the sharded obs arm existed lack
        # the field; the gate must warn, not fail.
        old = {k: v for k, v in SERVE.items()
               if k != "sharded_obs_overhead_fraction"}
        assert _run(tmp_path, {"serve": SERVE}, {"serve": old}) == 0
        out = capsys.readouterr().out
        assert "no sharded_obs_overhead_fraction" in out

    def test_missing_baseline_passes(self, tmp_path, capsys):
        assert _run(tmp_path, {}, {"engine": ENGINE}) == 0
        assert "missing; skipping" in capsys.readouterr().out

    def test_missing_current_passes(self, tmp_path):
        assert _run(tmp_path, {"engine": ENGINE}, {}) == 0

    def test_unparseable_payload_passes(self, tmp_path, capsys):
        base_dir = tmp_path / "baseline"
        cur_dir = tmp_path / "current"
        _write_dir(base_dir, engine=ENGINE)
        _write_dir(cur_dir)
        (cur_dir / "BENCH_engine.json").write_text("{not json")
        old_argv = sys.argv
        sys.argv = [
            "check_regression.py",
            "--baseline-dir", str(base_dir),
            "--current-dir", str(cur_dir),
        ]
        try:
            assert check_regression.main() == 0
        finally:
            sys.argv = old_argv
        assert "unparseable" in capsys.readouterr().out

    def test_config_mismatch_skips_comparison(self, tmp_path, capsys):
        # A --quick current run against a full-size baseline: the
        # throughput numbers are incomparable, so the gate skips them
        # even when the drop is huge.
        current = {
            "engine": {
                **ENGINE,
                "workload": {"cells": 2, "window": 16},
                "batch_windows_per_second": 1.0,
            }
        }
        assert _run(tmp_path, {"engine": ENGINE}, current) == 0
        assert "configs differ" in capsys.readouterr().out

    def test_zero_baseline_throughput_skips(self, tmp_path, capsys):
        baseline = {"engine": {**ENGINE, "batch_windows_per_second": 0.0}}
        assert _run(tmp_path, baseline, {"engine": ENGINE}) == 0
        assert "skipping" in capsys.readouterr().out


class TestSparseAndAdmissionGates:
    """The engine's sparse-input throughput and the serve tier's
    admission cost are gated against the committed baseline."""

    SPARSE = {
        **ENGINE,
        "density_sweep": {"workload": {"kind": "sparse-chain", "cores": 128}},
        "sparse_windows_per_second": 200.0,
    }
    ADMISSION = {
        **SERVE,
        "admission": {"workload": {"rows_per_frame": 887, "rows_per_call": 128}},
        "admission_ms_per_frame": 6.0,
    }

    def test_sparse_throughput_drop_fails(self, tmp_path, capsys):
        current = {**self.SPARSE, "sparse_windows_per_second": 170.0}
        assert _run(tmp_path, {"engine": self.SPARSE}, {"engine": current}) == 1
        assert "sparse_windows_per_second regressed" in capsys.readouterr().err

    def test_sparse_gate_skips_another_sweep(self, tmp_path, capsys):
        current = {
            **self.SPARSE,
            "density_sweep": {"workload": {"kind": "sparse-chain", "cores": 64}},
            "sparse_windows_per_second": 1.0,
        }
        assert _run(tmp_path, {"engine": self.SPARSE}, {"engine": current}) == 0
        assert "density sweep configs differ" in capsys.readouterr().out

    def test_admission_cost_rise_fails(self, tmp_path, capsys):
        current = {**self.ADMISSION, "admission_ms_per_frame": 7.0}
        assert _run(tmp_path, {"serve": self.ADMISSION}, {"serve": current}) == 1
        assert "admission_ms_per_frame rose" in capsys.readouterr().err

    def test_admission_cost_within_ceiling_or_lower_passes(self, tmp_path):
        for cost in (6.5, 3.0):
            current = {**self.ADMISSION, "admission_ms_per_frame": cost}
            assert _run(
                tmp_path, {"serve": self.ADMISSION}, {"serve": current}
            ) == 0


class TestAgainstCommittedBaselines:
    def test_committed_baselines_self_compare_clean(self, capsys):
        """The gate must pass when current == the committed baselines."""
        repo = _SCRIPT.parent.parent
        if not (repo / "BENCH_engine.json").is_file():
            pytest.skip("no committed baselines in this checkout")
        old_argv = sys.argv
        sys.argv = [
            "check_regression.py",
            "--baseline-dir", str(repo),
            "--current-dir", str(repo),
        ]
        try:
            assert check_regression.main() == 0
        finally:
            sys.argv = old_argv
        assert "no regression" in capsys.readouterr().out
