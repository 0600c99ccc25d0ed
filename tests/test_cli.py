"""Tests for the python -m repro command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2 reproduction" in out
        assert "6.72x" in out or "6.7" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "dominant bin = 0" in out

    def test_validate(self, capsys):
        assert main(["validate", "--cells", "3"]) == 0
        out = capsys.readouterr().out
        assert "correlation" in out

    def test_validate_batch_engine(self, capsys):
        assert main(["validate", "--cells", "3", "--engine", "batch"]) == 0
        out = capsys.readouterr().out
        assert "correlation" in out
        assert "batch" in out

    def test_serve_smoke(self, capsys):
        assert main(["serve", "--requests", "24", "--concurrency", "4",
                     "--chunk-size", "2"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["load"]["requests"] == 24
        assert payload["load"]["completed"] == 24
        assert payload["stats"]["counters"]["submitted"] == 24

    def test_video_smoke(self, capsys, tmp_path):
        output = tmp_path / "video.json"
        assert main([
            "video", "--small", "--frames", "2", "--motion", "static",
            "--engine", "event", "--output", str(output),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 160x224 frames" in out
        assert "cache hit rate" in out
        payload = json.loads(output.read_text())
        assert payload["engine"] == "event"
        assert payload["motion"] == "static"
        assert len(payload["per_frame"]) == 2
        assert payload["degraded_frames"] == 0

    def test_video_bad_shape_rejected(self, capsys):
        assert main(["video", "--video-shape", "huge"]) == 2

    def test_serve_workers_honours_retry_flags(self, capsys):
        """Sharded serving retries transient faults like in-process.

        Each worker draws the seed-0 fault stream: its first call fails
        at rate 0.64 and no run of failures in its first 200 draws is
        longer than 7, so 8 attempts always get through.
        """
        assert main([
            "serve", "--workers", "2", "--flaky-rate", "0.64",
            "--retries", "8", "--degraded-score", "-1", "--requests", "24",
            "--concurrency", "4", "--chunk-size", "2",
        ]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["load"]["completed"] == 24
        assert payload["load"]["failed"] == 0
        assert payload["stats"]["counters"]["retries"] > 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig7"])

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0


class TestTraceCommand:
    def test_trace_export_writes_valid_chrome_trace(self, capsys, tmp_path):
        from repro.obs import flight_recorder, trace_log
        from repro.obs.traces import validate_chrome_trace

        trace_log().clear()
        flight_recorder().clear()
        export = tmp_path / "trace.json"
        assert main([
            "trace", "--export", str(export),
            "serve", "--requests", "12", "--concurrency", "2",
            "--chunk-size", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "span timings" in out
        assert f"wrote" in out and str(export) in out
        document = json.loads(export.read_text())
        validate_chrome_trace(document)
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_trace_export_needs_a_value(self, capsys):
        assert main(["trace", "--export"]) == 2

    def test_trace_without_command_is_usage_error(self, capsys):
        assert main(["trace"]) == 2


class TestSloCommand:
    def test_slo_evaluates_a_real_serve_run(self, capsys, tmp_path):
        output = tmp_path / "slo.json"
        assert main([
            "slo", "--output", str(output),
            "serve", "--requests", "16", "--concurrency", "2",
            "--chunk-size", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "SLO verdicts" in out
        assert "serve_latency_fast" in out
        assert "serve_energy_per_request" in out
        from repro.obs.slo import validate_report

        report = json.loads(output.read_text())
        validate_report(report)
        signals = {o["objective"]["signal"] for o in report["objectives"]}
        assert signals == {"latency", "energy"}
        assert all(o["total"] > 0 for o in report["objectives"])

    def test_slo_publishes_burn_rate_series(self, capsys):
        from repro.obs import get_registry

        assert main([
            "slo", "serve", "--requests", "8", "--concurrency", "2",
            "--chunk-size", "2",
        ]) == 0
        exposition = get_registry().render_prometheus()
        assert 'slo_burn_rate{slo="serve_latency_fast"}' in exposition
        assert 'slo_requests_total{slo="serve_energy_per_request"}' in (
            exposition
        )

    def test_slo_rewrites_the_metrics_exposition_file(self, capsys, tmp_path):
        """A ``--metrics-output`` file written by the wrapped command is
        rewritten after publication, so the scraped exposition (what the
        CI slo-smoke job reads) carries the burn-rate series."""
        prom = tmp_path / "metrics.prom"
        assert main([
            "slo", "serve", "--requests", "8", "--concurrency", "2",
            "--chunk-size", "2", "--metrics-output", str(prom),
        ]) == 0
        exposition = prom.read_text()
        assert 'slo_burn_rate{slo="serve_latency_fast"}' in exposition
        assert "serve_latency_seconds_count" in exposition

    def test_slo_custom_objectives_and_check_gate(self, capsys, tmp_path):
        objectives = tmp_path / "objectives.json"
        objectives.write_text(json.dumps([
            {
                "name": "impossible",
                "signal": "latency",
                "metric": "serve_latency_seconds",
                "threshold": 1e-07,
                "target": 0.999,
            }
        ]))
        code = main([
            "slo", "--objectives", str(objectives), "--check",
            "serve", "--requests", "8", "--concurrency", "2",
            "--chunk-size", "2",
        ])
        assert code == 1
        out = capsys.readouterr()
        assert "impossible" in out.out
        assert "objective violated" in out.err

    def test_slo_without_command_is_usage_error(self, capsys):
        assert main(["slo"]) == 2

    def test_slo_bad_objectives_file_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "none.json"
        assert main(["slo", "--objectives", str(missing), "serve"]) == 2
