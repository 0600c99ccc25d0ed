"""Tests of the benchmark itself, on seconds-scale (``--tiny``) inputs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads.WORKLOADS)


def _cli(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _cli("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    printed = {
        tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3
    }
    for metric in SPEC["end_to_end"] + expected:
        assert (metric["name"], metric["unit"]) in printed, metric
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_unknown_workload_fails_without_a_result():
    proc = _cli("--workload", "nope", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class FlipScore:
    """Serve-side scorer that negates the score of one window row."""

    def __init__(self, scorer, target):
        self.scorer, self.target = scorer, target
        self.model_id, self.cacheable = scorer.model_id, scorer.cacheable

    def decision_function(self, features):
        scores = np.array(self.scorer.decision_function(features), dtype=np.float64)
        hit = np.all(np.asarray(features) == self.target, axis=1)
        scores[hit] = -scores[hit] - 1.0
        return scores


class FlipBin:
    """Serve-side cell model that adds one vote to one patch's bin 0."""

    cacheable = True

    def __init__(self, model, target):
        self.model, self.target = model, target
        self.model_id = model.model_id

    def __call__(self, matrix):
        out = np.array(self.model(matrix))
        out[np.all(np.asarray(matrix) == self.target, axis=1), 0] += 1.0
        return out


def _flip(model, bench):
    target = bench.gate_rows()[0]
    return FlipScore(model, target) if bench.kind == "video" else FlipBin(model, target)


@pytest.mark.parametrize("workload", ["video-static", "serve-cells"])
def test_gate_catches_one_flipped_score(workload):
    report = workloads.run(
        workload, seed=5, seconds=0.1, trace=False, tiny=True,
        serve_model_wrapper=_flip,
    )
    assert not report.correct
    assert any("differ" in problem for problem in report.problems)


def test_cli_exits_nonzero_when_the_gate_fails(monkeypatch, capsys):
    from perfbench import run as cli

    real_run = workloads.run
    monkeypatch.setattr(
        workloads, "run",
        lambda *a, **kw: real_run(*a, serve_model_wrapper=_flip, **kw),
    )
    code = cli.main(["--workload", "video-full", "--seed", "2",
                     "--seconds", "0.1", "--tiny"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


SIMULATED_END_TO_END = ("joules_per_frame", "nanojoules_per_request")
SIMULATED_PER_LAYER = (
    "truenorth.spikes",
    "truenorth.synaptic_events",
    "truenorth.router_hops",
    "truenorth.lane_ticks",
    "truenorth.active_core_fraction",
    "napprox.cells",
    "detection.nms_candidates",
    "serve.cache_hit_rate",
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_metrics_repeat_exactly(workload):
    runs = [
        workloads.run(workload, seed=7, seconds=0.1, trace=True, tiny=True)
        for _ in range(2)
    ]
    assert all(r.correct for r in runs), [r.problems for r in runs]
    for name in SIMULATED_END_TO_END:
        assert runs[0].end_to_end[name] == runs[1].end_to_end[name]
    for name in SIMULATED_PER_LAYER:
        assert runs[0].metrics[name] == runs[1].metrics[name]


def test_probes_leave_no_wrapper_behind():
    from repro.serve import InferenceService
    from repro.truenorth.simulator import Simulator
    from repro.video import pipeline

    from perfbench import probes

    before = (Simulator.run_batch, InferenceService.submit, pipeline.pool_feature_rows)
    with probes.installed():
        assert Simulator.run_batch is not before[0]
    assert (Simulator.run_batch, InferenceService.submit,
            pipeline.pool_feature_rows) == before


def test_interaction_list_names_known_metrics_and_workloads():
    interactions = json.loads((ROOT / "perfbench" / "interactions.json").read_text())
    metrics = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    ids = [item["id"] for item in interactions]
    assert len(ids) == len(set(ids))
    for item in interactions:
        assert item["workload"] in WORKLOADS, item
        assert item["end_to_end"] in metrics, item
        assert set(item["layer_metrics"]) <= metrics, item
        assert item["predicted"] in ("up", "down", "none"), item
