"""Fault-rate sweep experiment: plan mapping, metrics, and a tiny run."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import faults_sweep
from repro.faults import (
    DroppedSpikes,
    DuplicatedSpikes,
    RandomDeadCores,
    RandomStuckNeurons,
    ThresholdDrift,
    WeightBitFlips,
)
from repro.video.workload import FEATURE_TARGET


class TestBuildFaultPlan:
    def test_zero_rate_is_clean(self):
        assert faults_sweep.build_fault_plan("drop", 0.0) is None

    @pytest.mark.parametrize(
        "kind,spec_type",
        [
            ("drop", DroppedSpikes),
            ("dup", DuplicatedSpikes),
            ("dead", RandomDeadCores),
            ("stuck", RandomStuckNeurons),
            ("flip", WeightBitFlips),
            ("drift", ThresholdDrift),
        ],
    )
    def test_kind_mapping(self, kind, spec_type):
        plan = faults_sweep.build_fault_plan(kind, 0.25, seed=9)
        assert len(plan.faults) == 1
        assert isinstance(plan.faults[0], spec_type)
        assert plan.seed == 9

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            faults_sweep.build_fault_plan("meteor", 0.5)

    def test_out_of_range_rate_propagates(self):
        with pytest.raises(ConfigurationError):
            faults_sweep.build_fault_plan("drop", 1.5)

    def test_drift_scales(self):
        plan = faults_sweep.build_fault_plan("drift", 0.5)
        assert plan.faults[0].scale == pytest.approx(
            0.5 * faults_sweep.DRIFT_SCALE
        )


class TestFeatures:
    class _GridExtractor:
        """cell_grid = deterministic ramp, for shape/pooling checks."""

        def cell_grid(self, window):
            return np.arange(16 * 8 * 18, dtype=float).reshape(16, 8, 18)

    def test_pooled_shape_and_determinism(self):
        windows = np.zeros((3, 128, 64))
        feats = faults_sweep.pooled_window_features(self._GridExtractor(), windows)
        assert feats.shape == (3, 4 * 4 * 6)
        np.testing.assert_array_equal(feats[0], feats[1])

    def test_bin_merge_sums_adjacent_bins(self):
        grid = np.zeros((16, 8, 18))
        grid[:, :, 0] = 1.0
        grid[:, :, 1] = 2.0

        class E:
            def cell_grid(self, window):
                return grid

        feats = faults_sweep.pooled_window_features(
            E(), np.zeros((1, 128, 64)), pool=(16, 8), bin_merge=3
        )
        # one spatial cell, 6 merged bins; first merged bin = 1 + 2 + 0
        assert feats.shape == (1, 6)
        assert feats[0, 0] == pytest.approx(3.0)

    def test_calibrated_scale_targets_q95(self):
        counts = np.linspace(0.0, 10.0, 101)
        scale = faults_sweep.calibrated_feature_scale(counts)
        assert np.quantile(counts * scale, 0.95) == pytest.approx(
            FEATURE_TARGET
        )

    def test_calibrated_scale_of_zeros_is_identity(self):
        assert faults_sweep.calibrated_feature_scale(np.zeros(8)) == 1.0


class TestMonotoneCheck:
    def _result(self, curve):
        result = faults_sweep.FaultSweepResult(
            fault_kind="drop",
            rates=[0.0, 0.5, 1.0],
            fault_seeds=[0],
            ticks=4,
            hidden=8,
        )
        result.miss_rates["NApprox"] = curve
        result.false_positive_rates["NApprox"] = [0.0] * len(curve)
        result.mean_margins["NApprox"] = [0.0] * len(curve)
        return result

    def test_monotone_curve_passes(self):
        assert self._result([0.1, 0.5, 1.0]).check_monotone(("NApprox",)) == []

    def test_small_dip_within_tolerance_passes(self):
        assert self._result([0.1, 0.08, 1.0]).check_monotone(("NApprox",)) == []

    def test_large_dip_fails(self):
        violations = self._result([0.5, 0.1, 1.0]).check_monotone(("NApprox",))
        assert violations and "fell" in violations[0]

    def test_flat_curve_fails_net_degradation(self):
        violations = self._result([0.3, 0.3, 0.29]).check_monotone(
            ("NApprox",), tolerance=0.06
        )
        assert any("net degradation" in v for v in violations)

    def test_missing_curve_reported(self):
        violations = self._result([0.0, 0.5, 1.0]).check_monotone(("Parrot",))
        assert violations == ["Parrot: no curve recorded"]


class TestTinyRun:
    @pytest.fixture(scope="class")
    def result(self):
        return faults_sweep.run(
            rates=(0.0, 1.0),
            fault_kind="drop",
            approaches=("NApprox", "SVM"),
            hidden=24,
            ticks=8,
            fault_seeds=(0,),
            n_train=16,
            n_eval=10,
            epochs=8,
            rng=1,
        )

    def test_curves_cover_requested_approaches(self, result):
        assert set(result.miss_rates) == {"NApprox", "SVM"}
        assert all(len(c) == 2 for c in result.miss_rates.values())

    def test_total_fault_rate_maxes_miss(self, result):
        assert result.miss_rates["NApprox"][-1] == 1.0

    def test_svm_curve_is_flat(self, result):
        curve = result.miss_rates["SVM"]
        assert curve[0] == curve[1]

    def test_payload_roundtrips_through_json(self, result, tmp_path):
        path = tmp_path / "bench.json"
        faults_sweep.write_json(result, str(path))
        payload = json.loads(path.read_text())
        assert payload["fault_kind"] == "drop"
        assert payload["rates"] == [0.0, 1.0]
        assert set(payload["approaches"]) == {"NApprox", "SVM"}
        for curves in payload["approaches"].values():
            assert set(curves) == {
                "miss_rate", "false_positive_rate", "mean_margin",
            }

    def test_report_formats(self, result):
        text = faults_sweep.format_report(result)
        assert "NApprox" in text and "SVM" in text and "1.000" in text
