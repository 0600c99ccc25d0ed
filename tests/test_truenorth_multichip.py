"""Multi-chip placement accounting across engines.

The scale-out tier routes spikes between simulated chips, so the
activity ledgers must split router traffic into intra- vs cross-chip
hops — and the split must be *bit-identical* across the reference and
every batch-engine mode, clean and under routing faults, because the
sharded serving tier re-records worker ledgers as if they were local.

Invariants under test:

- ``intra_chip_hops + cross_chip_hops == router_hops`` always (the
  intra column is derived, so this holds by construction — what is
  really tested is that ``cross_chip_hops`` never exceeds the hops).
- A single-chip placement has zero cross-chip hops; a one-core-per-chip
  placement of a chain topology makes *every* hop cross-chip.
- The split is identical whichever engine produced the ledger.
- Placement changes accounting only: probe rasters and spike totals are
  bit-identical with and without a placement applied.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import DroppedSpikes, DuplicatedSpikes, FaultPlan
from repro.truenorth import apply_best_placement
from repro.truenorth.placement import best_placement
from repro.truenorth.simulator import Simulator

from tests.engine_systems import (
    ALL_MODES,
    BATCH_MODES,
    batched_inputs,
    random_system,
    shared_inputs,
)

TICKS = 24

FAULT_PLANS = {
    "clean": None,
    "drop": FaultPlan((DroppedSpikes(0.3),), seed=11),
    "dup": FaultPlan((DuplicatedSpikes(0.4),), seed=12),
    "drop_dup": FaultPlan(
        (DroppedSpikes(0.2), DuplicatedSpikes(0.3)), seed=13
    ),
}


def _chain_system():
    """A 4-core deterministic chain (every route goes core i -> i+1)."""
    return random_system(21, n_cores=4, stochastic_fraction=0.0)


def _placed_sim(engine, cores_per_chip=2, faults=None):
    system = _chain_system()
    report = apply_best_placement(system, cores_per_chip=cores_per_chip)
    sim = Simulator(system, rng=123, engine=engine, faults=faults)
    return sim, report


class TestChipAssignment:
    def test_default_assignment_is_single_chip(self):
        system = _chain_system()
        assert all(system.chip_of(c) == 0 for c in range(4))

    def test_apply_placement_spans_chips(self):
        system = _chain_system()
        report = apply_best_placement(system, cores_per_chip=2)
        chips = {system.chip_of(core) for core in range(4)}
        assert len(chips) == 2
        assert {core: system.chip_of(core) for core in range(4)} == report.assignment

    def test_apply_placement_rejects_unknown_core(self):
        system = _chain_system()
        with pytest.raises(ConfigurationError, match="unknown core"):
            system.apply_placement({99: 0})

    def test_apply_placement_rejects_negative_chip(self):
        system = _chain_system()
        with pytest.raises(ConfigurationError, match="chip"):
            system.apply_placement({0: -1})

    def test_accepts_placement_report_directly(self):
        system = _chain_system()
        report = best_placement(system, cores_per_chip=2)
        system.apply_placement(report)
        assert {core: system.chip_of(core) for core in range(4)} == report.assignment


class TestHopSplitSemantics:
    @pytest.mark.parametrize("engine", ALL_MODES, indirect=True)
    def test_single_chip_has_zero_cross_hops(self, engine):
        system = _chain_system()
        sim = Simulator(system, rng=123, engine=engine)
        inputs = shared_inputs(system, TICKS, 7, 0.3)
        activity = sim.run(TICKS, inputs).activity
        assert int(activity.cross_chip_hops.sum()) == 0
        np.testing.assert_array_equal(
            activity.intra_chip_hops, activity.router_hops
        )

    @pytest.mark.parametrize("engine", ALL_MODES, indirect=True)
    def test_one_core_per_chip_makes_every_hop_cross(self, engine):
        sim, _ = _placed_sim(engine, cores_per_chip=1)
        inputs = shared_inputs(sim.system, TICKS, 7, 0.3)
        activity = sim.run(TICKS, inputs).activity
        assert int(activity.router_hops.sum()) > 0
        np.testing.assert_array_equal(
            activity.cross_chip_hops, activity.router_hops
        )
        assert int(activity.intra_chip_hops.sum()) == 0

    @pytest.mark.parametrize("engine", ALL_MODES, indirect=True)
    @pytest.mark.parametrize("fault", sorted(FAULT_PLANS))
    def test_split_sums_to_router_hops(self, engine, fault):
        sim, _ = _placed_sim(engine, cores_per_chip=2, faults=FAULT_PLANS[fault])
        inputs = shared_inputs(sim.system, TICKS, 7, 0.3)
        activity = sim.run(TICKS, inputs).activity
        np.testing.assert_array_equal(
            activity.intra_chip_hops + activity.cross_chip_hops,
            activity.router_hops,
        )
        assert (activity.cross_chip_hops >= 0).all()
        assert (activity.intra_chip_hops >= 0).all()

    def test_two_chip_chain_splits_strictly(self):
        """cores 0|1 and 2|3: only the 1->2 leg crosses, others stay."""
        sim, _ = _placed_sim("reference", cores_per_chip=2)
        inputs = shared_inputs(sim.system, TICKS, 7, 0.5)
        activity = sim.run(TICKS, inputs).activity
        assert int(activity.cross_chip_hops.sum()) > 0
        assert int(activity.intra_chip_hops.sum()) > 0


class TestCrossEngineConformance:
    """The multi-chip ledgers join the bit-identity contract."""

    @pytest.mark.parametrize("engine", BATCH_MODES, indirect=True)
    @pytest.mark.parametrize("fault", sorted(FAULT_PLANS))
    def test_hop_split_matches_reference(self, engine, fault):
        ref_sim, _ = _placed_sim(
            "reference", cores_per_chip=2, faults=FAULT_PLANS[fault]
        )
        got_sim, _ = _placed_sim(
            engine, cores_per_chip=2, faults=FAULT_PLANS[fault]
        )
        inputs = shared_inputs(ref_sim.system, TICKS, 7, 0.3)
        ref = ref_sim.run(TICKS, inputs)
        got = got_sim.run(TICKS, inputs)
        for probe, raster in ref.probe_spikes.items():
            np.testing.assert_array_equal(raster, got.probe_spikes[probe])
        for field in ("router_hops", "cross_chip_hops", "intra_chip_hops"):
            np.testing.assert_array_equal(
                getattr(ref.activity, field),
                getattr(got.activity, field),
                err_msg=f"{field} ({engine}, {fault})",
            )

    @pytest.mark.parametrize("engine", BATCH_MODES, indirect=True)
    def test_batched_hop_split_matches_reference(self, engine):
        batch = 5
        ref_sim, _ = _placed_sim("reference", cores_per_chip=2)
        got_sim, _ = _placed_sim(engine, cores_per_chip=2)
        inputs = batched_inputs(ref_sim.system, TICKS, batch, 7, 0.3)
        ref = ref_sim.run_batch(TICKS, inputs)
        got = got_sim.run_batch(TICKS, inputs)
        for field in ("router_hops", "cross_chip_hops", "intra_chip_hops"):
            np.testing.assert_array_equal(
                getattr(ref.activity, field),
                getattr(got.activity, field),
                err_msg=field,
            )

    @pytest.mark.parametrize("engine", ALL_MODES, indirect=True)
    def test_placement_does_not_change_results(self, engine):
        """Chip assignment is pure accounting: spikes are untouched."""
        unplaced = Simulator(_chain_system(), rng=123, engine=engine)
        placed, _ = _placed_sim(engine, cores_per_chip=2)
        inputs = shared_inputs(unplaced.system, TICKS, 7, 0.3)
        ref = unplaced.run(TICKS, inputs)
        got = placed.run(TICKS, inputs)
        for probe, raster in ref.probe_spikes.items():
            np.testing.assert_array_equal(raster, got.probe_spikes[probe])
        assert ref.total_spikes == got.total_spikes
        np.testing.assert_array_equal(
            ref.activity.router_hops, got.activity.router_hops
        )
