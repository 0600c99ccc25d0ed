"""Hardware-counter telemetry: the ledger, the collector, the energy.

Covers the ``repro.obs.hwcounters`` unit surface (DESIGN.md §12) —
:class:`RunActivity` slicing/stacking/rollups, the thread-local
:func:`collect` scopes, :func:`record_run`'s registry publication and
the global disable switch — plus the end-to-end energy-attribution
contract: per-request energy of the Parrot 8x8-cell module agrees
across engines.
"""

import sys
import threading

import numpy as np
import pytest

from repro.obs import MetricsRegistry, hwcounters
from repro.obs.hwcounters import ActivityCollector, RunActivity
from repro.obs.metrics import set_registry
from repro.parrot import ParrotExtractor, ParrotFeatureConfig
from repro.truenorth.energy import (
    SPIKE_EVENT_JOULES,
    STATIC_CORE_WATTS,
    SYNAPTIC_EVENT_JOULES,
    TICK_SECONDS,
    activity_energy_joules,
)
from repro.truenorth.simulator import Simulator

from tests.engine_systems import (
    BATCH_MODES,
    CASES_BY_NAME,
    batched_inputs,
    engine_mode,
)


def make_activity(batch=3, ticks=4, n_cores=2, engine="batch", seed=0):
    """A synthetic but self-consistent ledger for unit tests."""
    rng = np.random.default_rng(seed)
    core_spikes = rng.integers(0, 50, size=(batch, n_cores))
    core_events = rng.integers(0, 200, size=(batch, n_cores))
    spikes = core_spikes.sum(axis=1)
    per_tick = rng.multinomial(1, [1.0 / ticks] * ticks, size=batch)
    return RunActivity(
        engine=engine,
        ticks=ticks,
        batch=batch,
        n_cores=n_cores,
        core_ids=np.arange(n_cores, dtype=np.int64) * 7,
        spikes=spikes,
        synaptic_events=core_events.sum(axis=1),
        router_hops=rng.integers(0, 90, size=batch),
        dropped_spikes=rng.integers(0, 5, size=batch),
        duplicated_spikes=rng.integers(0, 5, size=batch),
        active_core_ticks=rng.integers(0, ticks * n_cores, size=batch),
        core_spikes=core_spikes,
        core_synaptic_events=core_events,
        spikes_per_tick=per_tick * spikes[:, None],
    )


class TestRunActivity:
    def test_membrane_updates_is_derived(self):
        activity = make_activity(batch=3, ticks=4, n_cores=2)
        np.testing.assert_array_equal(
            activity.membrane_updates, np.full(3, 4 * 2 * 256)
        )

    def test_lane_slices_every_field(self):
        activity = make_activity(batch=3)
        lane = activity.lane(1)
        assert lane.batch == 1
        assert lane.spikes[0] == activity.spikes[1]
        np.testing.assert_array_equal(
            lane.core_spikes[0], activity.core_spikes[1]
        )
        np.testing.assert_array_equal(
            lane.spikes_per_tick[0], activity.spikes_per_tick[1]
        )

    def test_lane_out_of_range(self):
        with pytest.raises(IndexError, match="lane"):
            make_activity(batch=2).lane(2)

    def test_stack_concatenates_lanes(self):
        parts = [make_activity(batch=1, seed=s) for s in range(3)]
        stacked = RunActivity.stack(parts)
        assert stacked.batch == 3
        np.testing.assert_array_equal(
            stacked.spikes, np.concatenate([p.spikes for p in parts])
        )
        np.testing.assert_array_equal(
            stacked.core_spikes,
            np.concatenate([p.core_spikes for p in parts]),
        )

    def test_stack_rejects_mismatched_runs(self):
        with pytest.raises(ValueError, match="identical"):
            RunActivity.stack(
                [make_activity(ticks=4), make_activity(ticks=5)]
            )
        with pytest.raises(ValueError, match="at least one"):
            RunActivity.stack([])

    def test_totals_sums_lanes(self):
        activity = make_activity(batch=3, ticks=4, n_cores=2)
        totals = activity.totals()
        assert totals["spikes"] == int(activity.spikes.sum())
        assert totals["membrane_updates"] == 3 * 4 * 2 * 256
        assert totals["lane_ticks"] == 3 * 4

    def test_lane_energy_matches_model(self):
        activity = make_activity(batch=2, ticks=6, n_cores=3)
        expected = (
            STATIC_CORE_WATTS * 3 * 6 * TICK_SECONDS
            + activity.spikes * SPIKE_EVENT_JOULES
            + activity.synaptic_events * SYNAPTIC_EVENT_JOULES
        )
        np.testing.assert_allclose(activity.lane_energy_joules(), expected)

    def test_top_cores_orders_by_spikes(self):
        activity = make_activity(batch=2, n_cores=2)
        table = activity.top_cores(5)
        assert len(table) == 2
        assert table[0]["spikes"] >= table[1]["spikes"]
        spikes = activity.core_spikes.sum(axis=0)
        hottest = int(np.argmax(spikes))
        assert table[0]["core"] == int(activity.core_ids[hottest])
        with pytest.raises(ValueError, match="n"):
            activity.top_cores(-1)


class TestCollector:
    def test_collect_scopes_and_nesting(self):
        inner_run = make_activity(batch=1)
        outer_run = make_activity(batch=2)
        with hwcounters.collect() as outer:
            hwcounters.record_run(outer_run)
            with hwcounters.collect() as inner:
                hwcounters.record_run(inner_run)
        assert len(outer.runs) == 2 and outer.lanes == 3
        assert len(inner.runs) == 1 and inner.lanes == 1

    def test_all_threads_scope_sees_runs_on_other_threads(self):
        """A thread-local scope sees only its own thread's runs, while an
        ``all_threads`` scope sees every thread's (the ``obs`` profile of
        a serve run, whose engines run on dispatch threads)."""
        local = {}

        def worker():
            with hwcounters.collect() as scope:
                hwcounters.record_run(make_activity(batch=2))
            local["scope"] = scope

        with hwcounters.collect(all_threads=True) as everywhere:
            with hwcounters.collect() as here:
                hwcounters.record_run(make_activity(batch=1))
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        assert everywhere.lanes == 3 and len(everywhere.runs) == 2
        assert here.lanes == 1
        assert local["scope"].lanes == 2
        hwcounters.record_run(make_activity(batch=1))
        assert everywhere.lanes == 3  # a closed scope records nothing

    def test_all_threads_scope_loses_no_run_under_contention(self):
        """Runs recorded from more threads than cores all reach an open
        ``all_threads`` scope while scopes open and close around them."""
        n_threads, runs_each = 8, 50
        activity = make_activity(batch=1)
        start = threading.Barrier(n_threads + 1)

        def worker():
            start.wait(timeout=10)
            for _ in range(runs_each):
                with hwcounters.collect(all_threads=True):
                    hwcounters.record_run(activity)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with hwcounters.collect(all_threads=True) as everywhere:
                threads = [threading.Thread(target=worker) for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                start.wait(timeout=10)
                for thread in threads:
                    thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(everywhere.runs) == n_threads * runs_each

    def test_lane_values_concatenate_across_runs(self):
        collector = ActivityCollector()
        collector.record(make_activity(batch=2, seed=1))
        collector.record(make_activity(batch=1, seed=2))
        energy = collector.lane_energy_joules()
        assert energy.shape == (3,)
        np.testing.assert_array_equal(
            energy,
            np.concatenate([run.lane_energy_joules() for run in collector.runs]),
        )
        assert collector.totals()["spikes"] == sum(
            int(run.spikes.sum()) for run in collector.runs
        )

    def test_empty_collector(self):
        collector = ActivityCollector()
        assert collector.lanes == 0
        assert collector.lane_energy_joules().size == 0
        assert collector.totals()["spikes"] == 0
        assert collector.core_totals() == {}

    def test_core_totals_aggregate_by_core_id(self):
        collector = ActivityCollector()
        run = make_activity(batch=2, n_cores=2)
        collector.record(run)
        collector.record(run)
        totals = collector.core_totals()
        assert set(totals) == set(int(c) for c in run.core_ids)
        first = int(run.core_ids[0])
        assert totals[first]["spikes"] == 2 * int(run.core_spikes[:, 0].sum())


class TestRecordRun:
    def setup_method(self):
        self._saved = MetricsRegistry()
        set_registry(self._saved)

    def teardown_method(self):
        set_registry(MetricsRegistry())
        hwcounters.configure(True)

    def test_registry_counters_bumped_exactly(self):
        activity = make_activity(batch=3)
        hwcounters.record_run(activity)
        totals = activity.totals()
        registry = self._saved
        assert registry.get("hw_spikes_total").value == totals["spikes"]
        assert (
            registry.get("hw_synaptic_events_total").value
            == totals["synaptic_events"]
        )
        assert (
            registry.get("hw_membrane_updates_total").value
            == totals["membrane_updates"]
        )

    def test_disabled_record_run_is_noop(self):
        hwcounters.configure(False)
        with hwcounters.collect() as collector:
            hwcounters.record_run(make_activity())
        assert collector.runs == []
        assert self._saved.get("hw_spikes_total") is None

    @pytest.mark.parametrize("engine", BATCH_MODES, indirect=True)
    def test_disabled_engine_skips_the_ledger(self, engine):
        case = CASES_BY_NAME["pattern_match"]
        inputs = batched_inputs(
            case.build(), case.ticks, 2, case.input_seed, case.density
        )
        hwcounters.configure(False)
        off = Simulator(
            case.build(), rng=case.sim_seed, engine=engine
        ).run_batch(case.ticks, inputs)
        hwcounters.configure(True)
        on = Simulator(
            case.build(), rng=case.sim_seed, engine=engine
        ).run_batch(case.ticks, inputs)
        assert off.activity is None
        assert on.activity is not None
        # The ledger is telemetry: switching it off must not change
        # the simulation itself.
        np.testing.assert_array_equal(off.total_spikes, on.total_spikes)


class TestParrotEnergyParity:
    def test_per_cell_energy_agrees_across_engines(self, tiny_parrot):
        """Parrot 8x8-cell per-request energy within 1% across engines.

        Counter parity makes the ledgers bit-identical, so the derived
        per-lane (= per-cell) energy agrees far inside the 1 % band the
        acceptance criterion asks for.
        """
        network, _, _ = tiny_parrot
        cells = np.random.default_rng(11).random((4, 64))
        energies = {}
        for mode in ("reference",) + BATCH_MODES:
            with engine_mode(mode) as engine:
                extractor = ParrotExtractor(
                    network,
                    ParrotFeatureConfig(spikes=4),
                    rng=7,
                    backend="truenorth",
                    engine=engine,
                )
                with hwcounters.collect() as collector:
                    extractor.cell_histograms_batch(cells)
            energies[mode] = collector.lane_energy_joules()
        for mode, joules in energies.items():
            assert joules.shape == (4,), mode
            assert np.all(joules > 0), mode
        # Every batch-engine mode fills one ledger implementation and is
        # counter-parity tested bit for bit, so their derived energies
        # must agree exactly, not just within tolerance.
        for mode in BATCH_MODES:
            np.testing.assert_array_equal(energies[mode], energies["batch"])
        np.testing.assert_allclose(
            energies["batch"], energies["reference"], rtol=0.01
        )

    def test_energy_model_activity_roundtrip(self):
        spikes = np.array([10, 20])
        events = np.array([100, 50])
        joules = activity_energy_joules(spikes, events, ticks=8, cores=5)
        static = STATIC_CORE_WATTS * 5 * 8 * TICK_SECONDS
        np.testing.assert_allclose(
            joules,
            static
            + spikes * SPIKE_EVENT_JOULES
            + events * SYNAPTIC_EVENT_JOULES,
        )
        with pytest.raises(ValueError):
            activity_energy_joules(spikes, events, ticks=0, cores=5)
