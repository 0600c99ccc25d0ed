"""FaultPlan validation, identity, and hash-selection properties."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    CompiledFaults,
    DeadCore,
    DroppedSpikes,
    DuplicatedSpikes,
    FaultPlan,
    RandomDeadCores,
    RandomStuckNeurons,
    StuckNeuron,
    ThresholdDrift,
    WeightBitFlips,
    compile_faults,
)
from repro.faults.compile import _SALT_DROP, _absorb, _seed_word, _uniform

from tests.engine_systems import CASES_BY_NAME


class TestPlanValidation:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan(())
        assert FaultPlan((DroppedSpikes(0.1),))

    def test_faults_frozen_to_tuple(self):
        plan = FaultPlan([DroppedSpikes(0.1)])
        assert isinstance(plan.faults, tuple)

    def test_rejects_non_fault_entries(self):
        with pytest.raises(ConfigurationError, match="fault"):
            FaultPlan(("not a fault",))

    def test_rejects_duplicate_dynamic_kinds(self):
        with pytest.raises(ConfigurationError, match="one"):
            FaultPlan((DroppedSpikes(0.1), DroppedSpikes(0.2)))

    def test_rejects_non_int_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            FaultPlan((), seed="7")

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: DroppedSpikes(-0.1),
            lambda: DroppedSpikes(1.5),
            lambda: DuplicatedSpikes(2.0),
            lambda: RandomStuckNeurons(0.5, mode="explode"),
            lambda: RandomStuckNeurons(-1.0),
            lambda: RandomDeadCores(1.01),
            lambda: WeightBitFlips(0.1, bit=16),
            lambda: WeightBitFlips(0.1, bit=-1),
            lambda: ThresholdDrift(-2.0),
            lambda: StuckNeuron(0, -1),
            lambda: StuckNeuron(-1, 0),
        ],
    )
    def test_rejects_out_of_range_parameters(self, bad):
        with pytest.raises(ConfigurationError):
            bad()

    def test_dynamic_classification(self):
        assert FaultPlan((DroppedSpikes(0.1),)).has_dynamic
        assert FaultPlan((DuplicatedSpikes(0.1),)).has_dynamic
        assert not FaultPlan((ThresholdDrift(1.0),)).has_dynamic


class TestDigest:
    def test_digest_is_stable_and_seed_sensitive(self):
        a = FaultPlan((DroppedSpikes(0.1),), seed=1)
        b = FaultPlan((DroppedSpikes(0.1),), seed=1)
        c = FaultPlan((DroppedSpikes(0.1),), seed=2)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_digest_sees_fault_parameters(self):
        a = FaultPlan((DroppedSpikes(0.1),))
        b = FaultPlan((DroppedSpikes(0.2),))
        assert a.digest() != b.digest()


class TestCompile:
    def test_none_and_empty_compile_to_none(self):
        system = CASES_BY_NAME["pattern_match"].build()
        assert compile_faults(None, system) is None
        assert compile_faults(FaultPlan(()), system) is None

    def test_compiled_passthrough(self):
        system = CASES_BY_NAME["pattern_match"].build()
        compiled = compile_faults(FaultPlan((ThresholdDrift(1.0),)), system)
        assert isinstance(compiled, CompiledFaults)
        assert compile_faults(compiled, system) is compiled

    def test_stuck_neuron_lands_in_core_view(self):
        system = CASES_BY_NAME["pattern_match"].build()
        core = system.cores[0]
        compiled = compile_faults(
            FaultPlan((StuckNeuron(core.core_id, 3, mode="fire"),)), system
        )
        view = compiled.core_view(core)
        assert view is not None and bool(view.force_fire[3])

    def test_unknown_core_rejected_at_compile(self):
        system = CASES_BY_NAME["pattern_match"].build()
        with pytest.raises(ConfigurationError, match="unknown core"):
            compile_faults(FaultPlan((DeadCore(10_000),)), system)

    def test_out_of_range_neuron_rejected_at_compile(self):
        system = CASES_BY_NAME["pattern_match"].build()
        core_id = system.cores[0].core_id
        with pytest.raises(ConfigurationError, match="out of range"):
            compile_faults(FaultPlan((StuckNeuron(core_id, 256),)), system)

    def test_bit_flips_only_touch_connected_points(self):
        system = CASES_BY_NAME["weighted_sum"].build()
        compiled = compile_faults(
            FaultPlan((WeightBitFlips(1.0, bit=0),), seed=3), system
        )
        core = system.cores[0]
        base = core.effective_weights()
        faulted = compiled.effective_weights(core)
        connected = np.asarray(core.crossbar, dtype=bool)
        # rate 1.0: every connected weight flips, nothing else moves
        assert np.all((faulted != base) == connected)


class TestNestedRates:
    """hash-u < rate selection nests fault sets across rates."""

    def test_stuck_sites_nest(self):
        system = CASES_BY_NAME["pattern_match"].build()
        masks = {}
        for rate in (0.1, 0.3, 0.8):
            compiled = compile_faults(
                FaultPlan((RandomStuckNeurons(rate, mode="silent"),), seed=5),
                system,
            )
            masks[rate] = compiled.force_silent.copy()
        assert np.all(masks[0.1] <= masks[0.3])
        assert np.all(masks[0.3] <= masks[0.8])
        assert masks[0.8].sum() > masks[0.1].sum()

    def test_drop_decisions_nest(self):
        # A delivery dropped at rate r is dropped at every r' > r: the
        # per-site uniform is rate-independent.
        lane_key = _absorb(_seed_word(5), _SALT_DROP)
        sites = np.arange(4096, dtype=np.uint64)
        u = _uniform(_absorb(lane_key, sites))
        low = u < 0.2
        high = u < 0.6
        assert np.all(low <= high)
        assert 0 < low.sum() < high.sum() < sites.size
