"""Unit tests for the fault plan model and injector bookkeeping.

The injector's decisions must be pure functions of (plan, simulated
state): these tests drive it with a stub core/thread and pin the selection
semantics (windows, thread/protocol/point filters, nth vs every,
max_injections, seeded probability) plus the detect/miss ledger the
manifests report.
"""

import pickle

import pytest

import repro.faults as F
from repro.common.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec


class Core:
    def __init__(self, now=0):
        self.now = now


class Thread:
    def __init__(self, name="t", tid=1):
        self.name = name
        self.tid = tid


class TestPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultSpec("melt_cpu")

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError, match="window"):
            FaultSpec(F.DROP_PMI, window=(100, 100))

    def test_bad_point_for_kind_rejected(self):
        with pytest.raises(ConfigError, match="takes no point"):
            FaultSpec(F.DROP_PMI, point="between_loads")
        with pytest.raises(ConfigError, match="read point"):
            FaultSpec(F.PREEMPT_IN_READ, point="macro")

    def test_shrink_width_bounds(self):
        with pytest.raises(ConfigError, match="new width"):
            F.shrink_counter(4)
        with pytest.raises(ConfigError, match="new width"):
            F.shrink_counter(64)

    def test_unbounded_safe_preempt_storm_rejected(self):
        # An every-occurrence storm against the safe read re-preempts every
        # restart: the read could never complete. The plan must refuse it.
        with pytest.raises(ConfigError, match="cannot terminate"):
            F.preempt_in_read()
        # Any bound makes it legal, as does targeting the unsafe protocol.
        F.preempt_in_read(every=2)
        F.preempt_in_read(nth=5)
        F.preempt_in_read(max_injections=3)
        F.preempt_in_read(probability=0.5)
        F.preempt_in_read(protocol="unsafe")

    def test_plan_is_picklable_and_deterministic_repr(self):
        plan = FaultPlan(
            (F.drop_pmi(every=2), F.amplify_skid(8)), seed=3, label="x"
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert repr(clone) == repr(plan)
        assert bool(plan) and not bool(FaultPlan())


class TestInjectorSelection:
    def test_window_and_thread_filters_do_not_consume_matches(self):
        plan = FaultPlan(
            (F.drop_pmi(window=(100, 200), thread="reader", nth=1),)
        )
        inj = FaultInjector(plan)
        # Out of window / wrong thread: no match consumed.
        assert inj.fire(F.DROP_PMI, Core(now=50), Thread("reader")) is None
        assert inj.fire(F.DROP_PMI, Core(now=150), Thread("writer")) is None
        # First real match is the nth=1 occurrence.
        assert inj.fire(F.DROP_PMI, Core(now=150), Thread("reader")) is not None

    def test_nth_fires_exactly_once(self):
        inj = FaultInjector(FaultPlan((F.drop_pmi(nth=3),)))
        fired = [
            inj.fire(F.DROP_PMI, Core(i), Thread()) is not None
            for i in range(6)
        ]
        assert fired == [False, False, True, False, False, False]

    def test_every_and_max_injections(self):
        inj = FaultInjector(
            FaultPlan((F.drop_pmi(every=2, max_injections=2),))
        )
        fired = [
            inj.fire(F.DROP_PMI, Core(i), Thread()) is not None
            for i in range(8)
        ]
        assert fired == [False, True, False, True, False, False, False, False]

    def test_probability_is_seed_deterministic(self):
        def decisions(seed):
            inj = FaultInjector(
                FaultPlan((F.drop_pmi(probability=0.5),), seed=seed)
            )
            return [
                inj.fire(F.DROP_PMI, Core(i), Thread()) is not None
                for i in range(32)
            ]

        assert decisions(1) == decisions(1)
        assert decisions(1) != decisions(2)
        assert any(decisions(1)) and not all(decisions(1))

    def test_protocol_and_point_filtering(self):
        plan = FaultPlan(
            (F.preempt_in_read(point=F.BEFORE_CHECK, protocol="safe", every=1,
                               max_injections=10),)
        )
        inj = FaultInjector(plan)
        core, thread = Core(), Thread()
        assert (
            inj.fire(F.PREEMPT_IN_READ, core, thread, protocol="unsafe",
                     point=F.BEFORE_CHECK)
            is None
        )
        assert (
            inj.fire(F.PREEMPT_IN_READ, core, thread, protocol="safe",
                     point=F.BETWEEN_LOADS)
            is None
        )
        assert (
            inj.fire(F.PREEMPT_IN_READ, core, thread, protocol="safe",
                     point=F.BEFORE_CHECK)
            is not None
        )


class TestTickArmed:
    def test_armed_until_the_last_shrink_fires(self):
        inj = FaultInjector(
            FaultPlan((F.shrink_counter(12, nth=1), F.shrink_counter(10, nth=3)))
        )
        # the first spec to fire wins, so the second one's third match is
        # the fourth tick
        armed = [inj.tick_armed]
        for i in range(4):
            inj.fire(F.SHRINK_COUNTER, Core(i))
            armed.append(inj.tick_armed)
        assert armed == [True, True, True, True, False]
        assert inj.injected == {F.SHRINK_COUNTER: 2}

    def test_clear_once_every_shrink_is_spent(self):
        inj = FaultInjector(
            FaultPlan((F.shrink_counter(12, every=2, max_injections=2),))
        )
        fired = []
        for i in range(6):
            fired.append(inj.fire(F.SHRINK_COUNTER, Core(i)) is not None)
        assert fired == [False, True, False, True, False, False]
        assert not inj.tick_armed

    def test_stays_armed_without_max_injections(self):
        inj = FaultInjector(
            FaultPlan((F.shrink_counter(12, max_injections=None),))
        )
        for i in range(4):
            assert inj.fire(F.SHRINK_COUNTER, Core(i)) is not None
        assert inj.tick_armed


class TestDetectMissLedger:
    def test_safe_hazard_detected_on_failed_check(self):
        inj = FaultInjector(FaultPlan((F.preempt_in_read(every=2),)))
        inj.note_read_hazard(tid=1, protocol="safe")
        inj.resolve_safe_check(tid=1, check_passed=False)  # restart: caught
        assert inj.detected == 1 and inj.missed == 0

    def test_safe_hazard_missed_if_check_passes(self):
        # A passing check after an injected hazard would be a protocol bug;
        # the ledger must expose it as a miss (e17 asserts zero of these).
        inj = FaultInjector(FaultPlan((F.preempt_in_read(every=2),)))
        inj.note_read_hazard(tid=1, protocol="safe")
        inj.resolve_safe_check(tid=1, check_passed=True)
        assert inj.missed == 1 and inj.detected == 0

    def test_unsafe_hazard_is_an_immediate_miss(self):
        inj = FaultInjector(FaultPlan((F.preempt_in_read(protocol="unsafe"),)))
        inj.note_read_hazard(tid=1, protocol="unsafe")
        assert inj.missed == 1

    def test_dropped_pmi_recovery_counts_detected(self):
        inj = FaultInjector(FaultPlan((F.drop_pmi(),)))
        inj.note_dropped_pmi(core_id=0)
        inj.note_dropped_pmi(core_id=0)
        assert inj.note_overflow_recovered(core_id=0) == 2
        assert inj.detected == 2
        # Recovery is one-shot: the latch was consumed.
        assert inj.note_overflow_recovered(core_id=0) == 0

    def test_summary_shape(self):
        inj = FaultInjector(FaultPlan((F.drop_pmi(nth=1),)))
        assert inj.fire(F.DROP_PMI, Core(), Thread()) is not None
        # the ledger the engine's self-telemetry reads
        assert inj.total_injected == 1
        assert inj.injected == {F.DROP_PMI: 1}
        assert inj.detected == 0 and inj.missed == 0
