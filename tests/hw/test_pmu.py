"""Tests for the per-core PMU."""

import pytest

from repro.common.config import PmuConfig
from repro.common.errors import CounterError
from repro.hw.events import Domain, Event, EventRates
from repro.hw.pmu import Pmu

RATES = EventRates({Event.INSTRUCTIONS: 1_000_000, Event.LLC_MISSES: 1_000})


def make_pmu(n=4, width=48, **kw):
    return Pmu(PmuConfig(n_counters=n, counter_width=width, **kw))


class TestStructure:
    def test_counter_count(self):
        assert len(make_pmu(3)) == 3

    def test_counter_index_bounds(self):
        pmu = make_pmu(2)
        with pytest.raises(CounterError):
            pmu.counter(2)
        with pytest.raises(CounterError):
            pmu.counter(-1)

    def test_iteration(self):
        assert len(list(make_pmu(4))) == 4

    def test_wide_counters(self):
        pmu = make_pmu(width=32, wide_counters=True)
        assert pmu.counter(0).width == 64

    def test_reset(self):
        pmu = make_pmu()
        pmu.counter(0).program(Event.CYCLES)
        pmu.user_rdpmc_enabled = True
        pmu.reset()
        assert not pmu.counter(0).enabled
        assert not pmu.user_rdpmc_enabled


class TestRdpmc:
    def test_user_read_faults_without_enable(self):
        pmu = make_pmu()
        with pytest.raises(CounterError, match="rdpmc faulted"):
            pmu.rdpmc(0, from_user=True)

    def test_kernel_read_always_allowed(self):
        assert make_pmu().rdpmc(0, from_user=False) == 0

    def test_user_read_with_enable(self):
        pmu = make_pmu()
        pmu.user_rdpmc_enabled = True
        pmu.counter(0).program(Event.CYCLES)
        pmu.counter(0).write(41)
        assert pmu.rdpmc(0, from_user=True) == 41


class TestAccruePhase:
    def test_accrues_matching_domain_only(self):
        pmu = make_pmu()
        pmu.counter(0).program(Event.INSTRUCTIONS, count_user=True)
        pmu.counter(1).program(Event.INSTRUCTIONS, count_user=False,
                               count_kernel=True)
        pmu.accrue_phase(RATES, Domain.USER, 0, 1000)
        assert pmu.counter(0).read() == 1000
        assert pmu.counter(1).read() == 0

    def test_cycles_event(self):
        pmu = make_pmu()
        pmu.counter(0).program(Event.CYCLES)
        pmu.accrue_phase(EventRates(), Domain.USER, 0, 777)
        assert pmu.counter(0).read() == 777

    def test_split_phase_exact(self):
        """Accruing a phase in pieces gives identical totals."""
        whole = make_pmu()
        whole.counter(0).program(Event.LLC_MISSES)
        whole.accrue_phase(RATES, Domain.USER, 0, 99_991)

        split = make_pmu()
        split.counter(0).program(Event.LLC_MISSES)
        edges = [0, 7, 1_003, 50_000, 99_991]
        for a, b in zip(edges, edges[1:]):
            split.accrue_phase(RATES, Domain.USER, a, b)
        assert split.counter(0).read() == whole.counter(0).read()

    def test_returns_overflowed_indices(self):
        pmu = make_pmu(width=8)
        pmu.counter(0).program(Event.INSTRUCTIONS)
        overflowed = pmu.accrue_phase(RATES, Domain.USER, 0, 300)
        assert overflowed == [0]
        assert pmu.pending_overflow_indices() == [0]


class TestOverflowPrediction:
    def test_no_counters_no_overflow(self):
        assert make_pmu().cycles_to_next_overflow(RATES, Domain.USER, 0) is None

    def test_prediction_exact(self):
        pmu = make_pmu(width=8)
        pmu.counter(0).program(Event.INSTRUCTIONS)  # 1 event/cycle
        d = pmu.cycles_to_next_overflow(RATES, Domain.USER, 0)
        assert d == 256
        # executing exactly d cycles overflows; d-1 does not
        assert pmu.accrue_phase(RATES, Domain.USER, 0, d - 1) == []
        assert pmu.accrue_phase(RATES, Domain.USER, d - 1, d) == [0]

    def test_prediction_min_over_counters(self):
        pmu = make_pmu(width=8)
        pmu.counter(0).program(Event.LLC_MISSES)      # slow
        pmu.counter(1).program(Event.INSTRUCTIONS)    # fast
        d = pmu.cycles_to_next_overflow(RATES, Domain.USER, 0)
        assert d == 256  # the fast counter dominates

    def test_prediction_respects_domain(self):
        pmu = make_pmu(width=8)
        pmu.counter(0).program(Event.INSTRUCTIONS, count_user=False,
                               count_kernel=True)
        assert pmu.cycles_to_next_overflow(RATES, Domain.USER, 0) is None
        assert pmu.cycles_to_next_overflow(RATES, Domain.KERNEL, 0) == 256


class TestPlanSets:
    def test_restored_programming_keeps_the_plan_set(self):
        pmu = make_pmu()
        pmu.counter(1).program(Event.INSTRUCTIONS, count_kernel=True)
        entry = pmu.plan_entry(RATES, Domain.USER)
        plans = pmu._plans_user
        # a context switch: fold (deprogram), then the same spec again
        pmu.counter(1).deprogram()
        pmu.counter(1).program(Event.INSTRUCTIONS, count_kernel=True)
        assert pmu.plan_entry(RATES, Domain.USER) is entry
        assert pmu._plans_user is plans
        assert len(pmu._plan_sets) == 2  # nothing programmed, and this

    def test_changed_programming_gets_its_own_plans(self):
        pmu = make_pmu()
        pmu.counter(1).program(Event.INSTRUCTIONS)
        first = pmu.plan_entry(RATES, Domain.USER)
        for ctr_args, expected in [
            ((Event.LLC_MISSES, True, False), ((1, 1_000),)),
            ((Event.INSTRUCTIONS, False, True), ()),
            ((Event.INSTRUCTIONS, True, False), ((1, 1_000_000),)),
        ]:
            pmu.counter(1).deprogram()
            pmu.counter(1).program(*ctr_args)
            plan = pmu.plan_entry(RATES, Domain.USER)[1]
            assert [(i, ppm) for i, _ctr, ppm, _mask in plan] == list(expected)
        assert pmu.plan_entry(RATES, Domain.USER) is first

    def test_disabled_counter_leaves_the_plan(self):
        pmu = make_pmu()
        pmu.counter(0).program(Event.INSTRUCTIONS)
        assert pmu.plan_entry(RATES, Domain.USER)[1]
        pmu.counter(0).program(Event.INSTRUCTIONS, enabled=False)
        assert pmu.plan_entry(RATES, Domain.USER)[1] == ()

    def test_flush_drops_the_plans_in_use(self):
        pmu = make_pmu()
        pmu.counter(0).program(Event.INSTRUCTIONS)
        entry = pmu.plan_entry(RATES, Domain.USER)
        pmu.counter(0).width = 8
        pmu.flush_plans()
        fresh = pmu.plan_entry(RATES, Domain.USER)
        assert fresh is not entry
        assert fresh[1][0][3] == 255
        pmu.counter(0).deprogram()
        assert pmu.plan_entry(RATES, Domain.USER)[1] == ()
