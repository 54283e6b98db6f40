"""Tests for the per-core PMU.

Accrual and overflow timing have one definition, the engine's: events are
charged by ``EngineBase._account`` through the PMU's plan entries, and a
phase is split at the first counter crossing in ``Engine._step``. So the
accrual cases drive ``_account`` on one engine thread (the harness of
tests/sim/test_accrual_recipes.py), and the overflow-timing cases run a
one-thread engine with 8-bit counters and read the wraps off its trace.
"""

import dataclasses

import pytest

from repro.common.config import MachineConfig, PmuConfig, SimConfig
from repro.common.errors import CounterError
from repro.hw.events import Domain, Event, EventRates
from repro.hw.pmu import Pmu
from repro.kernel.vpmu import SlotSpec
from repro.obs import trace as tr
from repro.sim.ops import Compute, Syscall

from tests.conftest import run_threads
from tests.sim.test_accrual_recipes import _setup, _state

RATES = EventRates({Event.INSTRUCTIONS: 1_000_000, Event.LLC_MISSES: 1_000})


def make_pmu(n=4, width=48, **kw):
    return Pmu(PmuConfig(n_counters=n, counter_width=width, **kw))


def charge(specs, rates, edges, domain=Domain.USER, width=48):
    """Program one counter per ``(event, count_user, count_kernel)`` spec
    (the rest stay unprogrammed) and charge one phase window through
    ``_account``, one call per pair of ``edges``. Returns ``(engine,
    thread, core)``."""
    engine, thread, core, _entry = _setup(domain, None, width)
    for ctr in core.pmu.counters:
        ctr.deprogram()
    for index, spec in enumerate(specs):
        core.pmu.counter(index).program(*spec)
    entry = core.pmu.plan_entry(rates, domain)
    for before, after in zip(edges, edges[1:]):
        engine._account(core, thread, domain, entry, before, after)
    return engine, thread, core


def counter_wraps(specs, ops):
    """Run one thread on one core with 8-bit counters: it opens a LiMiT
    slot per spec, then runs ``ops``. Returns ``(cycles after the last
    open, slot)`` for every counter wrap."""
    config = dataclasses.replace(
        SimConfig(machine=MachineConfig(n_cores=1)).with_pmu(counter_width=8),
        trace=True,
    )

    def program(ctx):
        for spec in specs:
            yield Syscall("pmc_open", (spec,))
        for op in ops:
            yield op

    result = run_threads(config, program)
    exits = [e.time for e in result.trace if e.kind == tr.SYSCALL_EXIT]
    opened = exits[len(specs) - 1] if specs else 0
    return [
        (e.time - opened, e.arg)
        for e in result.trace
        if e.kind == tr.CTR_OVERFLOW
    ]


class TestStructure:
    def test_counter_count(self):
        assert len(make_pmu(3).counters) == 3

    def test_counter_index_bounds(self):
        pmu = make_pmu(2)
        with pytest.raises(CounterError):
            pmu.counter(2)
        with pytest.raises(CounterError):
            pmu.counter(-1)

    def test_iteration(self):
        counters = make_pmu(4, width=40).counters
        assert len({id(ctr) for ctr in counters}) == 4
        assert [ctr.width for ctr in counters] == [40] * 4

    def test_wide_counters(self):
        pmu = make_pmu(width=32, wide_counters=True)
        assert pmu.counter(0).width == 64


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
        _engine, _thread, core = charge(
            [(Event.INSTRUCTIONS, True, False), (Event.INSTRUCTIONS, False, True)],
            RATES,
            [0, 1000],
        )
        assert core.pmu.counter(0).read() == 1000
        assert core.pmu.counter(1).read() == 0

    def test_cycles_event(self):
        _engine, _thread, core = charge([(Event.CYCLES,)], EventRates(), [0, 777])
        assert core.pmu.counter(0).read() == 777

    def test_split_phase_exact(self):
        """Accruing a phase in pieces gives identical totals."""
        whole = charge([(Event.LLC_MISSES,)], RATES, [0, 99_991])
        split = charge([(Event.LLC_MISSES,)], RATES, [0, 7, 1_003, 50_000, 99_991])
        assert split[2].pmu.counter(0).read() == 99
        assert _state(*split[:2]) == _state(*whole[:2])

    def test_returns_overflowed_indices(self):
        """A wrap latches on the counter and arms the PMI."""
        _engine, _thread, core = charge(
            [(Event.INSTRUCTIONS,)], RATES, [0, 300], width=8
        )
        assert core.pmu.counter(0).read() == 300 - 256
        assert core.pmu.pending_overflow_indices() == [0]
        assert core.pmi_due_at is not None


class TestOverflowPrediction:
    def test_no_counters_no_overflow(self):
        assert counter_wraps([], [Compute(1_000, RATES)]) == []

    def test_prediction_exact(self):
        spec = SlotSpec(Event.INSTRUCTIONS)  # 1 event/cycle under RATES
        # the 256th cycle wraps the counter; 255 cycles do not, and a
        # longer phase is split exactly there
        assert counter_wraps([spec], [Compute(255, RATES)]) == []
        assert counter_wraps([spec], [Compute(256, RATES)]) == [(256, 0)]
        assert counter_wraps([spec], [Compute(300, RATES)]) == [(256, 0)]

    def test_prediction_min_over_counters(self):
        slow = SlotSpec(Event.LLC_MISSES)
        fast = SlotSpec(Event.INSTRUCTIONS)
        # the fast counter dominates: the phase splits at its crossing
        assert counter_wraps([slow, fast], [Compute(300, RATES)]) == [(256, 1)]

    def test_prediction_respects_domain(self):
        kernel_only = SlotSpec(Event.INSTRUCTIONS, count_user=False, count_kernel=True)
        wraps = counter_wraps(
            [kernel_only], [Compute(1_000, RATES), Syscall("work", (2_000,))]
        )
        # none in the user phase; the kernel work wraps the counter
        assert wraps
        assert all(at > 1_000 for at, _slot in wraps)


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
