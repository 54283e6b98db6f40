"""Property tests of the exact event-accounting arithmetic.

These are the foundations of the whole simulator: if split-accrual or
overflow prediction ever loses an event, every 'precise counting' claim
upstream is void.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import CostModel
from repro.common.errors import ConfigError
from repro.hw.counter import HardwareCounter
from repro.hw.events import (
    CYCLE_BITS,
    PPM_BITS,
    Domain,
    Event,
    EventRates,
    cycles_until_count,
    events_at,
    events_in,
    lane,
)
from repro.sim.base import _frame_recipe
from repro.sim.ops import Compute, Syscall

from tests.conftest import run_threads
from tests.sim.test_accrual_recipes import _setup, _state

ppm_values = st.integers(min_value=0, max_value=5_000_000)
cycle_values = st.integers(min_value=0, max_value=10_000_000)

#: The full ranges the packed arithmetic is exact over.
MAX_PPM = (1 << PPM_BITS) - 1
MAX_CYCLES = (1 << CYCLE_BITS) - 1
RATED = [e for e in Event if e is not Event.CYCLES]
#: The floor's hardest case: the largest ``cycles * ppm`` whose remainder
#: mod 10**6 is 999,999, where a multiplier with too short a SHIFT first
#: rounds up. HARD_PPM is prime to 10, so such a cycle count exists.
HARD_PPM = MAX_PPM - 2
HARD_CYCLES = MAX_CYCLES - (
    MAX_CYCLES + pow(HARD_PPM, -1, 1_000_000)
) % 1_000_000
assert HARD_CYCLES * HARD_PPM % 1_000_000 == 999_999
wide_ppm = st.one_of(
    st.sampled_from([0, 1, 999_999, 1_000_000, HARD_PPM, MAX_PPM]),
    st.integers(min_value=0, max_value=MAX_PPM),
)
wide_cycles = st.one_of(
    st.sampled_from(
        [0, 1, 999_999, 1_000_000, HARD_CYCLES, MAX_CYCLES - 1, MAX_CYCLES]
    ),
    st.integers(min_value=0, max_value=MAX_CYCLES),
)
wide_rates = st.dictionaries(st.sampled_from(RATED), wide_ppm).map(EventRates)
#: Every event at the top rate: the widest product in every lane.
TOP_RATES = EventRates({e: MAX_PPM for e in RATED})
HARD_RATES = EventRates({e: HARD_PPM for e in RATED})


class TestEventsIn:
    @given(ppm=ppm_values, total=cycle_values, data=st.data())
    @settings(max_examples=200)
    def test_arbitrary_splits_conserve_events(self, ppm, total, data):
        """Splitting a phase at any boundaries never loses/invents events."""
        n_cuts = data.draw(st.integers(min_value=0, max_value=6))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=total),
                    min_size=n_cuts,
                    max_size=n_cuts,
                )
            )
        )
        edges = [0] + cuts + [total]
        split_total = sum(
            events_in(a, b, ppm) for a, b in zip(edges, edges[1:])
        )
        assert split_total == events_in(0, total, ppm)

    @given(ppm=ppm_values, a=cycle_values, b=cycle_values)
    @settings(max_examples=200)
    def test_monotone_and_nonnegative(self, ppm, a, b):
        lo, hi = min(a, b), max(a, b)
        n = events_in(lo, hi, ppm)
        assert n >= 0
        assert n <= events_in(0, hi, ppm)

    @given(ppm=ppm_values, total=cycle_values)
    @settings(max_examples=200)
    def test_total_matches_closed_form(self, ppm, total):
        assert events_in(0, total, ppm) == (total * ppm) // 1_000_000


class TestCyclesUntilCount:
    @given(
        ppm=st.integers(min_value=1, max_value=5_000_000),
        consumed=cycle_values,
        needed=st.integers(min_value=1, max_value=1_000_000),
    )
    @settings(max_examples=200)
    def test_exact_inverse(self, ppm, consumed, needed):
        d = cycles_until_count(consumed, ppm, needed)
        assert d is not None and d >= 1
        assert events_in(consumed, consumed + d, ppm) >= needed
        assert events_in(consumed, consumed + d - 1, ppm) < needed

    @given(consumed=cycle_values, needed=st.integers(min_value=1, max_value=100))
    def test_zero_rate_is_never(self, consumed, needed):
        assert cycles_until_count(consumed, 0, needed) is None


class TestOverflowPreCheck:
    """The engine's piece loop skips ``cycles_until_count`` for a counter
    that gains fewer than ``need`` events in the next ``limit`` cycles.
    The skip must be exact: such a counter cannot cross within ``limit``,
    and any counter that can is never skipped."""

    @given(
        consumed=cycle_values,
        limit=st.integers(min_value=1, max_value=10_000_000),
        ppm=ppm_values,
        need=st.integers(min_value=-3, max_value=1 << 24),
    )
    @example(consumed=0, limit=1, ppm=0, need=1)
    @example(consumed=5, limit=7, ppm=0, need=0)
    @example(consumed=5, limit=7, ppm=1_000_000, need=0)
    @example(consumed=5, limit=7, ppm=1_000_000, need=-2)
    @example(consumed=3, limit=2, ppm=500_000, need=1)
    @example(consumed=0, limit=999_999, ppm=1, need=1)
    @example(consumed=0, limit=1_000_000, ppm=1, need=1)
    @settings(max_examples=500)
    def test_skip_is_exact(self, consumed, limit, ppm, need):
        d = cycles_until_count(consumed, ppm, need)
        if events_in(consumed, consumed + limit, ppm) < need:
            assert d is None or d > limit
        else:
            assert d is not None and d <= limit

    @given(
        consumed=cycle_values,
        limit=st.integers(min_value=1, max_value=10_000_000),
        ppm=ppm_values,
        need=st.integers(min_value=-3, max_value=0),
    )
    def test_nonpositive_need_is_never_skipped(self, consumed, limit, ppm, need):
        assert events_in(consumed, consumed + limit, ppm) >= need
        assert cycles_until_count(consumed, ppm, need) == 0

    @given(
        consumed=cycle_values,
        limit=st.integers(min_value=1, max_value=10_000_000),
        need=st.integers(min_value=1, max_value=1 << 24),
    )
    def test_zero_rate_is_always_skipped(self, consumed, limit, need):
        assert events_in(consumed, consumed + limit, 0) < need
        assert cycles_until_count(consumed, 0, need) is None


class TestCounterWrap:
    @given(
        width=st.integers(min_value=8, max_value=20),
        increments=st.lists(
            st.integers(min_value=0, max_value=1 << 22), min_size=1, max_size=30
        ),
    )
    @settings(max_examples=200)
    def test_value_plus_wraps_conserves_counts(self, width, increments):
        """raw value + wraps * 2^W always equals the true total."""
        ctr = HardwareCounter(width)
        ctr.program(Event.INSTRUCTIONS)
        total_wraps = 0
        for n in increments:
            total_wraps += ctr.accrue(n)
        assert ctr.value + total_wraps * ctr.threshold == sum(increments)
        assert 0 <= ctr.value < ctr.threshold
        assert ctr.overflow_total == total_wraps

    @given(
        width=st.integers(min_value=8, max_value=16),
        preload=st.integers(min_value=0, max_value=(1 << 16) - 1),
        n=st.integers(min_value=0, max_value=1 << 18),
    )
    @settings(max_examples=200)
    def test_preload_wrap_count(self, width, preload, n):
        ctr = HardwareCounter(width)
        ctr.program(Event.CYCLES)
        preload %= ctr.threshold
        ctr.write(preload)
        wraps = ctr.accrue(n)
        assert wraps == (preload + n) >> width


class TestAccountSplits:
    """The engine's one accrual definition, ``EngineBase._account``, is
    split-exact: charging a window in pieces (as the piece loop does at
    slice, PMI and counter-crossing edges) leaves every thread and region
    tally and every counter where one whole-window charge leaves them."""

    @given(
        domain=st.sampled_from([Domain.USER, Domain.KERNEL]),
        width=st.integers(min_value=8, max_value=48),
        window=st.integers(min_value=1, max_value=200_000),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_window_equals_whole(self, domain, width, window, data):
        headroom = data.draw(st.integers(min_value=1, max_value=1 << width))
        cycles_value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        cuts = data.draw(
            st.sets(st.integers(min_value=1, max_value=window - 1), max_size=8)
            if window > 1
            else st.just(set())
        )
        edges = [0, *sorted(cuts), window]
        states = []
        for pieces in ([0, window], edges):
            engine, thread, core, entry = _setup(domain, headroom, width)
            core.pmu.counter(1).write(cycles_value)
            for before, after in zip(pieces, pieces[1:]):
                engine._account(core, thread, domain, entry, before, after)
            state = _state(engine, thread)
            # a split arms the PMI at the end of the piece that wrapped, the
            # whole charge at the window's end: only "armed" must agree
            state["pmi_due_at"] = state["pmi_due_at"] is not None
            states.append(state)
        whole, split = states
        assert split == whole


def _bare_engine(domain):
    """The accrual harness with every counter deprogrammed (the packed
    tallies are under test, and no counter may refuse a frame) and no cycle
    cap on a kernel frame."""
    engine, thread, core, _entry = _setup(domain, None, 64)
    for ctr in core.pmu.counters:
        ctr.deprogram()
    engine._max_cycles = 1 << 200
    return engine, thread, core


def _lanes(thread, domain):
    """The thread's packed tally of ``domain``, and the open region's."""
    if domain is Domain.USER:
        return thread.ev_user, thread.region_ev["r"]
    return thread.ev_kernel, None


class TestPackedEvents:
    """Every lane of a packed accrual equals ``events_in`` for its event,
    over the whole range the bounds allow: ppm below ``2**PPM_BITS`` and
    cycle counts below ``2**CYCLE_BITS``."""

    @given(rates=wide_rates, a=wide_cycles, b=wide_cycles)
    @example(rates=TOP_RATES, a=0, b=MAX_CYCLES)
    @example(rates=TOP_RATES, a=MAX_CYCLES - 1, b=MAX_CYCLES)
    @example(rates=TOP_RATES, a=MAX_CYCLES, b=MAX_CYCLES)
    @example(rates=EventRates(), a=0, b=0)
    @example(rates=HARD_RATES, a=0, b=HARD_CYCLES)
    @example(rates=HARD_RATES, a=HARD_CYCLES, b=MAX_CYCLES)
    @settings(max_examples=300)
    def test_window(self, rates, a, b):
        before, after = min(a, b), max(a, b)
        n = events_at(rates.packed, after) - events_at(rates.packed, before)
        for event in Event:
            assert lane(n, event) == events_in(
                before, after, rates.ppm(event)
            ), event

    @given(
        domain=st.sampled_from([Domain.USER, Domain.KERNEL]),
        rates=wide_rates,
        a=wide_cycles,
        b=wide_cycles,
    )
    @example(domain=Domain.USER, rates=TOP_RATES, a=3, b=MAX_CYCLES)
    @example(domain=Domain.KERNEL, rates=TOP_RATES, a=0, b=MAX_CYCLES)
    @example(domain=Domain.USER, rates=HARD_RATES, a=1, b=HARD_CYCLES)
    @settings(max_examples=100, deadline=None)
    def test_account(self, domain, rates, a, b):
        """``_account`` (the inlined form) adds the same lanes to the
        thread's tally and, in the user domain, to the region's."""
        before, after = min(a, b), max(a, b)
        engine, thread, core = _bare_engine(domain)
        entry = core.pmu.plan_entry(rates, domain)
        engine._account(core, thread, domain, entry, before, after)
        for tally in _lanes(thread, domain):
            if tally is None:
                continue
            for event in Event:
                assert lane(tally, event) == events_in(
                    before, after, rates.ppm(event)
                ), event

    @given(
        phases=st.lists(st.tuples(wide_rates, wide_cycles), min_size=1, max_size=6),
        k=st.integers(min_value=1, max_value=1 << 20),
    )
    @example(phases=[(TOP_RATES, MAX_CYCLES)] * 6, k=1 << 20)
    @example(phases=[(HARD_RATES, HARD_CYCLES), (TOP_RATES, 7)], k=3)
    @settings(max_examples=100, deadline=None)
    def test_k_fold_user_frame(self, phases, k):
        """k applications of a user frame add k times each sub-phase's
        ``events_in(0, cycles)``."""
        engine, thread, core = _bare_engine(Domain.USER)
        frame = self._frame(core, Domain.USER, phases)
        assert engine._charge_frame(
            core, thread, Domain.USER, frame, "spin", None, k=k
        ) == k
        for tally in _lanes(thread, Domain.USER):
            for event in Event:
                assert lane(tally, event) == k * sum(
                    events_in(0, c, r.ppm(event)) for r, c in phases
                ), event

    @given(
        phases=st.lists(st.tuples(wide_rates, wide_cycles), min_size=1, max_size=4),
        body=wide_cycles,
    )
    @example(phases=[(TOP_RATES, MAX_CYCLES)] * 2, body=MAX_CYCLES)
    @example(phases=[(HARD_RATES, 480)], body=HARD_CYCLES)
    @settings(max_examples=100, deadline=None)
    def test_kernel_frame_with_body(self, phases, body):
        """A kernel frame with a syscall body adds the sub-phases' events
        and the body's under the first sub-phase's rates."""
        engine, thread, core = _bare_engine(Domain.KERNEL)
        frame = self._frame(core, Domain.KERNEL, phases)
        assert engine._charge_frame(
            core, thread, Domain.KERNEL, frame, "syscall", None, body=body
        ) == 1
        first = phases[0][0]
        for event in Event:
            assert lane(thread.ev_kernel, event) == events_in(
                0, body, first.ppm(event)
            ) + sum(
                events_in(0, c, r.ppm(event)) for r, c in phases
            ), event

    @staticmethod
    def _frame(core, domain, phases):
        return _frame_recipe(
            tuple((core.pmu.plan_entry(r, domain), c) for r, c in phases)
        )


class TestPackedBounds:
    """The exactness bounds are enforced where the numbers enter."""

    def test_ppm_bound(self):
        EventRates({Event.LOADS: MAX_PPM})
        with pytest.raises(ConfigError, match=f"below 2\\*\\*{PPM_BITS}"):
            EventRates({Event.LOADS: MAX_PPM + 1})

    def test_compute_cycles_bound(self):
        Compute(MAX_CYCLES)
        with pytest.raises(ConfigError, match=f"below 2\\*\\*{CYCLE_BITS}"):
            Compute(MAX_CYCLES + 1)

    def test_cost_bound(self):
        CostModel(timer_tick=MAX_CYCLES)
        with pytest.raises(ConfigError, match=f"below 2\\*\\*{CYCLE_BITS}"):
            CostModel(timer_tick=MAX_CYCLES + 1)

    def test_work_syscall_bound(self, uniprocessor):
        """The ``work`` handler raises, and the program receives the error
        as the syscall's errno."""
        errors = []

        def program(ctx):
            yield Syscall("work", (1_000,))
            try:
                yield Syscall("work", (MAX_CYCLES + 1,))
            except ConfigError as exc:
                errors.append(str(exc))

        run_threads(uniprocessor, program)
        assert errors == [f"work syscall cycles must be below 2**{CYCLE_BITS}"]
