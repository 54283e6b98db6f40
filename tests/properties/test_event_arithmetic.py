"""Property tests of the exact event-accounting arithmetic.

These are the foundations of the whole simulator: if split-accrual or
overflow prediction ever loses an event, every 'precise counting' claim
upstream is void.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.counter import HardwareCounter
from repro.hw.events import Domain, Event, cycles_until_count, events_in

from tests.sim.test_accrual_recipes import _setup, _state

ppm_values = st.integers(min_value=0, max_value=5_000_000)
cycle_values = st.integers(min_value=0, max_value=10_000_000)


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
