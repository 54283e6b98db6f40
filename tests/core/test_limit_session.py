"""End-to-end tests of LimitSession against the simulated machine."""

import pytest

from repro.common.errors import SessionError
from repro.hw.events import Event, EventRates
from repro.core.limit import (
    DestructiveReadSession,
    LimitSession,
    UnsafeLimitSession,
)
from repro.sim.ops import Compute
from tests.conftest import run_threads

RATES = EventRates.profile(ipc=1.25, llc_mpki=4.0)


class TestLifecycle:
    def test_setup_read_teardown(self, uniprocessor):
        session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS])

        def program(ctx):
            yield from session.setup(ctx)
            values = yield from session.read_all(ctx)
            assert len(values) == 2
            yield from session.teardown(ctx)

        run_threads(uniprocessor, program)
        assert len(session.records) == 2

    def test_double_setup_rejected(self, uniprocessor):
        session = LimitSession([Event.CYCLES])
        caught = {}

        def program(ctx):
            yield from session.setup(ctx)
            try:
                yield from session.setup(ctx)
            except SessionError as exc:
                caught["exc"] = exc

        run_threads(uniprocessor, program)
        assert "exc" in caught

    def test_read_before_setup_rejected(self, uniprocessor):
        session = LimitSession([Event.CYCLES])

        def program(ctx):
            yield from session.read(ctx, 0)

        with pytest.raises(SessionError, match="not set up"):
            run_threads(uniprocessor, program)

    def test_bad_counter_index(self, uniprocessor):
        session = LimitSession([Event.CYCLES])

        def program(ctx):
            yield from session.setup(ctx)
            yield from session.read(ctx, 5)

        with pytest.raises(SessionError, match="out of range"):
            run_threads(uniprocessor, program)

    def test_needs_events(self):
        with pytest.raises(SessionError):
            LimitSession([])

    def test_bad_event_spec(self):
        with pytest.raises(SessionError):
            LimitSession(["cycles"])


class TestExactness:
    def test_safe_reads_always_match_truth(self, preemptive):
        """The paper's core guarantee, under heavy preemption."""
        session = LimitSession([Event.INSTRUCTIONS])

        def worker(ctx):
            yield from session.setup(ctx)
            for _ in range(100):
                yield Compute(3_000, RATES)
                yield from session.read(ctx, 0)

        result = run_threads(preemptive, worker, worker, worker)
        assert result.kernel.n_context_switches > 10
        assert len(session.records) == 300
        assert session.max_abs_error() == 0

    def test_delta_measures_exact_events(self, uniprocessor):
        session = LimitSession([Event.INSTRUCTIONS])
        deltas = []

        def body():
            yield Compute(80_000, RATES)

        def program(ctx):
            yield from session.setup(ctx)
            start = yield from session.read(ctx, 0)
            yield from body()
            end = yield from session.read(ctx, 0)
            deltas.append(end - start)

        run_threads(uniprocessor, program)
        # 80k cycles at IPC 1.25 = 100k instructions + the library's own few
        assert 100_000 <= deltas[0] <= 100_200

    def test_multiple_counters_independent(self, uniprocessor):
        session = LimitSession([Event.CYCLES, Event.LLC_MISSES])

        def program(ctx):
            yield from session.setup(ctx)
            yield Compute(1_000_000, RATES)
            yield from session.read_all(ctx)

        run_threads(uniprocessor, program)
        by_event = {r.event: r for r in session.records}
        assert by_event[Event.CYCLES].value >= 1_000_000
        # 4 MPKI at IPC 1.25 -> 5 misses/1000 cycles -> ~5000
        assert 4_900 <= by_event[Event.LLC_MISSES].value <= 5_100

    def test_count_kernel_flag(self, uniprocessor):
        from repro.sim.ops import Syscall

        both = LimitSession([Event.CYCLES], count_kernel=True)

        def program(ctx):
            yield from both.setup(ctx)
            yield Syscall("work", (40_000,))
            yield from both.read(ctx, 0)

        run_threads(uniprocessor, program)
        assert both.records[0].value >= 40_000
        assert both.records[0].error == 0


class TestUnsafeVariant:
    def test_unsafe_wrong_under_preemption(self, preemptive):
        unsafe = UnsafeLimitSession([Event.CYCLES])

        def worker(ctx):
            yield from unsafe.setup(ctx)
            for _ in range(1_500):
                yield Compute(60, RATES)
                yield from unsafe.read(ctx, 0)

        run_threads(preemptive, worker, worker, worker)
        errors = [abs(e) for e in unsafe.errors()]
        assert sum(1 for e in errors if e) > 0, (
            "dense unsafe reads under 10k-cycle slices must hit the hazard"
        )
        # error bounded by the timeslice worth of folded events
        assert max(errors) <= 10_000

    def test_unsafe_exact_when_unpreempted(self, uniprocessor):
        unsafe = UnsafeLimitSession([Event.CYCLES])

        def program(ctx):
            yield from unsafe.setup(ctx)
            yield Compute(10_000, RATES)
            yield from unsafe.read(ctx, 0)

        run_threads(uniprocessor, program)
        assert unsafe.max_abs_error() == 0


class TestDestructiveVariant:
    def test_deltas_sum_to_truth(self, uniprocessor):
        session = DestructiveReadSession([Event.INSTRUCTIONS])
        totals = [0]

        def program(ctx):
            yield from session.setup(ctx)
            for _ in range(5):
                yield Compute(10_000, RATES)
                totals.append(totals[-1] + (yield from session.read(ctx, 0)))

        run_threads(uniprocessor, program)
        assert totals == sorted(totals)
        # each read is a delta; records carry per-delta truth
        assert session.max_abs_error() == 0

    def test_destructive_exact_across_switches(self, preemptive):
        session = DestructiveReadSession([Event.INSTRUCTIONS])

        def worker(ctx):
            yield from session.setup(ctx)
            for _ in range(50):
                yield Compute(5_000, RATES)
                yield from session.read(ctx, 0)

        run_threads(preemptive, worker, worker)
        assert session.max_abs_error() == 0


class TestRecords:
    def test_records_for_tid(self, quad_core):
        session = LimitSession([Event.CYCLES])

        def program(ctx):
            yield from session.setup(ctx)
            yield from session.read(ctx, 0)

        run_threads(quad_core, program, program)
        tids = {r.tid for r in session.records}
        assert len(tids) == 2
        for tid in tids:
            assert len(session.records_for(tid)) == 1

    def test_record_fields(self, uniprocessor):
        session = LimitSession([Event.CYCLES])

        def program(ctx):
            yield from session.setup(ctx)
            yield Compute(1_000, RATES)
            yield from session.read(ctx, 0)

        run_threads(uniprocessor, program)
        rec = session.records[0]
        assert rec.protocol == "safe"
        assert rec.event is Event.CYCLES
        assert rec.time > 0
        assert rec.error == rec.value - rec.truth
