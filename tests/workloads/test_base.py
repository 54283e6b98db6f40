"""Tests of workload infrastructure: Instrumentation and run_region."""

from repro.baselines.instrumenting import InstrumentingProfiler
from repro.core.limit import LimitSession
from repro.core.locks import InstrumentedLock, PlainLock
from repro.core.regions import PreciseRegionProfiler
from repro.hw.events import Event, EventRates
from repro.sim.ops import Compute
from repro.workloads.base import Instrumentation, run_region
from tests.conftest import run_threads

RATES = EventRates.profile(ipc=1.0)


class TestInstrumentation:
    def test_plain_bundle_has_nothing(self):
        instr = Instrumentation()
        assert not instr.sessions
        assert instr.profiler is None
        assert isinstance(instr.lock("x"), PlainLock)

    def test_lock_reader_makes_instrumented_locks(self):
        session = LimitSession([Event.CYCLES])
        instr = Instrumentation(sessions=[session], lock_reader=session)
        assert isinstance(instr.lock("x"), InstrumentedLock)

    def test_locks_cached_by_name(self):
        instr = Instrumentation()
        assert instr.lock("a") is instr.lock("a")
        assert instr.lock("a") is not instr.lock("b")

    def test_lock_observations_only_instrumented(self):
        session = LimitSession([Event.CYCLES])
        instrumented = Instrumentation(sessions=[session], lock_reader=session)
        instrumented.lock("a")
        assert set(instrumented.lock_observations()) == {"a"}
        bare = Instrumentation()
        bare.lock("a")
        assert bare.lock_observations() == {}

    def test_thread_setup_opens_sessions_and_profiler(self, uniprocessor):
        session = LimitSession([Event.CYCLES])
        gprof = InstrumentingProfiler()
        instr = Instrumentation(sessions=[session], profiler=gprof)

        def program(ctx):
            yield from instr.thread_setup(ctx)
            assert ctx.tid in session.slots
            assert ctx.thread().profiler is gprof
            yield Compute(10, RATES)
            yield from instr.thread_teardown(ctx)
            assert ctx.tid not in session.slots
            assert ctx.thread().profiler is None

        run_threads(uniprocessor, program)


class TestRunRegion:
    def _body(self, cycles):
        yield Compute(cycles, RATES)
        return "result"

    def test_bare_region_when_no_profiler(self, uniprocessor):
        instr = Instrumentation()
        got = {}

        def program(ctx):
            got["r"] = yield from run_region(instr, ctx, "fn", self._body(1_000))

        result = run_threads(uniprocessor, program)
        assert got["r"] == "result"
        assert result.merged_region("fn").invocations == 1

    def test_routed_through_region_profiler(self, uniprocessor):
        session = LimitSession([Event.CYCLES])
        prof = PreciseRegionProfiler(session)
        instr = Instrumentation(sessions=[session], region_profiler=prof)

        def program(ctx):
            yield from instr.thread_setup(ctx)
            yield from run_region(instr, ctx, "fn", self._body(2_000))
            yield from instr.thread_teardown(ctx)

        run_threads(uniprocessor, program)
        assert prof.observation("fn").invocations == 1
