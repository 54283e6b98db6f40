"""Tests of the gprof-class instrumenting profiler."""

import pytest

from repro.baselines.instrumenting import InstrumentingProfiler
from repro.common.errors import SessionError
from repro.hw.events import EventRates
from repro.sim.ops import Compute, RegionBegin, RegionEnd
from tests.conftest import run_threads

RATES = EventRates.profile(ipc=1.0)


def profiled_program(profiler, regions):
    def program(ctx):
        yield from profiler.attach(ctx)
        for name, cycles in regions:
            yield RegionBegin(name)
            yield Compute(cycles, RATES)
            yield RegionEnd()
        yield from profiler.detach(ctx)

    return program


class TestFlatProfile:
    def test_calls_and_times(self, uniprocessor):
        prof = InstrumentingProfiler()
        run_threads(
            uniprocessor,
            profiled_program(prof, [("f", 1_000), ("f", 1_000), ("g", 5_000)]),
        )
        assert prof.calls("f") == 2
        assert prof.calls("g") == 1
        # hook costs inflate observed times slightly
        assert prof.total_cycles("g") >= 5_000
        assert prof.total_cycles("f") >= 2_000

    def test_hook_cost_charged_to_app(self, uniprocessor):
        """Attaching the profiler slows the run — instrumentation perturbs."""
        regions = [("f", 200)] * 200

        def bare(ctx):
            for name, cycles in regions:
                yield RegionBegin(name)
                yield Compute(cycles, RATES)
                yield RegionEnd()

        base = run_threads(uniprocessor, bare)
        prof = InstrumentingProfiler()
        instrumented = run_threads(uniprocessor, profiled_program(prof, regions))
        hook = uniprocessor.machine.costs.instrument_hook
        expected_extra = 2 * hook * len(regions)
        extra = (
            instrumented.thread_by_name("t0").user_cycles
            - base.thread_by_name("t0").user_cycles
        )
        assert extra == pytest.approx(expected_extra, rel=0.05)

    def test_unknown_region_zero(self):
        prof = InstrumentingProfiler()
        assert prof.total_cycles("nope") == 0
        assert prof.calls("nope") == 0


class TestAttachment:
    def test_double_attach_rejected(self, uniprocessor):
        prof = InstrumentingProfiler()
        caught = {}

        def program(ctx):
            yield from prof.attach(ctx)
            try:
                yield from prof.attach(ctx)
            except SessionError as exc:
                caught["exc"] = exc
            yield Compute(10, RATES)

        run_threads(uniprocessor, program)
        assert "exc" in caught

    def test_detach_wrong_profiler(self, uniprocessor):
        a = InstrumentingProfiler("a")
        b = InstrumentingProfiler("b")
        caught = {}

        def program(ctx):
            yield from a.attach(ctx)
            try:
                yield from b.detach(ctx)
            except SessionError as exc:
                caught["exc"] = exc
            yield Compute(10, RATES)

        run_threads(uniprocessor, program)
        assert "exc" in caught

    def test_unattached_threads_not_profiled(self, quad_core):
        prof = InstrumentingProfiler()

        def unprofiled(ctx):
            yield RegionBegin("r")
            yield Compute(100, RATES)
            yield RegionEnd()

        run_threads(
            quad_core,
            profiled_program(prof, [("mine", 100)]),
            unprofiled,
        )
        assert prof.calls("mine") == 1
        assert prof.calls("r") == 0

    def test_exit_after_attach_without_enter_ignored(self, uniprocessor):
        """Regions opened before attach don't corrupt the profile."""
        prof = InstrumentingProfiler()

        def program(ctx):
            yield RegionBegin("early")
            yield from prof.attach(ctx)
            yield RegionEnd()   # exit seen without matching enter
            yield Compute(10, RATES)
            yield from prof.detach(ctx)

        run_threads(uniprocessor, program)
        assert prof.calls("early") == 0
