"""Engine region tracking: ground truth attribution and invocation logs."""

import pytest

from repro.common.errors import SimulationError
from repro.hw.events import Domain, Event
from repro.sim.ops import Compute, RegionBegin, RegionEnd, Sleep
from tests.conftest import SIMPLE_RATES, run_threads


class TestRegionTruth:
    def test_cycles_attributed_to_innermost(self, uniprocessor):
        def program(ctx):
            yield RegionBegin("outer")
            yield Compute(10_000, SIMPLE_RATES)
            yield RegionBegin("inner")
            yield Compute(5_000, SIMPLE_RATES)
            yield RegionEnd()
            yield Compute(2_000, SIMPLE_RATES)
            yield RegionEnd()

        result = run_threads(uniprocessor, program)
        t = result.thread_by_name("t0")
        assert t.regions["outer"].user_cycles == 12_000
        assert t.regions["inner"].user_cycles == 5_000

    def test_invocation_counts(self, uniprocessor):
        def program(ctx):
            for _ in range(7):
                yield RegionBegin("r")
                yield Compute(100, SIMPLE_RATES)
                yield RegionEnd()

        result = run_threads(uniprocessor, program)
        rt = result.thread_by_name("t0").regions["r"]
        assert rt.invocations == 7
        assert len(rt.exec_cycles) == 7
        assert all(e >= 100 for e in rt.exec_cycles)

    def test_wall_includes_blocked_time(self, uniprocessor):
        def program(ctx):
            yield RegionBegin("slow")
            yield Compute(1_000, SIMPLE_RATES)
            yield Sleep(500_000)
            yield RegionEnd()

        result = run_threads(uniprocessor, program)
        rt = result.thread_by_name("t0").regions["slow"]
        assert rt.wall_cycles[0] >= 500_000
        assert rt.exec_cycles[0] < 50_000

    def test_events_attributed_per_region(self, uniprocessor):
        def program(ctx):
            yield RegionBegin("r")
            yield Compute(100_000, SIMPLE_RATES)
            yield RegionEnd()
            yield Compute(100_000, SIMPLE_RATES)  # outside any region

        result = run_threads(uniprocessor, program)
        t = result.thread_by_name("t0")
        rt = t.regions["r"]
        assert rt.events[Event.INSTRUCTIONS] == 100_000
        # total user-domain truth is double the region's share (the kernel
        # domain also ran instructions during dispatch, so filter it out)
        assert t.truth(Event.INSTRUCTIONS, Domain.USER) == 200_000

    def test_kernel_cycles_within_region(self, uniprocessor):
        from repro.sim.ops import Syscall

        def program(ctx):
            yield RegionBegin("sys")
            yield Syscall("work", (30_000,))
            yield RegionEnd()

        result = run_threads(uniprocessor, program)
        rt = result.thread_by_name("t0").regions["sys"]
        assert rt.kernel_cycles >= 30_000


class TestRegionErrors:
    def test_end_without_begin(self, uniprocessor):
        def program(ctx):
            yield RegionEnd()

        with pytest.raises(SimulationError, match="no open region"):
            run_threads(uniprocessor, program)

    def test_exit_with_open_region(self, uniprocessor):
        def program(ctx):
            yield RegionBegin("dangling")
            yield Compute(10, SIMPLE_RATES)

        with pytest.raises(SimulationError, match="open regions"):
            run_threads(uniprocessor, program)


class TestMergedRegions:
    def test_merged_across_threads(self, quad_core):
        def worker(ctx):
            yield RegionBegin("shared")
            yield Compute(1_000, SIMPLE_RATES)
            yield RegionEnd()

        result = run_threads(quad_core, worker, worker, worker)
        merged = result.merged_region("shared")
        assert merged.invocations == 3
        assert merged.user_cycles == 3_000

    def test_all_region_names(self, uniprocessor):
        def program(ctx):
            yield RegionBegin("b")
            yield RegionEnd()
            yield RegionBegin("a")
            yield RegionEnd()

        result = run_threads(uniprocessor, program)
        assert result.all_region_names() == ["a", "b"]
