"""Tests of the sampling profiler baseline."""

import pytest

from repro.analysis.accuracy import relative_error
from repro.baselines.sampling import SamplingProfiler
from repro.common.errors import SessionError
from repro.hw.events import Event, EventRates
from repro.sim.ops import Compute, RegionBegin, RegionEnd
from tests.conftest import run_threads

RATES = EventRates.profile(ipc=1.0)


def region_program(profiler, region_cycles, n=1, region="hot"):
    def program(ctx):
        yield from profiler.setup(ctx)
        for _ in range(n):
            yield RegionBegin(region)
            yield Compute(region_cycles, RATES)
            yield RegionEnd()
        yield from profiler.teardown(ctx)

    return program


class TestSampling:
    def test_estimate_tracks_truth_for_long_regions(self, uniprocessor):
        profiler = SamplingProfiler(Event.CYCLES, period=10_000)
        result = run_threads(
            uniprocessor, region_program(profiler, 500_000)
        )
        truth = result.merged_region("hot").user_cycles
        estimate = profiler.estimate_for(result, "hot")
        assert relative_error(estimate, truth) < 0.1
        assert estimate > 0

    def test_short_regions_missed_or_wrong(self, uniprocessor):
        """A 500-cycle region sampled at 100k-event periods is invisible
        or grossly mis-estimated — the E3 phenomenon."""
        profiler = SamplingProfiler(Event.CYCLES, period=100_000)
        result = run_threads(
            uniprocessor,
            region_program(profiler, 500, n=20),
        )
        truth = result.merged_region("hot").user_cycles  # ~10k cycles
        estimate = profiler.estimate_for(result, "hot")
        assert relative_error(estimate, truth) > 2.0 or estimate == 0

    def test_sample_count_scales_with_period(self, uniprocessor):
        fine = SamplingProfiler(Event.CYCLES, period=10_000, name="fine")
        result_fine = run_threads(uniprocessor, region_program(fine, 400_000))
        coarse = SamplingProfiler(Event.CYCLES, period=100_000, name="coarse")
        result_coarse = run_threads(uniprocessor, region_program(coarse, 400_000))
        assert len(fine.my_samples(result_fine)) > 5 * len(
            coarse.my_samples(result_coarse)
        )

    def test_estimates_by_region(self, uniprocessor):
        profiler = SamplingProfiler(Event.CYCLES, period=20_000)

        def program(ctx):
            yield from profiler.setup(ctx)
            yield RegionBegin("a")
            yield Compute(400_000, RATES)
            yield RegionEnd()
            yield RegionBegin("b")
            yield Compute(100_000, RATES)
            yield RegionEnd()

        result = run_threads(uniprocessor, program)
        estimates = profiler.estimates(result)
        assert estimates["a"].samples > estimates["b"].samples
        assert estimates["a"].estimated_events == (
            estimates["a"].samples * 20_000
        )

    def test_relative_error_zero_truth(self, uniprocessor):
        profiler = SamplingProfiler(Event.CYCLES, period=50_000)
        result = run_threads(uniprocessor, region_program(profiler, 100_000))
        # never sampled, never run: no events estimated, none missed
        assert relative_error(profiler.estimate_for(result, "never"), 0) == 0.0

    def test_bad_period(self):
        with pytest.raises(SessionError):
            SamplingProfiler(Event.CYCLES, period=0)

    def test_double_setup_rejected(self, uniprocessor):
        profiler = SamplingProfiler(Event.CYCLES, period=10_000)
        caught = {}

        def program(ctx):
            yield from profiler.setup(ctx)
            try:
                yield from profiler.setup(ctx)
            except SessionError as exc:
                caught["exc"] = exc

        run_threads(uniprocessor, program)
        assert "exc" in caught

    def test_teardown_without_setup(self, uniprocessor):
        profiler = SamplingProfiler(Event.CYCLES, period=10_000)

        def program(ctx):
            yield from profiler.teardown(ctx)

        with pytest.raises(SessionError, match="not attached"):
            run_threads(uniprocessor, program)

    def test_per_thread_sampling(self, quad_core):
        profiler = SamplingProfiler(Event.CYCLES, period=30_000)
        result = run_threads(
            quad_core,
            region_program(profiler, 300_000, region="x"),
            region_program(profiler, 300_000, region="y"),
        )
        tids = {s.tid for s in profiler.my_samples(result)}
        assert len(tids) == 2


class TestMissEventSampling:
    def test_sampling_a_miss_event(self, uniprocessor):
        """Cache-miss profiling: sample LLC_MISSES rather than cycles."""
        from repro.hw.events import EventRates

        missy = EventRates.profile(ipc=0.6, llc_mpki=30.0)
        profiler = SamplingProfiler(Event.LLC_MISSES, period=2_000)

        def program(ctx):
            yield from profiler.setup(ctx)
            yield RegionBegin("missy")
            yield Compute(1_000_000, missy)
            yield RegionEnd()

        result = run_threads(uniprocessor, program)
        truth = result.merged_region("missy").events[Event.LLC_MISSES]
        estimate = profiler.estimate_for(result, "missy")
        assert truth > 0
        assert abs(estimate - truth) / truth < 0.25

    def test_two_samplers_different_events(self, uniprocessor):
        from repro.hw.events import EventRates

        rates = EventRates.profile(ipc=1.0, llc_mpki=20.0)
        cyc = SamplingProfiler(Event.CYCLES, period=50_000, name="cyc")
        llc = SamplingProfiler(Event.LLC_MISSES, period=1_000, name="llc")

        def program(ctx):
            yield from cyc.setup(ctx)
            yield from llc.setup(ctx)
            yield RegionBegin("r")
            yield Compute(600_000, rates)
            yield RegionEnd()

        result = run_threads(uniprocessor, program)
        assert len(cyc.my_samples(result)) > 5
        assert len(llc.my_samples(result)) > 5
