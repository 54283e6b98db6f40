"""Tests of the behaviour-over-time (checkpoint time-series) analysis."""

import pytest

from repro.analysis.timeseries import (
    interval_samples,
    spikes,
    windowed_series,
)
from repro.common.errors import ReproError
from repro.core.limit import LimitSession
from repro.hw.events import Event, EventRates
from repro.sim.ops import Compute
from tests.conftest import run_threads

HOT = EventRates.profile(ipc=2.0, llc_mpki=0.5)
COLD = EventRates.profile(ipc=0.5, llc_mpki=20.0)


def checkpointed_run(uniprocessor, phase_plan):
    """Run a thread that checkpoints after each (cycles, rates) phase."""
    session = LimitSession(
        [Event.CYCLES, Event.INSTRUCTIONS, Event.LLC_MISSES]
    )

    def program(ctx):
        yield from session.setup(ctx)
        yield from session.read_all(ctx)  # opening checkpoint
        for cycles, rates in phase_plan:
            yield Compute(cycles, rates)
            yield from session.read_all(ctx)

    result = run_threads(uniprocessor, program)
    return session, result


class TestIntervalSamples:
    def test_one_interval_per_phase(self, uniprocessor):
        session, _ = checkpointed_run(
            uniprocessor, [(50_000, HOT), (50_000, COLD), (50_000, HOT)]
        )
        samples = interval_samples(session)
        assert len(samples) == 3

    def test_interval_metrics_reflect_phases(self, uniprocessor):
        session, _ = checkpointed_run(
            uniprocessor, [(100_000, HOT), (100_000, COLD)]
        )
        # one interval per window: each point's metrics are its interval's
        hot, cold = windowed_series(interval_samples(session), 100_000)
        assert hot.ipc == pytest.approx(2.0, rel=0.02)
        assert cold.ipc == pytest.approx(0.5, rel=0.02)
        assert cold.mpki[Event.LLC_MISSES] == pytest.approx(20.0, rel=0.05)
        assert hot.mpki[Event.LLC_MISSES] < 1.0

    def test_times_ordered(self, uniprocessor):
        session, _ = checkpointed_run(uniprocessor, [(10_000, HOT)] * 5)
        samples = interval_samples(session)
        for sample in samples:
            assert sample.end > sample.start
            assert sample.start <= sample.midpoint <= sample.end

    def test_multi_thread_intervals_kept_separate(self, quad_core):
        session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS])

        def program(ctx):
            yield from session.setup(ctx)
            yield from session.read_all(ctx)
            yield Compute(30_000, HOT)
            yield from session.read_all(ctx)

        run_threads(quad_core, program, program)
        samples = interval_samples(session)
        assert len(samples) == 2
        assert len({s.tid for s in samples}) == 2

    def test_empty_session_rejected(self):
        session = LimitSession([Event.CYCLES])
        session.specs = []
        with pytest.raises(ReproError):
            interval_samples(session)


class TestWindowedSeries:
    def test_windows_capture_phase_change(self, uniprocessor):
        plan = [(100_000, HOT)] * 5 + [(100_000, COLD)] * 5
        session, _ = checkpointed_run(uniprocessor, plan)
        points = windowed_series(interval_samples(session), 200_000)
        assert points[0].ipc > 1.5
        assert points[-1].ipc < 0.7

    def test_empty_samples(self):
        assert windowed_series([], 1000) == []

    def test_bad_window_rejected(self, uniprocessor):
        session, _ = checkpointed_run(uniprocessor, [(10_000, HOT)])
        with pytest.raises(ReproError):
            windowed_series(interval_samples(session), 0)

    def test_interval_counts_sum(self, uniprocessor):
        session, _ = checkpointed_run(uniprocessor, [(30_000, HOT)] * 7)
        points = windowed_series(interval_samples(session), 50_000)
        assert sum(p.n_intervals for p in points) == 7


class TestSpikes:
    def test_detects_outlier_windows(self, uniprocessor):
        plan = [(100_000, HOT)] * 8 + [(100_000, COLD)] + [(100_000, HOT)] * 8
        session, _ = checkpointed_run(uniprocessor, plan)
        points = windowed_series(
            interval_samples(session), 100_000, (Event.LLC_MISSES,)
        )
        outliers = spikes(points, Event.LLC_MISSES, factor=3.0)
        assert 1 <= len(outliers) <= 3
        assert all(
            p.mpki[Event.LLC_MISSES] > 5.0 for p in outliers
        )

    def test_no_spikes_in_steady_state(self, uniprocessor):
        session, _ = checkpointed_run(uniprocessor, [(100_000, HOT)] * 10)
        points = windowed_series(
            interval_samples(session), 100_000, (Event.LLC_MISSES,)
        )
        assert spikes(points, Event.LLC_MISSES, factor=3.0) == []

    def test_empty(self):
        assert spikes([], Event.LLC_MISSES) == []
