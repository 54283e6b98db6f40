"""Tests of synchronization statistics."""

import pytest

from repro.analysis.sync_stats import (
    CS_HISTOGRAM_EDGES,
    CS_HISTOGRAM_LABELS,
    short_section_fraction,
    summarize_lock,
    sync_profile,
)
from repro.hw.events import EventRates
from repro.kernel.locks import LockStats
from repro.sim.ops import Compute, LockAcquire, LockRelease
from tests.conftest import run_threads

RATES = EventRates.profile(ipc=1.0)


def lock_worker(lock, hold, iters):
    def program(ctx):
        for _ in range(iters):
            yield LockAcquire(lock)
            yield Compute(hold, RATES)
            yield LockRelease(lock)
            yield Compute(200, RATES)

    return program


class TestSummarizeLock:
    def test_fields(self):
        stats = LockStats(
            n_acquires=10,
            n_contended=2,
            n_futex_sleeps=1,
            hold_cycles=[100] * 10,
            wait_cycles=[0] * 8 + [50, 50],
        )
        s = summarize_lock("l", stats)
        assert s.n_acquires == 10
        assert s.contention_rate == 0.2
        assert s.futex_rate == 0.1
        assert s.mean_hold_cycles == 100
        assert s.total_wait_cycles == 100


class TestSyncProfile:
    def test_profile_of_run(self, quad_core):
        result = run_threads(
            quad_core,
            lock_worker("a", hold=500, iters=10),
            lock_worker("a", hold=500, iters=10),
        )
        profile = sync_profile(result)
        assert profile.total_acquires == 20
        assert profile.hold_fraction > 0
        assert sum(profile.hold_histogram) == 20
        assert len(profile.hold_histogram) == len(CS_HISTOGRAM_LABELS)

    def test_prefix_filter(self, uniprocessor):
        result = run_threads(
            uniprocessor,
            lock_worker("app:x", hold=100, iters=3),
        )
        assert sync_profile(result, prefix="app:").total_acquires == 3
        assert sync_profile(result, prefix="other:").total_acquires == 0

    def test_acquires_per_mcycle(self, uniprocessor):
        result = run_threads(uniprocessor, lock_worker("l", 1_000, 50))
        profile = sync_profile(result)
        cpu_m = result.total_cpu_cycles() / 1e6
        assert profile.acquires_per_mcycle == pytest.approx(50 / cpu_m)

    def test_empty_run_profile(self, uniprocessor):
        def program(ctx):
            yield Compute(1_000, RATES)

        result = run_threads(uniprocessor, program)
        profile = sync_profile(result)
        assert profile.total_acquires == 0
        assert profile.mean_hold_cycles == 0.0


class TestShortSectionFraction:
    def test_all_short(self, uniprocessor):
        result = run_threads(uniprocessor, lock_worker("l", 100, 10))
        profile = sync_profile(result)
        assert short_section_fraction(profile, 2_400) == 1.0

    def test_all_long(self, uniprocessor):
        result = run_threads(uniprocessor, lock_worker("l", 100_000, 5))
        profile = sync_profile(result)
        assert short_section_fraction(profile, 2_400) == 0.0

    def test_empty_profile(self, uniprocessor):
        def program(ctx):
            yield Compute(100, RATES)

        result = run_threads(uniprocessor, program)
        assert short_section_fraction(sync_profile(result)) == 0.0


class TestFormatting:
    def test_edges_ascending(self):
        assert CS_HISTOGRAM_EDGES == sorted(CS_HISTOGRAM_EDGES)
