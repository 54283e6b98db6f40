"""Tests of synchronization statistics."""

import re
from fractions import Fraction

import pytest

from repro.analysis.sync_stats import (
    CS_HISTOGRAM_EDGES,
    CS_HISTOGRAM_LABELS,
    SyncProfile,
    short_section_fraction,
    summarize_lock,
    sync_profile,
)
from repro.common.config import MachineConfig
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

    @staticmethod
    def _profile(hold_histogram):
        return SyncProfile(
            locks={},
            total_acquires=sum(hold_histogram),
            acquires_per_mcycle=0.0,
            hold_fraction=0.0,
            wait_fraction=0.0,
            hold_histogram=hold_histogram,
            wait_histogram=[0] * len(hold_histogram),
        )

    def test_threshold_between_edges_counts_whole_buckets_below_it(self):
        """Buckets are [<240, <2.4k, <24k, <240k, >=240k] cycles; a
        threshold of 10k falls inside the third, which is left out."""
        profile = self._profile([1, 2, 3, 4, 5])
        assert short_section_fraction(profile, 10_000) == 3 / 15
        assert short_section_fraction(profile, 24_000) == 6 / 15
        assert short_section_fraction(profile, 239) == 0.0
        # the overflow bucket has no upper edge, so it is never short
        assert short_section_fraction(profile, 10**9) == 10 / 15


class TestFormatting:
    def test_edges_ascending(self):
        assert CS_HISTOGRAM_EDGES == sorted(CS_HISTOGRAM_EDGES)

    def test_labels_name_the_edges_at_the_default_frequency(self):
        """Label i is "<T" for edge i, and the overflow label ">=T" for the
        last edge, where T in ns/us is the edge's length at the default
        2.4 GHz clock."""
        hz = MachineConfig().frequency.hz
        scale = {"ns": Fraction(1, 10**9), "us": Fraction(1, 10**6)}
        bounds = []
        for label in CS_HISTOGRAM_LABELS:
            match = re.fullmatch(r"(<|>=)(\d+)(ns|us)", label)
            assert match, label
            op, value, unit = match.groups()
            bounds.append((op, int(value) * scale[unit] * hz))
        edges = [Fraction(edge) for edge in CS_HISTOGRAM_EDGES]
        assert bounds == [("<", edge) for edge in edges] + [(">=", edges[-1])]
