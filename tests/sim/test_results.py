"""Tests for RunResult helpers and invariant checks."""

import random
from array import array

import pytest

from repro.analysis.reports import user_kernel_breakdown
from repro.common.errors import SimulationError
from repro.hw.events import Event
from repro.sim.results import merge_histogram
from repro.sim.ops import Compute, Syscall
from tests.conftest import SIMPLE_RATES, run_threads, compute_program


class TestLookups:
    def test_thread_by_name_missing(self, uniprocessor):
        result = run_threads(uniprocessor, compute_program(10))
        with pytest.raises(SimulationError):
            result.thread_by_name("nope")

    def test_threads_matching_prefix(self, quad_core):
        result = run_threads(
            quad_core,
            compute_program(10),
            compute_program(10),
            names=["app:a", "other:b"],
        )
        assert len(result.threads_matching("app:")) == 1


class TestAggregates:
    def test_totals(self, quad_core):
        result = run_threads(
            quad_core, compute_program(10_000), compute_program(20_000)
        )
        assert result.total_user_cycles() == 30_000
        assert result.total_cpu_cycles() == (
            result.total_user_cycles() + result.total_kernel_cycles()
        )
        assert result.total(Event.CYCLES) == result.total_cpu_cycles()

    def test_kernel_fraction(self, uniprocessor):
        def program(ctx):
            yield Compute(10_000, SIMPLE_RATES)
            yield Syscall("work", (10_000,))

        result = run_threads(uniprocessor, program)
        assert 0.3 < user_kernel_breakdown(result).kernel_fraction < 0.8


class TestConservationCheck:
    def test_passes_on_real_run(self, quad_core):
        result = run_threads(quad_core, *[compute_program(50_000)] * 5)
        result.check_conservation()  # must not raise

    def test_detects_corruption(self, uniprocessor):
        result = run_threads(uniprocessor, compute_program(10_000))
        result.cores[0].busy_cycles += 1
        with pytest.raises(SimulationError):
            result.check_conservation()

    def test_detects_busy_exceeding_time(self, uniprocessor):
        result = run_threads(uniprocessor, compute_program(10_000))
        result.cores[0].busy_cycles = result.cores[0].final_time + 10
        result.cores[0].user_cycles = result.cores[0].busy_cycles - result.cores[0].kernel_cycles
        with pytest.raises(SimulationError):
            result.check_conservation()


class TestMergeHistogram:
    def test_bucketing(self):
        counts = merge_histogram([1, 5, 10, 15, 100], [5, 10, 20])
        # <5: [1]; [5,10): [5]; [10,20): [10,15]; >=20: [100]
        assert counts == [1, 1, 2, 1]

    def test_empty(self):
        assert merge_histogram([], [10]) == [0, 0]

    def test_all_overflow(self):
        assert merge_histogram([50, 60], [10]) == [0, 2]

    def test_matches_the_linear_scan(self):
        def linear(values, edges):
            counts = [0] * (len(edges) + 1)
            for v in values:
                for i, edge in enumerate(edges):
                    if v < edge:
                        counts[i] += 1
                        break
                else:
                    counts[-1] += 1
            return counts

        rng = random.Random(28)
        edges = [240, 2_400, 24_000, 240_000]
        values = [rng.randrange(-1_000, 500_000) for _ in range(2_000)]
        values += edges + [e - 1 for e in edges] + [e + 1 for e in edges]
        values += [edges[0] - 10**9, edges[-1] + 10**9]
        counts = merge_histogram(values, edges)
        assert counts == linear(values, edges)
        assert sum(counts) == len(values)
        assert all(counts)
        assert merge_histogram(array("q", values), edges) == counts


class TestCoreResult:
    def test_utilization(self, uniprocessor):
        result = run_threads(uniprocessor, compute_program(100_000))
        core = result.cores[0]
        assert 0.9 < core.utilization <= 1.0
