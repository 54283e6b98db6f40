"""Tests of the bottleneck diagnosis (the paper's titular application):
the top-down tree walked over a run's precise counts, plus the measured
facts line ``repro run --diagnose`` prints above it."""

import pytest

from repro.analysis import bottleneck_report, user_kernel_breakdown
from repro.analysis.expr import env_from_counts, evaluate, parse
from repro.analysis.sync_stats import sync_profile
from repro.analysis.tree import (
    STANDARD_METRICS,
    classify_counts,
    classify_named_counts,
    classify_result,
    counts_from_result,
)
from repro.cli import build_workload_specs
from repro.common.config import MachineConfig, SimConfig
from repro.hw.events import EventRates
from repro.obs import runtime as obs_runtime
from repro.sim.engine import run_program
from repro.sim.ops import Compute, LockAcquire, LockRelease, Syscall
from tests.conftest import run_threads

MEMORY_BOUND = EventRates.profile(ipc=0.4, llc_mpki=30.0, stall_frac=0.7)
COMPUTE_BOUND = EventRates.profile(ipc=2.0, llc_mpki=0.05)


def metric(name, result, prefix=""):
    env = env_from_counts(counts_from_result(result, prefix))
    return evaluate(parse(STANDARD_METRICS[name]), env)


def assert_levels_partition(classification):
    """Level 1 sums to all cycles; each deeper level to its parent."""
    parent_share = 1.0
    for level in classification["levels"]:
        assert sum(level["shares"].values()) == pytest.approx(parent_share)
        parent_share = level["share"]


class TestDiagnose:
    def test_memory_bound_identified(self, uniprocessor):
        def program(ctx):
            yield Compute(2_000_000, MEMORY_BOUND)

        result = run_threads(uniprocessor, program)
        assert classify_result(result)["path"] == "stalled/memory_bound"
        assert metric("cpi", result) > 2.0

    def test_compute_bound_identified(self, uniprocessor):
        def program(ctx):
            yield Compute(2_000_000, COMPUTE_BOUND)

        result = run_threads(uniprocessor, program)
        assert classify_result(result)["path"] == "retiring"

    def test_kernel_bound_identified(self, uniprocessor):
        # the tree has no kernel level: the facts line carries the share
        def program(ctx):
            for _ in range(20):
                yield Compute(2_000, COMPUTE_BOUND)
                yield Syscall("work", (40_000,))

        result = run_threads(uniprocessor, program)
        kernel = user_kernel_breakdown(result).kernel_fraction
        assert kernel > 0.5
        assert f"kernel {kernel:.1%}" in bottleneck_report(result)

    def test_lock_wait_surfaces(self, quad_core):
        def worker(ctx):
            for _ in range(15):
                yield LockAcquire("hot")
                yield Compute(30_000, COMPUTE_BOUND)
                yield LockRelease("hot")

        result = run_threads(quad_core, *[worker] * 4)
        wait = sync_profile(result).wait_fraction
        assert wait > 0.1
        assert f"lock-wait {wait:.1%}" in bottleneck_report(result)

    def test_prefix_filter(self, quad_core):
        def mem(ctx):
            yield Compute(500_000, MEMORY_BOUND)

        def cpu(ctx):
            yield Compute(500_000, COMPUTE_BOUND)

        result = run_threads(quad_core, mem, cpu, names=["m:0", "c:0"])
        assert classify_result(result, prefix="m:")["path"] == (
            "stalled/memory_bound"
        )
        assert classify_result(result, prefix="c:")["path"] == "retiring"

    def test_prefix_classifies_the_groups_merged_counts(self, quad_core):
        def mem(ctx):
            yield Compute(500_000, MEMORY_BOUND)

        def cpu(ctx):
            yield Compute(500_000, COMPUTE_BOUND)

        result = run_threads(
            quad_core, mem, mem, cpu, names=["m:0", "m:1", "c:0"]
        )
        merged = {}
        for thread in (result.thread_by_name("m:0"), result.thread_by_name("m:1")):
            for domain in (thread.events_user, thread.events_kernel):
                for event, n in domain.items():
                    merged[event] = merged.get(event, 0) + n
        cls = classify_result(result, prefix="m:")
        assert cls == classify_counts(merged)
        assert len(cls["levels"]) == 2
        assert_levels_partition(cls)

    def test_unknown_prefix_raises(self, uniprocessor):
        def program(ctx):
            yield Compute(100, COMPUTE_BOUND)

        result = run_threads(uniprocessor, program)
        with pytest.raises(ValueError):
            classify_result(result, prefix="nope:")

    def test_severities_ranked(self, uniprocessor):
        def program(ctx):
            yield Compute(1_000_000, MEMORY_BOUND)

        result = run_threads(uniprocessor, program)
        for level in classify_result(result)["levels"]:
            shares = level["shares"]
            assert shares[level["dominant"]] == max(shares.values())

    def test_spec_stalled_share_is_the_measured_stall_fraction(self):
        """The tree fits its penalty estimates inside the measured stall
        share, so no attribution can exceed what the counters saw; and the
        verdict is the one the runner records in manifests."""
        config = SimConfig(machine=MachineConfig(n_cores=4), seed=0)
        with obs_runtime.collect() as collector:
            result = run_program(build_workload_specs("spec", 0.1), config)
        cls = classify_result(result)
        stall_fraction = metric("stall_fraction", result)
        assert 0.0 < stall_fraction < 0.5
        assert cls["levels"][0]["shares"]["stalled"] == pytest.approx(
            stall_fraction, abs=1e-6
        )
        assert_levels_partition(cls)
        assert cls == classify_named_counts(collector.counts_total())


class TestDescribe:
    def test_readable_output(self, uniprocessor):
        def program(ctx):
            yield Compute(500_000, MEMORY_BOUND)

        result = run_threads(uniprocessor, program)
        text = bottleneck_report(result)
        assert text.startswith("CPI ")
        assert "top-down classification" in text
        assert "stalled/memory_bound" in text
        assert "implication:" in text
