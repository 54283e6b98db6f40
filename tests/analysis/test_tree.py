"""Tests of the top-down bottleneck tree and its classifier."""

import pytest

from repro.analysis.check import check_tree
from repro.analysis.tree import (
    STANDARD_METRICS,
    classify_named_counts,
    classify_result,
    counts_from_result,
    default_tree,
    implications_report,
)
from repro.common.config import MachineConfig, SimConfig
from repro.hw.events import Event, EventRates
from repro.sim.engine import Engine
from repro.workloads.synthetic import ContentionConfig, ContentionWorkload

#: A memory-bound count vector: 60% stalled, LLC penalties dominating.
MEM_COUNTS = {
    "cycles": 1_000_000,
    "instructions": 600_000,
    "stall_cycles": 600_000,
    "llc_misses": 2_500,
    "l2_misses": 3_000,
    "branch_misses": 1_000,
    "dtlb_misses": 200,
    "itlb_misses": 50,
    "remote_accesses": 100,
}


class TestTreeShape:
    def test_shipped_tree_passes_static_checks(self):
        assert not check_tree(default_tree()).findings

    def test_standard_metrics_cover_the_basics(self):
        for name in ("ipc", "cpi", "stall_fraction", "llc_mpki"):
            assert name in STANDARD_METRICS

    def test_every_node_carries_an_implication(self):
        def visit(node, depth):
            if depth > 0:
                assert node.implication, node.name
            for child in node.children:
                visit(child, depth + 1)

        visit(default_tree().root, 0)


class TestClassification:
    def test_memory_bound_counts_descend_to_memory_bound(self):
        cls = classify_named_counts(MEM_COUNTS)
        assert cls["path"] == "stalled/memory_bound"
        assert cls["tree"] == "topdown"
        assert "locality" in cls["implication"]

    def test_shares_partition_each_level(self):
        # shares are fractions of *total* cycles: level 1 sums to 1, and
        # each deeper level sums to its parent's share
        cls = classify_named_counts(MEM_COUNTS)
        parent_share = 1.0
        for level in cls["levels"]:
            assert sum(level["shares"].values()) == pytest.approx(
                parent_share
            )
            assert all(s >= 0.0 for s in level["shares"].values())
            assert level["shares"][level["dominant"]] == pytest.approx(
                level["share"]
            )
            parent_share = level["share"]

    def test_zero_counts_classify_as_retiring(self):
        # no stall evidence at all: the residual takes everything
        cls = classify_named_counts({})
        assert cls["path"] == "retiring"
        assert cls["levels"][0]["share"] == 1.0

    def test_compute_bound_counts_stay_at_retiring(self):
        cls = classify_named_counts(
            {"cycles": 1_000_000, "instructions": 1_900_000,
             "stall_cycles": 80_000}
        )
        assert cls["path"] == "retiring"

    def test_penalty_estimates_attribute_the_stalled_share(self):
        # 300 LLC misses at 180 cycles each: 54% of all cycles
        cls = classify_named_counts(
            {"cycles": 100_000, "instructions": 50_000,
             "stall_cycles": 60_000, "llc_misses": 300}
        )
        assert cls["path"] == "stalled/memory_bound"
        stall = cls["levels"][1]["shares"]
        assert stall["memory_bound"] == pytest.approx(0.54)
        assert stall["other_stall"] == pytest.approx(0.06)

    def test_overshooting_estimates_rescale_to_the_stalled_share(self):
        # 1,000 LLC misses would explain 180x the cycles the run measured
        cls = classify_named_counts(
            {"cycles": 1_000, "instructions": 100, "stall_cycles": 900,
             "llc_misses": 1_000, "branch_misses": 10}
        )
        stall = cls["levels"][1]["shares"]
        assert sum(stall.values()) == pytest.approx(0.9)
        assert stall["other_stall"] == 0.0
        # both estimates shrink by the same factor, 0.9 / 180.16
        assert stall["memory_bound"] == pytest.approx(
            0.9 * 180_000 / 180_160, abs=1e-6
        )
        assert stall["branch_resteer"] == pytest.approx(
            0.9 * 160 / 180_160, abs=1e-6
        )

    def test_implications_report_names_the_path(self):
        report = implications_report(classify_named_counts(MEM_COUNTS))
        assert "stalled/memory_bound" in report
        assert "locality" in report


class TestFromResults:
    @pytest.fixture(scope="class")
    def result(self):
        config = SimConfig(machine=MachineConfig(n_cores=2))
        workload = ContentionWorkload(
            ContentionConfig(
                n_threads=2,
                n_locks=1,
                iterations=5,
                hold_cycles=800,
                think_cycles=1_500,
                rates=EventRates.profile(ipc=0.8, llc_mpki=6.0,
                                         stall_frac=0.5),
            )
        )
        return Engine(config).run(workload.build())

    def test_counts_cover_both_privilege_domains(self, result):
        counts = counts_from_result(result)
        total = sum(
            thread.events_user.get(Event.CYCLES, 0)
            + thread.events_kernel.get(Event.CYCLES, 0)
            for thread in result.threads.values()
        )
        assert counts[Event.CYCLES] == total
        assert counts[Event.INSTRUCTIONS] > 0

    def test_classify_result_produces_a_path(self, result):
        cls = classify_result(result)
        assert cls["path"]
        assert cls["levels"][0]["within"] == "cycles"
