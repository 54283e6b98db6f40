"""Tests of the top-down bottleneck tree and its classifier."""

import pytest

from repro.analysis.check import check_tree
from repro.analysis.tree import (
    STANDARD_METRICS,
    MetricNode,
    MetricTree,
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

#: A memory-bound count vector: 60% stalled, with heavy LLC misses.
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
    def test_stall_dominated_counts_stop_at_stalled(self):
        # however many LLC misses the run took, the measured stall
        # fraction is the whole verdict: there is no level below stalled
        cls = classify_named_counts(MEM_COUNTS)
        assert cls["path"] == "stalled"
        assert len(cls["levels"]) == 1
        assert cls["levels"][0]["share"] == pytest.approx(0.6)
        assert cls["tree"] == "topdown"
        assert "latency" in cls["implication"]

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

    def test_overshooting_estimates_rescale_to_the_stalled_share(self):
        # two estimates whose raw sum (1.5) overshoots the stalled share
        # (0.9) both shrink by the same factor; the residual gets nothing
        tree = MetricTree(
            name="split",
            model="nehalem",
            root=MetricNode(
                name="cycles",
                expr=None,
                children=(
                    MetricNode(
                        name="stalled",
                        expr="ratio(stall_cycles, cycles)",
                        children=(
                            MetricNode(
                                "a", "ratio(llc_misses, llc_references)"
                            ),
                            MetricNode("b", "ratio(l2_misses, l1d_misses)"),
                            MetricNode("rest", None),
                        ),
                    ),
                    MetricNode(name="retiring", expr=None),
                ),
            ),
            metrics={},
        )
        assert not check_tree(tree).findings
        cls = classify_named_counts(
            {"cycles": 1_000, "stall_cycles": 900, "llc_misses": 900,
             "llc_references": 1_000, "l2_misses": 600, "l1d_misses": 1_000},
            tree,
        )
        assert cls["path"] == "stalled/a"
        stall = cls["levels"][1]["shares"]
        assert sum(stall.values()) == pytest.approx(0.9)
        assert stall["rest"] == 0.0
        assert stall["a"] == pytest.approx(0.9 * 0.9 / 1.5)
        assert stall["b"] == pytest.approx(0.9 * 0.6 / 1.5)

    def test_implications_report_names_the_path(self):
        report = implications_report(classify_named_counts(MEM_COUNTS))
        assert "nehalem model): stalled\n" in report
        assert "latency" in report


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
