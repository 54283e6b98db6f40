"""The AN rule catalog: one minimal failing fixture and one minimal
passing twin per rule, so every rule demonstrably fires and none
fires on clean input."""

import pytest

from repro.analysis.check import (
    check_analysis,
    check_assumptions,
    check_metric_expr,
    check_metrics,
    check_predicate,
    check_tree,
)
from repro.analysis.refute import Assumption
from repro.analysis.tree import MetricNode, MetricTree, default_tree
from repro.common.config import MachineConfig, PmuConfig, SimConfig


def rules(report):
    return sorted({f.rule for f in report.findings})


def tree_of(root, metrics=None):
    return MetricTree(
        name="t", model="nehalem", root=root, metrics=metrics or {}
    )


class TestAN001UnknownEvent:
    def test_fires(self):
        report = check_metric_expr("bogus_counter + cycles")
        assert rules(report) == ["AN001"]

    def test_clean(self):
        assert not check_metric_expr("cycles + stall_cycles").findings


class TestAN002UnitMismatch:
    def test_fires_on_add(self):
        report = check_metric_expr("cycles + instructions")
        assert rules(report) == ["AN002"]

    def test_fires_on_compare(self):
        report = check_predicate("cycles > instructions")
        assert "AN002" in rules(report)

    def test_constants_are_unit_polymorphic(self):
        assert not check_metric_expr("cycles + 5.0").findings
        assert not check_predicate(
            "ratio(stall_cycles, cycles) < 0.9"
        ).findings


class TestAN003UnguardedDivision:
    def test_fires(self):
        report = check_metric_expr("cycles / instructions")
        assert rules(report) == ["AN003"]

    def test_ratio_is_the_guarded_spelling(self):
        assert not check_metric_expr("ratio(cycles, instructions)").findings


class TestAN004CyclicMetric:
    def test_fires(self):
        report = check_metrics({"a": "$b", "b": "$a"})
        assert "AN004" in rules(report)

    def test_dag_is_clean(self):
        report = check_metrics(
            {"ipc": "ratio(instructions, cycles)", "double": "$ipc * 2.0"}
        )
        assert not report.findings


class TestAN005DanglingMetric:
    def test_fires(self):
        report = check_metric_expr("$nope")
        assert rules(report) == ["AN005"]

    def test_declared_reference_is_clean(self):
        report = check_metric_expr(
            "$ipc", metrics={"ipc": "ratio(instructions, cycles)"}
        )
        assert not report.findings


class TestAN006TreePartition:
    def leaf(self, name, expr="ratio(stall_cycles, cycles)"):
        return MetricNode(name=name, expr=expr)

    def test_fires_without_residual(self):
        root = MetricNode(
            name="cycles",
            expr=None,
            children=(self.leaf("a"), self.leaf("b")),
        )
        assert "AN006" in rules(check_tree(tree_of(root)))

    def test_fires_on_two_residuals(self):
        root = MetricNode(
            name="cycles",
            expr=None,
            children=(
                MetricNode(name="a", expr=None),
                MetricNode(name="b", expr=None),
            ),
        )
        assert "AN006" in rules(check_tree(tree_of(root)))

    def test_fires_on_dimensioned_node(self):
        # raw counts are occurrences, not a share of cycles
        root = MetricNode(
            name="cycles",
            expr=None,
            children=(
                self.leaf("a", expr="llc_misses"),
                MetricNode(name="rest", expr=None),
            ),
        )
        assert "AN006" in rules(check_tree(tree_of(root)))

    def test_fires_on_root_expression(self):
        root = MetricNode(name="cycles", expr="ratio(cycles, cycles)")
        assert "AN006" in rules(check_tree(tree_of(root)))

    def test_partitioned_tree_is_clean(self):
        root = MetricNode(
            name="cycles",
            expr=None,
            children=(self.leaf("a"), MetricNode(name="rest", expr=None)),
        )
        assert not check_tree(tree_of(root)).findings


class TestAN007MultiplexingHazard:
    FIVE_EVENTS = (
        "ratio(llc_misses, cycles) + ratio(l2_misses, cycles) + "
        "ratio(branch_misses, cycles) + ratio(dtlb_misses, cycles)"
    )

    def test_fires_beyond_counter_budget(self):
        report = check_metric_expr(self.FIVE_EVENTS)
        assert rules(report) == ["AN007"]
        assert all(f.severity == "warning" for f in report.findings)

    def test_clean_within_budget(self):
        wide = SimConfig(
            machine=MachineConfig(pmu=PmuConfig(n_counters=8))
        )
        assert not check_metric_expr(self.FIVE_EVENTS, config=wide).findings


class TestAN008Unsatisfiable:
    def test_fires(self):
        report = check_predicate("ratio(stall_cycles, cycles) < 0.0")
        assert rules(report) == ["AN008"]

    def test_falsifiable_claim_is_clean(self):
        assert not check_predicate(
            "ratio(stall_cycles, cycles) < 0.5"
        ).findings


class TestAN009Tautology:
    def test_fires(self):
        report = check_predicate("cycles >= 0.0")
        assert rules(report) == ["AN009"]
        assert all(f.severity == "warning" for f in report.findings)

    def test_fires_nowhere_when_refutable(self):
        assert not check_predicate("cycles >= 100.0").findings


class TestAN010Misuse:
    @pytest.mark.parametrize(
        "source",
        [
            "frob(cycles)",  # unknown function
            "ratio(cycles)",  # wrong arity
            "cycles > 0.0",  # a metric must be numeric
            "cycles +",  # parse error
        ],
    )
    def test_fires_on_metric_misuse(self, source):
        assert rules(check_metric_expr(source)) == ["AN010"]

    def test_fires_on_numeric_assumption(self):
        assert rules(check_predicate("cycles")) == ["AN010"]

    def test_clean(self):
        assert not check_metric_expr("ratio(stall_cycles, cycles)").findings
        assert not check_predicate("ratio(llc_misses, cycles) < 0.1").findings


class TestShippedDeclarations:
    def test_default_tree_is_clean(self):
        assert not check_tree(default_tree()).findings

    def test_check_analysis_strict_ok(self):
        report = check_analysis()
        assert report.ok(strict=True), report.render()
        assert report.checked.get("assumptions", 0) >= 6

    def test_assumption_findings_name_their_owner(self):
        bad = Assumption(
            name="broken",
            claim="references a dangling metric",
            kind="pointwise",
            predicate="$nope > 0.0",
        )
        report = check_assumptions([bad])
        assert "AN005" in rules(report)
        assert all(
            f.file.startswith("assumption:broken") for f in report.findings
        )
