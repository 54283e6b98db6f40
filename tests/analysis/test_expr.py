"""Tests of the declarative metric expression language."""

import pytest

from repro.analysis.expr import (
    Expr,
    ExprError,
    Interval,
    Unit,
    env_from_counts,
    evaluate,
    metric_refs,
    parse,
    referenced_events,
)
from repro.hw.events import Event

ENV = {
    "cycles": 1_000_000.0,
    "instructions": 1_500_000.0,
    "llc_misses": 3_000.0,
    "llc_references": 9_000.0,
    "branches": 300_000.0,
    "branch_misses": 15_000.0,
    "stall_cycles": 250_000.0,
}


def ev(source: str, env=None, metrics=None):
    parsed = None if metrics is None else {
        name: parse(src) for name, src in metrics.items()
    }
    return evaluate(parse(source), ENV if env is None else env, parsed)


class TestParse:
    def test_precedence(self):
        # * binds tighter than +, comparisons tighter than and/or
        assert ev("2.0 + 3.0 * 4.0") == 14.0
        assert ev("2.0 < 3.0 and 4.0 > 5.0") is False
        assert ev("not 2.0 > 3.0") is True

    def test_parens_and_unary_minus(self):
        assert ev("(2.0 + 3.0) * -2.0") == -10.0

    def test_parse_errors_carry_positions(self):
        with pytest.raises(ExprError):
            parse("cycles +")
        with pytest.raises(ExprError):
            parse("")
        with pytest.raises(ExprError):
            parse("ratio(cycles,,instructions)")

    def test_parse_returns_expr(self):
        assert isinstance(parse("cycles"), Expr)


class TestEvaluate:
    def test_event_arithmetic(self):
        assert ev("instructions / cycles") == 1.5
        assert ev("cycles - stall_cycles") == 750_000.0

    def test_ratio_undefined_on_zero(self):
        assert ev("ratio(llc_misses, cycles)") == pytest.approx(0.003)
        assert ev("ratio(llc_misses, cycles)", {"llc_misses": 1.0, "cycles": 0.0}) is None
        assert ev("llc_misses / cycles", {"llc_misses": 1.0, "cycles": 0.0}) is None

    def test_guard_supplies_default(self):
        assert ev("guard(ratio(llc_misses, cycles), 0.0)",
                  {"llc_misses": 1.0, "cycles": 0.0}) == 0.0

    def test_per_kilo_insn(self):
        assert ev("per_kilo_insn(llc_misses)") == pytest.approx(2.0)
        assert ev("per_kilo_insn(llc_misses)", {"llc_misses": 5.0}) is None

    def test_min_max(self):
        assert ev("min(cycles, instructions)") == 1_000_000.0
        assert ev("max(cycles, instructions)") == 1_500_000.0

    def test_missing_event_is_undefined_not_keyerror(self):
        assert ev("dtlb_misses + 1.0") is None

    def test_kleene_three_valued_logic(self):
        # undefined is "unknown": it can be absorbed, never coerced
        assert ev("dtlb_misses > 0.0 and cycles < 0.0") is False
        assert ev("dtlb_misses > 0.0 or cycles > 0.0") is True
        assert ev("dtlb_misses > 0.0 and cycles > 0.0") is None
        assert ev("not dtlb_misses > 0.0") is None

    def test_metric_resolution(self):
        metrics = {"ipc": "ratio(instructions, cycles)"}
        assert ev("$ipc * 2.0", metrics=metrics) == 3.0

    def test_dangling_metric_raises(self):
        with pytest.raises(ExprError):
            ev("$nope")

    def test_cyclic_metric_raises(self):
        metrics = {"a": "$b", "b": "$a"}
        with pytest.raises(ExprError):
            ev("$a", metrics=metrics)


class TestIntrospection:
    def test_metric_refs_in_order(self):
        expr = parse("$cpi + $ipc + $cpi")
        assert metric_refs(expr) == ("cpi", "ipc")

    def test_referenced_events_transitive(self):
        metrics = {"ipc": parse("ratio(instructions, cycles)")}
        events = referenced_events(parse("$ipc < 1.0"), metrics)
        assert events == frozenset({"instructions", "cycles"})

    def test_per_kilo_insn_implies_instructions(self):
        events = referenced_events(parse("per_kilo_insn(llc_misses)"))
        assert "instructions" in events


class TestUnits:
    def test_unit_algebra(self):
        cycles = Unit.base("cycles")
        insns = Unit.base("instructions")
        assert cycles.div(cycles).dimensionless
        assert cycles.div(insns) != insns.div(cycles)
        assert cycles.mul(insns) == insns.mul(cycles)

    def test_interval_division_with_zero(self):
        assert Interval(1.0, 2.0).div(Interval(0.0, 4.0)).hi == float("inf")


class TestEnvFromCounts:
    def test_absent_events_are_true_zeros(self):
        env = env_from_counts({Event.CYCLES: 10})
        assert env["cycles"] == 10.0
        assert env["llc_misses"] == 0.0
        assert set(env) == {e.value for e in Event}
