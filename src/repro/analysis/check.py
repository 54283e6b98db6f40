"""Static analysis of metric/assumption expressions: the AN rules.

The third lint front end (after the ML program walker and the SA repo
self-check): every declared metric, metric-tree node and refutable
assumption is validated against the machine model *before* anything runs,
in the same :class:`~repro.lint.findings.Finding`/`LintReport` machinery,
so the fail-closed gate and ``python -m repro.lint analysis`` reject
malformed analysis declarations exactly like hazardous programs.

Rule catalog (docs/analysis.md):

========  ========  =====================================================
AN001     error     unknown event for the configured hw model
AN002     error     unit/dimension mismatch (adding cycles to instructions)
AN003     error     unguarded division whose denominator can be zero
AN004     error     cyclic metric reference
AN005     error     dangling metric reference
AN006     error     tree children do not provably partition their parent
AN007     warning   more events than the PMU can co-schedule (multiplexing
                    hazard; the dynamic twin of ML007 slot exhaustion)
AN008     error     unsatisfiable predicate (interval evaluation)
AN009     warning   tautological predicate (vacuous: nothing to refute)
AN010     error     parse/type misuse (non-boolean assumption, boolean
                    metric, unknown function, wrong arity)
========  ========  =====================================================

Findings carry ``file`` = the declaration owner (``metric:$name``,
``tree:<tree>/<node>``, ``assumption:<name>``) and ``line`` = the 1-based
*column* in the expression source.

The checker's soundness contract, property-tested in
``tests/properties``: an expression this module passes never raises when
evaluated against any count environment — undefined values flow as
``None``, never as ZeroDivisionError/KeyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Union

from repro.analysis.expr import (
    COUNT_INTERVAL,
    DIMENSIONLESS,
    FUNCTIONS,
    BinOp,
    BoolOp,
    Call,
    Cmp,
    EventRef,
    Expr,
    ExprError,
    Interval,
    MetricRef,
    Neg,
    Node,
    Not,
    Num,
    Unit,
    event_unit,
    metric_refs,
    parse,
    referenced_events,
)
from repro.common.config import SimConfig
from repro.lint.findings import ERROR, WARNING, Finding, LintReport

TRUE = "true"
FALSE = "false"
UNKNOWN = "unknown"

_FULL = Interval(-math.inf, math.inf)


@dataclass(frozen=True)
class Static:
    """Abstract value of one sub-expression."""

    kind: str                     #: "num" | "bool"
    unit: Optional[Unit]          #: None for bool results
    interval: Interval            #: numeric bounds (full range for bool)
    truth: str = UNKNOWN          #: bool results: TRUE / FALSE / UNKNOWN
    may_undef: bool = False       #: can evaluate to None at runtime
    const: bool = True            #: pure literal (unit-polymorphic)
    poisoned: bool = False        #: an error was already reported below


_POISON = Static(
    kind="num",
    unit=None,
    interval=_FULL,
    may_undef=True,
    const=False,
    poisoned=True,
)


def _units_compatible(left: Static, right: Static) -> bool:
    """Additive/comparative compatibility: equal units, or either side a
    pure numeric literal (constants adopt the other operand's unit)."""
    if left.unit is None or right.unit is None:
        return True  # poisoned below; don't cascade
    return left.const or right.const or left.unit == right.unit


def _common_unit(left: Static, right: Static) -> Optional[Unit]:
    if left.unit is None or right.unit is None:
        return None
    return right.unit if left.const else left.unit


class _ExprChecker:
    """One expression's static walk; findings land on ``report``."""

    def __init__(
        self,
        owner: str,
        report: LintReport,
        metrics: Mapping[str, Expr],
        metric_statics: Mapping[str, Static],
        config: SimConfig,
    ) -> None:
        self.owner = owner
        self.report = report
        self.metrics = metrics
        self.metric_statics = metric_statics
        self.config = config

    def finding(
        self,
        rule: str,
        severity: str,
        node: Node,
        message: str,
        fix_hint: str = "",
    ) -> None:
        self.report.add(
            Finding(
                rule=rule,
                severity=severity,
                message=message,
                fix_hint=fix_hint,
                file=self.owner,
                line=node.pos + 1,
            )
        )

    # -- dispatch ----------------------------------------------------------

    def check(self, node: Node) -> Static:
        if isinstance(node, Num):
            return Static(
                kind="num",
                unit=DIMENSIONLESS,
                interval=Interval(node.value, node.value),
            )
        if isinstance(node, EventRef):
            return self.check_event(node)
        if isinstance(node, MetricRef):
            return self.check_metric_ref(node)
        if isinstance(node, Neg):
            operand = self.require_num(node.operand, "unary -")
            return replace(
                operand,
                interval=operand.interval.neg(),
                truth=UNKNOWN,
            )
        if isinstance(node, BinOp):
            return self.check_binop(node)
        if isinstance(node, Cmp):
            return self.check_cmp(node)
        if isinstance(node, (BoolOp, Not)):
            return self.check_bool(node)
        if isinstance(node, Call):
            return self.check_call(node)
        raise ExprError(f"unknown AST node {type(node).__name__}")

    def check_event(self, node: EventRef) -> Static:
        if node.event is None:
            self.finding(
                "AN001",
                ERROR,
                node,
                f"unknown event {node.name!r} for the configured hw model",
                fix_hint="use an Event value name (see repro.hw.events) or "
                "a $metric reference",
            )
            return _POISON
        if not node.event.schedulable:
            self.finding(
                "AN007",
                WARNING,
                node,
                f"event {node.name!r} cannot be programmed on any of this "
                "model's counters",
                fix_hint="drop the event or extend the PMU model",
            )
        return Static(
            kind="num",
            unit=event_unit(node.event),
            interval=COUNT_INTERVAL,
            const=False,
        )

    def check_metric_ref(self, node: MetricRef) -> Static:
        static = self.metric_statics.get(node.name)
        if static is None:
            self.finding(
                "AN005",
                ERROR,
                node,
                f"dangling metric reference ${node.name}: no such metric "
                "is declared",
                fix_hint="declare the metric or fix the reference",
            )
            return _POISON
        return static

    def require_num(self, node: Node, context: str) -> Static:
        static = self.check(node)
        if static.kind != "num" and not static.poisoned:
            self.finding(
                "AN010",
                ERROR,
                node,
                f"{context} needs a numeric operand, got a predicate",
                fix_hint="wrap the comparison in guard()/arithmetic only "
                "where a number is expected",
            )
            return _POISON
        return static

    def require_bool(self, node: Node, context: str) -> Static:
        static = self.check(node)
        if static.kind != "bool" and not static.poisoned:
            self.finding(
                "AN010",
                ERROR,
                node,
                f"{context} needs a boolean operand, got a number",
                fix_hint="compare the number against a bound first",
            )
            return replace(_POISON, kind="bool", truth=UNKNOWN)
        return static

    def check_binop(self, node: BinOp) -> Static:
        left = self.require_num(node.left, f"operator {node.op!r}")
        right = self.require_num(node.right, f"operator {node.op!r}")
        poisoned = left.poisoned or right.poisoned
        may_undef = left.may_undef or right.may_undef
        const = left.const and right.const
        if node.op in ("+", "-"):
            if not _units_compatible(left, right):
                self.finding(
                    "AN002",
                    ERROR,
                    node,
                    f"unit mismatch: cannot apply {node.op!r} to "
                    f"{left.unit} and {right.unit}",
                    fix_hint="normalize both sides to the same unit "
                    "(e.g. divide by cycles or instructions first)",
                )
                return _POISON
            interval = (
                left.interval.add(right.interval)
                if node.op == "+"
                else left.interval.sub(right.interval)
            )
            return Static(
                kind="num",
                unit=_common_unit(left, right),
                interval=interval,
                may_undef=may_undef,
                const=const,
                poisoned=poisoned,
            )
        if node.op == "*":
            unit = (
                None
                if left.unit is None or right.unit is None
                else left.unit.mul(right.unit)
            )
            return Static(
                kind="num",
                unit=unit,
                interval=left.interval.mul(right.interval),
                may_undef=may_undef,
                const=const,
                poisoned=poisoned,
            )
        # division: the only operator that can manufacture "undefined"
        if right.interval.contains_zero() and not right.poisoned:
            self.finding(
                "AN003",
                ERROR,
                node,
                "unguarded division: the denominator can be zero for "
                "some count vector",
                fix_hint="use ratio(num, den) (undefined on zero) or "
                "guard(..., default)",
            )
            poisoned = True
        unit = (
            None
            if left.unit is None or right.unit is None
            else left.unit.div(right.unit)
        )
        return Static(
            kind="num",
            unit=unit,
            interval=left.interval.div(right.interval),
            may_undef=may_undef or right.interval.contains_zero(),
            const=const,
            poisoned=poisoned,
        )

    def check_cmp(self, node: Cmp) -> Static:
        left = self.require_num(node.left, f"comparison {node.op!r}")
        right = self.require_num(node.right, f"comparison {node.op!r}")
        poisoned = left.poisoned or right.poisoned
        if not _units_compatible(left, right):
            self.finding(
                "AN002",
                ERROR,
                node,
                f"unit mismatch: comparing {left.unit} against {right.unit}",
                fix_hint="compare like against like — form a ratio() to "
                "reach a dimensionless quantity first",
            )
            poisoned = True
        may_undef = left.may_undef or right.may_undef
        truth = UNKNOWN
        if not poisoned:
            truth = _compare_intervals(node.op, left.interval, right.interval)
        return Static(
            kind="bool",
            unit=None,
            interval=_FULL,
            truth=truth,
            may_undef=may_undef,
            const=False,
            poisoned=poisoned,
        )

    def check_bool(self, node: Union[BoolOp, Not]) -> Static:
        if isinstance(node, Not):
            operand = self.require_bool(node.operand, "'not'")
            truth = {TRUE: FALSE, FALSE: TRUE}.get(operand.truth, UNKNOWN)
            return replace(operand, truth=truth)
        left = self.require_bool(node.left, f"{node.op!r}")
        right = self.require_bool(node.right, f"{node.op!r}")
        if node.op == "and":
            if FALSE in (left.truth, right.truth):
                truth = FALSE
            elif left.truth == right.truth == TRUE:
                truth = TRUE
            else:
                truth = UNKNOWN
        else:
            if TRUE in (left.truth, right.truth):
                truth = TRUE
            elif left.truth == right.truth == FALSE:
                truth = FALSE
            else:
                truth = UNKNOWN
        return Static(
            kind="bool",
            unit=None,
            interval=_FULL,
            truth=truth,
            may_undef=left.may_undef or right.may_undef,
            const=False,
            poisoned=left.poisoned or right.poisoned,
        )

    def check_call(self, node: Call) -> Static:
        arity = FUNCTIONS.get(node.func)
        if arity is None:
            self.finding(
                "AN010",
                ERROR,
                node,
                f"unknown function {node.func!r}",
                fix_hint=f"one of: {', '.join(sorted(FUNCTIONS))}",
            )
            return _POISON
        if len(node.args) != arity:
            self.finding(
                "AN010",
                ERROR,
                node,
                f"{node.func}() takes {arity} argument(s), got "
                f"{len(node.args)}",
            )
            return _POISON
        if node.func == "guard":
            value = self.require_num(node.args[0], "guard()")
            default = self.require_num(node.args[1], "guard() default")
            if not _units_compatible(value, default):
                self.finding(
                    "AN002",
                    ERROR,
                    node,
                    f"unit mismatch: guard() default has unit "
                    f"{default.unit}, value has {value.unit}",
                )
                return _POISON
            return Static(
                kind="num",
                unit=_common_unit(value, default),
                interval=value.interval.hull(default.interval),
                may_undef=default.may_undef,
                const=False,
                poisoned=value.poisoned or default.poisoned,
            )
        args = [
            self.require_num(arg, f"{node.func}()") for arg in node.args
        ]
        poisoned = any(a.poisoned for a in args)
        may_undef = any(a.may_undef for a in args)
        if node.func == "penalty":
            count, weight = args
            if not weight.const and not weight.poisoned:
                self.finding(
                    "AN010",
                    ERROR,
                    node,
                    "penalty() weight must be a literal constant "
                    "(cycles per event occurrence)",
                    fix_hint="inline the penalty as a number: "
                    "penalty(<event>, <cycles per occurrence>)",
                )
                return _POISON
            return Static(
                kind="num",
                unit=Unit.base("cycles"),
                interval=count.interval.mul(weight.interval),
                may_undef=may_undef,
                const=False,
                poisoned=poisoned,
            )
        if node.func == "ratio":
            num, den = args
            unit = (
                None
                if num.unit is None or den.unit is None
                else num.unit.div(den.unit)
            )
            return Static(
                kind="num",
                unit=unit,
                interval=num.interval.div(den.interval),
                may_undef=may_undef or den.interval.contains_zero(),
                const=False,
                poisoned=poisoned,
            )
        if node.func == "per_kilo_insn":
            (arg,) = args
            unit = (
                None
                if arg.unit is None
                else arg.unit.mul(DIMENSIONLESS).div(
                    Unit.base("instructions")
                )
            )
            scaled = arg.interval.mul(Interval(1000.0, 1000.0))
            return Static(
                kind="num",
                unit=unit,
                interval=scaled.div(COUNT_INTERVAL),
                may_undef=True,  # undefined when no instructions retired
                const=False,
                poisoned=poisoned,
            )
        # min / max
        left, right = args
        if not _units_compatible(left, right):
            self.finding(
                "AN002",
                ERROR,
                node,
                f"unit mismatch: {node.func}() over {left.unit} and "
                f"{right.unit}",
            )
            return _POISON
        if node.func == "min":
            interval = Interval(
                min(left.interval.lo, right.interval.lo),
                min(left.interval.hi, right.interval.hi),
            )
        else:
            interval = Interval(
                max(left.interval.lo, right.interval.lo),
                max(left.interval.hi, right.interval.hi),
            )
        return Static(
            kind="num",
            unit=_common_unit(left, right),
            interval=interval,
            may_undef=may_undef,
            const=left.const and right.const,
            poisoned=poisoned,
        )


def _compare_intervals(op: str, lhs: Interval, rhs: Interval) -> str:
    """Definite verdict of ``lhs <op> rhs`` over closed intervals, or
    UNKNOWN when the ranges overlap."""
    if op in ("<", ">"):
        strict_lt = lhs.hi < rhs.lo
        never_lt = lhs.lo >= rhs.hi
        if op == ">":
            strict_lt, never_lt = rhs.hi < lhs.lo, rhs.lo >= lhs.hi
        if strict_lt:
            return TRUE
        if never_lt:
            return FALSE
        return UNKNOWN
    if op in ("<=", ">="):
        le = lhs.hi <= rhs.lo
        never_le = lhs.lo > rhs.hi
        if op == ">=":
            le, never_le = rhs.hi <= lhs.lo, rhs.lo > lhs.hi
        if le:
            return TRUE
        if never_le:
            return FALSE
        return UNKNOWN
    disjoint = lhs.hi < rhs.lo or rhs.hi < lhs.lo
    point = (
        lhs.lo == lhs.hi == rhs.lo == rhs.hi and math.isfinite(lhs.lo)
    )
    if op == "==":
        if point:
            return TRUE
        if disjoint:
            return FALSE
        return UNKNOWN
    if disjoint:
        return TRUE
    if point:
        return FALSE
    return UNKNOWN


# -- public entry points -----------------------------------------------------


def _as_expr(source: Union[str, Expr]) -> Expr:
    return source if isinstance(source, Expr) else parse(source)


def _default_config(config: Optional[SimConfig]) -> SimConfig:
    return config if config is not None else SimConfig()


def _parse_or_report(
    source: Union[str, Expr], owner: str, report: LintReport
) -> Optional[Expr]:
    try:
        return _as_expr(source)
    except ExprError as exc:
        report.add(
            Finding(
                rule="AN010",
                severity=ERROR,
                message=f"expression does not parse: {exc}",
                file=owner,
                line=exc.pos + 1,
            )
        )
        return None


def _check_multiplexing(
    expr: Expr,
    owner: str,
    report: LintReport,
    metrics: Mapping[str, Expr],
    config: SimConfig,
) -> None:
    """AN007: one measurement must fit the PMU's programmable counters.

    The dynamic twin of ML007 (counter-slot exhaustion): an expression
    needing more simultaneously counted events than ``pmu.n_counters``
    can only be measured by time-multiplexing, whose scaled estimates
    alias with program phases (E13) — exactly what this reproduction
    refuses to do.
    """
    needed = sorted(referenced_events(expr, metrics))
    n_counters = config.machine.pmu.n_counters
    if len(needed) > n_counters:
        report.add(
            Finding(
                rule="AN007",
                severity=WARNING,
                message=(
                    f"references {len(needed)} distinct events "
                    f"({', '.join(needed)}) but the model co-schedules "
                    f"at most {n_counters} (ML007 would reject the "
                    "measuring program)"
                ),
                fix_hint="split the metric/predicate into sub-expressions "
                f"of at most {n_counters} events each",
                file=owner,
                line=expr.root.pos + 1,
            )
        )


def _resolve_metric_statics(
    metrics: Mapping[str, Expr],
    report: LintReport,
    config: SimConfig,
    owner: str = "metric",
) -> dict[str, Static]:
    """Check a metric set: cycles (AN004) first, then each metric in
    dependency order so references see their target's static value."""
    statics: dict[str, Static] = {}
    state: dict[str, str] = {}  # name -> "visiting" | "done"

    def visit(name: str, chain: tuple[str, ...]) -> None:
        if state.get(name) == "done":
            return
        if state.get(name) == "visiting":
            cycle = chain[chain.index(name):] + (name,)
            expr = metrics[name]
            report.add(
                Finding(
                    rule="AN004",
                    severity=ERROR,
                    message=(
                        "cyclic metric reference: "
                        + " -> ".join(f"${n}" for n in cycle)
                    ),
                    fix_hint="break the cycle; metrics must form a DAG",
                    file=f"{owner}:${name}",
                    line=expr.root.pos + 1,
                )
            )
            statics[name] = _POISON
            state[name] = "done"
            return
        state[name] = "visiting"
        expr = metrics[name]
        for ref in metric_refs(expr):
            if ref in metrics:
                visit(ref, chain + (name,))
        if state[name] == "done":  # poisoned by a cycle through us
            return
        checker = _ExprChecker(
            f"{owner}:${name}", report, metrics, statics, config
        )
        static = checker.check(expr.root)
        if static.kind != "num" and not static.poisoned:
            report.add(
                Finding(
                    rule="AN010",
                    severity=ERROR,
                    message=f"metric ${name} must be numeric, not a "
                    "predicate",
                    file=f"{owner}:${name}",
                    line=expr.root.pos + 1,
                )
            )
            static = _POISON
        statics[name] = static
        state[name] = "done"
        _check_multiplexing(
            expr, f"{owner}:${name}", report, metrics, config
        )

    for name in metrics:
        visit(name, ())
    return statics


def check_metrics(
    metrics: Mapping[str, Union[str, Expr]],
    config: Optional[SimConfig] = None,
    owner: str = "metric",
) -> LintReport:
    """AN-check a set of named metric definitions."""
    config = _default_config(config)
    report = LintReport()
    parsed: dict[str, Expr] = {}
    for name, source in metrics.items():
        expr = _parse_or_report(source, f"{owner}:${name}", report)
        if expr is not None:
            parsed[name] = expr
    _resolve_metric_statics(parsed, report, config, owner=owner)
    report.note_checked("metrics", len(metrics))
    return report


def check_predicate(
    source: Union[str, Expr],
    metrics: Mapping[str, Union[str, Expr]] | None = None,
    config: Optional[SimConfig] = None,
    owner: str = "predicate",
) -> LintReport:
    """AN-check one boolean predicate (an assumption's refutable claim),
    including satisfiability (AN008) and tautology (AN009) via interval
    evaluation over event bounds."""
    config = _default_config(config)
    report = LintReport()
    parsed: dict[str, Expr] = {}
    for name, metric_source in (metrics or {}).items():
        expr = _parse_or_report(metric_source, f"metric:${name}", report)
        if expr is not None:
            parsed[name] = expr
    statics = _resolve_metric_statics(parsed, report, config)
    predicate = _parse_or_report(source, owner, report)
    if predicate is None:
        return report
    checker = _ExprChecker(owner, report, parsed, statics, config)
    static = checker.check(predicate.root)
    if static.kind != "bool" and not static.poisoned:
        report.add(
            Finding(
                rule="AN010",
                severity=ERROR,
                message="an assumption must be a predicate (boolean), "
                "not a bare number",
                fix_hint="compare the metric against a bound",
                file=owner,
                line=predicate.root.pos + 1,
            )
        )
    elif static.truth == FALSE:
        report.add(
            Finding(
                rule="AN008",
                severity=ERROR,
                message="unsatisfiable predicate: false for every "
                "possible count vector (interval evaluation)",
                fix_hint="the claim can never hold; fix the bound or the "
                "expression",
                file=owner,
                line=predicate.root.pos + 1,
            )
        )
    elif static.truth == TRUE and not static.may_undef:
        report.add(
            Finding(
                rule="AN009",
                severity=WARNING,
                message="tautological predicate: true for every possible "
                "count vector — running it refutes nothing",
                fix_hint="tighten the bound until the claim is falsifiable",
                file=owner,
                line=predicate.root.pos + 1,
            )
        )
    _check_multiplexing(predicate, owner, report, parsed, config)
    report.note_checked("predicates")
    return report


def check_metric_expr(
    source: Union[str, Expr],
    metrics: Mapping[str, Union[str, Expr]] | None = None,
    config: Optional[SimConfig] = None,
    owner: str = "metric:<anonymous>",
) -> LintReport:
    """AN-check one numeric metric expression against a metric set."""
    config = _default_config(config)
    report = LintReport()
    parsed: dict[str, Expr] = {}
    for name, metric_source in (metrics or {}).items():
        expr = _parse_or_report(metric_source, f"metric:${name}", report)
        if expr is not None:
            parsed[name] = expr
    statics = _resolve_metric_statics(parsed, report, config)
    expr = _parse_or_report(source, owner, report)
    if expr is None:
        return report
    checker = _ExprChecker(owner, report, parsed, statics, config)
    static = checker.check(expr.root)
    if static.kind != "num" and not static.poisoned:
        report.add(
            Finding(
                rule="AN010",
                severity=ERROR,
                message="a metric must be numeric, not a predicate",
                file=owner,
                line=expr.root.pos + 1,
            )
        )
    _check_multiplexing(expr, owner, report, parsed, config)
    report.note_checked("metrics")
    return report


def check_tree(tree: object, config: Optional[SimConfig] = None) -> LintReport:
    """AN-check a :class:`repro.analysis.tree.MetricTree`: every node
    expression, plus the partition rule AN006 — each non-leaf node needs
    exactly one residual child (computed as parent minus siblings) so its
    children provably sum to the parent, and child units must match."""
    from repro.analysis.tree import MetricNode, MetricTree

    assert isinstance(tree, MetricTree)
    config = _default_config(config)
    report = LintReport()
    metrics = {
        name: _as_expr(source) for name, source in tree.metrics.items()
    }
    statics = _resolve_metric_statics(metrics, report, config)

    def node_owner(node: MetricNode) -> str:
        return f"tree:{tree.name}/{node.name}"

    def visit(node: MetricNode) -> None:
        if node.expr is not None:
            expr = _parse_or_report(node.expr, node_owner(node), report)
            if expr is not None:
                checker = _ExprChecker(
                    node_owner(node), report, metrics, statics, config
                )
                static = checker.check(expr.root)
                if static.kind != "num" and not static.poisoned:
                    report.add(
                        Finding(
                            rule="AN010",
                            severity=ERROR,
                            message="a tree node's value must be numeric",
                            file=node_owner(node),
                            line=expr.root.pos + 1,
                        )
                    )
                if (
                    static.unit is not None
                    and not static.unit.dimensionless
                    and not static.poisoned
                ):
                    report.add(
                        Finding(
                            rule="AN006",
                            severity=ERROR,
                            message=(
                                f"node value has unit {static.unit}; tree "
                                "nodes are fractions of total cycles and "
                                "must be dimensionless"
                            ),
                            fix_hint="divide by cycles (ratio(x, cycles))",
                            file=node_owner(node),
                            line=expr.root.pos + 1,
                        )
                    )
                _check_multiplexing(
                    expr, node_owner(node), report, metrics, config
                )
        if node.children:
            residuals = [c for c in node.children if c.expr is None]
            if len(residuals) != 1:
                report.add(
                    Finding(
                        rule="AN006",
                        severity=ERROR,
                        message=(
                            f"children of {node.name!r} do not provably "
                            f"partition it: found {len(residuals)} "
                            "residual children, need exactly 1"
                        ),
                        fix_hint="give exactly one child expr=None; it "
                        "absorbs parent - sum(siblings)",
                        file=node_owner(node),
                        line=1,
                    )
                )
            for child in node.children:
                visit(child)

    if tree.root.expr is not None:
        report.add(
            Finding(
                rule="AN006",
                severity=ERROR,
                message="the root node's value is the whole run (1.0) and "
                "must not carry an expression",
                file=f"tree:{tree.name}/{tree.root.name}",
                line=1,
            )
        )
    visit(tree.root)
    report.note_checked("trees")
    return report


def check_assumptions(
    assumptions: Iterable[object], config: Optional[SimConfig] = None
) -> LintReport:
    """AN-check declared :class:`repro.analysis.refute.Assumption` sets."""
    from repro.analysis.refute import Assumption

    config = _default_config(config)
    report = LintReport()
    n = 0
    for assumption in assumptions:
        assert isinstance(assumption, Assumption)
        n += 1
        owner = f"assumption:{assumption.name}"
        if assumption.predicate is not None:
            report.merge(
                check_predicate(
                    assumption.predicate,
                    metrics=assumption.metrics,
                    config=config,
                    owner=owner,
                )
            )
        if assumption.subject is not None:
            report.merge(
                check_metric_expr(
                    assumption.subject,
                    metrics=assumption.metrics,
                    config=config,
                    owner=f"{owner}/subject",
                )
            )
    report.checked.pop("predicates", None)
    report.checked.pop("metrics", None)
    report.note_checked("assumptions", n)
    return report


def check_analysis(config: Optional[SimConfig] = None) -> LintReport:
    """The ``analysis`` lint target: every analysis declaration that ships
    with the repo — the standard metric set, the top-down bottleneck tree,
    and E21's refutable assumptions — must pass its static checks. The
    runner merges this into the fail-closed gate under ``--lint``/
    ``--lint-strict``."""
    from repro.analysis.tree import STANDARD_METRICS, default_tree
    from repro.experiments.e21_refutation import declared_assumptions

    config = _default_config(config)
    report = check_metrics(STANDARD_METRICS, config=config)
    report.merge(check_tree(default_tree(), config=config))
    report.merge(check_assumptions(declared_assumptions(), config=config))
    return report
