"""Refutation sweeps: architectural assumptions as testable declarations.

An :class:`Assumption` states something an architect believes about the
machine ("stall fraction grows with lock contention", "MPKI does not
depend on the schedule") as a DSL expression over event counts, plus the
*shape* of the claim — pointwise, monotone along an axis, or invariant
across an axis. :func:`sweep` runs a workload grid through the fabric
(cached, ``--jobs``-parallel, deterministic) and judges every assumption
against the ground-truth counts, returning one of three verdicts:

``supported``
    holds at every grid point with no slack consumed;
``refuted``
    fails somewhere — the verdict carries the concrete counterexample
    configuration, not just a boolean;
``refined``
    holds, but only within an observed slack that is tighter than the
    declared tolerance — the verdict reports the tightened bound the
    data actually supports.

The sweep is fail-closed: assumptions are statically checked
(:func:`repro.analysis.check.check_assumptions`) before any job is
dispatched or served from cache, so a malformed or unfalsifiable claim
(AN001..AN010) aborts the sweep exactly like a hazardous program aborts
the lint gate. A refutation of a statically *invalid* assumption is
meaningless; this layer refuses to produce one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.analysis.check import check_assumptions
from repro.analysis.expr import Expr, Value, env_from_counts, evaluate, parse
from repro.analysis.tree import counts_from_result
from repro.common.config import SimConfig
from repro.common.errors import ConfigError, LintError
from repro.common.tables import render_table

POINTWISE = "pointwise"
MONOTONE = "monotone"
INVARIANT = "invariant"

SUPPORTED = "supported"
REFUTED = "refuted"
REFINED = "refined"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Assumption:
    """One refutable claim about machine behaviour.

    ``kind`` selects the judging rule:

    * ``pointwise`` — ``predicate`` (boolean DSL) must hold at every grid
      point;
    * ``monotone`` — ``subject`` (numeric DSL) must move in ``direction``
      along the ``axis`` coordinate within every series of grid points
      that agree on all other coordinates; adverse movement up to
      ``tolerance`` is slack, beyond it a counterexample;
    * ``invariant`` — ``subject`` must agree (spread at most
      ``tolerance``) across the ``axis`` within every series.

    ``where`` scopes the claim: only grid points whose ``coords`` match
    every ``(key, value)`` pair are judged, so one sweep can host claims
    about different slices of the grid.

    ``metrics`` are local ``$name`` definitions visible to this
    assumption's expressions (on top of nothing — pass the standard set
    explicitly when wanted, so the checker sees exactly what runs).
    """

    name: str
    claim: str
    kind: str
    predicate: Optional[str] = None
    subject: Optional[str] = None
    axis: Optional[str] = None
    direction: str = "increasing"
    tolerance: float = 0.0
    where: Mapping[str, Any] = field(default_factory=dict)
    metrics: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (POINTWISE, MONOTONE, INVARIANT):
            raise ConfigError(
                f"assumption {self.name!r}: unknown kind {self.kind!r}"
            )
        if self.kind == POINTWISE and not self.predicate:
            raise ConfigError(
                f"assumption {self.name!r}: pointwise needs a predicate"
            )
        if self.kind in (MONOTONE, INVARIANT) and not (
            self.subject and self.axis
        ):
            raise ConfigError(
                f"assumption {self.name!r}: {self.kind} needs a subject "
                "expression and an axis"
            )
        if self.direction not in ("increasing", "decreasing"):
            raise ConfigError(
                f"assumption {self.name!r}: direction must be "
                "'increasing' or 'decreasing'"
            )
        if self.tolerance < 0:
            raise ConfigError(
                f"assumption {self.name!r}: tolerance must be >= 0"
            )


@dataclass(frozen=True)
class GridPoint:
    """One cell of the sweep grid: a fabric job plus its coordinates.

    ``coords`` are the logical sweep coordinates (``threads``, ``seed``,
    ``profile`` ...) that assumptions' ``axis`` names refer to; they are
    what a counterexample reports, independent of how ``kwargs`` encode
    them for the workload factory.
    """

    label: str
    workload: str
    config: SimConfig
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    coords: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    """The judgement of one assumption over one sweep."""

    assumption: str
    claim: str
    kind: str
    verdict: str
    detail: str
    points: int
    counterexample: Optional[dict[str, Any]] = None
    observed: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "assumption": self.assumption,
            "claim": self.claim,
            "kind": self.kind,
            "verdict": self.verdict,
            "detail": self.detail,
            "points": self.points,
            "observed": dict(self.observed),
        }
        if self.counterexample is not None:
            data["counterexample"] = dict(self.counterexample)
        return data


@dataclass(frozen=True)
class SweepResult:
    """All verdicts of one sweep plus its execution footprint."""

    verdicts: tuple[Verdict, ...]
    points: int
    cached_points: int
    failed_points: tuple[str, ...] = ()


# -- judging -----------------------------------------------------------------


def _value(expr: Expr, env: Mapping[str, float], metrics) -> Optional[float]:
    value = evaluate(expr, env, metrics)
    if value is None or isinstance(value, bool):
        return None
    return float(value)


def _series(
    points: Sequence[GridPoint], axis: str
) -> dict[tuple, list[int]]:
    """Group grid-point indices into series that differ only along
    ``axis``; each series is sorted by the axis coordinate."""
    groups: dict[tuple, list[int]] = {}
    for i, point in enumerate(points):
        if axis not in point.coords:
            continue
        key = tuple(
            sorted(
                (k, repr(v)) for k, v in point.coords.items() if k != axis
            )
        )
        groups.setdefault(key, []).append(i)
    for key, members in groups.items():
        members.sort(key=lambda i: points[i].coords[axis])
    return groups


def _coords(point: GridPoint) -> dict[str, Any]:
    return dict(point.coords)


def _judge_pointwise(
    assumption: Assumption,
    points: Sequence[GridPoint],
    envs: Sequence[Mapping[str, float]],
    metrics: Mapping[str, Expr],
) -> Verdict:
    predicate = parse(assumption.predicate or "")
    subject = parse(assumption.subject) if assumption.subject else None
    undefined = 0
    holds = 0
    for point, env in zip(points, envs):
        verdict: Value = evaluate(predicate, env, metrics)
        if verdict is None:
            undefined += 1
            continue
        if not verdict:
            counterexample = {"point": point.label, "coords": _coords(point)}
            if subject is not None:
                counterexample["subject"] = _value(subject, env, metrics)
            return Verdict(
                assumption=assumption.name,
                claim=assumption.claim,
                kind=assumption.kind,
                verdict=REFUTED,
                detail=f"predicate false at {point.label}",
                points=len(points),
                counterexample=counterexample,
                observed={"holds": holds, "undefined": undefined},
            )
        holds += 1
    if holds == 0:
        return Verdict(
            assumption=assumption.name,
            claim=assumption.claim,
            kind=assumption.kind,
            verdict=INCONCLUSIVE,
            detail="predicate undefined at every grid point",
            points=len(points),
            observed={"undefined": undefined},
        )
    return Verdict(
        assumption=assumption.name,
        claim=assumption.claim,
        kind=assumption.kind,
        verdict=SUPPORTED,
        detail=f"predicate holds at all {holds} defined point(s)",
        points=len(points),
        observed={"holds": holds, "undefined": undefined},
    )


def _judge_series(
    assumption: Assumption,
    points: Sequence[GridPoint],
    envs: Sequence[Mapping[str, float]],
    metrics: Mapping[str, Expr],
) -> Verdict:
    """Shared walk for monotone and invariant claims."""
    assert assumption.subject is not None and assumption.axis is not None
    subject = parse(assumption.subject)
    groups = _series(points, assumption.axis)
    sign = 1.0 if assumption.direction == "increasing" else -1.0
    worst_slack = 0.0  # adverse movement / spread actually observed
    worst_example: Optional[dict[str, Any]] = None
    compared = 0
    undefined = 0

    def sample(i: int) -> Optional[float]:
        return _value(subject, envs[i], metrics)

    for members in groups.values():
        valued = []
        for i in members:
            v = sample(i)
            if v is None:
                undefined += 1
            else:
                valued.append((i, v))
        if assumption.kind == MONOTONE:
            pairs = zip(valued, valued[1:])
        else:  # invariant: every value against the series extremes
            if len(valued) < 2:
                continue
            lo = min(valued, key=lambda iv: iv[1])
            hi = max(valued, key=lambda iv: iv[1])
            pairs = [(lo, hi)]
        for (i, vi), (j, vj) in pairs:
            compared += 1
            if assumption.kind == MONOTONE:
                slack = sign * (vi - vj)  # >0: moved against direction
            else:
                slack = abs(vj - vi)  # spread across the axis
            if slack > worst_slack:
                worst_slack = slack
                worst_example = {
                    "axis": assumption.axis,
                    "from": {
                        "point": points[i].label,
                        "coords": _coords(points[i]),
                        "value": vi,
                    },
                    "to": {
                        "point": points[j].label,
                        "coords": _coords(points[j]),
                        "value": vj,
                    },
                }
    if compared == 0:
        return Verdict(
            assumption=assumption.name,
            claim=assumption.claim,
            kind=assumption.kind,
            verdict=INCONCLUSIVE,
            detail=f"no comparable pairs along axis {assumption.axis!r}",
            points=len(points),
            observed={"undefined": undefined},
        )
    observed = {
        "pairs": compared,
        "undefined": undefined,
        "worst_slack": worst_slack,
        "tolerance": assumption.tolerance,
    }
    noun = (
        "adverse movement" if assumption.kind == MONOTONE else "spread"
    )
    if worst_slack > assumption.tolerance:
        return Verdict(
            assumption=assumption.name,
            claim=assumption.claim,
            kind=assumption.kind,
            verdict=REFUTED,
            detail=(
                f"{noun} {worst_slack:.6g} exceeds tolerance "
                f"{assumption.tolerance:.6g} along {assumption.axis!r}"
            ),
            points=len(points),
            counterexample=worst_example,
            observed=observed,
        )
    if worst_slack > 0.0:
        return Verdict(
            assumption=assumption.name,
            claim=assumption.claim,
            kind=assumption.kind,
            verdict=REFINED,
            detail=(
                f"holds, but only within {noun} {worst_slack:.6g}; the "
                f"declared tolerance {assumption.tolerance:.6g} can be "
                f"tightened to {worst_slack:.6g}"
            ),
            points=len(points),
            observed={**observed, "tightened_tolerance": worst_slack},
        )
    return Verdict(
        assumption=assumption.name,
        claim=assumption.claim,
        kind=assumption.kind,
        verdict=SUPPORTED,
        detail=f"holds with zero {noun} over {compared} pair(s)",
        points=len(points),
        observed=observed,
    )


def judge(
    assumption: Assumption,
    points: Sequence[GridPoint],
    envs: Sequence[Mapping[str, float]],
) -> Verdict:
    """Judge one assumption against evaluated grid environments."""
    if assumption.where:
        scoped = [
            (p, e)
            for p, e in zip(points, envs)
            if all(
                p.coords.get(k) == v for k, v in assumption.where.items()
            )
        ]
        points = [p for p, _ in scoped]
        envs = [e for _, e in scoped]
    metrics = {name: parse(src) for name, src in assumption.metrics.items()}
    if assumption.kind == POINTWISE:
        return _judge_pointwise(assumption, points, envs, metrics)
    return _judge_series(assumption, points, envs, metrics)


# -- the sweep ---------------------------------------------------------------


def precheck(
    assumptions: Iterable[Assumption], config: Optional[SimConfig] = None
):
    """Fail-closed static gate: raise LintError unless every assumption
    passes its AN checks at strict severity (warnings included — an
    unfalsifiable claim must not reach the fabric)."""
    assumptions = list(assumptions)
    # AN007 (more events than the PMU co-schedules) guards measurements
    # that would have to be multiplexed; a sweep judges the engine's
    # ground-truth counts, which never are, so only AN007 is dropped.
    report = check_assumptions(assumptions, config=config).suppress({"AN007"})
    if not report.ok(strict=True):
        raise LintError(
            "refutation sweep rejected before dispatch: "
            f"{report.summary_line()}\n"
            + "\n".join("  " + f.render() for f in report.findings)
        )
    return report


def sweep(
    assumptions: Sequence[Assumption],
    grid: Sequence[GridPoint],
    *,
    jobs: int | None = None,
    static_check: bool = True,
) -> SweepResult:
    """Run the grid through the fabric and judge every assumption.

    Deterministic: outcomes come back in grid order and judging is pure,
    so serial and ``jobs``-parallel sweeps produce identical verdicts
    (the fabric's cache makes repeat sweeps free).
    """
    from repro.fabric import RunJob, run_many

    if static_check:
        precheck(assumptions, config=grid[0].config if grid else None)
    run_jobs = [
        RunJob(
            workload=point.workload,
            config=point.config,
            kwargs=dict(point.kwargs),
            label=point.label,
        )
        for point in grid
    ]
    outcomes = run_many(run_jobs, jobs_n=jobs)
    kept_points: list[GridPoint] = []
    envs: list[dict[str, float]] = []
    failed: list[str] = []
    cached = 0
    for point, outcome in zip(grid, outcomes):
        if getattr(outcome, "result", None) is None:
            failed.append(point.label)
            continue
        cached += 1 if outcome.cached else 0
        kept_points.append(point)
        envs.append(env_from_counts(counts_from_result(outcome.result)))
    verdicts = tuple(
        judge(assumption, kept_points, envs) for assumption in assumptions
    )
    return SweepResult(
        verdicts=verdicts,
        points=len(grid),
        cached_points=cached,
        failed_points=tuple(failed),
    )


def verdict_report(result: SweepResult) -> str:
    """Render a sweep's verdicts as a table."""
    rows = []
    for v in result.verdicts:
        rows.append([v.assumption, v.kind, v.verdict, v.points, v.detail])
    table = render_table(
        ["assumption", "kind", "verdict", "points", "detail"],
        rows,
        title=(
            f"refutation sweep: {len(result.verdicts)} assumption(s) over "
            f"{result.points} grid point(s) ({result.cached_points} cached)"
        ),
        align_right_from=3,
    )
    if result.failed_points:
        table += "\nfailed points: " + ", ".join(result.failed_points)
    return table
