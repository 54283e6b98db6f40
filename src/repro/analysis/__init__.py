"""Post-run analyses: synchronization, accuracy, metrics and the top-down
bottleneck tree."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.accuracy import (
        AttributionScore,
        ErrorSummary,
        relative_error,
        score_attribution,
        summarize_errors,
    )
    from repro.analysis.compare import (
        LockDelta,
        RunComparison,
        compare_runs,
        render_comparison,
    )
    from repro.analysis.check import (
        check_analysis,
        check_assumptions,
        check_metric_expr,
        check_metrics,
        check_predicate,
        check_tree,
    )
    from repro.analysis.expr import (
        DIMENSIONLESS,
        Expr,
        ExprError,
        Unit,
        env_from_counts,
        evaluate,
        metric_refs,
        parse,
        referenced_events,
    )
    from repro.analysis.refute import (
        Assumption,
        GridPoint,
        SweepResult,
        Verdict,
        judge,
        sweep,
        verdict_report,
    )
    from repro.analysis.reports import (
        UserKernelBreakdown,
        bottleneck_report,
        result_to_dict,
        result_to_json,
        run_report,
        user_kernel_breakdown,
    )
    from repro.analysis.tree import (
        STANDARD_METRICS,
        MetricNode,
        MetricTree,
        classify_counts,
        classify_named_counts,
        classify_result,
        default_tree,
        implications_report,
    )
    from repro.analysis.timeseries import (
        IntervalSample,
        WindowPoint,
        interval_samples,
        spikes,
        windowed_series,
    )
    from repro.analysis.timeline import (
        Interval,
        SchedulingStats,
        ThreadTimeline,
        build_timelines,
        render_gantt,
        scheduling_stats,
    )
    from repro.analysis.sync_stats import (
        CS_HISTOGRAM_EDGES,
        CS_HISTOGRAM_LABELS,
        LockSummary,
        SyncProfile,
        short_section_fraction,
        summarize_lock,
        sync_profile,
    )

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "AttributionScore": "accuracy",
    "ErrorSummary": "accuracy",
    "relative_error": "accuracy",
    "score_attribution": "accuracy",
    "summarize_errors": "accuracy",
    "LockDelta": "compare",
    "RunComparison": "compare",
    "compare_runs": "compare",
    "render_comparison": "compare",
    "check_analysis": "check",
    "check_assumptions": "check",
    "check_metric_expr": "check",
    "check_metrics": "check",
    "check_predicate": "check",
    "check_tree": "check",
    "DIMENSIONLESS": "expr",
    "Expr": "expr",
    "ExprError": "expr",
    "Unit": "expr",
    "env_from_counts": "expr",
    "evaluate": "expr",
    "metric_refs": "expr",
    "parse": "expr",
    "referenced_events": "expr",
    "Assumption": "refute",
    "GridPoint": "refute",
    "SweepResult": "refute",
    "Verdict": "refute",
    "judge": "refute",
    "sweep": "refute",
    "verdict_report": "refute",
    "UserKernelBreakdown": "reports",
    "bottleneck_report": "reports",
    "result_to_dict": "reports",
    "result_to_json": "reports",
    "run_report": "reports",
    "user_kernel_breakdown": "reports",
    "STANDARD_METRICS": "tree",
    "MetricNode": "tree",
    "MetricTree": "tree",
    "classify_counts": "tree",
    "classify_named_counts": "tree",
    "classify_result": "tree",
    "default_tree": "tree",
    "implications_report": "tree",
    "IntervalSample": "timeseries",
    "WindowPoint": "timeseries",
    "interval_samples": "timeseries",
    "spikes": "timeseries",
    "windowed_series": "timeseries",
    "Interval": "timeline",
    "SchedulingStats": "timeline",
    "ThreadTimeline": "timeline",
    "build_timelines": "timeline",
    "render_gantt": "timeline",
    "scheduling_stats": "timeline",
    "CS_HISTOGRAM_EDGES": "sync_stats",
    "CS_HISTOGRAM_LABELS": "sync_stats",
    "LockSummary": "sync_stats",
    "SyncProfile": "sync_stats",
    "short_section_fraction": "sync_stats",
    "summarize_lock": "sync_stats",
    "sync_profile": "sync_stats",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
