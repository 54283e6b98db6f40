"""Process-local lint gate for the run fabric: fail closed before dispatch.

:func:`install` arms the gate; from then on every :func:`repro.fabric.run_many`
batch is statically analyzed *before* any worker process is spawned or any
cache entry served. A batch containing a hazardous program raises
:class:`~repro.common.errors.LintError` — no run executes, matching the
"reject before the expensive fabric-scheduled run is launched" contract.

The gate lints by rebuilding each job's workload from its dotted path (the
same resolution :func:`repro.fabric.jobs.execute_job` performs inside the
worker), so the *walked* session/profiler objects are fresh throwaways and
the live objects a run will use are never touched. That also means the gate
sees exactly what the worker will execute — not a stale copy the caller
linted earlier.

State is process-local (like :func:`repro.fabric.configure`) and lives in
the process that calls :func:`~repro.fabric.run_many`, which gates every
batch before it spawns any worker; the runner saves it with :func:`state`
and puts it back with :func:`restore` around a sweep. Reports accumulate
per process and are drained into manifests via :func:`drain_reports`.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import LintError
from repro.lint.findings import LintReport
from repro.lint.rules import lint_program

_mode: str = "off"  # "off" | "on" | "strict"
_suppress: tuple[str, ...] = ()

#: (label, report dict) per gated batch since the last drain.
_session_reports: list[dict[str, Any]] = []


def install(strict: bool = False, suppress: tuple[str, ...] = ()) -> None:
    """Arm the gate for this process (idempotent; strict wins over on)."""
    global _mode, _suppress
    _mode = "strict" if strict else "on"
    _suppress = tuple(suppress)


def uninstall() -> None:
    global _mode, _suppress
    _mode = "off"
    _suppress = ()


def active() -> bool:
    return _mode != "off"


def state() -> tuple[str, tuple[str, ...]]:
    """The gate's current (mode, suppressed rules), for :func:`restore`."""
    return (_mode, _suppress)


def restore(mode: str, suppress: tuple[str, ...] = ()) -> None:
    """Set the gate's mode and suppressed rules (see :func:`state`)."""
    global _mode, _suppress
    _mode = mode
    _suppress = tuple(suppress)


def drain_reports() -> list[dict[str, Any]]:
    """Return (and clear) the per-batch gate reports from this process."""
    global _session_reports
    reports, _session_reports = _session_reports, []
    return reports


def lint_job(job: Any) -> LintReport:
    """Statically analyze one :class:`~repro.fabric.jobs.RunJob`.

    Builds a fresh workload instance from the job's dotted path + kwargs
    and walks it against the job's config.
    """
    from repro.fabric.jobs import resolve

    factory = resolve(job.workload)
    trial = factory(**job.kwargs)
    specs = trial.build() if hasattr(trial, "build") else trial
    report = lint_program(specs, job.config)
    if _suppress:
        report = report.suppress(_suppress)
    return report


def check_jobs(jobs: list[Any]) -> LintReport:
    """Gate a batch: lint every job, raise LintError if any fails.

    All jobs are linted (not just the first offender) so the error names
    every hazardous program in the batch at once.
    """
    merged = LintReport()
    bad: list[str] = []
    strict = _mode == "strict"
    for job in jobs:
        label = job.label or job.workload
        report = lint_job(job)
        merged.merge(report)
        if not report.ok(strict=strict):
            bad.append(f"{label}: {report.summary_line()}")
    merged.note_checked("programs", len(jobs))
    _session_reports.append({
        "mode": _mode,
        "n_jobs": len(jobs),
        "ok": not bad,
        **merged.as_dict(),
    })
    if bad:
        raise LintError(
            f"lint gate ({_mode}) rejected {len(bad)} of {len(jobs)} "
            "job(s) before dispatch:\n"
            + "\n".join(f"  {line}" for line in bad)
            + "\n"
            + "\n".join("  " + f.render() for f in merged.findings)
        )
    return merged
