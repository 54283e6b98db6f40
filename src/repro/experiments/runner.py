"""Command-line runner: regenerate every table/figure of the evaluation.

Usage::

    python -m repro.experiments            # run all, print to stdout
    python -m repro.experiments E1 E4      # a subset
    python -m repro.experiments --quick    # smaller parameters
    python -m repro.experiments --jobs 4   # runs in up to 4 worker processes
    python -m repro.experiments --cache    # reuse cached simulation results
    python -m repro.experiments --lint     # static hazard gate before runs
                                           # (--lint-strict: warnings fail)
    python -m repro.experiments --out results/   # also write text files
    python -m repro.experiments --manifest results/manifest.json \
        --trace-dir traces/                # machine-readable run manifest
                                           # + Perfetto/JSONL traces

With ``--manifest`` the runner writes a JSON document (schema
``repro.obs/manifest/v1``) with one entry per experiment: id, status, wall
seconds, simulated cycles, sim events and a metrics snapshot, plus a
reproducibility hash over every (seed, config) the experiment ran. With
``--trace-dir`` each experiment additionally dumps a Perfetto-loadable
``<id>.trace.json`` and a lossless ``<id>.jsonl`` event stream. Under
``--quick`` artifact files carry a ``.quick`` stem suffix (``e2.quick.txt``)
so CI-sized output can never clobber full results.

Experiments run one after another in this process. ``--jobs N`` sets
the width of :func:`repro.fabric.run_many`'s process-per-job pool, so the
runs inside each experiment fan out over up to N worker processes and a
crashed or hung worker is blamed on its own job. ``--cache``/``--cache-dir``
enable the deterministic result cache at both the experiment and the
individual-run level; simulation is reproducible, so cached replays are
exact. Cache hits are marked on the progress line and counted in the
manifest and in the ``--cache-stats`` JSON.

Each experiment runs once per invocation: an experiment that re-derives
another's results (E12 takes E1, E3, E6 and E8 through
:func:`repro.experiments.base.reuse`) is served the outcome this
invocation already produced, merged into its own record and listed in
the record's ``reused`` key. Like the experiment-level cache, sharing is
off under ``--trace-dir``, ``--lint``/``--lint-strict`` and
``--stream-dir``: a reused outcome dispatches nothing, so it would write
no trace or stream and pass no lint gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments import base
from repro.experiments.registry import all_experiments, get
from repro.fabric import ResultCache, default_cache_dir
from repro.fabric import jobs as fabric_jobs
from repro.lint import gate as lint_gate
from repro.obs import runtime as obs_runtime
from repro.obs.export import (
    JsonlStreamWriter,
    events_to_jsonl,
    sweep_orphan_streams,
    write_manifest,
    write_perfetto,
)
from repro.obs.windows import DEFAULT_RETENTION, DEFAULT_WINDOW_CYCLES, WindowSpec


def artifact_stem(exp_id: str, quick: bool) -> str:
    """File stem for an experiment's artifacts; quick mode is suffixed so
    ``--quick`` runs can't overwrite full results under the same ``--out``."""
    stem = exp_id.lower()
    return f"{stem}.quick" if quick else stem


@dataclass
class EntryOutcome:
    """Everything one executed experiment produced (picklable/cacheable)."""

    exp_id: str
    title: str
    error: str | None
    text: str | None
    wall_seconds: float
    records: list = field(default_factory=list)  #: EngineRunRecord list
    cached: bool = False
    #: structured fabric JobFailure dicts from this experiment's runs
    job_failures: list = field(default_factory=list)
    #: per-batch lint-gate report dicts (schema repro.lint/report/v1)
    lint_reports: list = field(default_factory=list)
    #: streaming-export facts when the experiment streamed windows
    #: (directory, record/window counts, part count), else None
    stream: dict | None = None
    #: SLO alert specs registered by the experiment (SloSpec list); they
    #: ride along so the manifest builder can re-evaluate burn rates
    #: against the merged windows (the run-time collector is discarded)
    alert_specs: list = field(default_factory=list)
    #: the experiment's own headline metrics (ExperimentResult.metrics) —
    #: the quantitative claims; engine counters live in ``records``
    result_metrics: dict = field(default_factory=dict)
    #: refutation-sweep verdicts published during the experiment
    #: (repro.analysis.refute Verdict.as_dict payloads)
    assumption_verdicts: list = field(default_factory=list)
    #: ids of the experiments whose outcomes this one reused instead of
    #: running them again (see :func:`repro.experiments.base.reuse`)
    reused: list = field(default_factory=list)


def _execute(
    entry,
    quick: bool,
    capture_traces: bool,
    window_spec: WindowSpec | None = None,
    stream_dir: Path | None = None,
) -> EntryOutcome:
    """Run one experiment in the current process, collecting its runs.

    With ``stream_dir``, windowed observations stream incrementally into
    ``stream_dir/<exp_id>/`` (schema ``repro.obs/stream/v1``) while the
    experiment runs; the stream manifest is finalized with the exact
    windows summary when the experiment completes.
    """
    fabric_jobs.drain_failures()  # start this experiment with a clean slate
    lint_gate.drain_reports()
    base.drain_reused()
    writer = None
    if stream_dir is not None:
        writer = JsonlStreamWriter(
            stream_dir / entry.exp_id.lower(),
            label=entry.exp_id,
            spec=window_spec or WindowSpec(),
        )
    started = time.perf_counter()
    result_metrics: dict = {}
    with obs_runtime.collect(
        capture_traces=capture_traces,
        label=entry.exp_id,
        window_spec=window_spec,
        stream=writer,
    ) as collector:
        try:
            result = entry.run(quick=quick)
            error, text = None, result.render()
            result_metrics = dict(result.metrics)
        except Exception as exc:  # keep going; report at the end
            error, text = f"{type(exc).__name__}: {exc}", None
    stream_info = None
    if writer is not None:
        writer.close(summary=collector.windows_summary())
        stream_info = {
            "dir": str(writer.directory),
            "n_records": writer.n_records,
            "n_windows": writer.n_windows,
            "n_parts": len(writer.parts),
        }
    return EntryOutcome(
        exp_id=entry.exp_id,
        title=entry.title,
        error=error,
        text=text,
        wall_seconds=time.perf_counter() - started,
        records=collector.records,
        job_failures=[f.as_dict() for f in fabric_jobs.drain_failures()],
        lint_reports=lint_gate.drain_reports(),
        stream=stream_info,
        alert_specs=list(collector.alert_specs),
        result_metrics=result_metrics,
        assumption_verdicts=list(collector.assumption_verdicts),
        reused=base.drain_reused(),
    )


def _emit(
    outcome: EntryOutcome,
    quick: bool,
    out: Path | None,
    trace_dir: Path | None,
    stdout,
    stderr,
) -> dict[str, Any]:
    """Print one experiment's output and build its manifest record."""
    collector = obs_runtime.RunCollector(
        capture_traces=trace_dir is not None, label=outcome.exp_id
    )
    collector.merge_records(outcome.records, keep_traces=trace_dir is not None)
    collector.alert_specs = list(outcome.alert_specs)

    record: dict[str, Any] = {
        "id": outcome.exp_id,
        "title": outcome.title,
        "status": "passed" if outcome.error is None else "failed",
        "wall_seconds": outcome.wall_seconds,
        "engine_runs": collector.n_runs,
        "sim_cycles": collector.sim_cycles,
        "sim_events": collector.sim_events,
        "context_switches": collector.context_switches,
        "config_hash": collector.config_hash(),
        "metrics": collector.metrics_snapshot(),
        "macro": {
            **collector.macro_summary(),
            "bailouts": collector.bailouts_by_reason(),
        },
        "faults": collector.fault_summary(),
    }
    # Top-down bottleneck classification over the experiment's summed
    # ground-truth counts, plus any refutation verdicts it published.
    # Pure host-side post-processing of recorded counts: it cannot change
    # a fingerprint or any simulated quantity.
    analysis_block: dict[str, Any] = {}
    counts = collector.counts_total()
    if counts is not None:
        from repro.analysis.tree import classify_named_counts

        analysis_block["classification"] = classify_named_counts(counts)
    if outcome.assumption_verdicts:
        analysis_block["assumptions"] = list(outcome.assumption_verdicts)
    if analysis_block:
        record["analysis"] = analysis_block
    fingerprints = [r.fingerprint for r in collector.records if r.fingerprint]
    if fingerprints:
        # Captured only under REPRO_FP_RECORDS=1 (the equivalence smokes);
        # record order can differ between serial and pooled sweeps, so
        # consumers compare these as multisets.
        record["fingerprints"] = fingerprints
    windows = collector.windows_summary()
    if windows is not None:
        record["windows"] = windows
    alerts = collector.alerts_summary()
    if alerts is not None:
        record["alerts"] = alerts
    if outcome.result_metrics:
        # The experiment's headline claims (distinct from the engine-run
        # "metrics" aggregate above) — what smoke checks assert against.
        record["result_metrics"] = outcome.result_metrics
    if outcome.stream is not None:
        record["stream"] = outcome.stream
    if outcome.cached:
        record["cached"] = True
    if outcome.reused:
        record["reused"] = outcome.reused
    if outcome.lint_reports:
        record["lint"] = {
            "gated_batches": len(outcome.lint_reports),
            "programs": sum(r.get("n_jobs", 0) for r in outcome.lint_reports),
            "reports": outcome.lint_reports,
        }
    if outcome.job_failures:
        record["job_failures"] = outcome.job_failures
        for failure in outcome.job_failures:
            print(
                f"[{outcome.exp_id}] job failure ({failure['kind']}): "
                f"{failure['label'] or failure['workload']} — "
                f"{failure['error']}",
                file=stderr,
            )
    stem = artifact_stem(outcome.exp_id, quick)
    if outcome.error is not None:
        record["error"] = outcome.error
        print(f"[{outcome.exp_id}] FAILED: {outcome.error}", file=stderr)
    else:
        print(outcome.text, file=stdout)
        suffix = ", cache hit" if outcome.cached else ""
        print(
            f"({outcome.exp_id} regenerated in "
            f"{outcome.wall_seconds:.1f}s{suffix})",
            file=stdout,
        )
        print(file=stdout)
        if out:
            (out / f"{stem}.txt").write_text(outcome.text + "\n")

    if trace_dir is not None:
        runs = collector.perfetto_runs()
        if runs:
            perfetto_path = trace_dir / f"{stem}.trace.json"
            jsonl_path = trace_dir / f"{stem}.jsonl"
            write_perfetto(perfetto_path, runs)
            n_lines = events_to_jsonl(collector.all_events(), jsonl_path)
            record["trace_files"] = {
                "perfetto": str(perfetto_path),
                "jsonl": str(jsonl_path),
                "n_trace_events": n_lines,
            }
    return record


def run_entries(
    entries,
    quick: bool = False,
    out: Path | None = None,
    trace_dir: Path | None = None,
    stdout=None,
    stderr=None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    keep_going: bool = False,
    lint_mode: str = "off",
    window_spec: WindowSpec | None = None,
    stream_dir: Path | None = None,
    timeout: float | None = None,
) -> tuple[list[dict[str, Any]], float]:
    """Run experiments; returns (manifest entry dicts, total wall seconds).

    Experiments run one after another in this process; ``jobs`` is the
    width of the fabric's process-per-job pool their runs fan out over.
    ``cache`` replays previously simulated experiments/runs; tracing
    bypasses it so trace files always reflect a real execution. Clean
    outcomes (no error, no job failures) are shared with later
    experiments through :func:`repro.experiments.base.reuse` for the
    length of the call, under the cache's bypass rule.
    ``keep_going`` lets sweeps continue past dead/hung workers and reports
    them as structured job failures in the manifest (otherwise the current
    fabric failure policy holds). ``lint_mode`` ("off", "on", "strict")
    arms the fail-closed static-analysis gate in front of every fabric
    dispatch. ``window_spec`` shapes windowed observations; ``stream_dir``
    streams them to one ``repro.obs/stream/v1`` directory per experiment
    as runs complete.
    ``timeout`` caps each fabric job's wall-clock seconds (None keeps the
    current policy); a timed-out worker is killed mid-stream, so streaming
    runs sweep orphaned (never-closed) stream directories first.
    """
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    capture_traces = trace_dir is not None
    # A replayed (cached) or reused outcome dispatches nothing, so neither
    # may stand in for an execution that must be observed: the lint gate
    # must see every fabric dispatch, and trace and stream files must
    # reflect a real execution. Run-level caching stays on: run_many gates
    # before serving.
    replayable = not capture_traces and lint_mode == "off" and stream_dir is None
    use_cache = cache if replayable else None
    if stream_dir is not None:
        # A previous run killed mid-stream (per-job --timeout, ^C) leaves
        # stream dirs whose manifests never closed; clear them before new
        # writers reuse the paths so followers never tail stale parts.
        sweep_orphan_streams(stream_dir)
    total_started = time.perf_counter()

    previous = fabric_jobs.current()
    prev_jobs, prev_cache = previous.jobs, previous.cache
    prev_fail_fast, prev_timeout = previous.fail_fast, previous.timeout
    prev_lint = lint_gate.state()
    fabric_jobs.configure(jobs=jobs, cache=use_cache)
    if keep_going:
        fabric_jobs.configure(fail_fast=False)
    if timeout is not None:
        fabric_jobs.configure(timeout=timeout)
    lint_gate.restore(lint_mode)
    outcomes: list[EntryOutcome] = []
    try:
        for entry in entries:
            outcome: EntryOutcome | None = None
            if use_cache is not None:
                key = use_cache.key("experiment", entry.exp_id, quick)
                loaded = time.perf_counter()
                outcome = use_cache.get(key)
                if outcome is not None:
                    outcome.cached = True
                    outcome.wall_seconds = time.perf_counter() - loaded
            if outcome is None:
                outcome = _execute(
                    entry, quick, capture_traces, window_spec, stream_dir
                )
            # Partial results (fabric job failures) must never be cached
            # or reused: a replay would hide the failure and serve
            # incomplete data.
            if replayable and outcome.error is None and not outcome.job_failures:
                if use_cache is not None and not outcome.cached:
                    use_cache.put(key, outcome)
                base.outcomes[(entry.exp_id, quick)] = outcome
            outcomes.append(outcome)
    finally:
        base.outcomes.clear()
        fabric_jobs.configure(
            jobs=prev_jobs,
            cache=prev_cache,
            fail_fast=prev_fail_fast,
            timeout=prev_timeout,
        )
        lint_gate.restore(*prev_lint)

    records = [
        _emit(outcome, quick, out, trace_dir, stdout, stderr)
        for outcome in outcomes
    ]
    return records, time.perf_counter() - total_started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's evaluation tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (E1..E21); all when omitted",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller parameters (CI-sized)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run each experiment's engine runs in up to N worker "
            "processes, one process per run (default: 1, serial)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "kill any fabric job running longer than SECONDS of wall "
            "clock; each job then runs in a worker process, also at "
            "--jobs 1 (killed jobs surface as structured job failures; "
            "combine with --keep-going to finish the sweep around them)"
        ),
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help=f"cache simulation results under {default_cache_dir()}",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="cache simulation results under this directory (implies --cache)",
    )
    parser.add_argument(
        "--cache-stats",
        type=Path,
        default=None,
        metavar="PATH",
        help="write cache hit/miss counters as JSON to PATH (implies --cache)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="directory for per-experiment text files"
    )
    parser.add_argument(
        "--manifest",
        type=Path,
        default=None,
        help="write a machine-readable run manifest (JSON) to this path",
    )
    parser.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="capture traces; write per-experiment Perfetto + JSONL files here",
    )
    parser.add_argument(
        "--stream-dir",
        type=Path,
        default=None,
        help=(
            "stream windowed observations incrementally into one "
            "repro.obs/stream/v1 directory per experiment under this path "
            "(follow live with `python -m repro.trace tail/watch`)"
        ),
    )
    parser.add_argument(
        "--window-cycles",
        type=int,
        default=DEFAULT_WINDOW_CYCLES,
        metavar="N",
        help=(
            "width of windowed-observation time buckets in simulated "
            f"cycles (default: {DEFAULT_WINDOW_CYCLES})"
        ),
    )
    parser.add_argument(
        "--window-retention",
        type=int,
        default=DEFAULT_RETENTION,
        metavar="N",
        help=(
            "detailed windows kept in memory before the oldest are "
            "evicted (streamed + folded into an aggregate; default: "
            f"{DEFAULT_RETENTION})"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    lint_group = parser.add_mutually_exclusive_group()
    lint_group.add_argument(
        "--lint",
        action="store_true",
        help=(
            "static analysis before anything runs: repo self-check + "
            "registry metadata, then a fail-closed hazard gate in front "
            "of every fabric dispatch (errors reject the batch)"
        ),
    )
    lint_group.add_argument(
        "--lint-strict",
        action="store_true",
        help="like --lint, but warnings also fail the gate",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "survive crashed/hung fabric workers: finish the sweep and "
            "report failures in the summary and manifest"
        ),
    )
    args = parser.parse_args(argv)

    if args.list:
        for entry in all_experiments():
            print(f"{entry.exp_id:<4} {entry.title}")
        return 0

    if args.experiments:
        entries = [get(e) for e in args.experiments]
    else:
        entries = all_experiments()

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be > 0")

    cache_dir: Path | None = args.cache_dir
    if cache_dir is None and (args.cache or args.cache_stats):
        cache_dir = default_cache_dir()
    cache = ResultCache(cache_dir) if cache_dir else None

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    if args.trace_dir:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
    if args.window_cycles < 1:
        parser.error("--window-cycles must be >= 1")
    if args.window_retention < 1:
        parser.error("--window-retention must be >= 1")
    window_spec: WindowSpec | None = None
    if (
        args.stream_dir is not None
        or args.window_cycles != DEFAULT_WINDOW_CYCLES
        or args.window_retention != DEFAULT_RETENTION
    ):
        window_spec = WindowSpec(
            window_cycles=args.window_cycles,
            retention=args.window_retention,
        )
    if args.stream_dir:
        args.stream_dir.mkdir(parents=True, exist_ok=True)

    lint_mode = "strict" if args.lint_strict else ("on" if args.lint else "off")
    lint_block: dict[str, Any] | None = None
    if lint_mode != "off":
        # Fail closed *before* any experiment runs: the source tree and the
        # registry must be clean, or nothing is worth executing.
        from repro.analysis.check import check_analysis
        from repro.lint import check_registry, selfcheck_tree

        pre = selfcheck_tree()
        pre.merge(check_registry())
        # Declarative analysis layer gates with the code: a malformed
        # metric/tree/assumption fails the run before anything executes.
        pre.merge(check_analysis())
        lint_block = {"mode": lint_mode, "selfcheck": pre.as_dict()}
        print(f"lint ({lint_mode}): {pre.summary_line()}", file=sys.stderr)
        if not pre.ok(strict=lint_mode == "strict"):
            print(pre.render(), file=sys.stderr)
            print("FAILED (lint)", file=sys.stderr)
            return 2

    records, total_wall = run_entries(
        entries,
        quick=args.quick,
        out=args.out,
        trace_dir=args.trace_dir,
        jobs=args.jobs,
        cache=cache,
        keep_going=args.keep_going,
        lint_mode=lint_mode,
        window_spec=window_spec,
        stream_dir=args.stream_dir,
        timeout=args.timeout,
    )
    passed = sum(1 for r in records if r["status"] == "passed")
    failed = len(records) - passed
    job_failures = sum(len(r.get("job_failures", ())) for r in records)

    if lint_block is not None:
        lint_block["gated_batches"] = sum(
            r.get("lint", {}).get("gated_batches", 0) for r in records
        )
        lint_block["gated_programs"] = sum(
            r.get("lint", {}).get("programs", 0) for r in records
        )

    if args.manifest:
        args.manifest.parent.mkdir(parents=True, exist_ok=True)
        write_manifest(
            args.manifest,
            {
                "quick": args.quick,
                "lint": lint_block,
                "experiments": records,
                "summary": {
                    "n_experiments": len(records),
                    "passed": passed,
                    "failed": failed,
                    "wall_seconds": total_wall,
                    "sim_events": sum(r["sim_events"] for r in records),
                    "sim_cycles": sum(r["sim_cycles"] for r in records),
                    "jobs": args.jobs,
                    "cache": cache.stats.as_dict() if cache else None,
                    "macro": {
                        key: sum(r["macro"][key] for r in records)
                        for key in (
                            "macro_steps",
                            "quanta_batched",
                            "fast_reads",
                            "whole_syscalls",
                            "whole_sleeps",
                            "resumed_exits",
                            "whole_phases",
                            "fastpath_bailouts",
                        )
                    },
                    "faults": {
                        key: sum(r["faults"][key] for r in records)
                        for key in ("injected", "detected", "missed")
                    },
                    "job_failures": job_failures,
                },
            },
        )

    if args.cache_stats:
        args.cache_stats.parent.mkdir(parents=True, exist_ok=True)
        stats = cache.stats.as_dict() if cache else {}
        stats["wall_seconds"] = total_wall
        args.cache_stats.write_text(json.dumps(stats, indent=2) + "\n")

    print(f"{passed} passed, {failed} failed, total wall time {total_wall:.1f}s")
    if job_failures:
        # A partial sweep must never look like success to calling scripts.
        print(f"FAILED ({job_failures} job failures)", file=sys.stderr)
        return 1
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
