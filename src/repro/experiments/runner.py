"""Command-line runner: regenerate every table/figure of the evaluation.

Usage::

    python -m repro.experiments            # run all, print to stdout
    python -m repro.experiments E1 E4      # a subset
    python -m repro.experiments --quick    # smaller parameters
    python -m repro.experiments --jobs 4   # experiments in worker processes
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

``--jobs N`` fans experiments out over a process pool (or, for a single
experiment, lets its internal run fan out via :mod:`repro.fabric`); wall
times reported per experiment are measured in the executing process, so
they reflect compute, not queueing. ``--cache``/``--cache-dir`` enable the
deterministic result cache at both the experiment and the individual-run
level; simulation is reproducible, so cached replays are exact. Cache hits
are marked on the progress line and counted in the manifest and in the
``--cache-stats`` JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.registry import all_experiments, get
from repro.fabric import ResultCache, default_cache_dir
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
    cache_stats: dict | None = None  #: worker-side run-cache counters
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
    from repro import fabric
    from repro.lint import gate as lint_gate

    fabric.drain_failures()  # start this experiment with a clean slate
    lint_gate.drain_reports()
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
        job_failures=[f.as_dict() for f in fabric.drain_failures()],
        lint_reports=lint_gate.drain_reports(),
        stream=stream_info,
        alert_specs=list(collector.alert_specs),
        result_metrics=result_metrics,
        assumption_verdicts=list(collector.assumption_verdicts),
    )


def _execute_in_worker(
    exp_id: str,
    quick: bool,
    capture_traces: bool,
    cache_dir: str | None,
    cache_salt: str | None,
    fail_fast: bool | None = None,
    lint_mode: str = "off",
    window_spec: WindowSpec | None = None,
    stream_dir: str | None = None,
    timeout: float | None = None,
) -> EntryOutcome:
    """Pool-worker entry point: look the experiment up by id and run it.

    The worker gets its own run-level fabric cache (same directory, own
    counters) and ships its hit/miss delta back in the outcome. The lint
    gate is re-armed from ``lint_mode`` so experiments gate identically
    inline and pooled; each experiment owns its own stream subdirectory,
    so pooled experiments stream without contention.
    """
    from repro import fabric
    from repro.lint import gate as lint_gate

    fabric.configure(jobs=1, cache_dir=cache_dir, salt=cache_salt)
    if fail_fast is not None:
        fabric.configure(fail_fast=fail_fast)
    if timeout is not None:
        fabric.configure(timeout=timeout)
    lint_gate.restore(lint_mode)
    outcome = _execute(
        get(exp_id),
        quick,
        capture_traces,
        window_spec=window_spec,
        stream_dir=Path(stream_dir) if stream_dir else None,
    )
    worker_cache = fabric.current().cache
    if worker_cache is not None:
        outcome.cache_stats = worker_cache.stats.as_dict()
    return outcome


def _emit(
    outcome: EntryOutcome,
    quick: bool,
    out: Path | None,
    trace_dir: Path | None,
    stdout,
    stderr,
    analysis: bool = True,
) -> dict[str, Any]:
    """Print one experiment's output and build its manifest record."""
    collector = obs_runtime.RunCollector(
        capture_traces=trace_dir is not None, label=outcome.exp_id
    )
    collector.merge_records(outcome.records, keep_traces=trace_dir is not None)
    collector.alert_specs = list(getattr(outcome, "alert_specs", []) or [])

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
    if analysis:
        # Top-down bottleneck classification over the experiment's summed
        # ground-truth counts, plus any refutation verdicts it published.
        # Pure host-side post-processing of recorded counts: fingerprints
        # and all simulated quantities are identical with --no-analysis.
        analysis_block: dict[str, Any] = {}
        counts = collector.counts_total()
        if counts is not None:
            from repro.analysis.tree import classify_named_counts

            analysis_block["classification"] = classify_named_counts(counts)
        verdicts = getattr(outcome, "assumption_verdicts", None) or []
        if verdicts:
            analysis_block["assumptions"] = list(verdicts)
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
    result_metrics = getattr(outcome, "result_metrics", None)
    if result_metrics:
        # The experiment's headline claims (distinct from the engine-run
        # "metrics" aggregate above) — what smoke checks assert against.
        record["result_metrics"] = result_metrics
    if getattr(outcome, "stream", None) is not None:
        record["stream"] = outcome.stream
    if outcome.cached:
        record["cached"] = True
    lint_reports = getattr(outcome, "lint_reports", [])
    if lint_reports:
        record["lint"] = {
            "gated_batches": len(lint_reports),
            "programs": sum(r.get("n_jobs", 0) for r in lint_reports),
            "reports": lint_reports,
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
    fail_fast: bool | None = None,
    lint_mode: str = "off",
    window_spec: WindowSpec | None = None,
    stream_dir: Path | None = None,
    timeout: float | None = None,
    analysis: bool = True,
) -> tuple[list[dict[str, Any]], float]:
    """Run experiments; returns (manifest entry dicts, total wall seconds).

    ``jobs > 1`` runs experiments in worker processes (a single experiment
    instead fans out its internal runs through the fabric). ``cache``
    replays previously simulated experiments/runs; tracing bypasses it so
    trace files always reflect a real execution. ``fail_fast`` sets the
    fabric failure policy for every run (None keeps the current policy;
    False lets sweeps continue past dead/hung workers and reports them as
    structured job failures in the manifest). ``lint_mode`` ("off", "on",
    "strict") arms the fail-closed static-analysis gate in front of every
    fabric dispatch, inline and in pool workers alike. ``window_spec``
    shapes windowed observations; ``stream_dir`` streams them to one
    ``repro.obs/stream/v1`` directory per experiment as runs complete.
    ``timeout`` caps each fabric job's wall-clock seconds (None keeps the
    current policy); a timed-out worker is killed mid-stream, so streaming
    runs sweep orphaned (never-closed) stream directories first.
    """
    from repro import fabric
    from repro.lint import gate as lint_gate

    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    capture_traces = trace_dir is not None
    # The lint gate must observe every fabric dispatch, so an armed gate
    # bypasses the experiment-level cache (a replayed experiment dispatches
    # nothing). Run-level caching stays on: run_many gates before serving.
    # Streaming bypasses it too: stream files must reflect a real execution.
    use_cache = (
        cache
        if not capture_traces and lint_mode == "off" and stream_dir is None
        else None
    )
    if stream_dir is not None:
        # A previous run killed mid-stream (per-job --timeout, ^C) leaves
        # stream dirs whose manifests never closed; clear them before new
        # writers reuse the paths so followers never tail stale parts.
        sweep_orphan_streams(stream_dir)
    total_started = time.perf_counter()

    outcomes: list[EntryOutcome | None] = [None] * len(entries)
    pending: list[tuple[int, str | None]] = []
    if use_cache is not None:
        for i, entry in enumerate(entries):
            key = use_cache.key("experiment", entry.exp_id, quick)
            loaded = time.perf_counter()
            hit = use_cache.get(key)
            if hit is not None:
                hit.cached = True
                hit.wall_seconds = time.perf_counter() - loaded
                outcomes[i] = hit
            else:
                pending.append((i, key))
    else:
        pending = [(i, None) for i in range(len(entries))]

    if jobs > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor

        from repro.fabric.jobs import _mp_context

        cache_dir = str(use_cache.root) if use_cache is not None else None
        cache_salt = use_cache.salt if use_cache is not None else None
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)), mp_context=_mp_context()
        ) as pool:
            futures = [
                (
                    i,
                    key,
                    pool.submit(
                        _execute_in_worker,
                        entries[i].exp_id,
                        quick,
                        capture_traces,
                        cache_dir,
                        cache_salt,
                        fail_fast,
                        lint_mode,
                        window_spec,
                        str(stream_dir) if stream_dir else None,
                        timeout,
                    ),
                )
                for i, key in pending
            ]
            for i, key, future in futures:
                outcomes[i] = future.result()
    else:
        # In-process: a lone experiment under --jobs N fans out internally.
        previous = fabric.current()
        prev_jobs, prev_cache = previous.jobs, previous.cache
        prev_fail_fast, prev_timeout = previous.fail_fast, previous.timeout
        prev_lint = lint_gate.state()
        fabric.configure(jobs=jobs, cache=use_cache)
        if fail_fast is not None:
            fabric.configure(fail_fast=fail_fast)
        if timeout is not None:
            fabric.configure(timeout=timeout)
        lint_gate.restore(lint_mode)
        try:
            for i, key in pending:
                outcomes[i] = _execute(
                    entries[i],
                    quick,
                    capture_traces,
                    window_spec=window_spec,
                    stream_dir=stream_dir,
                )
        finally:
            fabric.configure(
                jobs=prev_jobs,
                cache=prev_cache,
                fail_fast=prev_fail_fast,
                timeout=prev_timeout,
            )
            lint_gate.restore(*prev_lint)

    if use_cache is not None:
        for i, key in pending:
            outcome = outcomes[i]
            if outcome.cache_stats is not None:
                use_cache.stats.add(outcome.cache_stats)
            # Partial results (fabric job failures) must never be cached:
            # a replay would hide the failure and serve incomplete data.
            if outcome.error is None and not outcome.job_failures:
                use_cache.put(key, outcome)

    records = [
        _emit(outcome, quick, out, trace_dir, stdout, stderr, analysis)
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
        help="run experiments in N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "kill any fabric job running longer than SECONDS of wall "
            "clock (killed jobs surface as structured job failures; "
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
        "--no-cache",
        action="store_true",
        help="disable the result cache even if other cache flags are given",
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
        "--no-analysis",
        action="store_true",
        help=(
            "skip the manifest 'analysis' block (top-down bottleneck "
            "classification + refutation verdicts); a diff switch — "
            "simulated results and fingerprints are identical either way"
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
    policy = parser.add_mutually_exclusive_group()
    policy.add_argument(
        "--fail-fast",
        dest="fail_fast",
        action="store_true",
        help="abort an experiment on the first fabric job failure",
    )
    policy.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help=(
            "survive crashed/hung fabric workers: finish the sweep and "
            "report failures in the summary and manifest"
        ),
    )
    parser.set_defaults(fail_fast=None)
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
    if args.no_cache:
        cache_dir = None
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
        fail_fast=args.fail_fast,
        lint_mode=lint_mode,
        window_spec=window_spec,
        stream_dir=args.stream_dir,
        timeout=args.timeout,
        analysis=not args.no_analysis,
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
