"""Run collection: aggregate every engine run inside a scope.

The experiment runner, the workbench CLI and the benchmark harness all need
the same thing: "how much simulation happened while this block ran, how
fast, and (optionally) give me the traces". A :class:`RunCollector` pushed
with :func:`collect` receives a record from every :class:`~repro.sim.engine.
Engine` run that completes inside the ``with`` block, without the caller
having to thread anything through experiment code.

When ``capture_traces`` is set, engines created inside the scope turn
tracing on even if their config didn't ask for it — safe, because tracing
is zero-perturbation by contract (see tests/properties).

**Streaming tier.** Collectors also accept *windowed observations* —
latency samples (:func:`observe_latency`) and counters
(:func:`count_window`) bucketed by simulated time — which accumulate in
bounded-memory :class:`~repro.obs.windows.WindowedStats` (window size and
retention from the collector's :class:`~repro.obs.windows.WindowSpec`;
oldest windows are evicted into an aggregate, optionally streaming through
a :class:`~repro.obs.export.JsonlStreamWriter` as they go). Observations
are host-side bookkeeping: by the zero-perturbation contract they cannot
change simulated results, so fingerprints are identical with streaming on
or off. Histogram merges are exact, so serial and ``--jobs N`` execution
produce bit-identical percentile summaries.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.common.units import Frequency
from repro.obs.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.windows import WindowedStats, WindowSpec


@dataclass
class EngineRunRecord:
    """One engine run observed by a collector."""

    index: int
    seed: int
    config_repr: str
    frequency: Frequency
    wall_seconds: float
    sim_cycles: int
    sim_events: int
    context_switches: int
    pmis: int
    syscalls: int
    metrics: dict[str, float] = field(default_factory=dict)
    trace: list[TraceEvent] = field(default_factory=list)
    thread_names: dict[int, str] = field(default_factory=dict)
    #: ground-truth event totals of this run (event name -> count, summed
    #: over threads and domains). Host-side bookkeeping read by the
    #: top-down classifier (:mod:`repro.analysis.tree`); never feeds back
    #: into simulation, so fingerprints are identical with or without it.
    counts: dict[str, int] = field(default_factory=dict)
    #: windowed observations made during this run (None when it made none)
    windows: WindowedStats | None = None
    #: True when this record's windows already reached a stream writer —
    #: stops a downstream collector from exporting them a second time.
    windows_streamed: bool = False
    #: ``RunResult.fingerprint()`` digest, captured only when the
    #: ``REPRO_FP_RECORDS`` env var is ``1`` (equivalence smokes and
    #: property tests); hashing every run costs ~1ms each, which is real
    #: money on the bench path, so the default records no fingerprint.
    fingerprint: str = ""


class RunCollector:
    """Aggregates engine runs; see module docstring."""

    def __init__(
        self,
        capture_traces: bool = False,
        label: str | None = None,
        window_spec: WindowSpec | None = None,
        stream: Any | None = None,
    ) -> None:
        self.capture_traces = capture_traces
        self.label = label
        #: shape of windowed observations (None: default spec, on demand)
        self.window_spec = window_spec
        #: a JsonlStreamWriter receiving windows incrementally, or None
        self.stream = stream
        self.records: list[EngineRunRecord] = []
        #: aggregate windowed stats across every run this scope saw
        self.windows: WindowedStats | None = None
        #: the in-flight run's windowed stats (moved onto its record by
        #: :meth:`record_run`)
        self._pending: WindowedStats | None = None
        #: SLO specs registered by experiments/workloads for this scope
        #: (see :func:`register_alert_spec`); evaluated lazily by
        #: :meth:`alerts_summary` over the merged window aggregate.
        self.alert_specs: list[Any] = []
        #: refutation-sweep verdicts published into this scope (see
        #: :func:`register_assumption_verdicts`); surfaced in the runner's
        #: manifest ``analysis`` block.
        self.assumption_verdicts: list[dict[str, Any]] = []

    # -- windowed observations ----------------------------------------------

    def _pending_stats(self) -> WindowedStats:
        if self._pending is None:
            # repro.obs.windows (and its histograms) loads on the first
            # windowed observation, not with every collector.
            from repro.obs.windows import WindowedStats, WindowSpec

            spec = self.window_spec or WindowSpec()
            sink = (
                self.stream.sink(len(self.records))
                if self.stream is not None
                else None
            )
            self._pending = WindowedStats(spec, on_evict=sink)
        return self._pending

    def _aggregate(self, like: WindowedStats | None = None) -> WindowedStats:
        if self.windows is None:
            from repro.obs.windows import WindowedStats, WindowSpec

            # A collector without an explicit spec adopts the spec of the
            # first stats it aggregates, so adopting records windowed
            # elsewhere (a fabric worker, a pooled experiment) merges
            # exactly instead of tripping a spec mismatch.
            spec = self.window_spec or (like.spec if like else WindowSpec())
            self.windows = WindowedStats(spec)
        return self.windows

    def _finish_pending(self) -> WindowedStats | None:
        """Detach the in-flight run's stats: flush retained windows to the
        stream (evicted ones already streamed live via the sink), fold into
        the scope aggregate, and return them for the run record."""
        pending, self._pending = self._pending, None
        if pending is None:
            return None
        if self.stream is not None:
            run = len(self.records)
            for index in sorted(pending.windows):
                self.stream.write_window(
                    pending.windows[index], run=run, source="flush"
                )
            if not pending.late.is_empty():
                # Out-of-order observations whose windows were already
                # streamed; exported as one aggregate so stream totals
                # still reconcile exactly.
                self.stream.write_window(
                    pending.late, run=run, source="late"
                )
        pending.detach_sink()
        self._aggregate(pending).merge(pending)
        return pending

    def _adopt_windows(self, record: EngineRunRecord, index: int) -> None:
        """Fold an adopted record's windows into the aggregate, exporting
        them if this collector streams and nobody exported them before.
        Per-window detail evicted before the record reached us lives only
        in its ``spilled`` aggregate — exported as an index ``-1`` window
        so stream totals still reconcile exactly."""
        stats = record.windows
        if stats is None:
            return
        if self.stream is not None and not record.windows_streamed:
            for widx in sorted(stats.windows):
                self.stream.write_window(
                    stats.windows[widx], run=index, source="flush"
                )
            if not stats.spilled.is_empty():
                self.stream.write_window(
                    stats.spilled, run=index, source="spilled"
                )
            if not stats.late.is_empty():
                self.stream.write_window(
                    stats.late, run=index, source="late"
                )
            record.windows_streamed = True
        self._aggregate(stats).merge(stats)

    def windows_summary(self) -> dict[str, Any] | None:
        """The manifest's ``windows`` block: exact per-stream percentiles,
        windowed counter totals and memory-bound evidence across every run
        in this scope (None when no run made windowed observations)."""
        if self.windows is None or self.windows.is_empty():
            return None
        return self.windows.summary()

    def alerts_summary(self) -> dict[str, Any] | None:
        """The manifest's ``alerts`` block: every registered SLO evaluated
        over this scope's merged windows (None without specs or windows).

        Evaluation happens on merged state, so the block is identical
        serial vs pooled — burn-rate inputs are order-invariant window
        merges (see :mod:`repro.obs.alerts`).
        """
        if not self.alert_specs or self.windows is None:
            return None
        from repro.obs.alerts import evaluate_all

        return evaluate_all(self.windows, self.alert_specs)

    # -- engine-facing ------------------------------------------------------

    def record_run(self, result: Any, wall_seconds: float, sim_events: int) -> None:
        """Called by the engine when a run completes inside this scope."""
        windows = self._finish_pending()
        counts: dict[str, int] = {}
        for thread in result.threads.values():
            for domain in (thread.events_user, thread.events_kernel):
                for event, n in domain.items():
                    counts[event.value] = counts.get(event.value, 0) + n
        self.records.append(
            EngineRunRecord(
                index=len(self.records),
                seed=result.config.seed,
                config_repr=repr(result.config),
                frequency=result.config.machine.frequency,
                wall_seconds=wall_seconds,
                sim_cycles=result.wall_cycles,
                sim_events=sim_events,
                context_switches=result.kernel.n_context_switches,
                pmis=result.kernel.n_pmis,
                syscalls=result.kernel.syscall_total(),
                metrics=dict(sorted(result.metrics.items())),
                trace=list(result.trace) if self.capture_traces else [],
                thread_names={tid: t.name for tid, t in result.threads.items()},
                counts=dict(sorted(counts.items())),
                windows=windows,
                windows_streamed=self.stream is not None,
                fingerprint=(
                    result.fingerprint()
                    if os.environ.get("REPRO_FP_RECORDS") == "1"
                    else ""
                ),
            )
        )

    def merge_records(
        self, records: list[EngineRunRecord], keep_traces: bool | None = None
    ) -> None:
        """Adopt records collected elsewhere (a fabric worker, a cache hit).

        Records are re-indexed to this collector's sequence and their
        metrics keys normalized to sorted order, so the merged state is
        identical whichever collector recorded a run first; traces are
        dropped unless this collector captures them (matching what
        :meth:`record_run` would have kept for an in-process run).
        Windowed stats merge exactly into this scope's aggregate — merges
        are order-invariant, so serial and pooled execution agree.
        """
        if keep_traces is None:
            keep_traces = self.capture_traces
        for r in records:
            index = len(self.records)
            adopted = replace(
                r,
                index=index,
                metrics=dict(sorted(r.metrics.items())),
                trace=list(r.trace) if keep_traces else [],
            )
            self._adopt_windows(adopted, index)
            self.records.append(adopted)

    # -- aggregates ---------------------------------------------------------

    @property
    def n_runs(self) -> int:
        return len(self.records)

    @property
    def sim_events(self) -> int:
        return sum(r.sim_events for r in self.records)

    @property
    def sim_cycles(self) -> int:
        return sum(r.sim_cycles for r in self.records)

    @property
    def context_switches(self) -> int:
        return sum(r.context_switches for r in self.records)

    @property
    def pmis(self) -> int:
        return sum(r.pmis for r in self.records)

    @property
    def syscalls(self) -> int:
        return sum(r.syscalls for r in self.records)

    @property
    def wall_seconds(self) -> float:
        return sum(r.wall_seconds for r in self.records)

    def _metric_total(self, key: str) -> float:
        """Sum one engine self-telemetry counter across every run (a run
        without it, such as an unfaulted run for ``faults.*``, adds 0)."""
        return sum(r.metrics.get(key, 0) for r in self.records)

    def metrics_snapshot(self) -> dict[str, float]:
        """The manifest's metrics block: totals across every run, in
        deterministic (sorted) key order."""
        wall = self.wall_seconds
        snap = {
            "engine_runs": self.n_runs,
            "sim_events": self.sim_events,
            "sim_cycles": self.sim_cycles,
            "context_switches": self.context_switches,
            "pmis": self.pmis,
            "syscalls": self.syscalls,
            "wall_seconds": wall,
            "sim_events_per_sec": self.sim_events / wall if wall > 0 else 0.0,
        }
        snap.update(self.macro_summary())
        return dict(sorted(snap.items()))

    def macro_summary(self) -> dict[str, float]:
        """Engine fast-path telemetry totals: macro-stepping, composite
        PMC-read, whole-syscall, whole-sleep, resumed-exit and whole-phase
        counters, plus the quantum-level hit rate (fraction of scheduler
        quanta that were batched by a macro step rather than executed piece
        by piece against a serviced timer tick)."""
        macro_steps = self._metric_total("macro_steps")
        quanta = self._metric_total("quanta_batched")
        # n_timer_ticks counts every expired quantum, batched or not, so the
        # hit rate is simply the batched share of all quanta.
        ticks = self._metric_total("timer_ticks")
        return {
            "macro_steps": macro_steps,
            "quanta_batched": quanta,
            "timer_ticks": ticks,
            "fast_reads": self._metric_total("fast_reads"),
            "whole_syscalls": self._metric_total("whole_syscalls"),
            "whole_sleeps": self._metric_total("whole_sleeps"),
            "resumed_exits": self._metric_total("resumed_exits"),
            "whole_phases": self._metric_total("whole_phases"),
            "fastpath_bailouts": self._metric_total("fastpath_bailouts"),
            "macro_hit_rate": quanta / ticks if ticks else 0.0,
        }

    def fault_summary(self) -> dict[str, Any]:
        """Fault-injection totals across every run (the manifest's ``faults``
        block): injections by kind plus the detect/miss verdict counters —
        see :mod:`repro.faults.injector` for the semantics. All zero when no
        run had a fault plan."""
        by_kind: dict[str, float] = {}
        for r in self.records:
            for key, value in r.metrics.items():
                if key.startswith("faults.injected."):
                    kind = key[len("faults.injected."):]
                    by_kind[kind] = by_kind.get(kind, 0) + value
        return {
            "injected": self._metric_total("faults.injected"),
            "detected": self._metric_total("faults.detected"),
            "missed": self._metric_total("faults.missed"),
            "by_kind": dict(sorted(by_kind.items())),
        }

    def bailouts_by_reason(self) -> dict[str, float]:
        """Fast-path bailout totals keyed by ``path.reason`` (manifest detail)."""
        out: dict[str, float] = {}
        for r in self.records:
            for key, value in r.metrics.items():
                if key.startswith("fastpath_bailout."):
                    reason = key[len("fastpath_bailout."):]
                    out[reason] = out.get(reason, 0) + value
        return dict(sorted(out.items()))

    def counts_total(self) -> dict[str, int] | None:
        """Ground-truth event totals across every run in this scope, or
        None when no record carries counts."""
        totals: dict[str, int] = {}
        seen = False
        for r in self.records:
            if not r.counts:
                continue
            seen = True
            for name, n in r.counts.items():
                totals[name] = totals.get(name, 0) + n
        return dict(sorted(totals.items())) if seen else None

    def config_hash(self) -> str:
        """Stable digest of every distinct (seed, config) this scope ran —
        the manifest's reproducibility fingerprint."""
        digest = hashlib.sha256()
        for key in sorted({(r.seed, r.config_repr) for r in self.records}):
            digest.update(repr(key).encode())
        return digest.hexdigest()[:16]

    def perfetto_runs(self):
        """``runs`` input for :func:`repro.obs.export.write_perfetto`."""
        return [
            (
                f"{self.label or 'run'}[{r.index}] seed={r.seed}",
                r.trace,
                r.frequency,
                r.thread_names,
            )
            for r in self.records
            if r.trace
        ]

    def all_events(self) -> list[TraceEvent]:
        """Every captured event, run order preserved (for JSONL dumps)."""
        out: list[TraceEvent] = []
        for r in self.records:
            out.extend(r.trace)
        return out


_stack: list[RunCollector] = []


def current() -> RunCollector | None:
    """The innermost active collector, or None."""
    return _stack[-1] if _stack else None


def observe_latency(stream: str, value: int, at: int) -> None:
    """Record a latency sample on the innermost collector (no-op without
    one). Workloads call this with values derived from in-sim safe PMC
    reads; it is pure host-side bookkeeping and perturbs nothing. Called
    once per simulated request, so it reaches into the collector's
    pending stats directly instead of going through two method hops."""
    if _stack:
        collector = _stack[-1]
        stats = collector._pending
        if stats is None:
            stats = collector._pending_stats()
        stats.observe(stream, value, at)


def count_window(name: str, n: float = 1, *, at: int) -> None:
    """Bump a windowed counter on the innermost collector (no-op without
    one)."""
    if _stack:
        collector = _stack[-1]
        stats = collector._pending
        if stats is None:
            stats = collector._pending_stats()
        stats.count(name, n, at=at)


def observe_batch(
    stream: str,
    samples: list[tuple[int, int]],
    *,
    counter: str | None = None,
) -> None:
    """Record batched ``(value, at)`` latency samples on the innermost
    collector (no-op without one). Bit-identical to per-sample
    :func:`observe_latency`/:func:`count_window` calls in the same order;
    high-rate probes buffer locally and flush through this."""
    if _stack and samples:
        collector = _stack[-1]
        stats = collector._pending
        if stats is None:
            stats = collector._pending_stats()
        stats.observe_batch(stream, samples, counter=counter)


def register_alert_spec(spec: Any) -> bool:
    """Register an :class:`~repro.obs.alerts.SloSpec` with the innermost
    collector so its ``alerts_summary()`` (and the runner's manifest
    ``alerts`` block) covers it. Deduplicates by value; returns whether a
    collector was in scope to receive the spec."""
    if not _stack:
        return False
    collector = _stack[-1]
    if spec not in collector.alert_specs:
        collector.alert_specs.append(spec)
    return True


def register_assumption_verdicts(verdicts: list[dict[str, Any]]) -> bool:
    """Publish refutation-sweep verdicts (:meth:`repro.analysis.refute.
    Verdict.as_dict` payloads) to the innermost collector so the runner's
    manifest ``analysis`` block carries them. Deduplicates by value;
    returns whether a collector was in scope to receive them."""
    if not _stack:
        return False
    collector = _stack[-1]
    for verdict in verdicts:
        if verdict not in collector.assumption_verdicts:
            collector.assumption_verdicts.append(verdict)
    return True


@contextmanager
def collect(
    capture_traces: bool = False,
    label: str | None = None,
    window_spec: WindowSpec | None = None,
    stream: Any | None = None,
):
    """Collect every engine run completed within the block.

    ``window_spec`` shapes windowed observations made inside the scope;
    ``stream`` (a :class:`~repro.obs.export.JsonlStreamWriter`) exports
    windows incrementally as they are evicted or flushed.
    """
    collector = RunCollector(
        capture_traces=capture_traces,
        label=label,
        window_spec=window_spec,
        stream=stream,
    )
    _stack.append(collector)
    try:
        yield collector
    finally:
        _stack.pop()
