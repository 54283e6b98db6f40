"""Behavior-over-time analysis from boundary checkpoints.

The paper's motivating use of cheap precise reads is watching *how an
application's microarchitectural behaviour evolves* — reading a few
counters at natural program boundaries (transaction end, event-loop turn)
costs ~100 ns with LiMiT, so even high-frequency boundaries add ~0.1%
overhead while yielding an exact time series.

This module turns a session's read records (taken at such checkpoints)
into per-interval samples and windowed series of derived metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.expr import Expr, env_from_counts, evaluate, parse
from repro.analysis.tree import STANDARD_METRICS
from repro.common.errors import ReproError
from repro.core.limit import LimitSession
from repro.hw.events import Event

_IPC = parse(STANDARD_METRICS["ipc"])
_MPKI: dict[Event, Expr] = {
    event: parse(f"per_kilo_insn({event.value})") for event in Event
}


def _value(expr: Expr, env: dict[str, float]) -> float:
    """A DSL metric over ``env``; undefined (``None``) reads as 0.0."""
    value = evaluate(expr, env)
    return 0.0 if value is None else float(value)


@dataclass(frozen=True)
class IntervalSample:
    """Event deltas between two consecutive checkpoints of one thread."""

    tid: int
    start: int               #: simulated time of the opening checkpoint
    end: int                 #: simulated time of the closing checkpoint
    deltas: dict[Event, int]

    @property
    def midpoint(self) -> int:
        return (self.start + self.end) // 2


def interval_samples(session: LimitSession) -> list[IntervalSample]:
    """Pair up consecutive checkpoint reads per thread.

    Expects the session's counters to have been read together (read_all) at
    each checkpoint; intervals are formed between consecutive checkpoints.
    """
    n_counters = len(session.specs)
    if n_counters == 0:
        raise ReproError("session has no counters")
    per_thread: dict[int, list] = {}
    for record in session.records:
        per_thread.setdefault(record.tid, []).append(record)

    samples: list[IntervalSample] = []
    for tid, records in per_thread.items():
        records.sort(key=lambda r: (r.time, r.slot))
        # group into checkpoints of n_counters consecutive records
        checkpoints = [
            records[i: i + n_counters]
            for i in range(0, len(records) - n_counters + 1, n_counters)
        ]
        for prev, curr in zip(checkpoints, checkpoints[1:]):
            deltas = {}
            for a, b in zip(prev, curr):
                if a.event is not b.event:
                    raise ReproError(
                        "checkpoint records misaligned; read counters with "
                        "read_all() at every checkpoint"
                    )
                deltas[a.event] = b.value - a.value
            samples.append(
                IntervalSample(
                    tid=tid,
                    start=prev[-1].time,
                    end=curr[-1].time,
                    deltas=deltas,
                )
            )
    samples.sort(key=lambda s: (s.start, s.tid))
    return samples


@dataclass(frozen=True)
class WindowPoint:
    """Aggregated metrics over one time window (all threads merged)."""

    window_start: int
    window_end: int
    n_intervals: int
    ipc: float
    mpki: dict[Event, float]


def windowed_series(
    samples: list[IntervalSample],
    window_cycles: int,
    miss_events: tuple[Event, ...] = (Event.LLC_MISSES,),
) -> list[WindowPoint]:
    """Bucket interval samples into fixed windows by interval midpoint and
    compute aggregate IPC / MPKI per window. Empty windows are skipped."""
    if window_cycles <= 0:
        raise ReproError("window must be positive")
    if not samples:
        return []
    horizon = max(s.end for s in samples)
    points: list[WindowPoint] = []
    buckets: dict[int, list[IntervalSample]] = {}
    for sample in samples:
        buckets.setdefault(sample.midpoint // window_cycles, []).append(sample)
    for index in sorted(buckets):
        window = buckets[index]
        totals: dict[Event, int] = {}
        for sample in window:
            for event, delta in sample.deltas.items():
                totals[event] = totals.get(event, 0) + delta
        env = env_from_counts(totals)
        points.append(
            WindowPoint(
                window_start=index * window_cycles,
                window_end=min(horizon, (index + 1) * window_cycles),
                n_intervals=len(window),
                ipc=_value(_IPC, env),
                mpki={event: _value(_MPKI[event], env) for event in miss_events},
            )
        )
    return points


def spikes(
    points: list[WindowPoint],
    event: Event,
    factor: float = 2.0,
) -> list[WindowPoint]:
    """Windows whose MPKI exceeds ``factor`` x the median — phase changes
    (GC pauses, working-set shifts) stand out of the steady state."""
    values = sorted(p.mpki.get(event, 0.0) for p in points)
    if not values:
        return []
    median = values[len(values) // 2]
    if median == 0:
        return [p for p in points if p.mpki.get(event, 0.0) > 0]
    return [p for p in points if p.mpki.get(event, 0.0) > factor * median]
