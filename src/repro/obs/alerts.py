"""Multi-window SLO burn-rate alerting over windowed histograms.

Classic SRE practice: define a service-level objective ("99% of requests
complete within T cycles"), track how fast the error budget (the allowed
1%) is being consumed, and page only when *both* a fast and a slow
trailing window burn the budget above threshold — the fast window gives
low detection latency, the slow window suppresses one-window blips.

Inputs come straight from the existing streaming-observability tier: the
per-window :class:`~repro.obs.hist.LogHistogram` of a latency stream
inside :class:`~repro.obs.windows.WindowedStats`. ``bad`` per window is
:meth:`LogHistogram.count_over` of the SLO threshold, so burn rates are
computed to bucket precision and — because bucket counts merge exactly
and order-invariantly — the alert verdicts are identical serial vs
``--jobs N`` and with streaming export on or off.

Everything here is host-side post-processing of collected windows: by
construction it cannot perturb simulation fingerprints. Evaluation covers
retained (and late) per-window detail only; windows already spilled into
the retention aggregate have lost their indices and are reported in the
``excluded`` count — size the retention to at least the slow-window span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.common.errors import ConfigError
from repro.obs.windows import SPILLED_INDEX, Window, WindowedStats


@dataclass(frozen=True)
class SloSpec:
    """One latency SLO plus its two-window burn-rate alert policy.

    ``objective`` is the target fraction of requests under
    ``threshold_cycles`` (0.99 = "99% under T"); the error budget is
    ``1 - objective``. Burn rate over a span of trailing windows is
    ``(bad / total) / (1 - objective)`` — 1.0 means the budget is being
    consumed exactly at the sustainable rate, higher burns it faster. The
    alert fires in a window when the trailing ``fast_windows`` burn is at
    least ``fast_burn`` *and* the trailing ``slow_windows`` burn is at
    least ``slow_burn``.
    """

    name: str
    stream: str
    threshold_cycles: int
    objective: float = 0.99
    fast_windows: int = 1
    slow_windows: int = 4
    fast_burn: float = 10.0
    slow_burn: float = 4.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("SloSpec needs a name")
        if not self.stream:
            raise ConfigError("SloSpec needs a stream name")
        if self.threshold_cycles < 1:
            raise ConfigError("SLO threshold must be >= 1 cycle")
        if not 0.0 < self.objective < 1.0:
            raise ConfigError("SLO objective must be in (0, 1)")
        if self.fast_windows < 1 or self.slow_windows < self.fast_windows:
            raise ConfigError(
                "need 1 <= fast_windows <= slow_windows "
                f"(got {self.fast_windows}, {self.slow_windows})"
            )
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ConfigError("burn-rate thresholds must be > 0")

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "stream": self.stream,
            "threshold_cycles": self.threshold_cycles,
            "objective": self.objective,
            "fast_windows": self.fast_windows,
            "slow_windows": self.slow_windows,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
        }


@dataclass(frozen=True)
class AlertEvent:
    """One window in which an SLO's two-window burn alert fired."""

    spec_name: str
    window_index: int
    window_start: int  #: first cycle of the window (index * window_cycles)
    fast_burn: float
    slow_burn: float
    bad: int  #: over-threshold samples in the fast span
    total: int  #: all samples in the fast span

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "alert",
            "spec": self.spec_name,
            "window": self.window_index,
            "start": self.window_start,
            "fast_burn": round(self.fast_burn, 4),
            "slow_burn": round(self.slow_burn, 4),
            "bad": self.bad,
            "total": self.total,
        }


@dataclass
class AlertReport:
    """Evaluation result of one :class:`SloSpec` over a window series."""

    spec: SloSpec
    window_cycles: int
    events: list[AlertEvent]
    n_windows: int  #: distinct window indices evaluated
    total: int  #: stream samples across evaluated windows
    bad: int  #: over-threshold samples across evaluated windows
    excluded: int  #: samples unreachable per-window (spilled aggregates)

    @property
    def fired(self) -> int:
        return len(self.events)

    def firing_windows(self) -> list[int]:
        return [e.window_index for e in self.events]

    def summary(self) -> dict[str, Any]:
        """The manifest ``alerts`` block entry for this SLO."""
        return {
            "spec": self.spec.as_dict(),
            "window_cycles": self.window_cycles,
            "n_windows": self.n_windows,
            "total": self.total,
            "bad": self.bad,
            "excluded": self.excluded,
            "fired": self.fired,
            "events": [e.as_dict() for e in self.events],
        }


def _window_series(
    source: WindowedStats | Iterable[Window],
) -> tuple[list[Window], int, list[Window]]:
    """Normalize the input into (indexed windows sorted by index,
    window_cycles, aggregate pseudo-windows). Aggregates (spilled/late,
    index < 0) cannot be placed on the timeline, so their samples are
    excluded from burn-rate evaluation and only counted.
    """
    if isinstance(source, WindowedStats):
        window_cycles = source.spec.window_cycles
        windows = [source.windows[i] for i in sorted(source.windows)]
        aggregates = [source.spilled, source.late]
    else:
        window_cycles = 0
        windows, aggregates = [], []
        for w in source:
            if w.index == SPILLED_INDEX or w.index < 0:
                aggregates.append(w)
            else:
                windows.append(w)
        windows.sort(key=lambda w: w.index)
    return windows, window_cycles, aggregates


def evaluate(
    source: WindowedStats | Iterable[Window],
    spec: SloSpec,
    *,
    window_cycles: int | None = None,
) -> AlertReport:
    """Evaluate one SLO's burn-rate alerts over a window series.

    ``source`` is either a :class:`WindowedStats` (its retained windows
    are used and ``window_cycles`` comes from its spec) or any iterable
    of :class:`Window` (e.g. decoded from a ``repro.obs/stream/v1``
    export), in any order — evaluation sorts by index, and merge
    order-invariance of the underlying histograms makes the verdicts
    independent of how the windows were accumulated.

    Gaps in the index sequence are genuine quiet windows: they contribute
    zero samples to the trailing spans (no traffic burns no budget).
    """
    windows, wc, aggregates = _window_series(source)
    if window_cycles is not None:
        wc = window_cycles
    per_window: dict[int, tuple[int, int]] = {}
    total = bad = 0
    for w in windows:
        hist = w.hists.get(spec.stream)
        if hist is None or hist.n == 0:
            continue
        over = hist.count_over(spec.threshold_cycles)
        prev = per_window.get(w.index, (0, 0))
        per_window[w.index] = (prev[0] + hist.n, prev[1] + over)
        total += hist.n
        bad += over
    excluded = 0
    for agg in aggregates:
        h = agg.hists.get(spec.stream)
        if h is not None:
            excluded += h.n

    budget = 1.0 - spec.objective

    def span_burn(end_index: int, span: int) -> tuple[float, int, int]:
        s_total = s_bad = 0
        for i in range(end_index - span + 1, end_index + 1):
            t, b = per_window.get(i, (0, 0))
            s_total += t
            s_bad += b
        if s_total == 0:
            return 0.0, 0, 0
        return (s_bad / s_total) / budget, s_bad, s_total

    events: list[AlertEvent] = []
    for index in sorted(per_window):
        fast, fast_bad, fast_total = span_burn(index, spec.fast_windows)
        slow, _, _ = span_burn(index, spec.slow_windows)
        if fast_bad > 0 and fast >= spec.fast_burn and slow >= spec.slow_burn:
            events.append(
                AlertEvent(
                    spec_name=spec.name,
                    window_index=index,
                    window_start=index * wc,
                    fast_burn=fast,
                    slow_burn=slow,
                    bad=fast_bad,
                    total=fast_total,
                )
            )
    return AlertReport(
        spec=spec,
        window_cycles=wc,
        events=events,
        n_windows=len(per_window),
        total=total,
        bad=bad,
        excluded=excluded,
    )


def evaluate_all(
    source: WindowedStats | Iterable[Window],
    specs: Iterable[SloSpec],
    *,
    window_cycles: int | None = None,
) -> dict[str, Any] | None:
    """The manifest ``alerts`` block: every SLO's report, or ``None`` when
    no specs are registered."""
    specs = list(specs)
    if not specs:
        return None
    if not isinstance(source, WindowedStats):
        source = list(source)
    reports = [
        evaluate(source, spec, window_cycles=window_cycles) for spec in specs
    ]
    return {
        "fired": sum(r.fired for r in reports),
        "slos": [r.summary() for r in reports],
    }
