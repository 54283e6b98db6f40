"""Time-bucketed counter windows with bounded retention.

The streaming tier's in-memory representation: observations (windowed
counters and latency histogram points) are bucketed by simulated time into
fixed-width windows. Only the newest ``retention`` windows are kept in
full detail; older ones are *evicted* — handed to an optional sink (the
streaming JSONL exporter) and folded into a single ``spilled`` aggregate
window — so memory is bounded by the retention, never by how many
observations a run produces.

Exactness contract (property-tested):

* ``totals`` is maintained independently of windowing and eviction, so
  summary percentiles and counter sums are *exact* regardless of window
  size, retention, eviction or merge order.
* ``merge(retained windows) + spilled + late == totals`` at all times
  (:meth:`WindowedStats.reconcile`) — window summaries reconcile exactly
  with the batch view of the same run. ``late`` aggregates observations
  that arrive for windows already evicted (out-of-order timestamps);
  their per-window detail is gone but their contribution is never lost.
* :meth:`WindowedStats.merge` is order-invariant: merging worker-side
  stats A then B produces bit-identical state to B then A (bucket counts
  are integers; eviction keeps the highest ``retention`` window indices
  either way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.obs.hist import DEFAULT_BITS, LogHistogram

#: Window index of the spilled (evicted) aggregate in dict forms.
SPILLED_INDEX = -1

#: Default window width in simulated cycles (~4 ms at 2.4 GHz).
DEFAULT_WINDOW_CYCLES = 10_000_000

#: Default number of detailed windows kept in memory.
DEFAULT_RETENTION = 128


@dataclass(frozen=True)
class WindowSpec:
    """Shape of a windowed collector: width, retention, hist precision."""

    window_cycles: int = DEFAULT_WINDOW_CYCLES
    retention: int = DEFAULT_RETENTION
    hist_bits: int = DEFAULT_BITS

    def __post_init__(self) -> None:
        if self.window_cycles < 1:
            raise ValueError(
                f"window_cycles must be >= 1, got {self.window_cycles}"
            )
        if self.retention < 1:
            raise ValueError(f"retention must be >= 1, got {self.retention}")


class Window:
    """One time bucket: counters plus per-stream latency histograms."""

    __slots__ = ("index", "counters", "hists")

    def __init__(self, index: int) -> None:
        self.index = index
        self.counters: dict[str, float] = {}
        self.hists: dict[str, LogHistogram] = {}

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def hist(self, stream: str, bits: int) -> LogHistogram:
        h = self.hists.get(stream)
        if h is None:
            h = self.hists[stream] = LogHistogram(bits=bits)
        return h

    def merge(self, other: "Window") -> "Window":
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for stream, hist in other.hists.items():
            mine = self.hists.get(stream)
            if mine is None:
                mine = self.hists[stream] = LogHistogram(bits=hist.bits)
            mine.merge(hist)
        return self

    def copy(self) -> "Window":
        out = Window(self.index)
        out.merge(self)
        return out

    def is_empty(self) -> bool:
        return not self.counters and not self.hists

    def as_dict(self, spec: WindowSpec | None = None) -> dict[str, Any]:
        """JSON-safe, deterministically ordered dict form (lossless)."""
        out: dict[str, Any] = {"index": self.index}
        if spec is not None and self.index >= 0:
            out["start_cycle"] = self.index * spec.window_cycles
            out["end_cycle"] = (self.index + 1) * spec.window_cycles - 1
        out["counters"] = dict(sorted(self.counters.items()))
        out["hists"] = {
            stream: self.hists[stream].as_dict()
            for stream in sorted(self.hists)
        }
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Window":
        window = cls(data["index"])
        window.counters = dict(data["counters"])
        window.hists = {
            stream: LogHistogram.from_dict(h)
            for stream, h in data["hists"].items()
        }
        return window

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Window):
            return NotImplemented
        return (
            self.index == other.index
            and self.counters == other.counters
            and self.hists == other.hists
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Window {self.index} counters={len(self.counters)} "
            f"hists={len(self.hists)}>"
        )


#: Sink signature: called with each evicted window (full detail) exactly
#: once, in ascending window-index order.
EvictSink = Callable[[Window], None]


class WindowedStats:
    """Windowed observations with bounded retention and exact totals."""

    def __init__(
        self,
        spec: WindowSpec | None = None,
        on_evict: Optional[EvictSink] = None,
    ) -> None:
        self.spec = spec or WindowSpec()
        self.on_evict = on_evict
        self.windows: dict[int, Window] = {}
        self.spilled = Window(SPILLED_INDEX)
        #: observations for windows already evicted or below the retention
        #: range — never streamed live, so kept apart from ``spilled``
        #: (whose content a sink has already seen window by window)
        self.late = Window(SPILLED_INDEX)
        self.totals = Window(SPILLED_INDEX)  # index unused; exact run totals
        #: highest window index ever evicted (late arrivals spill directly)
        self.evict_horizon = SPILLED_INDEX
        self.evicted_windows = 0
        self.late_observations = 0
        self.max_retained = 0  # high-water mark, for memory audits
        # Hot-path caches: consecutive observations overwhelmingly hit
        # the same window and stream, so the last resolved target window
        # and (window, totals) histogram pair are memoized. A cached
        # entry always refers to a still-retained window: evictions and
        # merges drop both caches. Never pickled or compared.
        self._hot_target: tuple[int, Window] | None = None
        self._hot_hists: (
            tuple[str, int, LogHistogram, LogHistogram] | None
        ) = None

    # -- feeding ------------------------------------------------------------

    def _target(self, at: int) -> Window:
        at = int(at)
        index = (at if at > 0 else 0) // self.spec.window_cycles
        hot = self._hot_target
        if hot is not None and hot[0] == index:
            return hot[1]
        if index <= self.evict_horizon:
            # The window this observation belongs to was already evicted;
            # keep totals exact by routing it into the late aggregate.
            self.late_observations += 1
            return self.late
        window = self.windows.get(index)
        if window is None:
            if (
                len(self.windows) >= self.spec.retention
                and index < min(self.windows)
            ):
                # Below the retention range: the window would be evicted
                # the instant it was created (and a sink would see it
                # empty). Treat the observation as late instead.
                self.late_observations += 1
                return self.late
            window = self.windows[index] = Window(index)
            self._enforce_retention()
            if len(self.windows) > self.max_retained:
                self.max_retained = len(self.windows)
        if window.index == index:  # retained window, safe to memoize
            self._hot_target = (index, window)
        return window

    def observe(self, stream: str, value: int, at: int) -> None:
        """Record one latency/histogram point for ``stream`` at sim time
        ``at`` (cycles); feeds both the window and the exact totals.

        This is the per-request hot path of the streaming tier: the
        (stream, window) -> histogram-pair resolution is memoized and the
        bucket update is inlined, so the common case costs one division,
        one bucket-index computation and two raw bucket adds.
        """
        at = int(at)
        index = (at if at > 0 else 0) // self.spec.window_cycles
        hot = self._hot_hists
        if hot is not None and hot[1] == index and hot[0] == stream:
            whist, thist = hot[2], hot[3]
        else:
            window = self._target(at)
            bits = self.spec.hist_bits
            whist = window.hist(stream, bits)
            thist = self.totals.hist(stream, bits)
            if window.index == index:  # retained; safe to memoize
                self._hot_hists = (stream, index, whist, thist)
            else:  # late aggregate: _target must keep counting these
                self._hot_hists = None
        value = int(value)
        if value < 0:
            value = 0
        bits = whist.bits
        if value < (1 << bits):
            idx = value
        else:
            exp = value.bit_length() - bits
            idx = (exp << bits) + (value >> exp)
        for h in (whist, thist):
            counts = h.counts
            counts[idx] = counts.get(idx, 0) + 1
            h.n += 1
            h.total += value
            if h.min_value is None or value < h.min_value:
                h.min_value = value
            if h.max_value is None or value > h.max_value:
                h.max_value = value

    def count(self, name: str, n: float = 1, *, at: int) -> None:
        """Add ``n`` to windowed counter ``name`` at sim time ``at``."""
        counters = self._target(at).counters
        counters[name] = counters.get(name, 0) + n
        totals = self.totals.counters
        totals[name] = totals.get(name, 0) + n

    def observe_batch(
        self,
        stream: str,
        samples: list[tuple[int, int]],
        *,
        counter: str | None = None,
    ) -> None:
        """Record ``(value, at)`` samples in one tight loop; optionally bump
        windowed counter ``counter`` by 1 per sample in the same window.

        Bit-identical to calling :meth:`observe` (and :meth:`count`) per
        sample in the same order — high-rate probes batch their samples
        locally and flush here so recording cost stays off their hot path
        (the same buffering idea LiMiT itself uses for cheap reads).
        """
        wc = self.spec.window_cycles
        bits = self.spec.hist_bits
        thist = self.totals.hist(stream, bits)
        tcounters = self.totals.counters
        hot_index: int | None = None
        whist = thist  # placeholder; reassigned before first use
        wcounters = tcounters
        for value, at in samples:
            at = int(at)
            index = (at if at > 0 else 0) // wc
            if index != hot_index:
                window = self._target(at)
                whist = window.hist(stream, bits)
                wcounters = window.counters
                # late/spilled targets must re-resolve every sample (the
                # late-observation counter lives in _target)
                hot_index = index if window.index == index else None
                if hot_index is None and counter is not None:
                    # per-sample calls route the histogram point and the
                    # counter bump through _target separately, counting
                    # two late observations; stay bit-identical to that
                    self.late_observations += 1
            value = int(value)
            if value < 0:
                value = 0
            if value < (1 << bits):
                idx = value
            else:
                exp = value.bit_length() - bits
                idx = (exp << bits) + (value >> exp)
            for h in (whist, thist):
                counts = h.counts
                counts[idx] = counts.get(idx, 0) + 1
                h.n += 1
                h.total += value
                if h.min_value is None or value < h.min_value:
                    h.min_value = value
                if h.max_value is None or value > h.max_value:
                    h.max_value = value
            if counter is not None:
                wcounters[counter] = wcounters.get(counter, 0) + 1
                tcounters[counter] = tcounters.get(counter, 0) + 1

    def _enforce_retention(self) -> None:
        while len(self.windows) > self.spec.retention:
            index = min(self.windows)
            self._evict(index)

    def _evict(self, index: int) -> None:
        self._hot_target = None
        self._hot_hists = None
        window = self.windows.pop(index)
        if index > self.evict_horizon:
            self.evict_horizon = index
        self.evicted_windows += 1
        if self.on_evict is not None:
            self.on_evict(window)
        self.spilled.merge(window)

    # -- merging ------------------------------------------------------------

    def merge(self, other: "WindowedStats") -> "WindowedStats":
        """Fold ``other`` (a worker's or another run's stats) in, exactly.

        Order-invariant: the retained set afterwards is the highest
        ``retention`` window indices of the union, everything else is in
        ``spilled``, and ``totals`` is the exact sum — whichever order the
        merges happened in.
        """
        if other.spec.window_cycles != self.spec.window_cycles:
            raise ValueError(
                "cannot merge windowed stats with different window sizes "
                f"({self.spec.window_cycles} vs {other.spec.window_cycles})"
            )
        self._hot_target = None
        self._hot_hists = None
        for index in sorted(other.windows):
            window = other.windows[index]
            if index <= self.evict_horizon:
                self.spilled.merge(window)
            else:
                mine = self.windows.get(index)
                if mine is None:
                    self.windows[index] = window.copy()
                else:
                    mine.merge(window)
        self.spilled.merge(other.spilled)
        self.late.merge(other.late)
        self.totals.merge(other.totals)
        if other.evict_horizon > self.evict_horizon:
            self.evict_horizon = other.evict_horizon
        self.evicted_windows += other.evicted_windows
        self.late_observations += other.late_observations
        # The horizon may have advanced past windows we retained: spill
        # them so both merge orders converge to the same state.
        for index in sorted(self.windows):
            if index <= self.evict_horizon:
                self.spilled.merge(self.windows.pop(index))
        self._enforce_retention()
        if len(self.windows) > self.max_retained:
            self.max_retained = len(self.windows)
        return self

    def detach_sink(self) -> None:
        """Drop the eviction sink (before pickling/attaching to records)."""
        self.on_evict = None

    # -- queries ------------------------------------------------------------

    def is_empty(self) -> bool:
        return self.totals.is_empty()

    def retained_view(self) -> Window:
        """Retained + spilled + late, merged (== totals by invariant)."""
        view = Window(SPILLED_INDEX)
        for index in sorted(self.windows):
            view.merge(self.windows[index])
        view.merge(self.spilled)
        view.merge(self.late)
        return view

    def reconcile(self) -> bool:
        """True iff retained + spilled + late reproduce the exact totals."""
        view = self.retained_view()
        return (
            view.counters == self.totals.counters
            and view.hists == self.totals.hists
        )

    def summary(self) -> dict[str, Any]:
        """Manifest block: exact per-stream percentiles + counter totals,
        plus windowing/memory facts. Keys are deterministically ordered."""
        return {
            "window_cycles": self.spec.window_cycles,
            "retention": self.spec.retention,
            "hist_bits": self.spec.hist_bits,
            "n_windows": len(self.windows) + self.evicted_windows,
            "retained_windows": len(self.windows),
            "evicted_windows": self.evicted_windows,
            "late_observations": self.late_observations,
            "max_retained": self.max_retained,
            "reconciled": self.reconcile(),
            "counters": dict(sorted(self.totals.counters.items())),
            "streams": {
                stream: self.totals.hists[stream].summary()
                for stream in sorted(self.totals.hists)
            },
        }

    def memory_audit(self) -> dict[str, int]:
        """Bounded-memory evidence: retained windows never exceed the
        retention, and live bucket cells are bounded by windows * streams *
        buckets-per-histogram — none of it grows with observation count."""
        bucket_cells = sum(
            len(h.counts)
            for w in self.windows.values()
            for h in w.hists.values()
        )
        bucket_cells += sum(len(h.counts) for h in self.spilled.hists.values())
        bucket_cells += sum(len(h.counts) for h in self.late.hists.values())
        bucket_cells += sum(len(h.counts) for h in self.totals.hists.values())
        return {
            "retained_windows": len(self.windows),
            "max_retained": self.max_retained,
            "retention": self.spec.retention,
            "bucket_cells": bucket_cells,
        }

    # -- interchange --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowedStats):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.windows == other.windows
            and self.spilled == other.spilled
            and self.late == other.late
            and self.totals == other.totals
            and self.evict_horizon == other.evict_horizon
            and self.evicted_windows == other.evicted_windows
            and self.late_observations == other.late_observations
        )

    def __getstate__(self) -> dict[str, Any]:
        # Sinks are process-local (an open stream writer) and hot-path
        # caches are derived state; neither is pickled.
        drop = ("on_evict", "_hot_target", "_hot_hists")
        return {k: v for k, v in self.__dict__.items() if k not in drop}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.on_evict = None
        self._hot_target = None
        self._hot_hists = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WindowedStats windows={len(self.windows)} "
            f"evicted={self.evicted_windows} "
            f"n={sum(h.n for h in self.totals.hists.values())}>"
        )
