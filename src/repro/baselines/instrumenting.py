"""gprof-class instrumenting profiler.

Attaches entry/exit hooks to every region (function) a thread executes. The
engine charges the hook cost (an mcount-style stub with a timestamp read) on
each RegionBegin/RegionEnd and calls back into the profiler with the
*perturbed* timestamps — so the profiler's flat profile includes its own
overhead, exactly like real instrumentation-based profilers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.common.errors import SessionError
from repro.sim.program import ThreadContext


@dataclass
class FlatProfileEntry:
    """The profiler's view of one region."""

    name: str
    calls: int = 0
    total_cycles: int = 0        #: inclusive wall cycles, as the tool saw them
    _stack_times: dict[int, list[int]] = field(default_factory=dict, repr=False)


class InstrumentingProfiler:
    """Flat profiler driven by region entry/exit hooks (gprof-like)."""

    def __init__(self, name: str = "gprof") -> None:
        self.name = name
        self.entries: dict[str, FlatProfileEntry] = {}
        self.attached_tids: set[int] = set()

    def attach(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """Attach to the calling thread (must run before its regions).

        Generator for interface symmetry with sessions; attaching itself is
        a link-time property of the binary, so it costs nothing at runtime.
        """
        thread = ctx.thread()
        if thread.profiler is not None:
            raise SessionError(
                f"thread {ctx.tid} already has a profiler attached"
            )
        thread.profiler = self
        self.attached_tids.add(ctx.tid)
        return
        yield  # pragma: no cover - makes this a generator

    def detach(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        thread = ctx.thread()
        if thread.profiler is not self:
            raise SessionError(f"profiler {self.name!r} not attached to {ctx.tid}")
        thread.profiler = None
        self.attached_tids.discard(ctx.tid)
        return
        yield  # pragma: no cover

    # -- engine callbacks (timestamps are post-hook, i.e. perturbed) ---------

    def on_enter(self, tid: int, region: str, now: int) -> None:
        entry = self.entries.get(region)
        if entry is None:
            entry = FlatProfileEntry(name=region)
            self.entries[region] = entry
        entry._stack_times.setdefault(tid, []).append(now)

    def on_exit(self, tid: int, region: str, now: int) -> None:
        entry = self.entries.get(region)
        if entry is None or not entry._stack_times.get(tid):
            # exit without enter: region opened before attach; ignore
            return
        t0 = entry._stack_times[tid].pop()
        entry.calls += 1
        entry.total_cycles += now - t0

    # -- results ---------------------------------------------------------------

    def total_cycles(self, region: str) -> int:
        entry = self.entries.get(region)
        return entry.total_cycles if entry else 0

    def calls(self, region: str) -> int:
        entry = self.entries.get(region)
        return entry.calls if entry else 0
