"""The perf_event ``read(2)`` baseline: the slowest precise path.

Models the stock-kernel interface the paper's users were stuck with:
``perf_event_open`` once, then a full ``read(2)`` — fd lookup, event
synchronisation, format handling — per value. Precise but several
microseconds per read.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.core.limit import ReadLog
from repro.common.errors import SessionError
from repro.hw.events import Event
from repro.sim.ops import Syscall
from repro.sim.program import ThreadContext


class PerfReadSession:
    """Counting perf_event fds read via the read(2) syscall."""

    name = "perf_read"

    def __init__(
        self,
        events: Iterable[Event],
        count_kernel: bool = False,
        name: str = "perf_read",
    ) -> None:
        self.name = name
        self.events = list(events)
        if not self.events:
            raise SessionError("a session needs at least one event")
        self.count_kernel = count_kernel
        #: per-thread fd list, same order as events
        self.fds: dict[int, list[int]] = {}
        self.records = ReadLog()

    def setup(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        if ctx.tid in self.fds:
            raise SessionError(
                f"session {self.name!r} already set up on thread {ctx.tid}"
            )
        fds = []
        for event in self.events:
            fd = yield Syscall(
                "perf_open", (event, "count", 0, True, self.count_kernel)
            )
            fds.append(fd)
        self.fds[ctx.tid] = fds

    def teardown(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        for fd in self._fds(ctx):
            yield Syscall("perf_close", (fd,))
        del self.fds[ctx.tid]

    def read(self, ctx: ThreadContext, i: int = 0) -> Generator[Any, Any, int]:
        """read(2) on the i-th event's fd."""
        fds = self._fds(ctx)
        if not 0 <= i < len(fds):
            raise SessionError(f"no fd index {i} in session {self.name!r}")
        value = yield Syscall("perf_read", (fds[i],))
        thread = ctx.thread()
        # engine stored the truth under the backing slot; find it via the fd
        engine = ctx._engine
        slot = engine.perf.get(fds[i]).slot
        truth = thread.last_kernel_read_truth.get(slot, 0)
        self.records.add(
            ctx.tid,
            ctx.now_of(thread),
            slot,
            self.events[i],
            value,
            truth,
            "perf_read",
        )
        return value

    def read_all(self, ctx: ThreadContext) -> Generator[Any, Any, list[int]]:
        values = []
        for i in range(len(self.events)):
            values.append((yield from self.read(ctx, i)))
        return values

    def errors(self) -> list[int]:
        return self.records.errors()

    def max_abs_error(self) -> int:
        return self.records.max_abs_error()

    def _fds(self, ctx: ThreadContext) -> list[int]:
        try:
            return self.fds[ctx.tid]
        except KeyError:
            raise SessionError(
                f"session {self.name!r} not set up on thread {ctx.tid}"
            ) from None
