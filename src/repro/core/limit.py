"""LiMiT sessions: the public measurement API of the reproduction.

A :class:`LimitSession` owns a set of virtualized counters (one per event)
for every thread that calls :meth:`setup`. Reads are precise, userspace-only
and cost tens of nanoseconds; every read is recorded together with the
simulator's ground truth so accuracy can be audited after the run.

Typical use inside a thread program::

    session = LimitSession([Event.CYCLES, Event.LLC_MISSES])

    def worker(ctx):
        yield from session.setup(ctx)
        start = yield from session.read(ctx, 0)
        yield Compute(100_000, rates)
        end = yield from session.read(ctx, 0)
        # end - start == exact cycles, measurement overhead included
        yield from session.teardown(ctx)
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from operator import eq, sub
from typing import Any, Callable, Generator, Iterable, Iterator, NamedTuple, overload

from repro.common.errors import SessionError
from repro.core.read_protocol import destructive_read
from repro.hw.events import Event
from repro.kernel.vpmu import SlotSpec
from repro.sim.ops import PmcSafeRead, PmcUnsafeRead, Syscall
from repro.sim.program import ThreadContext


class ReadRecord(NamedTuple):
    """One counter read as observed by the tool, plus ground truth.

    Immutable. Sessions do not keep these: a :class:`ReadLog` stores each
    read in columns, at about 42 bytes, and builds the record on access.
    """

    tid: int
    time: int            #: simulated time when the read completed
    slot: int            #: physical/virtual slot index
    event: Event
    value: int           #: what the tool saw
    truth: int           #: exact count at the rdpmc instant (engine ground truth)
    protocol: str        #: 'safe' | 'unsafe' | 'destructive' | 'papi' | 'perf_read'

    @property
    def error(self) -> int:
        return self.value - self.truth


class ReadLog(Sequence[ReadRecord]):
    """A session's read records, stored column by column.

    ``tid``, ``time``, ``slot``, ``value`` and ``truth`` are unsigned 64-bit
    arrays; ``event`` and ``protocol`` are one-byte indices into tables kept
    per log. A read costs about 42 bytes, where a :class:`ReadRecord` tuple
    of boxed ints cost 220. A field outside ``[0, 2**64)`` raises
    ``OverflowError`` and the log is left as it was.

    A read-only sequence of records: ``len``, indexing, slicing (a list)
    and iteration build :class:`ReadRecord` s on access, and ``==``
    compares with any sequence of records.
    """

    __slots__ = (
        "_tid", "_time", "_slot", "_event", "_value", "_truth", "_protocol",
        "_events", "_event_ids", "_protocols", "_protocol_ids",
    )

    def __init__(self) -> None:
        self._tid = array("Q")
        self._time = array("Q")
        self._slot = array("Q")
        self._event = array("B")
        self._value = array("Q")
        self._truth = array("Q")
        self._protocol = array("B")
        self._events: list[Event] = []
        self._event_ids: dict[Event, int] = {}
        self._protocols: list[str] = []
        self._protocol_ids: dict[str, int] = {}

    def add(
        self,
        tid: int,
        time: int,
        slot: int,
        event: Event,
        value: int,
        truth: int,
        protocol: str,
    ) -> None:
        """Append one read."""
        event_id = self._event_ids.get(event)
        if event_id is None:
            event_id = self._event_ids[event] = len(self._events)
            self._events.append(event)
        protocol_id = self._protocol_ids.get(protocol)
        if protocol_id is None:
            protocol_id = self._protocol_ids[protocol] = len(self._protocols)
            self._protocols.append(protocol)
        n = len(self._tid)
        try:
            self._tid.append(tid)
            self._time.append(time)
            self._slot.append(slot)
            self._event.append(event_id)
            self._value.append(value)
            self._truth.append(truth)
            self._protocol.append(protocol_id)
        except (OverflowError, TypeError):
            for column in (
                self._tid, self._time, self._slot, self._event,
                self._value, self._truth, self._protocol,
            ):
                del column[n:]
            raise

    def _record(self, i: int) -> ReadRecord:
        return ReadRecord(
            self._tid[i],
            self._time[i],
            self._slot[i],
            self._events[self._event[i]],
            self._value[i],
            self._truth[i],
            self._protocols[self._protocol[i]],
        )

    def __len__(self) -> int:
        return len(self._tid)

    @overload
    def __getitem__(self, index: int) -> ReadRecord: ...

    @overload
    def __getitem__(self, index: slice) -> list[ReadRecord]: ...

    def __getitem__(self, index: int | slice) -> ReadRecord | list[ReadRecord]:
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(len(self)))]
        return self._record(index)

    def __iter__(self) -> Iterator[ReadRecord]:
        return map(
            ReadRecord,
            self._tid,
            self._time,
            self._slot,
            map(self._events.__getitem__, self._event),
            self._value,
            self._truth,
            map(self._protocols.__getitem__, self._protocol),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    # -- queries over the columns ---------------------------------------------

    def records_for(self, tid: int) -> list[ReadRecord]:
        return [self._record(i) for i, t in enumerate(self._tid) if t == tid]

    def errors(self) -> list[int]:
        """Signed value-minus-truth error of every read."""
        return list(map(sub, self._value, self._truth))

    def max_abs_error(self) -> int:
        return max(map(abs, map(sub, self._value, self._truth)), default=0)


#: Read protocols a session's ``default_protocol`` may name; each has a
#: ``read_<protocol>`` method.
_PROTOCOLS = ("safe", "unsafe", "destructive")

_ReadOp = PmcSafeRead | PmcUnsafeRead


def _as_spec(entry: Event | SlotSpec, count_kernel: bool) -> SlotSpec:
    if isinstance(entry, SlotSpec):
        return entry
    if isinstance(entry, Event):
        return SlotSpec(
            event=entry,
            count_user=True,
            count_kernel=count_kernel,
            mode="count",
            owner="limit",
            user_readable=True,
        )
    raise SessionError(f"cannot make a counter spec from {entry!r}")


class LimitSession:
    """Precise low-overhead counter access (the paper's contribution)."""

    #: protocol used by :meth:`read`; subclasses override. Resolved to a
    #: read method once per class, when the class is created.
    default_protocol = "safe"
    #: the ``read_<default_protocol>`` method :meth:`read` delegates to
    _protocol_read: Callable[..., Generator[Any, Any, int]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._bind_protocol()

    @classmethod
    def _bind_protocol(cls) -> None:
        protocol = cls.default_protocol
        if protocol not in _PROTOCOLS:
            raise SessionError(
                f"{cls.__name__}: unknown protocol {protocol!r}"
            )
        cls._protocol_read = getattr(cls, f"read_{protocol}")

    def __init__(
        self,
        events: Iterable[Event | SlotSpec],
        count_kernel: bool = False,
        name: str = "limit",
    ) -> None:
        self.name = name
        self.specs: list[SlotSpec] = [_as_spec(e, count_kernel) for e in events]
        if not self.specs:
            raise SessionError("a session needs at least one event")
        #: per-thread slot indices, filled by setup()
        self.slots: dict[int, list[int]] = {}
        #: per-thread safe and unsafe read ops, one per slot, built by
        #: setup() and yielded by every such read (ops are immutable)
        self._safe_ops: dict[int, tuple[_ReadOp, ...]] = {}
        self._unsafe_ops: dict[int, tuple[_ReadOp, ...]] = {}
        self.records = ReadLog()

    # -- lifecycle (generators; use with `yield from`) ----------------------

    def setup(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """Open this session's counters for the calling thread."""
        if ctx.tid in self.slots:
            raise SessionError(
                f"session {self.name!r} already set up on thread {ctx.tid}"
            )
        indices: list[int] = []
        for spec in self.specs:
            idx = yield Syscall("pmc_open", (spec,))
            indices.append(idx)
        self.slots[ctx.tid] = indices
        self._safe_ops[ctx.tid] = tuple(PmcSafeRead(i) for i in indices)
        self._unsafe_ops[ctx.tid] = tuple(PmcUnsafeRead(i) for i in indices)

    def teardown(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """Close the calling thread's counters."""
        for idx in self._indices(ctx):
            yield Syscall("pmc_close", (idx,))
        del self.slots[ctx.tid]
        del self._safe_ops[ctx.tid]
        del self._unsafe_ops[ctx.tid]

    # -- reads ----------------------------------------------------------------

    def read(self, ctx: ThreadContext, i: int = 0) -> Generator[Any, Any, int]:
        """Read counter ``i`` with the session's default protocol.

        Not itself a generator: it returns the protocol method's, so a
        ``yield from session.read(ctx)`` runs one generator that yields the
        slot's cached read op.
        """
        return self._protocol_read(ctx, i)

    def read_safe(self, ctx: ThreadContext, i: int = 0) -> Generator[Any, Any, int]:
        """The LiMiT precise read (restart-on-interruption): one
        :class:`PmcSafeRead`, which the engine runs to the exact value."""
        op = self._op(self._safe_ops, ctx, i, PmcSafeRead)
        value = yield op
        self._record(ctx, op.index, i, value, "safe")
        return value

    def read_unsafe(self, ctx: ThreadContext, i: int = 0) -> Generator[Any, Any, int]:
        """The unprotected read (ablation arm of experiment E4): one
        :class:`PmcUnsafeRead`."""
        op = self._op(self._unsafe_ops, ctx, i, PmcUnsafeRead)
        value = yield op
        self._record(ctx, op.index, i, value, "unsafe")
        return value

    def read_destructive(
        self, ctx: ThreadContext, i: int = 0
    ) -> Generator[Any, Any, int]:
        """Read-and-reset (proposed hardware enhancement); returns a delta."""
        idx = self._slot(ctx, i)
        value = yield from destructive_read(idx, ctx.costs)
        self._record(ctx, idx, i, value, "destructive")
        return value

    def read_all(self, ctx: ThreadContext) -> Generator[Any, Any, list[int]]:
        """Read every counter of the session, in order."""
        values = []
        for i in range(len(self.specs)):
            values.append((yield from self.read(ctx, i)))
        return values

    # -- post-run record access -----------------------------------------------

    def records_for(self, tid: int) -> list[ReadRecord]:
        return self.records.records_for(tid)

    def errors(self) -> list[int]:
        """Signed value-minus-truth error of every recorded read."""
        return self.records.errors()

    def max_abs_error(self) -> int:
        return self.records.max_abs_error()

    # -- internals -----------------------------------------------------------

    def _indices(self, ctx: ThreadContext) -> Sequence[int]:
        try:
            return self.slots[ctx.tid]
        except KeyError:
            raise SessionError(
                f"session {self.name!r} not set up on thread {ctx.tid}; "
                "call `yield from session.setup(ctx)` first"
            ) from None

    def _op(
        self,
        cache: dict[int, tuple[_ReadOp, ...]],
        ctx: ThreadContext,
        i: int,
        op_type: type[_ReadOp],
    ) -> _ReadOp:
        """The calling thread's cached read op of counter ``i``."""
        ops = cache.get(ctx.tid)
        if ops is None or not 0 <= i < len(ops):
            # not set up on this thread, or i out of range: _slot raises
            return op_type(self._slot(ctx, i))
        return ops[i]

    def _slot(self, ctx: ThreadContext, i: int) -> int:
        indices = self._indices(ctx)
        if not 0 <= i < len(indices):
            raise SessionError(
                f"session {self.name!r} has {len(indices)} counters; "
                f"index {i} out of range"
            )
        return indices[i]

    def _record(
        self, ctx: ThreadContext, idx: int, i: int, value: int, protocol: str
    ) -> None:
        thread = ctx.thread()
        truth = thread.last_rdpmc_truth
        self.records.add(
            ctx.tid,
            ctx.now_of(thread),
            idx,
            self.specs[i].event,
            value,
            truth if truth is not None else 0,
            protocol,
        )


LimitSession._bind_protocol()


class UnbufferedLimitSession(LimitSession):
    """A LimitSession for production-shaped load: constant-memory audit.

    The base class logs every read in its :class:`ReadLog` — perfect for
    experiments that audit individual reads, but the log still grows with
    reads, at about 42 bytes each. This subclass keeps only O(1)
    incremental error statistics (count, signed error sum, max absolute
    error), so read volume never grows session memory. :meth:`max_abs_error`
    still works; :meth:`errors`/:meth:`records_for` see an empty log.
    """

    def __init__(
        self,
        events: Iterable[Event | SlotSpec],
        count_kernel: bool = False,
        name: str = "limit",
    ) -> None:
        super().__init__(events, count_kernel=count_kernel, name=name)
        self.n_reads = 0
        self.error_sum = 0
        self.error_max_abs = 0

    def _record(
        self, ctx: ThreadContext, idx: int, i: int, value: int, protocol: str
    ) -> None:
        truth = ctx.thread().last_rdpmc_truth
        error = value - (truth if truth is not None else 0)
        self.n_reads += 1
        self.error_sum += error
        if abs(error) > self.error_max_abs:
            self.error_max_abs = abs(error)

    def max_abs_error(self) -> int:
        return self.error_max_abs

    def error_stats(self) -> dict[str, int]:
        """The constant-memory audit summary."""
        return {
            "n_reads": self.n_reads,
            "error_sum": self.error_sum,
            "max_abs_error": self.error_max_abs,
        }


class UnsafeLimitSession(LimitSession):
    """A LimitSession whose plain :meth:`read` uses the unprotected
    sequence — the what-if-LiMiT-had-no-restart-protocol arm of E4."""

    default_protocol = "unsafe"


class DestructiveReadSession(LimitSession):
    """A session using the proposed read-and-reset instruction (E11b).

    Reads return deltas since the previous read, at lower cost than a
    safe read and with no restart protocol.
    """

    default_protocol = "destructive"
