"""The operation vocabulary of simulated user programs.

A simulated thread is a Python generator that *yields* operations and
receives each operation's result back via ``send``::

    def worker(ctx):
        yield Compute(10_000, MY_RATES)          # burn 10k cycles
        t0 = yield Rdtsc()                       # returns the TSC value
        yield LockAcquire("table:0")
        yield Compute(500, MY_RATES)
        yield LockRelease("table:0")

Measurement libraries (LiMiT, the PAPI-like baseline, ...) are written as
helper generators used with ``yield from``; their return value is the read
counter value.

Ops are deliberately tiny immutable records; all behaviour lives in the
engine (repro.sim.engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.hw.events import ZERO_RATES, EventRates

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.program import ThreadContext


class Op:
    """Base class of all yieldable operations."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Compute(Op):
    """Execute ``cycles`` of user-mode work with the given event rates.

    Preemptible: may be split across timeslices and interrupted by PMIs.
    """

    cycles: int
    rates: EventRates = ZERO_RATES

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ConfigError(f"compute cycles must be >= 0, got {self.cycles}")


@dataclass(frozen=True, slots=True)
class Syscall(Op):
    """Invoke a kernel service. Result: handler-specific value.

    ``name`` selects a handler in the kernel's syscall table; ``args`` are
    passed through. Generic work-only syscalls (e.g. modelled I/O) use name
    ``"work"`` with ``args=(kernel_cycles,)``.
    """

    name: str
    args: tuple = ()


@dataclass(frozen=True, slots=True)
class LockAcquire(Op):
    """Acquire a userspace mutex (spin-then-futex). Result: None."""

    lock: str


@dataclass(frozen=True, slots=True)
class LockRelease(Op):
    """Release a userspace mutex. Result: None."""

    lock: str


@dataclass(frozen=True, slots=True)
class Rdpmc(Op):
    """Execute the rdpmc instruction on one virtualized counter slot.

    Result: the raw W-bit hardware counter value. Faults (CounterError)
    if the kernel has not enabled userspace counter reads.
    """

    index: int


@dataclass(frozen=True, slots=True)
class RdpmcDestructive(Op):
    """The paper's proposed read-and-reset counter instruction (hardware
    enhancement): atomically returns the full 64-bit virtualized value since
    the previous destructive read and resets it to zero.

    Because the read is a single instruction, it needs no accumulator load
    and no interrupted-read protection. Result: the delta value (int).
    Only valid on a machine configured with ``destructive_reads`` support.
    """

    index: int


@dataclass(frozen=True, slots=True)
class Rdtsc(Op):
    """Read the timestamp counter. Result: cycle count (int)."""


@dataclass(frozen=True, slots=True)
class PmcReadBegin(Op):
    """Mark entry into the LiMiT read critical region. Result: None.

    While a thread is inside the region, any context switch or PMI sets its
    interrupted flag; PmcReadEnd reports and clears it. This models LiMiT's
    kernel-side check of whether the interrupted PC fell inside the read
    sequence (with restart semantics handled by the library loop).
    """


@dataclass(frozen=True, slots=True)
class PmcReadEnd(Op):
    """Leave the read critical region. Result: True if the read was NOT
    interrupted (value is trustworthy), False if it must be retried."""


@dataclass(frozen=True, slots=True)
class LoadVAccum(Op):
    """Load the 64-bit virtual accumulator of counter slot ``index`` from
    the user-mapped page. Result: the accumulator value (int)."""

    index: int


#: Safety valve for :class:`PmcSafeRead`: a safe read that restarts this many
#: times indicates the thread is being preempted pathologically (or an engine
#: bug). Lives here (not in repro.core.read_protocol, which re-exports it)
#: because the engine executes the restart loop and cannot import repro.core.
MAX_RESTARTS = 1_000


@dataclass(frozen=True, slots=True)
class PmcSafeRead(Op):
    """The complete LiMiT safe read of counter slot ``index`` as one op.

    Semantically identical to the op-by-op sequence it replaces —
    ``Compute(pmc_call_overhead)`` then ``PmcReadBegin`` / ``LoadVAccum`` /
    ``Rdpmc`` / ``PmcReadEnd`` (restarting those four while the kernel
    reports the sequence interrupted) then ``Compute(pmc_store_result)`` —
    but expressed as a single op so the engine runs the whole uninterrupted
    common case in one piece instead of six generator round-trips. When an
    interruption *is* possible (slice boundary, pending PMI, counter about
    to wrap, tracing), the engine falls back to a stage machine with exactly
    the old piece boundaries, so interleavings and results are unchanged.
    Result: the exact virtualized value (accumulator + hardware).
    """

    index: int
    #: the read protocol, as the engine and fault plans name it
    protocol: ClassVar[str] = "safe"


@dataclass(frozen=True, slots=True)
class PmcUnsafeRead(Op):
    """The unprotected read of counter slot ``index`` as one op: the
    :class:`PmcSafeRead` sequence without the begin/end interruption check.
    A context switch inside the window silently undercounts (experiment E4);
    the engine's stage machine reproduces that exactly when the window can
    be interrupted. Result: accumulator + hardware (possibly stale).
    """

    index: int
    protocol: ClassVar[str] = "unsafe"


@dataclass(frozen=True, slots=True)
class RegionBegin(Op):
    """Enter a named code region (function, request phase, ...).

    Zero hardware cost unless an instrumenting profiler is attached to the
    thread, in which case the profiler's hook cost is charged. Result: None.
    """

    name: str


@dataclass(frozen=True, slots=True)
class RegionEnd(Op):
    """Leave the innermost region. Result: None."""


@dataclass(frozen=True, slots=True)
class SpawnThread(Op):
    """clone(2): start a new thread. Result: the new thread id (int)."""

    factory: Callable[["ThreadContext"], Any]
    name: str


@dataclass(frozen=True, slots=True)
class JoinThread(Op):
    """Block until thread ``tid`` finishes. Result: None."""

    tid: int


@dataclass(frozen=True, slots=True)
class Sleep(Op):
    """Block without consuming CPU for ``cycles`` (modelled blocking I/O /
    nanosleep). Result: None."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ConfigError(f"sleep cycles must be positive, got {self.cycles}")


@dataclass(frozen=True, slots=True)
class YieldCpu(Op):
    """sched_yield(2). Result: None."""
