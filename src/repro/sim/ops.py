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
engine (repro.sim.engine). Each op class names its fields in
``__slots__`` and sets them in a hand-written ``__init__``; :class:`Op`
derives equality, hashing, ``repr``, pickling and immutability from those
slots, as a frozen dataclass would, without generating code at import.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Callable, TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.hw.events import CYCLE_BITS, ZERO_RATES, EventRates

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.program import ThreadContext

#: Sets a field past :meth:`Op.__setattr__`'s guard; only ``__init__`` uses it.
_set = object.__setattr__


class Op:
    """Base class of all yieldable operations.

    A subclass lists its fields, in constructor order, in ``__slots__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Compute(Op):
    """Execute ``cycles`` of user-mode work with the given event rates.

    Preemptible: may be split across timeslices and interrupted by PMIs.
    """

    __slots__ = ("cycles", "rates")

    def __init__(self, cycles: int, rates: EventRates = ZERO_RATES) -> None:
        if cycles < 0:
            raise ConfigError(f"compute cycles must be >= 0, got {cycles}")
        if cycles >> CYCLE_BITS:
            raise ConfigError(
                f"compute cycles must be below 2**{CYCLE_BITS}, got {cycles}"
            )
        _set(self, "cycles", cycles)
        _set(self, "rates", rates)


class Syscall(Op):
    """Invoke a kernel service. Result: handler-specific value.

    ``name`` selects a handler in the kernel's syscall table; ``args`` are
    passed through. Generic work-only syscalls (e.g. modelled I/O) use name
    ``"work"`` with ``args=(kernel_cycles,)``.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple = ()) -> None:
        _set(self, "name", name)
        _set(self, "args", args)


class LockAcquire(Op):
    """Acquire a userspace mutex (spin-then-futex). Result: None."""

    __slots__ = ("lock",)

    def __init__(self, lock: str) -> None:
        _set(self, "lock", lock)


class LockRelease(Op):
    """Release a userspace mutex. Result: None."""

    __slots__ = ("lock",)

    def __init__(self, lock: str) -> None:
        _set(self, "lock", lock)


class Rdpmc(Op):
    """Execute the rdpmc instruction on one virtualized counter slot.

    Result: the raw W-bit hardware counter value. Faults (CounterError)
    if the kernel has not enabled userspace counter reads.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        _set(self, "index", index)


class RdpmcDestructive(Op):
    """The paper's proposed read-and-reset counter instruction (hardware
    enhancement): atomically returns the full 64-bit virtualized value since
    the previous destructive read and resets it to zero.

    Because the read is a single instruction, it needs no accumulator load
    and no interrupted-read protection. Result: the delta value (int).
    Only valid on a machine configured with ``destructive_reads`` support.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        _set(self, "index", index)


class Rdtsc(Op):
    """Read the timestamp counter. Result: cycle count (int)."""

    __slots__ = ()


class PmcReadBegin(Op):
    """Mark entry into the LiMiT read critical region. Result: None.

    While a thread is inside the region, any context switch or PMI sets its
    interrupted flag; PmcReadEnd reports and clears it. This models LiMiT's
    kernel-side check of whether the interrupted PC fell inside the read
    sequence (with restart semantics handled by the library loop).
    """

    __slots__ = ()


class PmcReadEnd(Op):
    """Leave the read critical region. Result: True if the read was NOT
    interrupted (value is trustworthy), False if it must be retried."""

    __slots__ = ()


class LoadVAccum(Op):
    """Load the 64-bit virtual accumulator of counter slot ``index`` from
    the user-mapped page. Result: the accumulator value (int)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        _set(self, "index", index)


#: Safety valve for :class:`PmcSafeRead`: a safe read that restarts this many
#: times indicates the thread is being preempted pathologically (or an engine
#: bug). Lives here (not in repro.core.read_protocol, which re-exports it)
#: because the engine executes the restart loop and cannot import repro.core.
MAX_RESTARTS = 1_000

# -- read-protocol vulnerable points ----------------------------------------
# Named here, next to MAX_RESTARTS and for the same reason: the engine's read
# stage machine reports them to the fault injector. repro.faults.plan and
# repro.core.read_protocol re-export them.
#: Between the accumulator load and the rdpmc — the classic LiMiT hazard: an
#: unsafe read preempted here silently undercounts by the pre-switch
#: hardware value; a safe read restarts.
BETWEEN_LOADS = "between_loads"
#: Between the read-end marker and the evaluation of the interruption flag —
#: the two halves of the safe read's restart check. Only reachable for the
#: safe protocol; the check must still catch the preemption.
BEFORE_CHECK = "before_check"

READ_POINTS: tuple[str, ...] = (BETWEEN_LOADS, BEFORE_CHECK)


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

    __slots__ = ("index",)
    #: the read protocol, as the engine and fault plans name it
    protocol = "safe"

    def __init__(self, index: int) -> None:
        _set(self, "index", index)


class PmcUnsafeRead(Op):
    """The unprotected read of counter slot ``index`` as one op: the
    :class:`PmcSafeRead` sequence without the begin/end interruption check.
    A context switch inside the window silently undercounts (experiment E4);
    the engine's stage machine reproduces that exactly when the window can
    be interrupted. Result: accumulator + hardware (possibly stale).
    """

    __slots__ = ("index",)
    protocol = "unsafe"

    def __init__(self, index: int) -> None:
        _set(self, "index", index)


class RegionBegin(Op):
    """Enter a named code region (function, request phase, ...).

    Zero hardware cost unless an instrumenting profiler is attached to the
    thread, in which case the profiler's hook cost is charged. Result: None.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class RegionEnd(Op):
    """Leave the innermost region. Result: None."""

    __slots__ = ()


class SpawnThread(Op):
    """clone(2): start a new thread. Result: the new thread id (int)."""

    __slots__ = ("factory", "name")

    def __init__(self, factory: Callable[["ThreadContext"], Any], name: str) -> None:
        _set(self, "factory", factory)
        _set(self, "name", name)


class JoinThread(Op):
    """Block until thread ``tid`` finishes. Result: None."""

    __slots__ = ("tid",)

    def __init__(self, tid: int) -> None:
        _set(self, "tid", tid)


class Sleep(Op):
    """Block without consuming CPU for ``cycles`` (modelled blocking I/O /
    nanosleep). Result: None."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles <= 0:
            raise ConfigError(f"sleep cycles must be positive, got {cycles}")
        _set(self, "cycles", cycles)


class YieldCpu(Op):
    """sched_yield(2). Result: None."""

    __slots__ = ()
