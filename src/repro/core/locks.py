"""Instrumented locks: the measurement vehicle of the synchronization case
studies (experiments E6/E7).

An :class:`InstrumentedLock` wraps the raw lock ops with counter reads so a
program can attribute *wait* (acquisition path) and *hold* (critical
section) costs per lock — exactly what the paper does to MySQL/Apache/
Firefox. The reader is pluggable: a LiMiT session perturbs each acquisition
by ~2 reads x ~90 cycles; a PAPI-like session perturbs it by ~2 x ~2000
cycles *inside or around the critical section*, which is the perturbation
effect E6 demonstrates.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Generator, Protocol

from repro.common.errors import SessionError
from repro.common.units import cycle_log
from repro.sim.ops import LockAcquire, LockRelease, Rdtsc
from repro.sim.program import ThreadContext

#: Ops are immutable, so the lock helpers yield shared instances rather than
#: building one per call.
_RDTSC = Rdtsc()


class CounterReader(Protocol):
    """Anything with a LiMiT-shaped read method (sessions, timers)."""

    def read(self, ctx: ThreadContext, i: int = 0) -> Generator[Any, Any, int]:
        ...  # pragma: no cover


class RdtscReader:
    """A wall-clock 'reader' using the timestamp counter.

    Lets instrumented locks attribute wall time (including blocked time)
    instead of per-thread CPU cycles. No setup needed.
    """

    name = "rdtsc"

    def read(self, ctx: ThreadContext, i: int = 0) -> Generator[Any, Any, int]:
        value = yield _RDTSC
        return value


@dataclass
class LockObservation:
    """What the tool saw for one lock (per-acquisition logs, in the
    reader's unit: CPU cycles for counter readers, wall for rdtsc)."""

    waits: array[int] = field(default_factory=cycle_log)
    holds: array[int] = field(default_factory=cycle_log)

    @property
    def n_acquires(self) -> int:
        return len(self.waits)

    @property
    def total_wait(self) -> int:
        return sum(self.waits)

    @property
    def total_hold(self) -> int:
        return sum(self.holds)

    @property
    def mean_hold(self) -> float:
        return self.total_hold / len(self.holds) if self.holds else 0.0


class PlainLock:
    """Uninstrumented lock with the same generator interface, for baseline
    (unperturbed) runs of the same workload code; the base of
    :class:`InstrumentedLock`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._acquire = LockAcquire(name)
        self._release = LockRelease(name)

    def acquire(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        yield self._acquire

    def release(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        yield self._release

    def critical_section(
        self, ctx: ThreadContext, body: Generator[Any, Any, Any]
    ) -> Generator[Any, Any, Any]:
        """acquire -> body -> release, releasing also when the body raises."""
        yield from self.acquire(ctx)
        try:
            result = yield from body
        finally:
            yield from self.release(ctx)
        return result


class InstrumentedLock(PlainLock):
    """A mutex whose acquire/release paths measure themselves."""

    def __init__(
        self, name: str, reader: CounterReader, counter_index: int = 0
    ) -> None:
        super().__init__(name)
        self.reader = reader
        self.counter_index = counter_index
        self.observation = LockObservation()
        #: where acquire leaves its closing read for release
        self._key = ("instrumented_lock_t1", name)

    def acquire(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """Acquire the lock, recording the acquisition-path cost."""
        t0 = yield from self.reader.read(ctx, self.counter_index)
        yield self._acquire
        t1 = yield from self.reader.read(ctx, self.counter_index)
        self.observation.waits.append(t1 - t0)
        ctx.scratch[self._key] = t1

    def release(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """Release the lock, recording the critical-section cost.

        The closing read happens *while still holding the lock* (it must:
        the release is the boundary being measured), so slow readers
        lengthen every critical section — the perturbation E6 quantifies.
        """
        key = self._key
        if key not in ctx.scratch:
            raise SessionError(
                f"release of instrumented lock {self.name!r} without a "
                f"matching acquire on thread {ctx.tid}"
            )
        t2 = yield from self.reader.read(ctx, self.counter_index)
        yield self._release
        t1 = ctx.scratch.pop(key)
        self.observation.holds.append(t2 - t1)
