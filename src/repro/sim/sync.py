"""Userspace synchronization primitives built on the simulated kernel.

The engine provides mutexes (spin-then-futex) natively and a race-free
keyed-event syscall pair (``wait_key`` / ``wake_key`` with wake credits).
This module builds the higher-level primitives multithreaded workloads
need — semaphores, condition variables, barriers and bounded queues — the
same way a userspace runtime would build them on futexes.

All methods are generators (use with ``yield from``). Python-side state
(counters, buffers) is safe to share across thread closures because every
mutation happens under a simulated mutex, and the engine serializes
critical sections in simulated-time order.

``CondVar`` and ``BoundedQueue`` build the ops they yield once — per
instance, or per generation for ops whose key names one — and yield the
same instances on every call: ops are frozen records, and the engine
dispatches on their type. ``Semaphore`` and ``Barrier``, which no
benchmarked workload uses, build fresh ops per call.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.common.errors import ConfigError, SimulationError
from repro.sim.ops import LockAcquire, LockRelease, Syscall
from repro.sim.program import ThreadContext


class Semaphore:
    """A counting semaphore.

    The count lives kernel-side as wake credits on the semaphore's key, so
    ``post`` and ``acquire`` are single syscalls and cannot lose wakeups.
    """

    def __init__(self, name: str, initial: int = 0) -> None:
        if initial < 0:
            raise ConfigError("semaphore initial count must be >= 0")
        self.name = name
        self._initial = initial
        self._seeded = False

    def _key(self) -> str:
        return f"sem:{self.name}"

    def seed(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """Post the initial count (call once, from any thread, before use)."""
        if self._seeded:
            raise SimulationError(f"semaphore {self.name!r} already seeded")
        self._seeded = True
        if self._initial > 0:
            yield Syscall("wake_key", (self._key(), self._initial))

    def acquire(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """P(): decrement, blocking while the count is zero."""
        yield Syscall("wait_key", (self._key(),))

    def post(self, ctx: ThreadContext, n: int = 1) -> Generator[Any, Any, None]:
        """V(): increment by ``n``, waking blocked acquirers."""
        if n < 1:
            raise ConfigError("post count must be >= 1")
        yield Syscall("wake_key", (self._key(), n))


class CondVar:
    """A condition variable tied to a named engine mutex.

    Uses per-generation keys so a broadcast can never wake a waiter from a
    later generation (no stolen wakeups), mirroring how real futex-based
    condvars version their sequence word.
    """

    def __init__(self, name: str, lock: str) -> None:
        self.name = name
        self.lock = lock
        self._acquire = LockAcquire(lock)
        self._release = LockRelease(lock)
        self._waiters = 0  # protected by self.lock
        self._set_generation(0)

    def _set_generation(self, generation: int) -> None:
        """Enter ``generation`` and build the keyed syscalls that name it."""
        self._generation = generation
        key = f"cv:{self.name}:{generation}"
        self._wait_op = Syscall("wait_key", (key,))
        self._signal_op = Syscall("wake_key", (key, 1))
        self._broadcast_op = Syscall("wake_key", (key, -1))

    def wait(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """Release the lock, sleep until signalled, reacquire the lock.

        Caller must hold ``self.lock``; as with pthreads, the predicate
        must be rechecked in a loop around the wait.
        """
        # Taken under the lock: a broadcast may land between the release
        # and the wait, and this waiter belongs to the generation it ends.
        wait_op = self._wait_op
        self._waiters += 1
        yield self._release
        yield wait_op
        yield self._acquire

    def signal(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """Wake one waiter (caller should hold the lock)."""
        if self._waiters > 0:
            self._waiters -= 1
            yield self._signal_op

    def broadcast(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """Wake every current waiter (caller should hold the lock)."""
        if self._waiters > 0:
            op = self._broadcast_op
            self._set_generation(self._generation + 1)
            self._waiters = 0
            yield op


class Barrier:
    """An N-party reusable barrier (sense-reversing via generations)."""

    def __init__(self, name: str, parties: int) -> None:
        if parties < 1:
            raise ConfigError("barrier needs at least one party")
        self.name = name
        self.parties = parties
        self._lock = f"barrier:{name}:lock"
        self._count = 0
        self._generation = 0

    def _key(self, generation: int) -> str:
        return f"barrier:{self.name}:{generation}"

    def arrive(self, ctx: ThreadContext) -> Generator[Any, Any, int]:
        """Block until all parties arrive; returns the generation index."""
        yield LockAcquire(self._lock)
        generation = self._generation
        self._count += 1
        if self._count == self.parties:
            self._count = 0
            self._generation += 1
            yield LockRelease(self._lock)
            if self.parties > 1:
                yield Syscall("wake_key", (self._key(generation), -1))
        else:
            yield LockRelease(self._lock)
            yield Syscall("wait_key", (self._key(generation),))
        return generation


class BoundedQueue:
    """A bounded FIFO queue (producer/consumer channel).

    Classic two-condvar construction under one mutex. ``None`` is a legal
    payload; use :meth:`close` + the ``Closed`` sentinel for shutdown.
    """

    class Closed:
        """Sentinel returned by get() after close() drains."""

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError("queue capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.lock = lock = f"queue:{name}:lock"
        self._acquire = LockAcquire(lock)
        self._release = LockRelease(lock)
        self._items: deque = deque()
        self._closed = False
        self._not_full = CondVar(f"queue:{name}:not_full", self.lock)
        self._not_empty = CondVar(f"queue:{name}:not_empty", self.lock)
        self.total_put = 0
        self.total_got = 0
        self.max_depth = 0

    def put(self, ctx: ThreadContext, item: Any) -> Generator[Any, Any, None]:
        yield self._acquire
        while len(self._items) >= self.capacity and not self._closed:
            yield from self._not_full.wait(ctx)
        if self._closed:
            yield self._release
            raise SimulationError(f"put() on closed queue {self.name!r}")
        self._items.append(item)
        self.total_put += 1
        self.max_depth = max(self.max_depth, len(self._items))
        yield from self._not_empty.signal(ctx)
        yield self._release

    def try_put(self, ctx: ThreadContext, item: Any) -> Generator[Any, Any, bool]:
        """Non-blocking offer: enqueue and return True, or return False when
        the queue is full or closed (never waits on ``not_full``).

        This is the primitive load-shedding admission gates need: a full
        downstream queue is a *signal* (reject/retry/shed upstream), not a
        reason to park the producer and close the loop.
        """
        yield self._acquire
        if self._closed or len(self._items) >= self.capacity:
            yield self._release
            return False
        self._items.append(item)
        self.total_put += 1
        self.max_depth = max(self.max_depth, len(self._items))
        yield from self._not_empty.signal(ctx)
        yield self._release
        return True

    def depth(self) -> int:
        """Current queue depth (instantaneous, read without the lock).

        Deterministic despite the lockless read: the host interpreter runs
        one thread program at a time in simulated-time order, so the value
        observed at any yield point is a pure function of the schedule.
        """
        return len(self._items)

    def get(self, ctx: ThreadContext) -> Generator[Any, Any, Any]:
        yield self._acquire
        while not self._items and not self._closed:
            yield from self._not_empty.wait(ctx)
        if self._items:
            item = self._items.popleft()
            self.total_got += 1
            yield from self._not_full.signal(ctx)
            yield self._release
            return item
        yield self._release
        return BoundedQueue.Closed

    def close(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """Mark the queue closed and wake everyone blocked on it."""
        yield self._acquire
        self._closed = True
        yield from self._not_empty.broadcast(ctx)
        yield from self._not_full.broadcast(ctx)
        yield self._release
