"""Userspace mutex state plus exact ground-truth synchronization statistics.

The engine executes the spin-then-futex protocol; this module holds the lock
word state and records, with perfect knowledge, every acquisition's wait and
hold time. Measurement tools (LiMiT-instrumented locks, PAPI-instrumented
locks) *estimate* these quantities in-band; the case-study experiments
compare tool estimates and perturbation against this ground truth.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.common.errors import LockProtocolError
from repro.common.units import truth_log


@dataclass
class LockStats:
    """Ground-truth statistics of one lock."""

    n_acquires: int = 0
    n_contended: int = 0          #: acquisitions that had to wait at all
    n_futex_sleeps: int = 0       #: acquisitions that fell back to futex
    hold_cycles: array[int] = field(default_factory=truth_log)
    wait_cycles: array[int] = field(default_factory=truth_log)

    @property
    def total_hold(self) -> int:
        return sum(self.hold_cycles)

    @property
    def total_wait(self) -> int:
        return sum(self.wait_cycles)

    @property
    def contention_rate(self) -> float:
        return self.n_contended / self.n_acquires if self.n_acquires else 0.0

    @property
    def mean_hold(self) -> float:
        return self.total_hold / len(self.hold_cycles) if self.hold_cycles else 0.0

    @property
    def mean_wait(self) -> float:
        return self.total_wait / len(self.wait_cycles) if self.wait_cycles else 0.0


class LockState:
    """One userspace mutex (a futex-backed lock word)."""

    __slots__ = ("name", "owner", "acquired_at", "n_sleepers", "stats")

    def __init__(self, name: str) -> None:
        self.name = name
        self.owner: int | None = None
        self.acquired_at = 0
        self.n_sleepers = 0    #: threads blocked in futex_wait on this lock
        self.stats = LockStats()

    @property
    def held(self) -> bool:
        return self.owner is not None

    def take(self, tid: int, now: int, waited: int, contended: bool, slept: bool) -> None:
        """Transfer ownership to ``tid`` (engine calls this atomically)."""
        if self.owner is not None:
            raise LockProtocolError(
                f"lock {self.name!r} taken by {tid} while owned by {self.owner}"
            )
        self.owner = tid
        self.acquired_at = now
        self.stats.n_acquires += 1
        self.stats.wait_cycles.append(waited)
        if contended:
            self.stats.n_contended += 1
        if slept:
            self.stats.n_futex_sleeps += 1

    def release(self, tid: int, now: int) -> int:
        """Release ownership; returns the hold time in cycles."""
        if self.owner != tid:
            raise LockProtocolError(
                f"thread {tid} released lock {self.name!r} owned by {self.owner}"
            )
        hold = now - self.acquired_at
        self.owner = None
        self.stats.hold_cycles.append(hold)
        return hold


class LockRegistry:
    """All locks in one simulation, created on first use."""

    def __init__(self) -> None:
        self._locks: dict[str, LockState] = {}

    def get(self, name: str) -> LockState:
        lock = self._locks.get(name)
        if lock is None:
            lock = LockState(name)
            self._locks[name] = lock
        return lock

    def stats(self) -> dict[str, LockStats]:
        return {name: lock.stats for name, lock in self._locks.items()}
