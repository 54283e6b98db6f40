"""Futex wait queues — the kernel half of userspace mutexes."""

from __future__ import annotations

from collections import deque
from typing import Callable


class FutexTable:
    """Keyed FIFO wait queues, one per futex word (keyed by string here).

    The ``on_wait``/``on_wake`` observability hooks are installed by the
    engine only when tracing is on; an untraced run pays one is-None branch
    per wait/wake (never per cycle).
    """

    def __init__(self) -> None:
        self._queues: dict[str, deque[int]] = {}
        self.total_waits = 0
        self.total_wakes = 0
        #: called as (key, tid) when a thread goes to sleep on a futex
        self.on_wait: Callable[[str, int], None] | None = None
        #: called as (key, woken_tids) when a wake releases >= 1 waiter
        self.on_wake: Callable[[str, list[int]], None] | None = None

    def wait(self, key: str, tid: int) -> None:
        """Enqueue ``tid`` as a waiter on ``key``."""
        self._queues.setdefault(key, deque()).append(tid)
        self.total_waits += 1
        if self.on_wait is not None:
            self.on_wait(key, tid)

    def wake(self, key: str, n: int = 1) -> list[int]:
        """Dequeue up to ``n`` waiters in FIFO order; returns their tids."""
        queue = self._queues.get(key)
        woken: list[int] = []
        while queue and len(woken) < n:
            woken.append(queue.popleft())
        if queue is not None and not queue:
            del self._queues[key]
        self.total_wakes += len(woken)
        if self.on_wake is not None and woken:
            self.on_wake(key, woken)
        return woken

    def n_waiters(self, key: str) -> int:
        return len(self._queues.get(key, ()))

    def waiting_keys(self) -> list[str]:
        return list(self._queues)
