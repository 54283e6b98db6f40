"""Per-core run queues with idle-first placement and work stealing.

A deliberately simple, deterministic O(n)-ish scheduler: round-robin within
a core's queue, new/woken threads placed on an idle core when one exists
(CFS's select_idle_sibling in spirit), and an idle core steals from the
longest other queue. Timeslice policy (preempt-at-slice-end) lives in the
engine; this module only answers "where does this thread go" and "what runs
next here".
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.common.errors import SchedulerError


class Scheduler:
    def __init__(self, n_cores: int, socket_of: list[int] | None = None) -> None:
        if n_cores < 1:
            raise SchedulerError("scheduler needs at least one core")
        self.n_cores = n_cores
        #: socket id per core; defaults to a single socket
        self.socket_of = socket_of or [0] * n_cores
        if len(self.socket_of) != n_cores:
            raise SchedulerError("socket_of must cover every core")
        self.runqueues: list[deque[int]] = [deque() for _ in range(n_cores)]
        self._rr_next = 0
        self.n_steals = 0
        #: observability hook: called as (thief_core, victim_core, tid) when
        #: a steal happens. Installed by the engine only when tracing, so an
        #: untraced run pays one is-None branch per steal.
        self.on_steal: Callable[[int, int, int], None] | None = None

    def queue_length(self, core_id: int) -> int:
        return len(self.runqueues[core_id])

    def place(self, preferred_core: int | None, idle_cores: list[int]) -> int:
        """Choose the core for a new/woken thread.

        Prefer the thread's own idle core, then an idle core on the same
        socket (warm LLC), then any idle core (lowest id for determinism);
        otherwise the thread's previous core for cache affinity; otherwise
        round-robin.
        """
        if idle_cores:
            if preferred_core in idle_cores:
                return preferred_core
            if preferred_core is not None:
                socket = self.socket_of[preferred_core]
                same_socket = [
                    c for c in idle_cores if self.socket_of[c] == socket
                ]
                if same_socket:
                    return min(same_socket)
            return min(idle_cores)
        if preferred_core is not None:
            return preferred_core
        core = self._rr_next
        self._rr_next = (self._rr_next + 1) % self.n_cores
        return core

    def enqueue(self, tid: int, core_id: int) -> None:
        if not 0 <= core_id < self.n_cores:
            raise SchedulerError(f"bad core id {core_id}")
        self.runqueues[core_id].append(tid)

    def requeue_front(self, tid: int, core_id: int) -> None:
        """Requeue at the *head* of the core's queue (fault-injection storms:
        the preempted victim resumes immediately after the forced switch, so
        a storm perturbs the read protocol without reordering the rest of the
        schedule)."""
        if not 0 <= core_id < self.n_cores:
            raise SchedulerError(f"bad core id {core_id}")
        self.runqueues[core_id].appendleft(tid)

    def pick_next(self, core_id: int) -> int | None:
        """Pop the next thread for this core, stealing if the local queue is
        empty. Returns None when there is truly nothing to run."""
        queue = self.runqueues[core_id]
        if queue:
            return queue.popleft()
        victim = self._steal_victim(core_id)
        if victim is None:
            return None
        self.n_steals += 1
        tid = self.runqueues[victim].popleft()
        if self.on_steal is not None:
            self.on_steal(core_id, victim, tid)
        return tid

    def _steal_victim(self, thief: int) -> int | None:
        """Busiest other queue, preferring victims on the thief's socket
        so stolen threads avoid cross-socket migrations when possible."""
        thief_socket = self.socket_of[thief]
        best: int | None = None
        best_key = (False, 0)  # (same socket, queue length)
        for core_id, queue in enumerate(self.runqueues):
            if core_id == thief or not queue:
                continue
            key = (self.socket_of[core_id] == thief_socket, len(queue))
            if best is None or key > best_key:
                best, best_key = core_id, key
        return best

