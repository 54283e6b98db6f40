"""Tests for the run-queue scheduler."""

import pytest

from repro.common.errors import SchedulerError
from repro.kernel.scheduler import Scheduler


class TestPlacement:
    def test_prefers_idle_core(self):
        s = Scheduler(4)
        assert s.place(preferred_core=2, idle_cores=[1, 3]) == 1

    def test_prefers_own_idle_core(self):
        s = Scheduler(4)
        assert s.place(preferred_core=3, idle_cores=[1, 3]) == 3

    def test_affinity_when_no_idle(self):
        s = Scheduler(4)
        assert s.place(preferred_core=2, idle_cores=[]) == 2

    def test_round_robin_for_new_threads(self):
        s = Scheduler(3)
        placements = [s.place(None, []) for _ in range(6)]
        assert placements == [0, 1, 2, 0, 1, 2]


class TestQueues:
    def test_enqueue_pick_fifo(self):
        s = Scheduler(2)
        s.enqueue(10, 0)
        s.enqueue(11, 0)
        assert s.pick_next(0) == 10
        assert s.pick_next(0) == 11

    def test_enqueue_bad_core(self):
        with pytest.raises(SchedulerError):
            Scheduler(2).enqueue(1, 5)

    def test_pick_empty_returns_none(self):
        assert Scheduler(1).pick_next(0) is None

    def test_queue_length_and_total(self):
        s = Scheduler(2)
        s.enqueue(1, 0)
        s.enqueue(2, 1)
        s.enqueue(3, 1)
        assert s.queue_length(0) == 1
        assert s.queue_length(1) == 2


class TestStealing:
    def test_steals_from_busiest(self):
        s = Scheduler(3)
        s.enqueue(1, 1)
        s.enqueue(2, 2)
        s.enqueue(3, 2)
        # core 0 is empty: steals from core 2 (longest queue)
        assert s.pick_next(0) == 2
        assert s.n_steals == 1

    def test_no_steal_when_all_empty(self):
        s = Scheduler(3)
        assert s.pick_next(0) is None
        assert s.n_steals == 0

    def test_local_queue_wins_over_steal(self):
        s = Scheduler(2)
        s.enqueue(1, 0)
        s.enqueue(2, 1)
        assert s.pick_next(0) == 1
        assert s.n_steals == 0


def test_needs_a_core():
    with pytest.raises(SchedulerError):
        Scheduler(0)
