"""Tests for futex wait queues."""

from repro.kernel.futex import FutexTable


class TestFutex:
    def test_wake_fifo_order(self):
        f = FutexTable()
        f.wait("k", 1)
        f.wait("k", 2)
        f.wait("k", 3)
        assert f.wake("k", 2) == [1, 2]
        assert f.wake("k", 2) == [3]

    def test_wake_empty_key(self):
        assert FutexTable().wake("nope") == []

    def test_wake_removes_empty_queue(self):
        f = FutexTable()
        f.wait("k", 1)
        f.wake("k")
        assert "k" not in f.waiting_keys()

    def test_independent_keys(self):
        f = FutexTable()
        f.wait("a", 1)
        f.wait("b", 2)
        assert f.wake("a") == [1]
        assert f.n_waiters("b") == 1

    def test_counters(self):
        f = FutexTable()
        f.wait("k", 1)
        f.wait("k", 2)
        f.wake("k", 5)
        assert f.total_waits == 2
        assert f.total_wakes == 2

    def test_n_waiters(self):
        f = FutexTable()
        assert f.n_waiters("k") == 0
        f.wait("k", 1)
        assert f.n_waiters("k") == 1
