"""Tests for lock state and ground-truth statistics."""

import pytest

from repro.common.errors import LockProtocolError
from repro.kernel.locks import LockRegistry, LockState, LockStats


class TestLockState:
    def test_take_release_cycle(self):
        lock = LockState("l")
        lock.take(1, now=100, waited=10, contended=False, slept=False)
        assert lock.held and lock.owner == 1
        hold = lock.release(1, now=400)
        assert hold == 300
        assert not lock.held

    def test_double_take_raises(self):
        lock = LockState("l")
        lock.take(1, 0, 0, False, False)
        with pytest.raises(LockProtocolError):
            lock.take(2, 10, 0, False, False)

    def test_release_by_non_owner_raises(self):
        lock = LockState("l")
        lock.take(1, 0, 0, False, False)
        with pytest.raises(LockProtocolError):
            lock.release(2, 10)

    def test_release_unheld_raises(self):
        with pytest.raises(LockProtocolError):
            LockState("l").release(1, 0)

    def test_stats_recorded(self):
        lock = LockState("l")
        lock.take(1, 100, waited=25, contended=True, slept=True)
        lock.release(1, 150)
        st = lock.stats
        assert st.n_acquires == 1
        assert st.n_contended == 1
        assert st.n_futex_sleeps == 1
        assert st.wait_cycles.tolist() == [25]
        assert st.hold_cycles.tolist() == [50]


class TestLockStats:
    def test_empty_stats(self):
        st = LockStats()
        assert st.contention_rate == 0.0
        assert st.mean_hold == 0.0
        assert st.mean_wait == 0.0

    def test_aggregates(self):
        st = LockStats(
            n_acquires=4,
            n_contended=1,
            hold_cycles=[10, 20, 30, 40],
            wait_cycles=[0, 0, 8, 0],
        )
        assert st.total_hold == 100
        assert st.total_wait == 8
        assert st.mean_hold == 25.0
        assert st.mean_wait == 2.0
        assert st.contention_rate == 0.25


class TestLockRegistry:
    def test_get_creates_once(self):
        reg = LockRegistry()
        a = reg.get("x")
        b = reg.get("x")
        assert a is b

    def test_all_locks_snapshot(self):
        reg = LockRegistry()
        reg.get("a")
        reg.get("b")
        assert set(reg.stats()) == {"a", "b"}

    def test_stats_view(self):
        reg = LockRegistry()
        lock = reg.get("a")
        lock.take(1, 0, 0, False, False)
        lock.release(1, 7)
        assert reg.stats()["a"].hold_cycles.tolist() == [7]
