"""Tests for per-thread virtual PMU state."""

import pytest

from repro.common.errors import CounterError
from repro.hw.events import Event
from repro.kernel.vpmu import SlotSpec, VirtualPmu


def spec(**kw):
    defaults = dict(event=Event.CYCLES)
    defaults.update(kw)
    return SlotSpec(**defaults)


class TestSlotSpec:
    def test_defaults(self):
        s = spec()
        assert s.mode == "count"
        assert s.count_user and not s.count_kernel
        assert s.user_readable

    def test_bad_mode(self):
        with pytest.raises(CounterError):
            spec(mode="weird")

    def test_sample_needs_period(self):
        with pytest.raises(CounterError):
            spec(mode="sample", period=0)

    def test_needs_a_domain(self):
        with pytest.raises(CounterError):
            spec(count_user=False, count_kernel=False)


class TestAllocation:
    def test_allocate_first_free(self):
        v = VirtualPmu(2)
        assert v.allocate(spec()) == 0
        assert v.allocate(spec()) == 1

    def test_exhaustion_raises_no_multiplexing(self):
        v = VirtualPmu(1)
        v.allocate(spec())
        with pytest.raises(CounterError, match="multiplex"):
            v.allocate(spec())

    def test_free_then_reuse(self):
        v = VirtualPmu(1)
        idx = v.allocate(spec())
        v.vaccum[idx] = 999
        v.free(idx)
        idx2 = v.allocate(spec())
        assert idx2 == idx
        assert v.vaccum[idx2] == 0

    def test_free_unallocated_raises(self):
        with pytest.raises(CounterError):
            VirtualPmu(2).free(0)

    def test_spec_validation(self):
        v = VirtualPmu(2)
        with pytest.raises(CounterError):
            v.spec(5)
        with pytest.raises(CounterError):
            v.spec(0)

    def test_active_indices(self):
        v = VirtualPmu(3)
        v.allocate(spec())
        v.allocate(spec())
        v.free(0)
        assert v.active_indices() == [1]


class TestAccumulatorAccess:
    def test_read_accumulator(self):
        v = VirtualPmu(1)
        idx = v.allocate(spec())
        v.vaccum[idx] = 42
        assert v.read_accumulator(idx) == 42

    def test_kernel_only_slot_not_user_readable(self):
        v = VirtualPmu(1)
        idx = v.allocate(spec(user_readable=False, owner="perf"))
        with pytest.raises(CounterError, match="not mapped user-readable"):
            v.read_accumulator(idx)
