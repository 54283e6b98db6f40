"""Tests for the W-bit hardware counter."""

import pytest

from repro.common.errors import CounterError
from repro.hw.counter import HardwareCounter
from repro.hw.events import Domain, Event


def make_counter(width=8, event=Event.INSTRUCTIONS, **kw):
    ctr = HardwareCounter(width)
    ctr.program(event, **kw)
    return ctr


class TestProgramming:
    def test_initial_state(self):
        ctr = HardwareCounter(48)
        assert not ctr.enabled
        assert ctr.event is None
        assert ctr.value == 0

    def test_program(self):
        ctr = make_counter()
        assert ctr.enabled
        assert ctr.event is Event.INSTRUCTIONS

    def test_program_rejects_non_event(self):
        with pytest.raises(CounterError):
            HardwareCounter(48).program("cycles")

    def test_program_rejects_no_domain(self):
        with pytest.raises(CounterError):
            HardwareCounter(48).program(
                Event.CYCLES, count_user=False, count_kernel=False
            )

    def test_deprogram_clears(self):
        ctr = make_counter()
        ctr.accrue(10)
        ctr.deprogram()
        assert not ctr.enabled
        assert ctr.value == 0
        assert ctr.event is None

    def test_bad_width(self):
        with pytest.raises(CounterError):
            HardwareCounter(4)
        with pytest.raises(CounterError):
            HardwareCounter(100)


class TestDomainFilter:
    def test_user_only_default(self):
        ctr = make_counter()
        assert ctr.counts_in(Domain.USER)
        assert not ctr.counts_in(Domain.KERNEL)

    def test_kernel_only(self):
        ctr = make_counter(count_user=False, count_kernel=True)
        assert not ctr.counts_in(Domain.USER)
        assert ctr.counts_in(Domain.KERNEL)

    def test_disabled_counts_nowhere(self):
        ctr = make_counter(count_kernel=True)
        ctr.deprogram()
        assert not ctr.counts_in(Domain.USER)
        assert not ctr.counts_in(Domain.KERNEL)


class TestAccrueAndOverflow:
    def test_accrue_accumulates(self):
        ctr = make_counter(width=8)
        assert ctr.accrue(10) == 0
        assert ctr.value == 10

    def test_accrue_rejects_negative(self):
        with pytest.raises(CounterError):
            make_counter().accrue(-1)

    def test_wrap_at_width(self):
        ctr = make_counter(width=8)
        wraps = ctr.accrue(256 + 3)
        assert wraps == 1
        assert ctr.value == 3
        assert ctr.overflow_pending == 1
        assert ctr.overflow_total == 1

    def test_multi_wrap(self):
        ctr = make_counter(width=8)
        assert ctr.accrue(256 * 3 + 1) == 3
        assert ctr.value == 1

    def test_clear_overflow(self):
        ctr = make_counter(width=8)
        ctr.accrue(300)
        assert ctr.clear_overflow() == 1
        assert ctr.overflow_pending == 0
        assert ctr.overflow_total == 1  # lifetime count survives


class TestWrite:
    def test_write_within_range(self):
        ctr = make_counter(width=8)
        ctr.write(255)
        assert ctr.read() == 255

    def test_write_out_of_range(self):
        ctr = make_counter(width=8)
        with pytest.raises(CounterError):
            ctr.write(256)
        with pytest.raises(CounterError):
            ctr.write(-1)

    def test_preload_then_overflow(self):
        """Sampling preload: write threshold-period, wrap after period."""
        ctr = make_counter(width=8)
        ctr.write(256 - 10)
        assert ctr.accrue(10) == 1
        assert ctr.value == 0
