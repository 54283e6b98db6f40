"""Tests for the event catalog and exact rate arithmetic."""

import pytest

from repro.common.errors import ConfigError
from repro.hw.events import (
    CYCLES_PPM,
    Domain,
    Event,
    EventRates,
    KERNEL_RATES,
    cycles_until_count,
    events_in,
)


class TestEventRates:
    def test_empty_is_falsy(self):
        assert not EventRates()
        assert len(EventRates()) == 0

    def test_cycles_rate_implicit(self):
        rates = EventRates()
        assert rates.ppm(Event.CYCLES) == CYCLES_PPM

    def test_cycles_cannot_be_set(self):
        with pytest.raises(ConfigError):
            EventRates({Event.CYCLES: 5})

    def test_rejects_negative_and_non_int(self):
        with pytest.raises(ConfigError):
            EventRates({Event.LOADS: -1})
        with pytest.raises(ConfigError):
            EventRates({Event.LOADS: 1.5})

    def test_rejects_non_event_keys(self):
        with pytest.raises(ConfigError):
            EventRates({"cycles": 1})

    def test_zero_rates_dropped(self):
        rates = EventRates({Event.LOADS: 0, Event.STORES: 5})
        assert Event.LOADS not in rates
        assert rates[Event.STORES] == 5

    def test_profile_instructions_from_ipc(self):
        rates = EventRates.profile(ipc=1.5)
        assert rates.ppm(Event.INSTRUCTIONS) == 1_500_000

    def test_profile_mpki_scaling(self):
        rates = EventRates.profile(ipc=2.0, llc_mpki=5.0)
        # 5 misses / 1000 insn * 2 insn/cycle = 10 misses / 1000 cycles
        assert rates.ppm(Event.LLC_MISSES) == 10_000
        # references ~ 3x misses
        assert rates.ppm(Event.LLC_REFERENCES) == 30_000

    def test_profile_branches(self):
        rates = EventRates.profile(ipc=1.0, branch_frac=0.2, branch_miss_rate=0.1)
        assert rates.ppm(Event.BRANCHES) == 200_000
        assert rates.ppm(Event.BRANCH_MISSES) == 20_000

    def test_profile_stall_frac_bounds(self):
        with pytest.raises(ConfigError):
            EventRates.profile(ipc=1.0, stall_frac=1.5)

    def test_profile_rejects_bad_ipc(self):
        with pytest.raises(ConfigError):
            EventRates.profile(ipc=0)

    def test_equality_and_hash(self):
        a = EventRates({Event.LOADS: 1})
        b = EventRates({Event.LOADS: 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a != EventRates({Event.LOADS: 2})

    def test_repr_stable(self):
        assert "loads=5" in repr(EventRates({Event.LOADS: 5}))

    def test_kernel_rates_sane(self):
        assert KERNEL_RATES.ppm(Event.INSTRUCTIONS) > 0
        assert KERNEL_RATES.ppm(Event.LLC_MISSES) > 0


class TestDomain:
    def test_two_domains(self):
        assert {Domain.USER, Domain.KERNEL} == set(Domain)


class TestEventsIn:
    def test_full_window(self):
        assert events_in(0, 1_000_000, 1_500_000) == 1_500_000

    def test_split_windows_sum_exactly(self):
        ppm = 333_333
        total = events_in(0, 10_007, ppm)
        split = sum(
            events_in(a, b, ppm)
            for a, b in [(0, 17), (17, 2_000), (2_000, 9_999), (9_999, 10_007)]
        )
        assert split == total

    def test_zero_rate(self):
        assert events_in(0, 1000, 0) == 0

    def test_empty_window(self):
        assert events_in(50, 50, 1_000_000) == 0

    def test_rejects_backwards_window(self):
        with pytest.raises(ValueError):
            events_in(10, 5, 100)


class TestCyclesUntilCount:
    def test_simple(self):
        assert cycles_until_count(0, 1_000_000, 5) == 5

    def test_zero_needed(self):
        assert cycles_until_count(100, 1_000_000, 0) == 0

    def test_zero_rate_never(self):
        assert cycles_until_count(0, 0, 1) is None

    def test_inverse_of_events_in(self):
        # after the returned d, exactly >= needed events have fired
        for consumed in (0, 3, 17, 999_983):
            for ppm in (1, 7, 500_000, 1_000_000, 2_400_000):
                for needed in (1, 2, 13):
                    d = cycles_until_count(consumed, ppm, needed)
                    assert d is not None and d >= 1
                    assert events_in(consumed, consumed + d, ppm) >= needed
                    # and d is minimal
                    assert events_in(consumed, consumed + d - 1, ppm) < needed
