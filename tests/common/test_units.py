"""Tests for cycle/time unit conversions."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import (
    DEFAULT_FREQUENCY,
    Frequency,
    format_cycles,
    per_kilo_instruction,
)


class TestFrequency:
    def test_default_is_2_4_ghz(self):
        assert DEFAULT_FREQUENCY.hz == 2_400_000_000

    def test_cycles_to_ns_roundtrip(self):
        f = Frequency(2_400_000_000)
        assert f.cycles_to_ns(2400) == pytest.approx(1000.0)

    def test_cycles_to_us_and_ms(self):
        f = Frequency(1_000_000_000)  # 1 GHz: 1 cycle == 1 ns
        assert f.cycles_to_ms(1_000_000) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            Frequency(0)
        with pytest.raises(ConfigError):
            Frequency(-5)

    def test_limit_read_is_low_tens_of_ns(self):
        """The paper's headline: ~37 ns at 2.4 GHz for an 88-cycle read."""
        assert 30 < DEFAULT_FREQUENCY.cycles_to_ns(88) < 40


class TestFormatCycles:
    def test_ns_range(self):
        assert format_cycles(89) == "89 cy (37.1 ns)"

    def test_us_range(self):
        out = format_cycles(24_000)
        assert "10.00 us" in out

    def test_ms_range(self):
        out = format_cycles(24_000_000)
        assert "ms" in out

    def test_s_range(self):
        out = format_cycles(24_000_000_000)
        assert out.endswith("s)")
        assert "ms" not in out

    def test_float_input(self):
        out = format_cycles(88.4)
        assert out.startswith("88 cy")


class TestRateConversions:
    def test_per_kilo_instruction(self):
        # 10 MPKI at IPC 1.0 -> 10 misses per 1000 cycles -> 10_000 ppm
        assert per_kilo_instruction(10.0, ipc=1.0) == 10_000
        # doubling IPC doubles misses per cycle
        assert per_kilo_instruction(10.0, ipc=2.0) == 20_000

    def test_per_kilo_instruction_validation(self):
        with pytest.raises(ConfigError):
            per_kilo_instruction(-1.0, ipc=1.0)
        with pytest.raises(ConfigError):
            per_kilo_instruction(1.0, ipc=0.0)
