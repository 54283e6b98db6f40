"""Time and frequency unit handling.

The whole simulator is integer-cycle based: every duration is an ``int``
number of core clock cycles. Humans (and the paper) think in nanoseconds, so
this module provides the conversions. The default frequency matches the class
of machine the paper evaluated on (a ~2.4 GHz Nehalem-era Xeon).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.common.errors import ConfigError

DEFAULT_FREQUENCY_HZ = 2_400_000_000

#: Convenience constants, all in cycles at the *default* frequency.
NS = DEFAULT_FREQUENCY_HZ / 1e9  # cycles per nanosecond (2.4)


@dataclass(frozen=True)
class Frequency:
    """A core clock frequency, used to convert cycles to wall-clock time.

    >>> f = Frequency(2_400_000_000)
    >>> f.cycles_to_ns(2400)
    1000.0
    """

    hz: int = DEFAULT_FREQUENCY_HZ

    def __post_init__(self) -> None:
        if self.hz <= 0:
            raise ConfigError(f"frequency must be positive, got {self.hz}")

    def cycles_to_ns(self, cycles: int | float) -> float:
        """Convert a cycle count to nanoseconds."""
        return cycles * 1e9 / self.hz

    def cycles_to_ms(self, cycles: int | float) -> float:
        return cycles * 1e3 / self.hz



DEFAULT_FREQUENCY = Frequency()


def format_cycles(cycles: int | float, frequency: Frequency = DEFAULT_FREQUENCY) -> str:
    """Render a cycle count as a human-readable duration string.

    Picks the most natural unit:

    >>> format_cycles(89)
    '89 cy (37.1 ns)'
    """
    ns = frequency.cycles_to_ns(cycles)
    if ns < 1_000:
        human = f"{ns:.1f} ns"
    elif ns < 1_000_000:
        human = f"{ns / 1e3:.2f} us"
    elif ns < 1_000_000_000:
        human = f"{ns / 1e6:.2f} ms"
    else:
        human = f"{ns / 1e9:.3f} s"
    if isinstance(cycles, float):
        return f"{cycles:.0f} cy ({human})"
    return f"{cycles} cy ({human})"


def per_kilo_instruction(misses_pki: float, ipc: float) -> int:
    """Convert a misses-per-kilo-instruction figure (the usual architecture
    paper unit) into events-per-million-cycles given the phase IPC.

    >>> per_kilo_instruction(10.0, ipc=1.0)   # 10 MPKI at IPC 1
    10000
    """
    if misses_pki < 0:
        raise ConfigError(f"MPKI must be non-negative, got {misses_pki}")
    if ipc <= 0:
        raise ConfigError(f"IPC must be positive, got {ipc}")
    return round(misses_pki / 1_000.0 * ipc * 1_000_000)


def cycle_log() -> array[int]:
    """An empty per-event cycle log of measured values: signed 64-bit
    integers, 8 bytes an entry where a list of boxed ints costs about 40.
    A measured delta can come out negative (a broken read is allowed to
    show), so the log is signed. Appending a value outside int64 raises
    ``OverflowError`` instead of wrapping."""
    return array("q")


def truth_log() -> array[int]:
    """An empty per-event cycle log of ground truth: unsigned 64-bit
    integers, for durations the simulator computes and that cannot be
    negative. An unsigned append skips the signed conversion (about half
    the cost in CPython 3.11). Appending a negative value or one of 2**64
    or more raises ``OverflowError``. Never merge it with a
    :func:`cycle_log`: ``array.extend`` refuses a different typecode."""
    return array("Q")
