"""Simulated hardware: events, counters, PMUs, cores."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.hw.counter import HardwareCounter
    from repro.hw.events import (
        CYCLES_PPM,
        Domain,
        Event,
        EventRates,
        KERNEL_RATES,
        LIBRARY_RATES,
        SPIN_RATES,
        cycles_until_count,
        events_in,
    )
    from repro.hw.machine import Core, Machine
    from repro.hw.pmu import Pmu

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "HardwareCounter": "counter",
    "CYCLES_PPM": "events",
    "Domain": "events",
    "Event": "events",
    "EventRates": "events",
    "KERNEL_RATES": "events",
    "LIBRARY_RATES": "events",
    "SPIN_RATES": "events",
    "cycles_until_count": "events",
    "events_in": "events",
    "Core": "machine",
    "Machine": "machine",
    "Pmu": "pmu",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
