"""Model-specific-register interface to the PMU.

The architectural face of the simulated PMU: the IA32-style MSR address
map (PERFEVTSELx event-select registers, PMCx counters, the global
control/status/overflow-control registers) with Nehalem-era event
encodings. The kernel-facing Python API (`Pmu.counter(...)`) is what the
engine uses internally; this module provides the `rdmsr`/`wrmsr` view a
real kernel patch would program, and is exercised by the hardware tests to
pin down the architectural contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import CounterError
from repro.hw.events import Event
from repro.hw.pmu import Pmu

# -- MSR addresses (IA32 architectural performance monitoring v3) -----------

IA32_PMC_BASE = 0x0C1            #: PMC0.. general-purpose counters
IA32_PERFEVTSEL_BASE = 0x186     #: PERFEVTSEL0.. event selects
IA32_PERF_GLOBAL_STATUS = 0x38E
IA32_PERF_GLOBAL_CTRL = 0x38F
IA32_PERF_GLOBAL_OVF_CTRL = 0x390
IA32_TIME_STAMP_COUNTER = 0x010

# -- PERFEVTSEL bit fields ----------------------------------------------------

EVTSEL_EVENT_MASK = 0x0000_00FF
EVTSEL_UMASK_MASK = 0x0000_FF00
EVTSEL_USR = 1 << 16
EVTSEL_OS = 1 << 17
EVTSEL_INT = 1 << 20             #: overflow interrupt enable
EVTSEL_EN = 1 << 22


@dataclass(frozen=True)
class EventEncoding:
    """(event_select, umask) pair for one symbolic event."""

    code: int
    umask: int

    @property
    def evtsel_bits(self) -> int:
        return (self.code & 0xFF) | ((self.umask & 0xFF) << 8)


#: Nehalem-flavoured encodings for the symbolic event catalog.
EVENT_ENCODINGS: dict[Event, EventEncoding] = {
    Event.CYCLES: EventEncoding(0x3C, 0x00),           # CPU_CLK_UNHALTED
    Event.INSTRUCTIONS: EventEncoding(0xC0, 0x00),     # INST_RETIRED.ANY
    Event.LLC_REFERENCES: EventEncoding(0x2E, 0x4F),   # LONGEST_LAT_CACHE.REF
    Event.LLC_MISSES: EventEncoding(0x2E, 0x41),       # LONGEST_LAT_CACHE.MISS
    Event.L2_MISSES: EventEncoding(0x24, 0xAA),        # L2_RQSTS.MISS
    Event.L1D_MISSES: EventEncoding(0x51, 0x01),       # L1D.REPL
    Event.BRANCHES: EventEncoding(0xC4, 0x00),         # BR_INST_RETIRED.ALL
    Event.BRANCH_MISSES: EventEncoding(0xC5, 0x00),    # BR_MISP_RETIRED.ALL
    Event.DTLB_MISSES: EventEncoding(0x49, 0x01),      # DTLB_MISSES.ANY
    Event.ITLB_MISSES: EventEncoding(0x85, 0x01),      # ITLB_MISSES.ANY
    Event.STORES: EventEncoding(0x0B, 0x02),           # MEM_INST_RETIRED.STORES
    Event.LOADS: EventEncoding(0x0B, 0x01),            # MEM_INST_RETIRED.LOADS
    Event.STALL_CYCLES: EventEncoding(0xA2, 0x01),     # RESOURCE_STALLS.ANY
    Event.REMOTE_ACCESSES: EventEncoding(0x0F, 0x10),  # MEM_UNCORE.REMOTE
}

_BY_BITS = {enc.evtsel_bits: event for event, enc in EVENT_ENCODINGS.items()}


def encode_evtsel(
    event: Event,
    usr: bool = True,
    os: bool = False,
    interrupt: bool = False,
    enable: bool = True,
) -> int:
    """Build a PERFEVTSEL value for a symbolic event."""
    enc = EVENT_ENCODINGS.get(event)
    if enc is None:
        raise CounterError(f"no encoding for event {event}")
    value = enc.evtsel_bits
    if usr:
        value |= EVTSEL_USR
    if os:
        value |= EVTSEL_OS
    if interrupt:
        value |= EVTSEL_INT
    if enable:
        value |= EVTSEL_EN
    return value


def decode_evtsel(value: int) -> tuple[Event, bool, bool, bool]:
    """(event, usr, os, enabled) from a PERFEVTSEL value."""
    bits = value & (EVTSEL_EVENT_MASK | EVTSEL_UMASK_MASK)
    event = _BY_BITS.get(bits)
    if event is None:
        raise CounterError(
            f"unknown event encoding {bits:#06x} in PERFEVTSEL value {value:#x}"
        )
    return (
        event,
        bool(value & EVTSEL_USR),
        bool(value & EVTSEL_OS),
        bool(value & EVTSEL_EN),
    )


class MsrFile:
    """rdmsr/wrmsr access to one core's PMU (and TSC)."""

    def __init__(self, pmu: Pmu, tsc_read=lambda: 0) -> None:
        self.pmu = pmu
        self._tsc_read = tsc_read

    # -- reads ---------------------------------------------------------------

    def rdmsr(self, address: int) -> int:
        n = len(self.pmu)
        if IA32_PMC_BASE <= address < IA32_PMC_BASE + n:
            return self.pmu.counter(address - IA32_PMC_BASE).read()
        if IA32_PERFEVTSEL_BASE <= address < IA32_PERFEVTSEL_BASE + n:
            ctr = self.pmu.counter(address - IA32_PERFEVTSEL_BASE)
            if ctr.event is None:
                return 0
            return encode_evtsel(
                ctr.event,
                usr=ctr.count_user,
                os=ctr.count_kernel,
                interrupt=True,
                enable=ctr.enabled,
            )
        if address == IA32_PERF_GLOBAL_STATUS:
            status = 0
            for i, ctr in enumerate(self.pmu):
                if ctr.overflow_pending:
                    status |= 1 << i
            return status
        if address == IA32_PERF_GLOBAL_CTRL:
            ctrl = 0
            for i, ctr in enumerate(self.pmu):
                if ctr.enabled:
                    ctrl |= 1 << i
            return ctrl
        if address == IA32_TIME_STAMP_COUNTER:
            return self._tsc_read()
        raise CounterError(f"rdmsr: unimplemented MSR {address:#x}")

    # -- writes --------------------------------------------------------------

    def wrmsr(self, address: int, value: int) -> None:
        n = len(self.pmu)
        if IA32_PMC_BASE <= address < IA32_PMC_BASE + n:
            self.pmu.counter(address - IA32_PMC_BASE).write(value)
            return
        if IA32_PERFEVTSEL_BASE <= address < IA32_PERFEVTSEL_BASE + n:
            ctr = self.pmu.counter(address - IA32_PERFEVTSEL_BASE)
            if value == 0:
                ctr.deprogram()
                return
            event, usr, os, enabled = decode_evtsel(value)
            ctr.program(event, count_user=usr, count_kernel=os,
                        enabled=enabled)
            return
        if address == IA32_PERF_GLOBAL_OVF_CTRL:
            for i, ctr in enumerate(self.pmu):
                if value & (1 << i):
                    ctr.clear_overflow()
            return
        if address == IA32_PERF_GLOBAL_CTRL:
            for i, ctr in enumerate(self.pmu):
                if ctr.event is not None:
                    ctr.program(ctr.event, ctr.count_user, ctr.count_kernel,
                                enabled=bool(value & (1 << i)))
            return
        raise CounterError(f"wrmsr: unimplemented MSR {address:#x}")
