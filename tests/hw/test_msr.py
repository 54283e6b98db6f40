"""Tests of the MSR-level PMU interface and event encodings."""

import pytest

from repro.common.config import PmuConfig
from repro.common.errors import CounterError
from repro.hw.events import Domain, Event, EventRates
from repro.hw.msr import (
    EVENT_ENCODINGS,
    EVTSEL_EN,
    EVTSEL_OS,
    EVTSEL_USR,
    IA32_PERF_GLOBAL_CTRL,
    IA32_PERF_GLOBAL_OVF_CTRL,
    IA32_PERF_GLOBAL_STATUS,
    IA32_PERFEVTSEL_BASE,
    IA32_PMC_BASE,
    IA32_TIME_STAMP_COUNTER,
    MsrFile,
    decode_evtsel,
    encode_evtsel,
)
from repro.hw.pmu import Pmu


def make_msr(n=4, width=48):
    pmu = Pmu(PmuConfig(n_counters=n, counter_width=width))
    return MsrFile(pmu, tsc_read=lambda: 123_456), pmu


class TestEncodings:
    def test_every_event_encoded(self):
        assert set(EVENT_ENCODINGS) == set(Event)

    def test_encodings_unique(self):
        bits = [enc.evtsel_bits for enc in EVENT_ENCODINGS.values()]
        assert len(bits) == len(set(bits))

    def test_known_architectural_codes(self):
        assert EVENT_ENCODINGS[Event.CYCLES].code == 0x3C
        assert EVENT_ENCODINGS[Event.INSTRUCTIONS].code == 0xC0
        assert EVENT_ENCODINGS[Event.LLC_MISSES].umask == 0x41

    def test_roundtrip(self):
        for event in Event:
            for usr, os in [(True, False), (False, True), (True, True)]:
                value = encode_evtsel(event, usr=usr, os=os)
                dec_event, dec_usr, dec_os, enabled = decode_evtsel(value)
                assert dec_event is event
                assert dec_usr is usr and dec_os is os
                assert enabled

    def test_flag_bits(self):
        value = encode_evtsel(Event.CYCLES, usr=True, os=True)
        assert value & EVTSEL_USR
        assert value & EVTSEL_OS
        assert value & EVTSEL_EN

    def test_decode_unknown_raises(self):
        with pytest.raises(CounterError):
            decode_evtsel(0xFF | EVTSEL_EN)


class TestMsrProgramming:
    def test_program_via_wrmsr(self):
        msr, pmu = make_msr()
        msr.wrmsr(IA32_PERFEVTSEL_BASE + 1, encode_evtsel(Event.LLC_MISSES))
        ctr = pmu.counter(1)
        assert ctr.event is Event.LLC_MISSES
        assert ctr.enabled and ctr.count_user and not ctr.count_kernel

    def test_zero_write_deprograms(self):
        msr, pmu = make_msr()
        msr.wrmsr(IA32_PERFEVTSEL_BASE, encode_evtsel(Event.CYCLES))
        msr.wrmsr(IA32_PERFEVTSEL_BASE, 0)
        assert pmu.counter(0).event is None

    def test_counter_write_read(self):
        msr, pmu = make_msr()
        msr.wrmsr(IA32_PMC_BASE + 2, 999)
        assert msr.rdmsr(IA32_PMC_BASE + 2) == 999
        assert pmu.counter(2).read() == 999

    def test_evtsel_readback(self):
        msr, _ = make_msr()
        written = encode_evtsel(Event.BRANCH_MISSES, usr=True, os=True)
        msr.wrmsr(IA32_PERFEVTSEL_BASE + 3, written)
        read = msr.rdmsr(IA32_PERFEVTSEL_BASE + 3)
        assert decode_evtsel(read)[:3] == (Event.BRANCH_MISSES, True, True)

    def test_unprogrammed_evtsel_reads_zero(self):
        msr, _ = make_msr()
        assert msr.rdmsr(IA32_PERFEVTSEL_BASE) == 0

    def test_unknown_msr(self):
        msr, _ = make_msr()
        with pytest.raises(CounterError):
            msr.rdmsr(0x999)
        with pytest.raises(CounterError):
            msr.wrmsr(0x999, 0)


class TestGlobalRegisters:
    def test_global_status_reflects_overflow(self):
        msr, pmu = make_msr(width=8)
        msr.wrmsr(IA32_PERFEVTSEL_BASE, encode_evtsel(Event.INSTRUCTIONS))
        rates = EventRates({Event.INSTRUCTIONS: 1_000_000})
        pmu.accrue_phase(rates, Domain.USER, 0, 300)  # wraps the 8-bit ctr
        assert msr.rdmsr(IA32_PERF_GLOBAL_STATUS) == 0b0001

    def test_ovf_ctrl_clears_status(self):
        msr, pmu = make_msr(width=8)
        msr.wrmsr(IA32_PERFEVTSEL_BASE, encode_evtsel(Event.INSTRUCTIONS))
        pmu.accrue_phase(
            EventRates({Event.INSTRUCTIONS: 1_000_000}), Domain.USER, 0, 300
        )
        msr.wrmsr(IA32_PERF_GLOBAL_OVF_CTRL, 0b0001)
        assert msr.rdmsr(IA32_PERF_GLOBAL_STATUS) == 0

    def test_global_ctrl_masks_counters(self):
        msr, pmu = make_msr()
        msr.wrmsr(IA32_PERFEVTSEL_BASE + 0, encode_evtsel(Event.CYCLES))
        msr.wrmsr(IA32_PERFEVTSEL_BASE + 1, encode_evtsel(Event.CYCLES))
        assert msr.rdmsr(IA32_PERF_GLOBAL_CTRL) == 0b0011
        msr.wrmsr(IA32_PERF_GLOBAL_CTRL, 0b0010)  # disable counter 0
        assert not pmu.counter(0).enabled
        assert pmu.counter(1).enabled

    def test_global_ctrl_reaches_the_accrual_plan(self):
        msr, pmu = make_msr()
        rates = EventRates({Event.INSTRUCTIONS: 1_000_000})
        msr.wrmsr(IA32_PERFEVTSEL_BASE + 0, encode_evtsel(Event.INSTRUCTIONS))
        msr.wrmsr(IA32_PERFEVTSEL_BASE + 1, encode_evtsel(Event.INSTRUCTIONS))
        pmu.accrue_phase(rates, Domain.USER, 0, 100)
        msr.wrmsr(IA32_PERF_GLOBAL_CTRL, 0b0010)  # disable counter 0
        pmu.accrue_phase(rates, Domain.USER, 100, 300)
        assert [pmu.counter(i).read() for i in (0, 1)] == [100, 300]
        msr.wrmsr(IA32_PERF_GLOBAL_CTRL, 0b0011)
        pmu.accrue_phase(rates, Domain.USER, 300, 350)
        assert [pmu.counter(i).read() for i in (0, 1)] == [150, 350]

    def test_tsc(self):
        msr, _ = make_msr()
        assert msr.rdmsr(IA32_TIME_STAMP_COUNTER) == 123_456
