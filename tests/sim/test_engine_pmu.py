"""Engine PMU behaviour: virtualization, overflow, sampling, faults."""

import dataclasses

import pytest

from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.common.errors import CounterError
from repro.hw.events import Event, EventRates, cycles_until_count
from repro.kernel.vpmu import SlotSpec
from repro.obs import trace as tr
from repro.sim.ops import Compute, LoadVAccum, Rdpmc, RegionBegin, RegionEnd, Syscall

from tests.conftest import SIMPLE_RATES, run_threads

RATES = EventRates.profile(ipc=1.0)


def open_counter(event=Event.INSTRUCTIONS, count_kernel=False):
    return Syscall(
        "pmc_open",
        (SlotSpec(event=event, count_user=True, count_kernel=count_kernel),),
    )


class TestVirtualization:
    def test_virtual_value_survives_context_switches(self, preemptive):
        """vaccum + hw must equal ground truth despite many preemptions."""
        observed = {}

        def measured(ctx):
            idx = yield open_counter()
            yield Compute(500_000, RATES)  # many slices
            acc = yield LoadVAccum(idx)
            hw = yield Rdpmc(idx)
            observed["value"] = acc + hw
            observed["truth"] = ctx.thread().last_rdpmc_truth

        def noise(ctx):
            yield Compute(500_000, RATES)

        result = run_threads(preemptive, measured, noise)
        assert result.kernel.n_context_switches > 10
        assert observed["value"] == observed["truth"]
        assert observed["value"] >= 500_000

    def test_accumulator_grows_only_on_switch_or_overflow(self, uniprocessor):
        """On an idle core with huge counters, vaccum stays zero."""
        observed = {}

        def program(ctx):
            idx = yield open_counter()
            yield Compute(100_000, RATES)
            observed["acc"] = yield LoadVAccum(idx)
            observed["hw"] = yield Rdpmc(idx)

        run_threads(uniprocessor, program)
        assert observed["acc"] == 0
        assert observed["hw"] >= 100_000

    def test_counters_isolated_between_threads(self, preemptive):
        """Thread B's work must not leak into thread A's counter."""
        values = {}

        def a(ctx):
            idx = yield open_counter()
            yield Compute(100_000, RATES)
            acc = yield LoadVAccum(idx)
            hw = yield Rdpmc(idx)
            values["a"] = acc + hw

        def b(ctx):
            yield Compute(900_000, RATES)

        run_threads(preemptive, a, b)
        # instructions at IPC 1 over 100k cycles, plus small library costs
        assert 100_000 <= values["a"] < 105_000


class TestDomainSelection:
    def test_user_only_counter_ignores_kernel_work(self, uniprocessor):
        values = {}

        def program(ctx):
            idx = yield open_counter(Event.INSTRUCTIONS)
            yield Syscall("work", (50_000,))
            values["after_syscall"] = yield Rdpmc(idx)
            values["truth"] = ctx.thread().last_rdpmc_truth

        run_threads(uniprocessor, program)
        # kernel executed 50k cycles of instructions; user counter sees only
        # the library's own instructions
        assert values["after_syscall"] < 1_000
        assert values["after_syscall"] == values["truth"]

    def test_kernel_counting_counter_sees_syscalls(self, uniprocessor):
        values = {}

        def program(ctx):
            idx = yield open_counter(Event.INSTRUCTIONS, count_kernel=True)
            yield Syscall("work", (50_000,))
            values["v"] = yield Rdpmc(idx)

        run_threads(uniprocessor, program)
        assert values["v"] > 30_000  # kernel-domain instructions counted


class TestOverflow:
    def overflow_config(self, width=16):
        return SimConfig(machine=MachineConfig(n_cores=1)).with_pmu(
            counter_width=width
        )

    def test_overflow_pmis_fired_and_value_exact(self):
        values = {}

        def program(ctx):
            idx = yield open_counter()
            yield Compute(400_000, RATES)  # >> 2^16 instructions
            acc = yield LoadVAccum(idx)
            hw = yield Rdpmc(idx)
            values["value"] = acc + hw
            values["truth"] = ctx.thread().last_rdpmc_truth

        result = run_threads(self.overflow_config(), program)
        assert result.kernel.n_pmis >= 5
        assert result.kernel.n_counter_overflows >= 5
        assert values["value"] == values["truth"]

    def test_wide_counters_never_overflow(self):
        config = SimConfig(machine=MachineConfig(n_cores=1)).with_pmu(
            wide_counters=True
        )

        def program(ctx):
            yield open_counter()
            yield Compute(2_000_000, RATES)

        result = run_threads(config, program)
        assert result.kernel.n_pmis == 0
        assert result.kernel.n_counter_overflows == 0

    @pytest.mark.parametrize("slack", [0, 1, 2, 3, 50])
    def test_piece_ends_exactly_at_the_crossing(self, slack):
        """The piece loop splits a phase at the exact cycle a counter wraps
        (its cycles_until_count pre-check may skip only counters that
        cannot wrap in the piece), whatever the cycles left after it."""
        rates = EventRates.profile(ipc=0.7)
        width = 12
        crossing = cycles_until_count(
            0, rates.ppm(Event.INSTRUCTIONS), 1 << width
        )
        config = dataclasses.replace(self.overflow_config(width), trace=True)

        def program(ctx):
            yield open_counter()
            yield Compute(crossing + slack, rates)

        result = run_threads(config, program)
        (opened,) = [e for e in result.trace if e.kind == tr.SYSCALL_EXIT]
        wraps = [e for e in result.trace if e.kind == tr.CTR_OVERFLOW]
        assert [e.time - opened.time for e in wraps] == [crossing]

    def test_pmi_skid_delays_delivery(self):
        """PMIs land after the crossing by ~the configured skid."""
        result_holder = {}

        def program(ctx):
            yield open_counter()
            yield Compute(100_000, RATES)

        result = run_threads(self.overflow_config(), program)
        assert result.kernel.n_pmis >= 1
        result_holder["ok"] = True


class TestSampling:
    def test_sampling_records_with_region_attribution(self, uniprocessor):
        def program(ctx):
            fd = yield Syscall("perf_open", (Event.CYCLES, "sample", 20_000, True, False))
            yield RegionBegin("hot")
            yield Compute(200_000, SIMPLE_RATES)
            yield RegionEnd()
            yield Syscall("perf_close", (fd,))

        result = run_threads(uniprocessor, program)
        samples = [s for s in result.samples if s.region == "hot"]
        # ~10 samples expected in 200k cycles at period 20k
        assert 5 <= len(samples) <= 13

    def test_sample_period_validation(self, uniprocessor):
        config = SimConfig(machine=MachineConfig(n_cores=1)).with_pmu(
            counter_width=16
        )
        caught = {}

        def program(ctx):
            try:
                yield Syscall(
                    "perf_open", (Event.CYCLES, "sample", 1 << 20, True, False)
                )
            except Exception as exc:
                caught["exc"] = exc

        run_threads(config, program)
        assert "exc" in caught


class TestFaults:
    def test_rdpmc_faults_without_limit_patch(self):
        config = SimConfig(
            machine=MachineConfig(n_cores=1),
            kernel=KernelConfig(limit_patch=False),
        )
        caught = {}

        def program(ctx):
            yield open_counter()
            try:
                yield Rdpmc(0)
            except CounterError as exc:
                caught["exc"] = str(exc)

        run_threads(config, program)
        assert "rdpmc faulted" in caught["exc"]

    def test_slot_exhaustion_raises_in_program(self, uniprocessor):
        caught = {}

        def program(ctx):
            for i in range(4):
                yield open_counter()
            try:
                yield open_counter()
            except CounterError as exc:
                caught["exc"] = str(exc)

        run_threads(uniprocessor, program)
        assert "multiplex" in caught["exc"]

    def test_load_vaccum_unallocated_raises(self, uniprocessor):
        caught = {}

        def program(ctx):
            try:
                yield LoadVAccum(0)
            except CounterError as exc:
                caught["exc"] = exc

        run_threads(uniprocessor, program)
        assert "exc" in caught

    def test_pmc_close_frees_slot(self, uniprocessor):
        def program(ctx):
            idx = yield open_counter()
            yield Syscall("pmc_close", (idx,))
            idx2 = yield open_counter()
            assert idx2 == idx

        run_threads(uniprocessor, program)


class TestHwThreadVirtualization:
    def test_enhancement_reduces_kernel_time(self):
        """E11c mechanism: save/restore vanishes from the switch path."""

        def workload(ctx):
            yield open_counter()
            for _ in range(50):
                yield Compute(5_000, RATES)

        def run_with(hw_virt):
            config = SimConfig(
                machine=MachineConfig(n_cores=1),
                kernel=KernelConfig(
                    timeslice_cycles=10_000,
                    hw_thread_virtualization=hw_virt,
                ),
            )
            return run_threads(config, workload, workload)

        base = run_with(False)
        enhanced = run_with(True)
        assert enhanced.total_kernel_cycles() < base.total_kernel_cycles()
