"""The zero-perturbation contract of the observability layer.

Tracing and run collection observe the *simulator*, never the simulated
machine: a run with them on must produce byte-identical ground truth to a
run with them off. ``RunResult.fingerprint()`` digests every simulated quantity
(threads, cores, kernel counters, locks, samples) and excludes the
host-side extras, so the contract reduces to fingerprint equality.

The second half pins the *mechanism*: with tracing disabled the emit path
must never be entered — one branch, no event object construction.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.hw.events import Event, EventRates
from repro.kernel.vpmu import SlotSpec
from repro.obs.runtime import collect
from repro.obs.trace import TraceBus
from repro.obs.windows import WindowSpec
from repro.sim.engine import run_program
from repro.sim.ops import (
    Compute,
    LockAcquire,
    LockRelease,
    Sleep,
    Syscall,
)
from repro.sim.program import ThreadSpec

RATES = EventRates.profile(ipc=1.2, llc_mpki=1.5)

SEEDS = [0, 7, 12345, 999_999_937]


def build_program(n_threads=3, iters=4):
    def worker(ctx):
        yield Syscall("pmc_open", (SlotSpec(event=Event.INSTRUCTIONS),))
        for i in range(iters):
            yield Compute(15_000, RATES)
            yield LockAcquire("L")
            yield Compute(1_500, RATES)
            yield LockRelease("L")
            if i % 2:
                yield Sleep(2_000)

    return [ThreadSpec(f"w{i}", worker) for i in range(n_threads)]


def config(seed, trace=False, pmu_width=20):
    return SimConfig(
        machine=MachineConfig(n_cores=2),
        kernel=KernelConfig(timeslice_cycles=8_000),
        seed=seed,
        trace=trace,
    ).with_pmu(counter_width=pmu_width)


class TestZeroPerturbation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tracing_does_not_change_results(self, seed):
        base = run_program(build_program(), config(seed, trace=False))
        traced = run_program(build_program(), config(seed, trace=True))
        assert traced.trace  # tracing actually happened
        assert base.fingerprint() == traced.fingerprint()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_everything_on_vs_everything_off(self, seed):
        """Inside a collector that captures traces and windows the run
        traced and recorded; outside one it did neither."""
        with collect(
            capture_traces=True, window_spec=WindowSpec(window_cycles=5_000)
        ) as collector:
            on = run_program(build_program(), config(seed))
        off = run_program(build_program(), config(seed))
        assert on.trace and not off.trace
        assert len(collector.records) == 1
        assert on.fingerprint() == off.fingerprint()

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_threads=st.integers(min_value=1, max_value=4),
        iters=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_random_workloads(self, seed, n_threads, iters):
        program = lambda: build_program(n_threads=n_threads, iters=iters)
        on = run_program(program(), config(seed, trace=True))
        off = run_program(program(), config(seed, trace=False))
        assert on.fingerprint() == off.fingerprint()

    def test_fingerprint_detects_real_differences(self):
        a = run_program(build_program(), config(0))
        b = run_program(
            build_program(n_threads=4), config(0)
        )
        assert a.fingerprint() != b.fingerprint()


class TestDisabledEmitIsOneBranch:
    def test_untraced_run_never_calls_emit(self, monkeypatch):
        """With trace=False the emit path must not be entered at all —
        the guard is the caller's single branch, so a poisoned emit proves
        no event is ever constructed."""

        def boom(self, *args, **kwargs):
            raise AssertionError("emit called on an untraced run")

        monkeypatch.setattr(TraceBus, "emit", boom)
        result = run_program(build_program(), config(0, trace=False))
        assert result.trace == []

    def test_traced_run_does_call_emit(self):
        result = run_program(build_program(), config(0, trace=True))
        assert len(result.trace) > 0

    def test_untraced_run_installs_no_subsystem_hooks(self):
        from repro.sim.engine import Engine

        engine = Engine(config(0, trace=False))
        assert engine.scheduler.on_steal is None
        assert engine.futex.on_wait is None
        assert engine.futex.on_wake is None
        assert engine.perf.on_sample is None
        assert all(c.pmu.on_overflow is None for c in engine.machine.cores)
