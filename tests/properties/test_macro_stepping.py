"""Macro-stepping equivalence: the fast paths must be invisible.

The engine's closed-form fast paths — multi-quantum macro steps, composite
PMC reads, batched lock spins — are pure optimisations: with
``macro_stepping`` on or off, every simulated quantity must be identical,
digested here as ``RunResult.fingerprint()`` equality. The tests target
the boundary interleavings where a wrong bail condition would show up:

* counter overflow landing exactly on (and around) a timeslice boundary,
* the PMI firing mid-window after its skid,
* cross-core spawn / futex-wake activity invalidating a planned jump,
* counter wrap inside a batched window (small ``counter_width`` stands in
  for the real 48-bit wrap, which needs 2^48 cycles to reach),
* lock releases landing before, at and after the spin budget boundary,

plus whole-experiment fingerprint equality across three real experiments
and two seeds, and positive checks that each fast path actually engages
(so a silently-dead guard cannot pass as "equivalent").
"""

import dataclasses

import pytest

from repro import fabric
from repro.common.config import (
    KernelConfig,
    LockConfig,
    MachineConfig,
    PmuConfig,
    SimConfig,
)
from repro.core.limit import LimitSession
from repro.experiments.base import single_core_config
from repro.hw.events import Event
from repro.sim.engine import Engine
from repro.sim.ops import (
    Compute,
    LockAcquire,
    LockRelease,
    Sleep,
    SpawnThread,
    Syscall,
)
from repro.sim.program import ThreadSpec
from repro.workloads.base import COMPUTE_RATES

from tests.conftest import SIMPLE_RATES

EXPERIMENT_FACTORIES = [
    (
        "repro.experiments.e02_overhead_density.density_trial",
        {"total": 200_000, "density": 16, "technique": "limit"},
    ),
    (
        "repro.experiments.e03_precision.PrecisionTrial",
        {"reps": 2, "arm": "sample", "period": 50_000},
    ),
    (
        "repro.experiments.e13_multiplexing.LimitTrial",
        {"n_phases": 4, "phase_cycles": 200_000},
    ),
]
SEEDS = [11, 4242]


def _run_pair(config: SimConfig, make_factories):
    """Run the same program (rebuilt per run — sessions hold per-run
    state) with macro-stepping on and off; assert fingerprint equality and
    return the macro-on result for telemetry assertions."""

    def run(macro: bool):
        cfg = dataclasses.replace(config, macro_stepping=macro)
        specs = [
            ThreadSpec(f"t{i}", f) for i, f in enumerate(make_factories())
        ]
        return Engine(cfg).run(specs)

    on = run(True)
    off = run(False)
    assert on.fingerprint() == off.fingerprint()
    assert off.metrics.get("macro_steps", 0) == 0
    assert off.metrics.get("spin_batches", 0) == 0
    return on


@pytest.mark.parametrize("workload,kwargs", EXPERIMENT_FACTORIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_experiment_fingerprints_equal_macro_on_off(workload, kwargs, seed):
    """Whole-experiment shapes: macro on and off must agree bit for bit."""
    fingerprints = {}
    for macro in (True, False):
        config = dataclasses.replace(
            single_core_config(seed=seed), macro_stepping=macro
        )
        job = fabric.RunJob(workload=workload, config=config, kwargs=kwargs)
        (outcome,) = fabric.run_many([job], jobs_n=1, cache=None)
        fingerprints[macro] = outcome.result.fingerprint()
    assert fingerprints[True] == fingerprints[False]


class TestOverflowBoundaries:
    def _sampling_program(self, period):
        def program(ctx):
            yield Syscall(
                "perf_open", (Event.CYCLES, "sample", period, True, False)
            )
            yield Compute(400_000, SIMPLE_RATES)

        return program

    @pytest.mark.parametrize("offset", range(-4, 5))
    def test_overflow_on_and_around_slice_boundary(self, offset):
        """Sweep the sampling period through the timeslice length so the
        overflow crossing lands before, exactly on, and after a slice
        boundary (the CYCLES counter advances 1:1 with user time, so the
        crossing tracks the period to the cycle)."""
        timeslice = 50_000
        config = SimConfig(
            machine=MachineConfig(n_cores=1),
            kernel=KernelConfig(timeslice_cycles=timeslice),
            seed=3,
        )
        result = _run_pair(
            config, lambda: [self._sampling_program(timeslice + offset)]
        )
        assert result.kernel.n_pmis > 0

    def test_pmi_skid_lands_mid_jump(self):
        """A short period fires PMIs (after their skid) deep inside what
        would otherwise be a many-quantum macro jump."""
        config = SimConfig(
            machine=MachineConfig(n_cores=1),
            kernel=KernelConfig(timeslice_cycles=20_000),
            seed=3,
        )
        result = _run_pair(config, lambda: [self._sampling_program(70_001)])
        assert result.kernel.n_pmis >= 5
        assert result.metrics.get("fastpath_bailout.macro.pmi_due", 0) > 0

    @pytest.mark.parametrize("width", [12, 16])
    def test_counter_wrap_inside_batched_window(self, width):
        """Tiny counter widths make the hardware counter wrap every few
        hundred cycles — inside every would-be batched window. This is the
        same mask arithmetic that bounds the 48-bit wrap, at a reachable
        scale; the fast paths must cap or bail on the wrap and leave the
        slow path to latch the overflow."""
        config = SimConfig(
            machine=MachineConfig(
                n_cores=2, pmu=PmuConfig(counter_width=width)
            ),
            kernel=KernelConfig(timeslice_cycles=30_000),
            seed=5,
        )
        def make():
            session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS])

            def worker(ctx):
                yield from session.setup(ctx)
                for _ in range(6):
                    yield Compute(9_000, SIMPLE_RATES)
                    yield LockAcquire("hot")
                    yield Compute(120_000, SIMPLE_RATES)
                    value = yield from session.read(ctx, 0)
                    assert value >= 0
                    yield LockRelease("hot")

            return [worker, worker]

        _run_pair(config, make)


class TestCrossCoreInvalidation:
    def test_spawn_and_wake_invalidate_jump(self):
        """A sibling core spawning workers and completing them produces
        wakeups that move the horizon under a planned jump; the solo
        computer must still macro-step between interruptions and agree
        with the slow path exactly."""
        config = SimConfig(
            machine=MachineConfig(n_cores=2),
            kernel=KernelConfig(timeslice_cycles=25_000),
            seed=9,
        )

        def solo(ctx):
            yield Compute(3_000_000, SIMPLE_RATES)

        def child(ctx):
            yield Compute(40_000, SIMPLE_RATES)

        def spawner(ctx):
            for i in range(8):
                yield Sleep(60_000)
                yield SpawnThread(child, f"child{i}")

        result = _run_pair(config, lambda: [solo, spawner])
        assert result.metrics.get("macro_steps", 0) > 0


class TestSpinBatching:
    @pytest.mark.parametrize(
        "hold",
        # straddle the spin budget (spin_limit_cycles=2_000 by default):
        # release lands mid-spin, right at exhaustion, and in the futex path
        [500, 1_900, 2_072, 2_100, 4_000, 60_000],
    )
    def test_release_before_at_and_after_spin_budget(self, hold):
        config = SimConfig(
            machine=MachineConfig(n_cores=2),
            kernel=KernelConfig(timeslice_cycles=100_000),
            seed=21,
        )

        def worker(ctx):
            for _ in range(20):
                yield LockAcquire("hot")
                yield Compute(hold, COMPUTE_RATES)
                yield LockRelease("hot")
                yield Compute(137, COMPUTE_RATES)

        result = _run_pair(config, lambda: [worker, worker])
        assert result.locks["hot"].n_contended > 0

    def test_spin_batch_engages_and_exhausts_budget(self):
        """Long hold: the waiter must burn its whole spin budget (batched)
        and reach the futex path; telemetry proves the batch ran."""
        config = SimConfig(
            machine=MachineConfig(n_cores=2),
            kernel=KernelConfig(timeslice_cycles=500_000),
            seed=21,
        )

        def worker(ctx):
            for _ in range(10):
                yield LockAcquire("hot")
                yield Compute(200_000, COMPUTE_RATES)
                yield LockRelease("hot")
                yield Compute(1_000, COMPUTE_RATES)

        result = _run_pair(config, lambda: [worker, worker])
        assert result.metrics.get("spin_batches", 0) > 0
        assert result.kernel.n_futex_waits > 0

    def test_tiny_spin_budget_disables_batching_cleanly(self):
        config = SimConfig(
            machine=MachineConfig(n_cores=2),
            kernel=KernelConfig(timeslice_cycles=100_000),
            locks=LockConfig(spin_limit_cycles=60),
            seed=21,
        )

        def worker(ctx):
            for _ in range(10):
                yield LockAcquire("hot")
                yield Compute(5_000, COMPUTE_RATES)
                yield LockRelease("hot")

        _run_pair(config, lambda: [worker, worker])


class TestFastReadEngagement:
    def test_composite_reads_take_fast_path_when_solo(self):
        config = SimConfig(
            machine=MachineConfig(n_cores=1),
            kernel=KernelConfig(timeslice_cycles=1_000_000),
            seed=2,
        )
        def make():
            session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS])

            def reader(ctx):
                yield from session.setup(ctx)
                for _ in range(50):
                    yield Compute(1_000, SIMPLE_RATES)
                    value = yield from session.read(ctx, 0)
                    assert value >= 0

            return [reader]

        result = _run_pair(config, make)
        assert result.metrics.get("fast_reads", 0) > 0
