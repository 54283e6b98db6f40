"""Engine lock semantics: mutual exclusion, futex path, statistics, and
the in-begin commit of whole user phases (free locks, lone releases,
Compute, Rdtsc)."""

from collections import Counter

import pytest

from repro.common.config import (
    KernelConfig,
    LockConfig,
    MachineConfig,
    PmuConfig,
    SimConfig,
)
from repro.common.errors import LockProtocolError, SimulationError
from repro.core.limit import LimitSession
from repro.hw.events import Domain, Event, events_in
from repro.sim.engine import Engine
from repro.sim.ops import (
    Compute,
    LockAcquire,
    LockRelease,
    Rdtsc,
    RegionBegin,
    RegionEnd,
)
from repro.sim.program import ThreadSpec

from tests.conftest import SIMPLE_RATES, run_threads


def locked_worker(lock="L", hold=1_000, iters=20, think=500):
    def program(ctx):
        for _ in range(iters):
            yield Compute(think, SIMPLE_RATES)
            yield LockAcquire(lock)
            yield Compute(hold, SIMPLE_RATES)
            yield LockRelease(lock)

    return program


class TestMutualExclusion:
    def test_critical_sections_never_overlap(self, quad_core):
        """With 4 threads hammering one lock, total hold time can never
        exceed wall time (sections are serialized)."""
        result = run_threads(quad_core, *[locked_worker(iters=40)] * 4)
        stats = result.locks["L"]
        assert stats.n_acquires == 160
        assert stats.total_hold <= result.wall_cycles

    def test_every_acquire_released(self, quad_core):
        result = run_threads(quad_core, *[locked_worker(iters=15)] * 3)
        stats = result.locks["L"]
        assert len(stats.hold_cycles) == stats.n_acquires

    def test_hold_time_at_least_body(self, uniprocessor):
        result = run_threads(uniprocessor, locked_worker(hold=2_000, iters=5))
        assert all(h >= 2_000 for h in result.locks["L"].hold_cycles)


class TestContention:
    def test_uncontended_no_futex(self, uniprocessor):
        result = run_threads(uniprocessor, locked_worker(iters=10))
        stats = result.locks["L"]
        assert stats.n_contended == 0
        assert result.kernel.n_futex_waits == 0

    def test_long_holds_force_futex_sleeps(self, quad_core):
        """Holds far beyond the spin limit must put waiters to sleep."""
        config = SimConfig(
            machine=MachineConfig(n_cores=4),
            locks=LockConfig(spin_limit_cycles=1_000),
        )
        result = run_threads(
            config, *[locked_worker(hold=50_000, think=100, iters=10)] * 4
        )
        stats = result.locks["L"]
        assert stats.n_futex_sleeps > 0
        assert result.kernel.n_futex_waits > 0
        assert result.kernel.n_futex_wakes > 0

    def test_short_holds_resolved_by_spinning(self, quad_core):
        """Sub-spin-limit holds should mostly avoid the futex."""
        config = SimConfig(
            machine=MachineConfig(n_cores=4),
            locks=LockConfig(spin_limit_cycles=100_000),
        )
        result = run_threads(
            config, *[locked_worker(hold=300, think=900, iters=30)] * 2
        )
        stats = result.locks["L"]
        assert stats.n_futex_sleeps == 0

    def test_wait_times_recorded_for_contended(self, quad_core):
        result = run_threads(
            quad_core, *[locked_worker(hold=20_000, think=50, iters=8)] * 4
        )
        stats = result.locks["L"]
        assert stats.n_contended > 0
        assert stats.total_wait > 0

    def test_independent_locks_do_not_contend(self, quad_core):
        result = run_threads(
            quad_core,
            locked_worker(lock="A", iters=20),
            locked_worker(lock="B", iters=20),
        )
        assert result.locks["A"].n_contended == 0
        assert result.locks["B"].n_contended == 0


class TestProtocolErrors:
    def test_release_without_acquire(self, uniprocessor):
        def program(ctx):
            yield LockRelease("L")

        with pytest.raises(LockProtocolError):
            run_threads(uniprocessor, program)

    def test_release_other_threads_lock(self, quad_core):
        def owner(ctx):
            yield LockAcquire("L")
            yield Compute(500_000, SIMPLE_RATES)
            yield LockRelease("L")

        def thief(ctx):
            yield Compute(50_000, SIMPLE_RATES)
            yield LockRelease("L")

        with pytest.raises(LockProtocolError):
            run_threads(quad_core, owner, thief)

    def test_exit_holding_lock_detected(self, uniprocessor):
        def program(ctx):
            yield LockAcquire("L")

        with pytest.raises(SimulationError, match="holding locks"):
            run_threads(uniprocessor, program)


class TestFairnessish:
    def test_all_threads_make_progress(self, quad_core):
        """No starvation: every thread completes all its iterations."""
        done = []

        def worker(ctx):
            for _ in range(25):
                yield LockAcquire("L")
                yield Compute(400, SIMPLE_RATES)
                yield LockRelease("L")
                yield Compute(100, SIMPLE_RATES)
            done.append(ctx.name)

        run_threads(quad_core, *[worker] * 4)
        assert len(done) == 4


def _force_stage_machine(monkeypatch):
    monkeypatch.setattr(Engine, "_try_whole_phase", lambda *args: False)


def _spy_fallbacks(monkeypatch):
    """Wrap ``Engine._try_whole_phase``: check each verdict against the
    three fallback conditions, read off the state before the call, and
    tally the fallbacks by ``(op type name, condition)``."""
    real = Engine._try_whole_phase
    falls = Counter()

    def spy(engine, core, thread, cycles, rates):
        causes = []
        if core.pmi_due_at is not None:
            causes.append("pmi_due")
        if core.slice_ends_at - core.now < cycles:
            causes.append("slice")
        plan = core.pmu.plan_entry(rates, Domain.USER)[1]
        if any(
            ctr.value + events_in(0, cycles, ppm) > mask
            for _index, ctr, ppm, mask in plan
        ):
            causes.append("wrap")
        committed = real(engine, core, thread, cycles, rates)
        assert committed == (not causes)
        kind = type(thread.op_exec.op).__name__
        for cause in causes:
            falls[kind, cause] += 1
        return committed

    monkeypatch.setattr(Engine, "_try_whole_phase", spy)
    return falls


#: 10-bit counters counting user cycles wrap every ~1k cycles, so some wrap
#: inside a CAS and some PMIs are still due when the next op begins.
NARROW_LOCKS = SimConfig(
    machine=MachineConfig(n_cores=2, pmu=PmuConfig(counter_width=10)),
    kernel=KernelConfig(timeslice_cycles=20_000),
    seed=5,
)
#: Four threads on three cores with a short slice: contended locks, futex
#: sleeps, preemption, and CASes that straddle a slice boundary.
SLICED_LOCKS = SimConfig(
    machine=MachineConfig(n_cores=3),
    kernel=KernelConfig(timeslice_cycles=2_500),
    locks=LockConfig(spin_limit_cycles=120),
    seed=5,
)


def _lock_run(config, n_threads, iters=30):
    """Threads mixing a shared (contended) lock and a private
    (uncontended) one, Compute, Rdtsc and LiMiT reads inside a region;
    returns the result and the read records."""
    session = LimitSession([Event.CYCLES])

    def program(ctx):
        yield from session.setup(ctx)
        for i in range(iters):
            yield Compute(200 + 157 * ((5 * i + ctx.tid) % 7), SIMPLE_RATES)
            lock = "shared" if i % 2 else f"own{ctx.tid}"
            yield RegionBegin("cs")
            yield LockAcquire(lock)
            yield Rdtsc()
            yield Compute(100 + 97 * (i % 4), SIMPLE_RATES)
            yield from session.read(ctx, 0)
            yield LockRelease(lock)
            yield RegionEnd()

    return run_threads(config, *([program] * n_threads)), session.records


def _lock_stats(result):
    return {
        name: (
            s.n_acquires, s.n_contended, s.n_futex_sleeps,
            s.wait_cycles, s.hold_cycles,
        )
        for name, s in result.locks.items()
    }


class TestWholePhases:
    @pytest.mark.parametrize(
        "config, n_threads, causes, futex",
        [
            (NARROW_LOCKS, 2, (("LockAcquire", "wrap"), ("LockRelease", "wrap"),
                               ("LockAcquire", "pmi_due")), False),
            (SLICED_LOCKS, 4, (("LockAcquire", "slice"), ("Rdtsc", "slice"),
                               ("Compute", "slice")), True),
        ],
    )
    def test_fast_and_staged_paths_agree(
        self, config, n_threads, causes, futex, monkeypatch
    ):
        """Forcing every user phase through the stage machine reproduces
        the in-begin commits: fingerprint, every lock statistic and every
        read record. The fast run includes phases that must fall back and,
        in the sliced run, releases that must wake a futex sleeper."""
        falls = _spy_fallbacks(monkeypatch)
        fast, fast_records = _lock_run(config, n_threads)
        for cause in causes:
            assert falls[cause] > 0, cause
        assert fast.metrics["whole_phases"] > 0
        assert fast.locks["shared"].n_contended > 0
        assert (fast.kernel.n_futex_wakes > 0) is futex
        _force_stage_machine(monkeypatch)
        staged, staged_records = _lock_run(config, n_threads)
        assert staged.metrics["whole_phases"] == 0
        assert staged.fingerprint() == fast.fingerprint()
        assert _lock_stats(staged) == _lock_stats(fast)
        assert staged_records == fast_records
        assert len(fast_records) == 30 * n_threads
        assert staged.metrics["sim_events"] == fast.metrics["sim_events"]

    def test_cas_straddling_the_slice_falls_back(self, monkeypatch):
        """A CAS that starts 5 cycles before the slice ends takes the stage
        machine: the timer tick lands inside it, so the acquire's recorded
        wait is the CAS plus the tick."""
        config = SimConfig(
            machine=MachineConfig(n_cores=1),
            kernel=KernelConfig(timeslice_cycles=10_000),
        )
        costs = config.machine.costs

        def program(ctx):
            yield Compute(10_000 - 5, SIMPLE_RATES)
            yield LockAcquire("L")
            yield LockRelease("L")

        falls = _spy_fallbacks(monkeypatch)
        result = run_threads(config, program)
        assert falls == Counter({("LockAcquire", "slice"): 1})
        assert result.locks["L"].wait_cycles == [costs.cas + costs.timer_tick]
        assert result.metrics["whole_phases"] == 2

    def test_uncontended_acquire_waits_one_cas(self, uniprocessor):
        costs = uniprocessor.machine.costs
        result = run_threads(uniprocessor, locked_worker(iters=10))
        stats = result.locks["L"]
        assert stats.wait_cycles == [costs.cas] * 10
        assert stats.hold_cycles == [1_000 + costs.cas] * 10
        assert result.metrics["whole_phases"] == 4 * 10

    @pytest.mark.parametrize("staged", [False, True])
    def test_unowned_release_raises_after_the_cas(self, staged, monkeypatch):
        """Releasing a lock the thread does not own raises only after the
        CAS is charged, on either path."""
        if staged:
            _force_stage_machine(monkeypatch)
        config = SimConfig(machine=MachineConfig(n_cores=1))
        costs = config.machine.costs

        def program(ctx):
            yield Compute(1_000, SIMPLE_RATES)
            yield LockRelease("L")

        engine = Engine(config)
        with pytest.raises(LockProtocolError):
            engine.run([ThreadSpec("t0", program)])
        (thread,) = engine.threads.values()
        assert thread.user_cycles == 1_000 + costs.cas
        assert engine.machine.cores[0].now == (
            costs.context_switch + 1_000 + costs.cas
        )
