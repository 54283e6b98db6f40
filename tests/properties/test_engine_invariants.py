"""Property tests of whole-simulation invariants under randomized workloads.

Each generated scenario runs a full simulation; the invariants checked are
the ones DESIGN.md commits to:

* conservation (thread cpu == core busy; user+kernel == busy),
* LiMiT safe reads exact under arbitrary preemption,
* lock mutual exclusion and complete accounting,
* determinism (same seed => same fingerprint),
* one-piece syscalls, whole user phases and two-piece sleeps equal to
  the stage machine they shortcut,
* the main loop's core heap holding exactly the other unparked cores.

Every iteration makes a ``work`` syscall whose kernel path is empty, short,
or longer than the smallest timeslice.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.core.limit import LimitSession
from repro.hw.events import Event, EventRates
from repro.sim.engine import Engine, run_program
from repro.sim.ops import Compute, LockAcquire, LockRelease, Sleep, Syscall
from repro.sim.program import ThreadSpec

RATES = EventRates.profile(ipc=1.3, llc_mpki=2.0, branch_frac=0.2,
                           branch_miss_rate=0.03)

scenario = st.fixed_dictionaries(
    {
        "n_cores": st.integers(min_value=1, max_value=4),
        "n_threads": st.integers(min_value=1, max_value=5),
        "timeslice": st.sampled_from([5_000, 20_000, 100_000, 1_000_000]),
        "iters": st.integers(min_value=1, max_value=12),
        "hold": st.integers(min_value=50, max_value=20_000),
        "think": st.integers(min_value=50, max_value=20_000),
        "n_locks": st.integers(min_value=1, max_value=3),
        "with_sleep": st.booleans(),
        "kernel_work": st.one_of(
            st.just(0),
            st.integers(min_value=1, max_value=2_000),
            st.integers(min_value=5_001, max_value=12_000),
        ),
        "seed": st.integers(min_value=0, max_value=2**32),
    }
)


def build(params, session=None):
    def worker(ctx):
        if session is not None:
            yield from session.setup(ctx)
        for i in range(params["iters"]):
            yield Compute(params["think"], RATES)
            lock = f"L{i % params['n_locks']}"
            yield LockAcquire(lock)
            yield Compute(params["hold"], RATES)
            yield LockRelease(lock)
            yield Syscall("work", (params["kernel_work"],))
            if session is not None:
                yield from session.read(ctx, 0)
            if params["with_sleep"] and i % 5 == 4:
                yield Sleep(1_000)

    return [
        ThreadSpec(f"w{i}", worker) for i in range(params["n_threads"])
    ]


def config(params):
    return SimConfig(
        machine=MachineConfig(n_cores=params["n_cores"]),
        kernel=KernelConfig(timeslice_cycles=params["timeslice"]),
        seed=params["seed"],
    )


class TestSimulationInvariants:
    @given(params=scenario)
    @settings(max_examples=40, deadline=None)
    def test_conservation_and_lock_accounting(self, params):
        result = run_program(build(params), config(params))
        result.check_conservation()
        expected_acquires = params["n_threads"] * params["iters"]
        total_acquires = sum(st_.n_acquires for st_ in result.locks.values())
        assert total_acquires == expected_acquires
        for stats in result.locks.values():
            assert len(stats.hold_cycles) == stats.n_acquires
            assert all(h >= params["hold"] for h in stats.hold_cycles)
            assert all(w >= 0 for w in stats.wait_cycles)
            assert stats.total_hold <= result.wall_cycles * params["n_cores"]

    @given(params=scenario)
    @settings(max_examples=25, deadline=None)
    def test_safe_reads_always_exact(self, params):
        # alternate between user-only and user+kernel counting: both must
        # be exact under every schedule
        count_kernel = params["seed"] % 2 == 0
        session = LimitSession(
            [Event.INSTRUCTIONS], count_kernel=count_kernel
        )
        run_program(build(params, session), config(params))
        assert session.max_abs_error() == 0
        assert len(session.records) == params["n_threads"] * params["iters"]
        # and every read is monotone within its thread
        for tid in {r.tid for r in session.records}:
            values = [r.value for r in session.records_for(tid)]
            assert values == sorted(values)

    @given(params=scenario)
    @settings(max_examples=15, deadline=None)
    def test_deterministic_fingerprint(self, params):
        def fingerprint():
            result = run_program(build(params), config(params))
            return (
                result.wall_cycles,
                tuple(
                    (t.name, t.user_cycles, t.kernel_cycles)
                    for t in result.threads.values()
                ),
            )

        assert fingerprint() == fingerprint()

    @given(params=scenario)
    @settings(max_examples=25, deadline=None)
    def test_user_cycles_schedule_independent(self, params):
        """User compute is fixed by the program; scheduling only moves it.

        (Lock contention adds spin cycles, so compare the lock-free part:
        with one thread there is no contention at all.)"""
        solo = dict(params, n_threads=1)
        r1 = run_program(build(solo), config(solo))
        r2 = run_program(
            build(solo), config(dict(solo, timeslice=5_000))
        )
        t1 = r1.thread_by_name("w0")
        t2 = r2.thread_by_name("w0")
        assert t1.user_cycles == t2.user_cycles

    @given(params=scenario)
    @settings(max_examples=20, deadline=None)
    def test_whole_syscalls_match_the_stage_machine(self, params):
        """Committing action-free syscalls in one piece changes nothing
        simulated: forcing the stage machine gives the same fingerprint
        and the same LiMiT read records."""

        def run():
            session = LimitSession([Event.CYCLES], count_kernel=True)
            result = run_program(build(params, session), config(params))
            return result.fingerprint(), session.records

        fast = run()
        with mock.patch.object(
            Engine, "_try_whole_syscall", lambda *args: False
        ):
            staged = run()
        assert staged == fast

    @given(params=scenario)
    @settings(max_examples=20, deadline=None)
    def test_two_piece_sleeps_match_the_stage_machine(self, params):
        """Whole sleeps and exits resumed in the switch-in piece change
        nothing simulated: forcing the stage machine gives the same
        fingerprint and the same LiMiT read records."""
        params = dict(params, with_sleep=True)

        def run():
            session = LimitSession([Event.CYCLES], count_kernel=True)
            result = run_program(build(params, session), config(params))
            return result.fingerprint(), session.records

        fast = run()
        with mock.patch.object(
            Engine, "_try_whole_sleep", lambda *args: False
        ), mock.patch.object(
            Engine, "_try_resumed_exit", lambda *args: False
        ):
            staged = run()
        assert staged == fast

    @given(params=scenario)
    @settings(max_examples=20, deadline=None)
    def test_whole_phases_match_stage_machine(self, params):
        """Committing whole user phases (free locks, lone releases,
        Compute) in their begin handlers changes nothing simulated:
        forcing the stage machine gives the same fingerprint and the same
        lock statistics."""

        def run():
            result = run_program(build(params), config(params))
            locks = {
                name: (s.n_acquires, s.n_contended, s.n_futex_sleeps,
                       s.wait_cycles, s.hold_cycles)
                for name, s in result.locks.items()
            }
            return result.fingerprint(), locks

        fast = run()
        with mock.patch.object(
            Engine, "_try_whole_phase", lambda *args: False
        ):
            staged = run()
        assert staged == fast

    @given(params=scenario)
    @settings(max_examples=20, deadline=None)
    def test_core_heap_holds_the_other_unparked_cores(self, params):
        """Whenever a core steps, the main loop's heap holds one entry per
        unparked core other than the actor, at that core's clock, and
        nothing else."""
        real_step = Engine._step
        steps = []

        def step(engine, core):
            others = sorted(
                (c.now, c.core_id)
                for c in engine.machine.cores
                if not c.parked and c is not core
            )
            assert not core.parked
            assert sorted(engine._core_heap) == others
            steps.append(core.core_id)
            real_step(engine, core)

        with mock.patch.object(Engine, "_step", step):
            run_program(build(params), config(params))
        assert steps
