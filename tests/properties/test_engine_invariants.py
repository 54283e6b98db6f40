"""Property tests of whole-simulation invariants under randomized workloads.

Each generated scenario (drawn from the equivalence harness's generator,
``tests/equivalence.py``) runs a full simulation; the invariants checked
are the ones DESIGN.md commits to:

* conservation (thread cpu == core busy; user+kernel == busy),
* LiMiT safe reads exact under arbitrary preemption,
* lock mutual exclusion and complete accounting,
* determinism (same seed => same fingerprint),
* the main loop's core heap holding exactly the other unparked cores.

That every fast path matches the stage machine it shortcuts is the
harness's property (``tests/test_equivalence.py``).
"""

from unittest import mock

from hypothesis import given, settings

from repro.core.limit import LimitSession
from repro.hw.events import Event
from repro.sim.engine import Engine, run_program

from tests.equivalence import build, config, scenario


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
