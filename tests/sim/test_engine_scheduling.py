"""Engine scheduling: preemption, multicore, sleep, spawn/join, yield."""

import pytest

from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import ConfigError, SimulationError
from repro.sim.engine import ThreadState
from repro.sim.ops import Compute, JoinThread, LockAcquire, Sleep, SpawnThread, YieldCpu

from tests.conftest import SIMPLE_RATES, compute_program, run_threads


class TestPreemption:
    def test_threads_share_a_core(self, preemptive):
        result = run_threads(
            preemptive, compute_program(200_000), compute_program(200_000)
        )
        for t in result.threads.values():
            assert t.n_preemptions > 0
        assert result.kernel.n_context_switches > 4

    def test_timeslice_bounds_run_length(self, preemptive):
        # with a 10k slice and two threads, neither can finish 200k cycles
        # before the other starts
        result = run_threads(
            preemptive, compute_program(200_000), compute_program(200_000)
        )
        t0 = result.thread_by_name("t0")
        t1 = result.thread_by_name("t1")
        # interleaved: both finish within a slice+overheads of each other
        assert abs(t0.finished_at - t1.finished_at) < 40_000

    def test_single_thread_not_preempted(self, uniprocessor):
        result = run_threads(uniprocessor, compute_program(5_000_000))
        t = result.thread_by_name("t0")
        assert t.n_preemptions == 0
        # but timer ticks still fired
        assert result.kernel.n_timer_ticks >= 4

    def test_timer_ticks_counted(self, preemptive):
        result = run_threads(preemptive, compute_program(100_000))
        assert result.kernel.n_timer_ticks >= 9


class TestMulticore:
    def test_threads_spread_across_cores(self, quad_core):
        result = run_threads(*[quad_core] + [compute_program(100_000)] * 4)
        used_cores = {
            c.core_id for c in result.cores if c.busy_cycles > 0
        }
        assert len(used_cores) == 4

    def test_parallel_speedup(self):
        uni = SimConfig(machine=MachineConfig(n_cores=1))
        quad = SimConfig(machine=MachineConfig(n_cores=4))
        factories = [compute_program(500_000) for _ in range(4)]
        serial = run_threads(uni, *factories)
        parallel = run_threads(quad, *factories)
        assert parallel.wall_cycles < serial.wall_cycles / 3

    def test_more_threads_than_cores(self, quad_core):
        factories = [compute_program(50_000) for _ in range(10)]
        result = run_threads(quad_core, *factories)
        result.check_conservation()
        assert all(
            t.user_cycles == 50_000 for t in result.threads.values()
        )


class TestSleep:
    def test_sleep_advances_wall_not_cpu(self, uniprocessor):
        def program(ctx):
            yield Compute(1_000, SIMPLE_RATES)
            yield Sleep(1_000_000)
            yield Compute(1_000, SIMPLE_RATES)

        result = run_threads(uniprocessor, program)
        t = result.thread_by_name("t0")
        assert t.wall_cycles >= 1_000_000
        assert t.cpu_cycles < 100_000

    def test_sleeping_thread_frees_the_core(self, uniprocessor):
        def sleeper(ctx):
            yield Sleep(500_000)

        def worker(ctx):
            yield Compute(100_000, SIMPLE_RATES)

        result = run_threads(uniprocessor, sleeper, worker)
        # the worker must not wait for the sleeper
        assert result.thread_by_name("t1").finished_at < 500_000

    def test_multiple_sleepers_wake_in_order(self, uniprocessor):
        order = []

        def sleeper(wake):
            def program(ctx):
                yield Sleep(wake)
                order.append(ctx.name)

            return program

        run_threads(
            uniprocessor, sleeper(300_000), sleeper(100_000), sleeper(200_000)
        )
        assert order == ["t1", "t2", "t0"]


class TestSpawnJoin:
    def test_spawn_returns_tid_and_runs(self, quad_core):
        seen = {}

        def child(ctx):
            yield Compute(10_000, SIMPLE_RATES)
            seen["child_ran"] = True

        def parent(ctx):
            tid = yield SpawnThread(child, "kid")
            seen["tid"] = tid
            yield JoinThread(tid)
            seen["joined"] = True

        result = run_threads(quad_core, parent)
        assert seen["child_ran"] and seen["joined"]
        assert result.thread_by_name("kid").user_cycles == 10_000

    def test_join_blocks_until_child_done(self, uniprocessor):
        times = {}

        def child(ctx):
            yield Compute(100_000, SIMPLE_RATES)

        def parent(ctx):
            tid = yield SpawnThread(child, "kid")
            yield JoinThread(tid)
            times["after_join"] = ctx.now()

        result = run_threads(uniprocessor, parent)
        kid = result.thread_by_name("kid")
        assert times["after_join"] >= kid.finished_at

    def test_join_finished_thread_returns_immediately(self, uniprocessor):
        def child(ctx):
            yield Compute(100, SIMPLE_RATES)

        def parent(ctx):
            tid = yield SpawnThread(child, "kid")
            yield Compute(500_000, SIMPLE_RATES)   # child certainly done
            yield JoinThread(tid)

        run_threads(uniprocessor, parent)  # must not deadlock

    def test_join_unknown_tid_raises_in_program(self, uniprocessor):
        caught = {}

        def program(ctx):
            try:
                yield JoinThread(9999)
            except SimulationError as exc:
                caught["exc"] = exc

        run_threads(uniprocessor, program)
        assert "exc" in caught

    def test_bad_spawn_factory_is_the_clone_errno(self, uniprocessor):
        """A factory that returns no generator fails the clone: the error
        is delivered to the spawning thread after the exit phase, and ends
        the run when the program does not catch it."""
        caught = {}

        def bad(ctx):
            return None

        def catching(ctx):
            try:
                yield SpawnThread(bad, "kid")
            except ConfigError as exc:
                caught["exc"] = exc
            yield Compute(100, SIMPLE_RATES)

        def careless(ctx):
            yield SpawnThread(bad, "kid")

        run_threads(uniprocessor, catching)
        assert "must return a generator" in str(caught["exc"])
        with pytest.raises(ConfigError, match="must return a generator"):
            run_threads(uniprocessor, careless)


class TestYield:
    def test_yield_hands_over_the_core(self, uniprocessor):
        order = []

        def polite(ctx):
            yield Compute(1_000, SIMPLE_RATES)
            yield YieldCpu()
            order.append("polite_done")

        def other(ctx):
            yield Compute(1_000, SIMPLE_RATES)
            order.append("other_done")

        run_threads(uniprocessor, polite, other)
        assert order == ["other_done", "polite_done"]

    def test_yield_alone_is_noop(self, uniprocessor):
        def program(ctx):
            yield YieldCpu()
            yield Compute(10, SIMPLE_RATES)

        result = run_threads(uniprocessor, program)
        assert result.thread_by_name("t0").user_cycles == 10


class TestDeadlock:
    def test_self_deadlock_detected(self, uniprocessor):
        def a(ctx):
            yield LockAcquire("x")
            yield LockAcquire("x")   # recursive acquire: never succeeds

        with pytest.raises(SimulationError, match="deadlock"):
            run_threads(uniprocessor, a)

    def test_abba_deadlock_detected(self, quad_core):
        def a(ctx):
            yield LockAcquire("A")
            yield Compute(200_000, SIMPLE_RATES)
            yield LockAcquire("B")

        def b(ctx):
            yield LockAcquire("B")
            yield Compute(200_000, SIMPLE_RATES)
            yield LockAcquire("A")

        with pytest.raises(SimulationError, match="deadlock"):
            run_threads(quad_core, a, b)


class TestThreadStateEnum:
    def test_states(self):
        assert {s.value for s in ThreadState} == {
            "ready", "running", "blocked", "finished",
        }
