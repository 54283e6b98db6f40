"""Engine syscall machinery: costs, results, error delivery, and the
one-piece commit of action-free syscalls."""

from contextlib import nullcontext

import pytest

from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.common.errors import ConfigError, SimulationError
from repro.hw.events import Event
from repro.sim import engine as engine_mod
from repro.sim.engine import run_program
from repro.sim.ops import Compute, Syscall
from tests.conftest import SIMPLE_RATES, run_threads
from tests.equivalence import MULTI, TICK_FAULTS, fastpaths_off, mixed_syscalls


class TestGenericSyscalls:
    def test_work_costs_kernel_cycles(self, uniprocessor):
        def program(ctx):
            yield Syscall("work", (40_000,))

        result = run_threads(uniprocessor, program)
        t = result.thread_by_name("t0")
        costs = uniprocessor.machine.costs
        assert t.kernel_cycles >= 40_000 + costs.syscall_entry + costs.syscall_exit

    def test_getpid_returns_tid(self, uniprocessor):
        seen = {}

        def program(ctx):
            seen["pid"] = yield Syscall("getpid")
            seen["tid"] = ctx.tid

        run_threads(uniprocessor, program)
        assert seen["pid"] == seen["tid"]

    def test_syscall_counts_tracked(self, uniprocessor):
        def program(ctx):
            for _ in range(5):
                yield Syscall("getpid")
            yield Syscall("work", (100,))

        result = run_threads(uniprocessor, program)
        assert result.kernel.n_syscalls["getpid"] == 5
        assert result.kernel.n_syscalls["work"] == 1
        assert result.thread_by_name("t0").n_syscalls == 6

    def test_unknown_syscall_raises(self, uniprocessor):
        def program(ctx):
            yield Syscall("frobnicate")

        with pytest.raises(SimulationError, match="unknown syscall"):
            run_threads(uniprocessor, program)

    def test_bad_args_delivered_as_exception(self, uniprocessor):
        caught = {}

        def program(ctx):
            try:
                yield Syscall("work", (-5,))
            except Exception as exc:
                caught["exc"] = exc
            # thread continues after handling its "errno"
            yield Compute(10, SIMPLE_RATES)

        result = run_threads(uniprocessor, program)
        assert "exc" in caught
        assert result.thread_by_name("t0").user_cycles >= 10


class TestPerfSyscalls:
    def test_perf_open_read_close(self, uniprocessor):
        seen = {}

        def program(ctx):
            fd = yield Syscall("perf_open", (Event.INSTRUCTIONS, "count", 0, True, False))
            yield Compute(100_000, SIMPLE_RATES)
            seen["value"] = yield Syscall("perf_read", (fd,))
            yield Syscall("perf_close", (fd,))

        result = run_threads(uniprocessor, program)
        # IPC 1.0 over 100k cycles
        assert 100_000 <= seen["value"] < 103_000
        result.check_conservation()

    def test_perf_read_bad_fd(self, uniprocessor):
        caught = {}

        def program(ctx):
            try:
                yield Syscall("perf_read", (1234,))
            except Exception as exc:
                caught["exc"] = exc

        run_threads(uniprocessor, program)
        assert "exc" in caught

    def test_perf_read_is_expensive(self, uniprocessor):
        """The whole point: read(2) costs microseconds."""

        def program(ctx):
            fd = yield Syscall("perf_open", (Event.CYCLES, "count", 0, True, False))
            for _ in range(10):
                yield Syscall("perf_read", (fd,))

        result = run_threads(uniprocessor, program)
        t = result.thread_by_name("t0")
        costs = uniprocessor.machine.costs
        assert t.kernel_cycles > 10 * costs.perf_read_kernel_work


class TestPapiSyscall:
    def test_papi_read_multiple_counters(self, uniprocessor):
        from repro.kernel.vpmu import SlotSpec

        seen = {}

        def program(ctx):
            i0 = yield Syscall("pmc_open", (SlotSpec(event=Event.CYCLES),))
            i1 = yield Syscall("pmc_open", (SlotSpec(event=Event.INSTRUCTIONS),))
            yield Compute(50_000, SIMPLE_RATES)
            seen["values"] = yield Syscall("papi_read", ((i0, i1),))

        run_threads(uniprocessor, program)
        cycles, instructions = seen["values"]
        assert cycles >= 50_000
        assert instructions >= 50_000  # SIMPLE_RATES has IPC 1.0


def _count_handler_calls(monkeypatch, name):
    calls = []
    handler = engine_mod._SYSCALLS[name]

    def counted(engine, core, thread, args):
        calls.append(args)
        return handler(engine, core, thread, args)

    monkeypatch.setitem(engine_mod._SYSCALLS, name, counted)
    return calls


SOLO = SimConfig(
    machine=MachineConfig(n_cores=1),
    kernel=KernelConfig(timeslice_cycles=1_000_000),
    seed=3,
)


class TestWholeSyscalls:
    def test_whole_syscall_is_one_piece(self):
        """An action-free syscall commits inside its begin handler, so a
        solo program with N of them has exactly N more sim events."""
        n = 25

        def program(with_syscalls):
            def worker(ctx):
                for i in range(n):
                    yield Compute(2_000, SIMPLE_RATES)
                    if with_syscalls:
                        yield Syscall("work", (100 * i,))

            return worker

        plain = run_threads(SOLO, program(False)).metrics
        syscalls = run_threads(SOLO, program(True)).metrics
        assert syscalls["whole_syscalls"] == n
        assert syscalls["sim_events"] == plain["sim_events"] + n

    @pytest.mark.parametrize("staged", [False, True])
    def test_handler_runs_once_per_syscall(self, staged, monkeypatch):
        calls = _count_handler_calls(monkeypatch, "work")
        getpid_calls = _count_handler_calls(monkeypatch, "getpid")
        with fastpaths_off("syscall") if staged else nullcontext():
            result = run_program(mixed_syscalls(2, 6).specs, MULTI)
        assert len(calls) == 2 * 6
        assert result.kernel.n_syscalls["work"] == 2 * 6
        assert (result.metrics["whole_syscalls"] == 0) is staged

        def ask(ctx):
            for _ in range(3):
                yield Syscall("getpid")

        run_threads(MULTI, ask)
        assert len(getpid_calls) == 3

    def test_bad_args_thrown_on_both_paths(self):
        """A handler that raises is thrown into the thread as its errno on
        either path, with entry and exit charged and no body."""

        def program(bad):
            def worker(ctx):
                yield Compute(1_000, SIMPLE_RATES)
                if bad:
                    with pytest.raises(ConfigError, match="non-negative"):
                        yield Syscall("work", (-5,))
                yield Compute(1_000, SIMPLE_RATES)

            return worker

        costs = MULTI.machine.costs
        clean = run_threads(MULTI, program(False)).thread_by_name("t0")
        for switch in (nullcontext(), fastpaths_off("syscall")):
            with switch:
                bad = run_threads(MULTI, program(True))
            assert bad.metrics["whole_syscalls"] == 0
            assert bad.thread_by_name("t0").kernel_cycles == (
                clean.kernel_cycles + costs.syscall_entry + costs.syscall_exit
            )

    def test_armed_tick_faults_fold_before_the_horizon(self):
        """A shrink_counter fault fired at another core's timer tick
        rewrites this core's counters, so with tick faults armed a syscall
        folds only when its exit starts before any other actor can act.
        Those folds commit, the rest bail at the horizon, and the run
        observes what the stage machine alone observes."""
        program = mixed_syscalls(iters=40)
        result = run_program(program.specs, TICK_FAULTS)
        assert result.metrics["faults.injected.shrink_counter"] == 6
        assert result.metrics["whole_syscalls"] > 0
        assert result.metrics["resumed_exits"] > 0
        assert result.metrics["fastpath_bailout.syscall.horizon"] > 0
        with fastpaths_off():
            staged = mixed_syscalls(iters=40)
            off = run_program(staged.specs, TICK_FAULTS)
        assert off.metrics["whole_syscalls"] == off.metrics["resumed_exits"] == 0
        assert off.fingerprint() == result.fingerprint()
        assert [list(s.records) for s in staged.sessions] == [
            list(s.records) for s in program.sessions
        ]
