"""Engine syscall machinery: costs, results, error delivery, and the
one-piece commit of action-free syscalls."""

import pytest

import repro.faults as F
from repro.common.config import KernelConfig, MachineConfig, PmuConfig, SimConfig
from repro.common.errors import ConfigError, SimulationError
from repro.core.limit import LimitSession
from repro.hw.events import Event
from repro.sim import engine as engine_mod
from repro.sim.engine import Engine
from repro.sim.ops import Compute, RegionBegin, RegionEnd, Syscall
from tests.conftest import SIMPLE_RATES, run_threads


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


def _force_stage_machine(monkeypatch):
    monkeypatch.setattr(Engine, "_try_whole_syscall", lambda *args: False)


def _count_handler_calls(monkeypatch, name):
    calls = []
    handler = engine_mod._SYSCALLS[name]

    def counted(engine, core, thread, args):
        calls.append(args)
        return handler(engine, core, thread, args)

    monkeypatch.setitem(engine_mod._SYSCALLS, name, counted)
    return calls


#: Kernel work per iteration: zero, small, a few thousand cycles, and one
#: body longer than the 20k-cycle timeslice, which must fall back to the
#: stage machine.
WORKS = (0, 150, 3_000, 45_000, 9_000, 1)

MULTI = SimConfig(
    machine=MachineConfig(n_cores=2),
    kernel=KernelConfig(timeslice_cycles=20_000),
    seed=3,
)
SOLO = SimConfig(
    machine=MachineConfig(n_cores=1),
    kernel=KernelConfig(timeslice_cycles=1_000_000),
    seed=3,
)
#: 14-bit counters counting kernel cycles wrap inside many syscalls.
NARROW = SimConfig(
    machine=MachineConfig(n_cores=2, pmu=PmuConfig(counter_width=14)),
    kernel=KernelConfig(timeslice_cycles=20_000),
    seed=3,
)


def _mixed_run(config, n_threads=3, iters=12):
    """Threads mixing Compute, action-free syscalls inside a region and
    kernel-counting LiMiT reads; returns the result and the read records."""
    session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS], count_kernel=True)

    def program(ctx):
        yield from session.setup(ctx)
        for i in range(iters):
            yield Compute(1_500 + 700 * (i % 3), SIMPLE_RATES)
            yield RegionBegin("sys")
            yield Syscall("work", (WORKS[i % len(WORKS)],))
            yield RegionEnd()
            yield from session.read(ctx, i % 2)
        yield from session.teardown(ctx)

    result = run_threads(config, *([program] * n_threads))
    return result, session.records


class TestWholeSyscalls:
    @pytest.mark.parametrize(
        "config, iters, bails",
        [
            (MULTI, 12, ("syscall.slice",)),
            (NARROW, 40, ("syscall.slice", "syscall.wrap", "syscall.pmi_due")),
        ],
    )
    def test_fast_and_staged_paths_agree(self, config, iters, bails, monkeypatch):
        """Forcing every syscall through the stage machine reproduces the
        one-piece run: fingerprint and every read record. Both runs include
        syscalls that must bail: a body crossing the slice boundary, a
        counter wrapping inside the kernel path, a PMI already due."""
        fast, fast_records = _mixed_run(config, iters=iters)
        assert fast.metrics["whole_syscalls"] > 0
        for bail in bails:
            assert fast.metrics.get("fastpath_bailout." + bail, 0) > 0, bail
        _force_stage_machine(monkeypatch)
        staged, staged_records = _mixed_run(config, iters=iters)
        assert staged.metrics["whole_syscalls"] == 0
        assert staged.fingerprint() == fast.fingerprint()
        assert len(fast_records) == 3 * iters
        assert staged_records == fast_records
        assert fast.metrics["sim_events"] < staged.metrics["sim_events"]

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
        if staged:
            _force_stage_machine(monkeypatch)
        calls = _count_handler_calls(monkeypatch, "work")
        getpid_calls = _count_handler_calls(monkeypatch, "getpid")
        result, _records = _mixed_run(MULTI, n_threads=2, iters=6)
        assert len(calls) == 2 * 6
        assert result.kernel.n_syscalls["work"] == 2 * 6
        assert (result.metrics["whole_syscalls"] == 0) is staged

        def ask(ctx):
            for _ in range(3):
                yield Syscall("getpid")

        run_threads(MULTI, ask)
        assert len(getpid_calls) == 3

    def test_bad_args_thrown_on_both_paths(self, monkeypatch):
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
        fast = run_threads(MULTI, program(True))
        _force_stage_machine(monkeypatch)
        staged = run_threads(MULTI, program(True))
        assert staged.fingerprint() == fast.fingerprint()
        assert fast.metrics["whole_syscalls"] == 0
        assert fast.thread_by_name("t0").kernel_cycles == (
            clean.kernel_cycles + costs.syscall_entry + costs.syscall_exit
        )

    def test_armed_tick_faults_keep_the_stage_machine(self, monkeypatch):
        """A shrink_counter fault fired at another core's timer tick
        rewrites this core's counters, which can land between the phases of
        a syscall in flight, so with tick faults armed every syscall takes
        the stage machine."""
        plan = F.FaultPlan(tuple(
            F.shrink_counter(width, nth=k)
            for k, width in enumerate((18, 16, 15, 14, 13, 12), 1)
        ))
        config = SimConfig(
            machine=MachineConfig(n_cores=2, pmu=PmuConfig(counter_width=20)),
            kernel=KernelConfig(timeslice_cycles=50_000),
            seed=0,
            fault_plan=plan,
        )

        def run():
            session = LimitSession([Event.CYCLES], count_kernel=True)

            def program(ctx):
                yield from session.setup(ctx)
                for i in range(40):
                    yield Compute(700 + 311 * ((7 * i + ctx.tid) % 5), SIMPLE_RATES)
                    yield Syscall("work", (2_000 + 997 * ((i + ctx.tid) % 4),))
                    yield from session.read(ctx, 0)

            return run_threads(config, *([program] * 3)), session.records

        fast, fast_records = run()
        assert fast.metrics["faults.injected"] == 6
        assert fast.metrics["whole_syscalls"] == 0
        _force_stage_machine(monkeypatch)
        staged, staged_records = run()
        assert staged.fingerprint() == fast.fingerprint()
        assert staged_records == fast_records
