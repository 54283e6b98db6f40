"""Two-piece sleeps: a Sleep's entry, body and block commit in its fetch
piece (``Engine._try_whole_sleep``), and a thread switched in before its
pending kernel exit phase runs that phase in the switch-in piece
(``Engine._try_resumed_exit``). Forcing both back onto the stage machine
must reproduce every run exactly."""

import collections

import pytest

import repro.faults as F
from repro.common.config import KernelConfig, MachineConfig, PmuConfig, SimConfig
from repro.core.limit import LimitSession
from repro.hw.events import KERNEL_RATES, Domain, Event
from repro.sim.engine import Engine
from repro.sim.ops import (
    Compute,
    LockAcquire,
    LockRelease,
    RegionBegin,
    RegionEnd,
    Sleep,
    Syscall,
)
from tests.conftest import SIMPLE_RATES, run_threads


def _force_stage_machine(monkeypatch):
    monkeypatch.setattr(Engine, "_try_whole_sleep", lambda *args: False)
    monkeypatch.setattr(Engine, "_try_resumed_exit", lambda *args: False)


def _record_sleep_cases(monkeypatch):
    """Count the states ``_try_whole_sleep`` meets: a PMI due, an entry
    that ends at or past the slice end, and commits."""
    seen = collections.Counter()
    real = Engine._try_whole_sleep

    def recorded(engine, core, thread, ex):
        if core.pmi_due_at is not None:
            seen["pmi_due"] += 1
        elif core.now + engine._costs.syscall_entry >= core.slice_ends_at:
            seen["slice_end"] += 1
        whole = real(engine, core, thread, ex)
        seen["whole" if whole else "staged"] += 1
        return whole

    monkeypatch.setattr(Engine, "_try_whole_sleep", recorded)
    return seen


#: Sleep lengths: well inside, near and past the 20k-cycle timeslice.
SLEEPS = (3_000, 150, 45_000, 19_000, 700, 26_000)

MULTI = SimConfig(
    machine=MachineConfig(n_cores=2),
    kernel=KernelConfig(timeslice_cycles=20_000),
    seed=3,
)
SOLO = SimConfig(
    machine=MachineConfig(n_cores=1),
    kernel=KernelConfig(timeslice_cycles=20_000),
    seed=3,
)
#: 14-bit counters counting kernel cycles wrap inside many kernel paths,
#: so PMIs are often due when a sleep is fetched.
NARROW = SimConfig(
    machine=MachineConfig(n_cores=2, pmu=PmuConfig(counter_width=14)),
    kernel=KernelConfig(timeslice_cycles=20_000),
    seed=3,
)
SWAPS = F.FaultPlan((
    F.delay_swap(900, every=3),
    F.dup_swap(every=4),
))
FAULTED = SimConfig(
    machine=MachineConfig(n_cores=2, pmu=PmuConfig(counter_width=20)),
    kernel=KernelConfig(timeslice_cycles=20_000),
    seed=3,
    fault_plan=SWAPS,
)
#: A tick fault rewrites every core's counters, so resumed exits stay on
#: the stage machine while whole sleeps still commit.
SHRUNK = SimConfig(
    machine=MachineConfig(n_cores=2, pmu=PmuConfig(counter_width=20)),
    kernel=KernelConfig(timeslice_cycles=20_000),
    seed=3,
    fault_plan=F.FaultPlan(SWAPS.specs + tuple(
        F.shrink_counter(width, nth=k)
        for k, width in enumerate((18, 16, 15), 1)
    )),
)


def _sleepy_run(config, iters=12):
    """Four threads on LiMiT counters counting kernel cycles: two sleep
    (inside a region), one waits on a keyed event and one wakes it, and
    both of those take a lock they hold across a sleep, so the other
    spins out and futex-waits. Returns the result and the read records."""
    session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS], count_kernel=True)

    def sleeper(ctx):
        yield from session.setup(ctx)
        for i in range(iters):
            yield Compute(1_500 + 700 * ((i + ctx.tid) % 3), SIMPLE_RATES)
            yield RegionBegin("nap")
            yield Sleep(SLEEPS[(i + ctx.tid) % len(SLEEPS)])
            yield RegionEnd()
            yield from session.read(ctx, i % 2)
        yield from session.teardown(ctx)

    def waiter(ctx):
        yield from session.setup(ctx)
        for i in range(iters):
            yield Syscall("wait_key", ("k",))
            yield from session.read(ctx, 0)
            yield LockAcquire("L")
            yield Sleep(2_500 + 300 * (i % 4))
            yield LockRelease("L")
        yield from session.teardown(ctx)

    def waker(ctx):
        yield from session.setup(ctx)
        for i in range(iters):
            yield Compute(4_000 + 900 * (i % 4), SIMPLE_RATES)
            yield Syscall("wake_key", ("k", 1))
            yield LockAcquire("L")
            yield Sleep(2_800)
            yield Compute(1_000, SIMPLE_RATES)
            yield LockRelease("L")
            yield from session.read(ctx, 1)
        yield from session.teardown(ctx)

    result = run_threads(config, sleeper, sleeper, waiter, waker)
    return result, session.records


class TestTwoPieceSleeps:
    @pytest.mark.parametrize(
        "config, iters, resumes",
        [
            (SOLO, 12, True),
            (MULTI, 12, True),
            (NARROW, 30, True),
            (FAULTED, 12, True),
            (SHRUNK, 12, False),
        ],
        ids=["solo", "multi", "narrow", "swap-faults", "shrink-faults"],
    )
    def test_folded_and_staged_paths_agree(self, config, iters, resumes, monkeypatch):
        """Fingerprints and every read record match with both folds forced
        off. Sleeps shorter and longer than the slice, woken key waits and
        futex waits all run; a shrink_counter plan keeps exits staged."""
        seen = _record_sleep_cases(monkeypatch)
        fast, fast_records = _sleepy_run(config, iters)
        metrics = fast.metrics
        assert metrics["whole_sleeps"] == seen["whole"] > 0
        assert (metrics["resumed_exits"] > 0) is resumes
        if config.fault_plan:
            assert metrics["faults.injected"] > 0
        _force_stage_machine(monkeypatch)
        staged, staged_records = _sleepy_run(config, iters)
        assert staged.metrics["whole_sleeps"] == 0
        assert staged.metrics["resumed_exits"] == 0
        assert staged.fingerprint() == fast.fingerprint()
        assert len(fast_records) > 0
        assert staged_records == fast_records
        assert metrics["sim_events"] < staged.metrics["sim_events"]
        assert metrics["ops_fetched"] == staged.metrics["ops_fetched"]
        assert fast.kernel == staged.kernel

    def test_pmi_due_at_the_sleep(self, monkeypatch):
        """A lone thread's 14-bit counter, zeroed at each switch-in, wraps
        near the end of some computes, so the next sleep is fetched with
        the PMI still due; others wrap inside the sleep's own kernel path.
        Both take the stage machine, each counted as its bail, and the run
        matches it."""
        config = SimConfig(
            machine=MachineConfig(n_cores=1, pmu=PmuConfig(counter_width=14)),
            kernel=KernelConfig(timeslice_cycles=20_000),
            seed=3,
        )

        def run():
            session = LimitSession([Event.CYCLES], count_kernel=True)

            def program(ctx):
                yield from session.setup(ctx)
                for i in range(40):
                    yield Compute(13_400 + 37 * i, SIMPLE_RATES)
                    yield Sleep(2_000)
                    yield from session.read(ctx, 0)
                yield from session.teardown(ctx)

            return run_threads(config, program), session.records

        seen = _record_sleep_cases(monkeypatch)
        fast, fast_records = run()
        assert fast.kernel.n_pmis > 0
        assert seen["pmi_due"] > 0
        assert seen["staged"] > seen["pmi_due"]
        assert seen["whole"] > 0
        bails = fast.metrics
        assert bails["fastpath_bailout.sleep.pmi_due"] == seen["pmi_due"]
        assert bails["fastpath_bailout.sleep.wrap"] > 0
        assert sum(
            n for key, n in bails.items()
            if key.startswith("fastpath_bailout.sleep.")
        ) == seen["staged"]
        _force_stage_machine(monkeypatch)
        staged, staged_records = run()
        assert staged.fingerprint() == fast.fingerprint()
        assert staged_records == fast_records

    @pytest.mark.parametrize("config", [MULTI, NARROW, FAULTED],
                             ids=["multi", "narrow", "swap-faults"])
    def test_traces_match(self, config, monkeypatch):
        """Under tracing, whole sleeps still commit (their trace events are
        the stage machine's own) and resumed exits do not; the trace event
        lists are equal."""
        traced = SimConfig(
            machine=config.machine, kernel=config.kernel, seed=config.seed,
            fault_plan=config.fault_plan, trace=True,
        )
        fast, fast_records = _sleepy_run(traced)
        assert fast.metrics["whole_sleeps"] > 0
        assert fast.metrics["resumed_exits"] == 0
        _force_stage_machine(monkeypatch)
        staged, staged_records = _sleepy_run(traced)
        assert staged.fingerprint() == fast.fingerprint()
        assert staged_records == fast_records
        assert len(fast.trace) > 0
        assert staged.trace == fast.trace

    @pytest.mark.parametrize("lead", [0, 1, 279, 280, 281, 5_000])
    def test_sleep_at_the_slice_end(self, lead, monkeypatch):
        """A lone thread computes up to ``lead`` cycles before its slice
        ends, then sleeps. The fetch piece takes the sleep whole only when
        the entry (280 cycles) ends before the slice does, and bails on
        the slice otherwise; at ``lead`` 0 the tick runs first and the
        sleep starts a fresh slice."""
        costs = SOLO.machine.costs
        entry = costs.syscall_entry
        slice_cycles = SOLO.kernel.timeslice_cycles

        def program(ctx):
            yield Compute(slice_cycles - lead, SIMPLE_RATES)
            yield Sleep(4_000)
            yield Compute(1_000, SIMPLE_RATES)

        fast = run_threads(SOLO, program)
        assert fast.metrics["whole_sleeps"] == int(lead == 0 or lead > entry)
        slice_bails = fast.metrics.get("fastpath_bailout.sleep.slice", 0)
        assert slice_bails == int(0 < lead <= entry)
        assert fast.metrics["resumed_exits"] == 1
        _force_stage_machine(monkeypatch)
        staged = run_threads(SOLO, program)
        assert staged.fingerprint() == fast.fingerprint()

    def test_a_yield_exit_keeps_its_own_piece(self):
        """A yield's exit reads the run queue, so a thread switched in
        before it does not run it in the switch-in piece; a sleep's exit
        does."""
        engine = Engine(SOLO)
        core = engine.machine.cores[0]
        def idle(ctx):
            yield from ()

        thread = engine._create_thread(idle, "t0", at=0)
        ex = thread.op_exec
        ex.op = Sleep(1_000)
        # the shared begin sets the slots the exit stage reads
        engine._begin_kernel_path(core, thread, ex, "sleep", 0, None)
        ex.set_phase(
            SOLO.machine.costs.syscall_exit, KERNEL_RATES, Domain.KERNEL, False
        )
        ex.stage = "exit"
        thread.cur = ex
        ex.adv = Engine._adv_yield
        assert not engine._try_resumed_exit(core, thread, ex, 2_400)
        assert thread.cur is ex and core.now == 0
        ex.adv = Engine._adv_syscall
        assert engine._try_resumed_exit(core, thread, ex, 2_400)
        assert thread.cur is None
        assert core.now == 2_400 + SOLO.machine.costs.syscall_exit
        assert engine._resumed_exits == 1
