"""The fold gate in ``Engine._charge_frame``.

Every one-piece commit (fast read, spin batch, whole syscall, whole sleep,
resumed exit) asks the same question before it charges: can anything cut
the frame? The gate answers it with one fixed reason set, and a refusal
must change nothing but the bail count. Bail keys everywhere are
``fastpath_bailout.<path>.<reason>`` over one path set and one reason set.
"""

import pytest

import repro.faults as F
from repro.common.config import (
    KernelConfig,
    MachineConfig,
    PmuConfig,
    SimConfig,
)
from repro.core.limit import LimitSession
from repro.hw.events import Domain, Event, LIBRARY_RATES
from repro.sim.base import _frame, _tally_dict
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
from repro.sim.results import RegionTruth
from tests.conftest import SIMPLE_RATES, run_threads
from tests.equivalence import FASTPATHS

#: The gate's reasons, in the order it checks them.
GATE_REASONS = ("pmi_due", "slice", "horizon", "max_cycles", "wrap")
#: Checks a fast path owns (fault hooks, tracing, a read's slot checks,
#: spin's degenerate case).
CALLER_REASONS = (
    "fault_armed", "fault_forced", "tracing",
    "rdpmc_off", "bad_slot", "overflow_pending", "degenerate",
)
#: Macro-stepping's own conditions. It batches timer ticks without running
#: them, so it alone refuses when tick faults are armed; the kernel folds
#: take the horizon instead.
MACRO_REASONS = ("fault_tick_armed", "runqueue", "mux", "domain")

WIDTH = 16
MASK = (1 << WIDTH) - 1
NOW = 10_000
BODY = 2_345


def _idle(ctx):
    return
    yield


def _setup():
    """An engine at cycle NOW with one thread inside region ``r`` and the
    INSTRUCTIONS counter programmed in both domains."""
    config = SimConfig(
        machine=MachineConfig(n_cores=1, pmu=PmuConfig(counter_width=WIDTH)),
        seed=3,
    )
    engine = Engine(config)
    thread = engine._create_thread(_idle, "t", at=0)
    core = engine.machine.cores[0]
    core.current_tid = thread.tid
    core.now = NOW
    thread.region_stack.append("r")
    thread.regions["r"] = RegionTruth(name="r")
    thread.region_ev["r"] = 0
    core.pmu.counter(0).program(
        Event.INSTRUCTIONS, count_user=True, count_kernel=True
    )
    return engine, thread, core


def _snapshot(engine, thread, core):
    return {
        "core": (core.now, core.busy_cycles, core.user_cycles,
                 core.kernel_cycles, core.pmi_due_at),
        "thread": (thread.user_cycles, thread.kernel_cycles,
                   _tally_dict(thread.ev_user), _tally_dict(thread.ev_kernel)),
        "region": ({n: _tally_dict(t) for n, t in thread.region_ev.items()},
                   {n: r.kernel_cycles for n, r in thread.regions.items()}),
        "counters": [(c.value, c.overflow_pending) for c in core.pmu.counters],
    }


def _read_frame(engine, core):
    entry = core.pmu.plan_entry(LIBRARY_RATES, Domain.USER)
    return _frame(entry, engine._read_frames["safe"][0])


def _syscall_frame(engine, core):
    return engine._kernel_frame(core, engine._syscall_frame)


#: (path, domain, frame builder, body)
FRAMES = {
    "user": ("read", Domain.USER, _read_frame, 0),
    "kernel": ("syscall", Domain.KERNEL, _syscall_frame, BODY),
}


def _limits(reason, domain, frame, body, passes):
    """``(bound, horizon, max_cycles, pmi_due, counter value)`` that refuse
    for ``reason`` alone, or that sit exactly on its boundary and pass.

    The gate's point is a user frame's end (by the slice end, strictly
    before the horizon) and a kernel frame's last sub-phase start (strictly
    before both, and by ``max_cycles``)."""
    cycles, _tally, _packed, _counts, last = frame
    if domain is Domain.USER:
        point, slice_end, horizon = NOW + cycles, NOW + cycles, NOW + cycles + 1
    else:
        point = NOW + cycles + body - last
        slice_end, horizon = point + 1, point + 1
    limits = {"bound": slice_end, "horizon": horizon, "max_cycles": point,
              "pmi_due": None, "counter": 0}
    if reason == "pmi_due":
        limits["pmi_due"] = None if passes else NOW
    elif reason == "slice":
        limits["bound"] = slice_end - (not passes)
    elif reason == "horizon":
        limits["horizon"] = horizon - (not passes)
    elif reason == "max_cycles":
        limits["max_cycles"] = point - (not passes)
    elif reason == "wrap":
        limits["counter"] = 0 if passes else MASK
    return limits


CASES = [
    (reason, kind)
    for reason in GATE_REASONS
    for kind in FRAMES
    # only kernel frames check the run's cycle cap
    if not (reason == "max_cycles" and kind == "user")
]


@pytest.mark.parametrize("reason, kind", CASES)
def test_refusal_changes_nothing_but_its_bail(reason, kind):
    """A refused charge returns 0, leaves every clock, tally, region tally
    and counter as it was, and counts exactly one ``(path, reason)``."""
    path, domain, build, body = FRAMES[kind]
    engine, thread, core = _setup()
    frame = build(engine, core)
    limits = _limits(reason, domain, frame, body, passes=False)
    engine._max_cycles = limits["max_cycles"]
    core.pmi_due_at = limits["pmi_due"]
    core.pmu.counter(0).write(limits["counter"])
    before = _snapshot(engine, thread, core)
    got = engine._charge_frame(
        core, thread, domain, frame, path, limits["bound"],
        horizon=limits["horizon"], body=body,
    )
    assert got == 0
    assert _snapshot(engine, thread, core) == before
    assert engine._bailouts == {(path, reason): 1}


@pytest.mark.parametrize("reason, kind", CASES)
def test_the_boundary_passes(reason, kind):
    """One cycle the other way, the same frame charges: the user frame ends
    exactly at the slice end, or one cycle before the horizon; the kernel
    frame's last sub-phase starts one cycle before either, or exactly at
    ``max_cycles``."""
    path, domain, build, body = FRAMES[kind]
    engine, thread, core = _setup()
    frame = build(engine, core)
    limits = _limits(reason, domain, frame, body, passes=True)
    engine._max_cycles = limits["max_cycles"]
    got = engine._charge_frame(
        core, thread, domain, frame, path, limits["bound"],
        horizon=limits["horizon"], body=body,
    )
    assert got == 1
    assert core.now == NOW + frame[0] + body
    assert engine._bailouts == {}


def test_user_frames_shrink_k_to_the_bounds():
    """Of k spin-like applications, a user frame keeps those that end by
    the slice end and strictly before the horizon."""
    engine, thread, core = _setup()
    frame = _read_frame(engine, core)
    cycles = frame[0]
    got = engine._charge_frame(
        core, thread, Domain.USER, frame, "spin", NOW + 3 * cycles + 5,
        horizon=NOW + 2 * cycles + 1, k=10,
    )
    assert got == 2
    assert core.now == NOW + 2 * cycles


def _mixed_program(session):
    """Computes, LiMiT reads, action-free syscalls, sleeps and a lock held
    across a sleep, so every fold path runs and bails."""

    def program(ctx):
        yield from session.setup(ctx)
        for i in range(16):
            yield Compute(1_500 + 4_700 * (i % 5), SIMPLE_RATES)
            yield RegionBegin("r")
            yield Syscall("work", (700 + 300 * (i % 3),))
            yield RegionEnd()
            yield from session.read(ctx, 0)
            yield LockAcquire("L")
            yield Sleep(300 + 2_000 * (i % 4))
            yield LockRelease("L")
            yield Sleep(19_000 * (i % 2) + 150)
        yield from session.teardown(ctx)

    return program


PLANS = {
    "plain": None,
    "forced": F.FaultPlan((F.force_bailout(),)),
    "read_faults": F.FaultPlan((F.preempt_in_read(every=5),)),
    "shrink": F.FaultPlan((F.shrink_counter(12, max_injections=2),)),
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_every_bail_key_is_path_and_reason(plan, trace):
    """Across traced, faulted and narrow-counter runs of every fold path,
    each bail key names one path and one reason of the shared sets, and
    ``fastpath_bailouts`` is their sum."""
    config = SimConfig(
        machine=MachineConfig(n_cores=2, pmu=PmuConfig(counter_width=14)),
        kernel=KernelConfig(timeslice_cycles=20_000),
        seed=3,
        trace=trace,
        fault_plan=PLANS[plan],
    )
    session = LimitSession([Event.CYCLES], count_kernel=True)
    result = run_threads(config, *[_mixed_program(session)] * 4)
    prefix = "fastpath_bailout."
    bails = {
        key[len(prefix):]: n
        for key, n in result.metrics.items()
        if key.startswith(prefix)
    }
    assert bails
    for key in bails:
        path, reason = key.split(".")
        assert path in FASTPATHS, key
        own = MACRO_REASONS if path == "macro" else ()
        assert reason in GATE_REASONS + CALLER_REASONS + own, key
    assert sum(bails.values()) == result.metrics["fastpath_bailouts"]
