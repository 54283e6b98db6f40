"""Packed accrual and the frame recipes on PMU plan entries.

``Engine._account`` charges a window's events to the packed tallies with
the rates' packed multiplier, and every one-piece commit charges a frame (a
fixed run of sub-phases, memoized on its first plan entry) in one accrual.
Both must be indistinguishable from the per-event running-floor arithmetic,
a wrap included, and the frames must live and die with their engine.
"""

import gc
import weakref

import pytest

from repro.common.config import MachineConfig, PmuConfig, SimConfig
from repro.hw.counter import HardwareCounter
from repro.hw.events import (
    Domain,
    Event,
    EventRates,
    KERNEL_RATES,
    LIBRARY_RATES,
    SPIN_RATES,
    events_in,
)
from repro.core.limit import LimitSession
from repro.kernel.vpmu import SlotSpec
from repro.sim import base as base_mod
from repro.sim import engine as engine_mod
from repro.sim.base import _frame, _tally_dict
from repro.sim.engine import Engine
from repro.sim.ops import Compute, PmcSafeRead, Rdpmc, Syscall
from repro.sim.program import ThreadSpec
from repro.sim.results import RegionTruth

USER_RATES = EventRates.profile(
    ipc=1.3, llc_mpki=2.0, branch_frac=0.2, branch_miss_rate=0.05
)
WIDTH = 16
MASK = (1 << WIDTH) - 1


def _idle(ctx):
    return
    yield


def _setup(domain, headroom, width=WIDTH):
    """An engine with one thread inside region ``r`` and two ``width``-bit
    counters programmed in both domains. ``headroom`` (if not None) is how
    many events the INSTRUCTIONS counter takes before it wraps."""
    config = SimConfig(
        machine=MachineConfig(n_cores=1, pmu=PmuConfig(counter_width=width)),
        seed=3,
    )
    engine = Engine(config)
    thread = engine._create_thread(_idle, "t", at=0)
    core = engine.machine.cores[0]
    core.current_tid = thread.tid
    thread.region_stack.append("r")
    thread.regions["r"] = RegionTruth(name="r")
    thread.region_ev["r"] = 0
    pmu = core.pmu
    pmu.counter(0).program(Event.INSTRUCTIONS, count_user=True, count_kernel=True)
    pmu.counter(1).program(Event.CYCLES, count_user=True, count_kernel=True)
    if headroom is not None:
        pmu.counter(0).write((1 << width) - headroom)
    rates = USER_RATES if domain is Domain.USER else KERNEL_RATES
    return engine, thread, core, pmu.plan_entry(rates, domain)


def _state(engine, thread):
    core = engine.machine.cores[0]
    return {
        "ev_user": _tally_dict(thread.ev_user),
        "ev_kernel": _tally_dict(thread.ev_kernel),
        "region_ev": {n: _tally_dict(t) for n, t in thread.region_ev.items()},
        "region_kernel": {n: r.kernel_cycles for n, r in thread.regions.items()},
        "counters": [
            (c.value, c.overflow_pending, c.overflow_total)
            for c in core.pmu.counters
        ],
        "cycles": (thread.user_cycles, thread.kernel_cycles, core.now),
        "pmi_due_at": core.pmi_due_at,
    }


WINDOW = 4_099


def _events(after):
    """INSTRUCTIONS events in the whole window under USER_RATES/KERNEL_RATES."""
    return {
        Domain.USER: (after * USER_RATES.ppm(Event.INSTRUCTIONS)) // 1_000_000,
        Domain.KERNEL: (after * KERNEL_RATES.ppm(Event.INSTRUCTIONS)) // 1_000_000,
    }


@pytest.mark.parametrize("domain", [Domain.USER, Domain.KERNEL])
@pytest.mark.parametrize("headroom", ["none", "one_short", "exact", "spare"])
def test_replay_matches_generic_arithmetic(domain, headroom):
    """The rates' packed multiplier, replayed on a whole window by
    ``_account``, gives the thread and region tallies the generic per-event
    arithmetic gives (``events_in`` per event, CYCLES included), and the
    counters take the same events, across a wrap."""
    n = _events(WINDOW)[domain]
    assert n > 1
    room = {
        "none": None,
        # value == mask: the first event of the window wraps the counter
        "one_short": 1,
        # the window's last event wraps it to exactly zero
        "exact": n,
        # the window fills it to the mask and no further
        "spare": n + 1,
    }[headroom]
    engine, thread, core, entry = _setup(domain, room)
    engine._account(core, thread, domain, entry, 0, WINDOW)

    rates = entry[0]
    expected = {
        event: events_in(0, WINDOW, rates.ppm(event))
        for event in Event
        if events_in(0, WINDOW, rates.ppm(event))
    }
    user = domain is Domain.USER
    state = _state(engine, thread)
    assert state["ev_user"] == (expected if user else {})
    assert state["ev_kernel"] == ({} if user else expected)
    assert state["region_ev"] == {"r": expected if user else {}}
    assert state["region_kernel"] == {"r": 0 if user else WINDOW}
    start = 0 if room is None else (1 << WIDTH) - room
    wrapped = room is not None and room <= n
    assert state["counters"] == [
        ((start + n) & MASK, wrapped, int(wrapped)),
        (WINDOW, False, 0),
        (0, False, 0),
        (0, False, 0),
    ][: len(state["counters"])]
    assert (state["pmi_due_at"] is not None) is wrapped


def _engine_frames(engine):
    """Every frame the engine builds, by name: ``(domain, sub-phases as
    (rates, cycles), applications k, body cycles)``."""
    costs = engine._costs

    def on(rates, cycles):
        return tuple((rates, c) for c in cycles)

    frames = {
        "syscall": (Domain.KERNEL, on(KERNEL_RATES, engine._syscall_frame), 1, 2_345),
        "sleep": (Domain.KERNEL, on(KERNEL_RATES, engine._sleep_frame), 1, 0),
        "switch_in_exit": (
            Domain.KERNEL,
            on(KERNEL_RATES, (costs.context_switch, costs.syscall_exit)), 1, 0,
        ),
        "spin_rounds": (
            Domain.USER,
            tuple(zip((SPIN_RATES, LIBRARY_RATES), engine._spin_round)), 3, 0,
        ),
    }
    for protocol, (whole, tail) in engine._read_frames.items():
        frames[protocol + "_read"] = (Domain.USER, on(LIBRARY_RATES, whole), 1, 0)
        frames[protocol + "_read_tail"] = (Domain.USER, on(LIBRARY_RATES, tail), 1, 0)
    return frames


FRAME_NAMES = sorted(_engine_frames(Engine(SimConfig())))


def _instructions(rates, cycles):
    """INSTRUCTIONS events of one ``cycles``-long sub-phase of ``rates``."""
    return (cycles * rates.ppm(Event.INSTRUCTIONS)) // 1_000_000


@pytest.mark.parametrize("name", FRAME_NAMES)
@pytest.mark.parametrize("headroom", ["none", "one_short", "exact", "spare"])
def test_frame_charge_matches_one_account_per_sub_phase(name, headroom):
    """Charging a frame adds what one ``_account`` call per sub-phase adds
    (after the body, for each application charged): tallies, region
    tallies, counters and clocks. The charge stops at the last application
    that takes the INSTRUCTIONS counter no further than its mask; when not
    even one fits, it charges nothing and changes nothing."""
    domain, phases, k, body = _engine_frames(Engine(SimConfig()))[name]
    per_application = sum(_instructions(rates, c) for rates, c in phases)
    n_body = _instructions(phases[0][0], body)
    n = k * per_application + n_body
    assert per_application > 1
    room = {"none": None, "one_short": 1, "exact": n, "spare": n + 1}[headroom]
    # A counter at its mask takes no application. With room for exactly
    # the whole charge, its last event would wrap the counter, so the last
    # application stays out: the only one of a syscall, sleep, switch-in or
    # read, the k-th of the spin rounds.
    fits = {"one_short": 0, "exact": k - 1}.get(headroom, k)
    charged, c_thread, c_core, _entry = _setup(domain, room)
    oracle, o_thread, o_core, _entry = _setup(domain, room)
    entries = tuple(c_core.pmu.plan_entry(rates, domain) for rates, _c in phases)
    frame = _frame(entries[0], tuple(c for _rates, c in phases), entries)

    assert charged._charge_frame(
        c_core, c_thread, domain, frame, name, None, k=k, body=body
    ) == fits
    if fits:
        first = o_core.pmu.plan_entry(phases[0][0], domain)
        if body:
            oracle._account(o_core, o_thread, domain, first, 0, body)
        for _ in range(fits):
            for rates, c in phases:
                entry = o_core.pmu.plan_entry(rates, domain)
                oracle._account(o_core, o_thread, domain, entry, 0, c)
    state = _state(charged, c_thread)
    assert state == _state(oracle, o_thread)
    assert state["counters"][0][1] == 0


def test_spin_frame_charges_the_rounds_that_fit():
    """Of k spin rounds, the charge takes as many whole rounds as the
    INSTRUCTIONS counter has room for, and none when one does not fit."""
    for rounds in range(5):
        engine, thread, core, _entry = _setup(Domain.USER, None)
        pmu = core.pmu
        entries = (pmu.plan_entry(SPIN_RATES, Domain.USER),
                   pmu.plan_entry(LIBRARY_RATES, Domain.USER))
        frame = _frame(entries[0], engine._spin_round, entries)
        per_round = sum(
            _instructions(rates, c)
            for rates, c in zip((SPIN_RATES, LIBRARY_RATES), engine._spin_round)
        )
        pmu.counter(0).write(MASK - rounds * per_round)
        assert engine._charge_frame(
            core, thread, Domain.USER, frame, "spin", None, k=10
        ) == rounds
        assert pmu.counter(0).value == MASK
        assert thread.user_cycles == rounds * frame[0]


def _counting_program(ctx):
    """Frames (a fast read, a whole syscall) and one-shot windows (Compute,
    Rdpmc) on counting plan entries."""
    idx = yield Syscall(
        "pmc_open",
        (SlotSpec(event=Event.INSTRUCTIONS, count_user=True, count_kernel=True),),
    )
    for _ in range(50):
        yield Compute(1_000, USER_RATES)
        yield Rdpmc(idx)
        yield PmcSafeRead(idx)
        yield Syscall("work", (700,))


def _module_state():
    return {
        (module.__name__, name): len(value)
        for module in (engine_mod, base_mod)
        for name, value in vars(module).items()
        if isinstance(value, (dict, set, list))
    }


def _counters_in(recipe):
    """The hardware counters anywhere in a recipe's nested tuples."""
    if isinstance(recipe, HardwareCounter):
        yield recipe
    elif isinstance(recipe, tuple):
        for item in recipe:
            yield from _counters_in(item)


def test_recipes_die_with_their_engine():
    before = _module_state()
    config = SimConfig(machine=MachineConfig(n_cores=1), seed=5)
    engine = Engine(config)
    result = engine.run([ThreadSpec("t", _counting_program)])
    pmu = engine.machine.cores[0].pmu
    held = [
        counter
        for plans in pmu._plan_sets.values()
        for cache in plans
        for _rates, _plan, recipes in cache.values()
        for rec in recipes.values()
        for counter in _counters_in(rec)
    ]
    assert held, "no counter-holding recipe was built"
    assert result.metrics["fast_reads"] and result.metrics["whole_syscalls"]
    ref = weakref.ref(held[0])
    assert _module_state() == before, "a run left state at module level"
    del engine, result, pmu, held
    gc.collect()
    assert ref() is None, "a dropped engine's counter is still referenced"


def test_default_rate_computes_share_one_plan_entry():
    """``Compute`` without rates uses one shared zero-rates object, so many
    such ops leave one user plan entry, not one per op."""
    def program(ctx):
        for _ in range(2_000):
            yield Compute(100)

    engine = Engine(SimConfig(machine=MachineConfig(n_cores=1), seed=5))
    engine.run([ThreadSpec("t", program)])
    pmu = engine.machine.cores[0].pmu
    assert sum(len(user) for user, _kernel in pmu._plan_sets.values()) == 1
    assert Compute(1).rates is Compute(2).rates


def test_finished_engine_is_freed_without_the_cycle_collector():
    """No engine object refers back to the engine once its threads have
    finished (syscall handlers are unbound, actions are dropped after use,
    threads keep their context's scratch rather than the context), and a
    PMU's counters reach it only through a weak reference, so a dropped
    engine and its PMUs, plan entries and recipes are freed by reference
    counting alone."""
    session = LimitSession([Event.INSTRUCTIONS])

    def program(ctx):
        yield from session.setup(ctx)
        for _ in range(20):
            yield Compute(1_000, USER_RATES)
            yield from session.read(ctx, 0)
        yield Syscall("work", (500,))
        yield from session.teardown(ctx)

    gc.collect()
    gc.disable()
    try:
        engine = Engine(SimConfig(machine=MachineConfig(n_cores=2), seed=5))
        result = engine.run([ThreadSpec("a", program), ThreadSpec("b", program)])
        ref = weakref.ref(engine)
        pmu_refs = [weakref.ref(core.pmu) for core in engine.machine.cores]
        del engine, result
        assert ref() is None, "a finished engine is kept alive by a cycle"
        assert all(r() is None for r in pmu_refs), (
            "a finished engine's PMU is kept alive by a cycle"
        )
    finally:
        gc.enable()
