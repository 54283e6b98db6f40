"""One equivalence harness for the engine's fast paths.

Each fast path commits in one step what the stage machine would run piece
by piece, once it has proved that nothing can cut the step. Its one
obligation is to be invisible: a run with the path off must observe
exactly what the run with it on observes. This module holds the parts
that check it, and ``tests/test_equivalence.py`` runs them over the
factor grid:

* **the switch:** :data:`FASTPATHS` and :func:`fastpaths_off`, the only
  way a test turns a fast path off;
* **the observation:** :func:`observe`, what two runs must agree on;
* **the corpus:** :data:`CORPUS`, programs built to engage the paths and
  to reach their bails, plus the scenario generator (:data:`scenario`,
  :func:`build`, :func:`config`) that the property tests draw from.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
from collections.abc import Callable, Collection, Iterator, Mapping
from typing import Any, NamedTuple

from hypothesis import strategies as st

import repro.faults as F
from repro.common.config import KernelConfig, LockConfig, MachineConfig
from repro.common.config import PmuConfig, SimConfig
from repro.common.errors import SimulationError
from repro.core.limit import LimitSession, UnsafeLimitSession
from repro.experiments.base import multicore_config, single_core_config
from repro.experiments.e02_overhead_density import density_trial
from repro.experiments.e03_precision import PrecisionTrial
from repro.experiments.e13_multiplexing import LimitTrial
from repro.experiments.e20_resilience import chain_config
from repro.hw.events import Event, EventRates
from repro.sim.base import EngineBase
from repro.sim.engine import Engine
from repro.sim.ops import Compute, JoinThread, LockAcquire, LockRelease, Rdtsc
from repro.sim.ops import RegionBegin, RegionEnd, Sleep, SpawnThread, Syscall
from repro.sim.ops import YieldCpu
from repro.sim.program import ThreadSpec
from repro.sim.results import RunResult
from repro.workloads.base import COMPUTE_RATES, Instrumentation
from repro.workloads.mysql import MysqlConfig, MysqlWorkload
from repro.workloads.service import ServiceChainWorkload
from repro.workloads.traffic import TrafficConfig, TrafficWorkload

from tests.conftest import SIMPLE_RATES

# -- the switch ---------------------------------------------------------------


class FastPath(NamedTuple):
    """Where a fast path is decided and what counts its commits."""

    owner: type
    method: str
    counter: str


#: Every fast path, keyed by the ``path`` its bails are counted under.
FASTPATHS = {
    "read": FastPath(Engine, "_try_fast_read", "fast_reads"),
    "syscall": FastPath(Engine, "_try_whole_syscall", "whole_syscalls"),
    "sleep": FastPath(Engine, "_try_whole_sleep", "whole_sleeps"),
    "resumed_exit": FastPath(Engine, "_try_resumed_exit", "resumed_exits"),
    "phase": FastPath(EngineBase, "_try_whole_phase", "whole_phases"),
    "spin": FastPath(Engine, "_try_spin_batch", "spin_batches"),
    "macro": FastPath(EngineBase, "_try_macro_step", "macro_steps"),
}

#: The paths that commit under tracing; the others bail with ``tracing``.
TRACED = ("sleep", "phase", "spin", "macro")


def _refuse(*args: Any) -> bool:
    return False


@contextlib.contextmanager
def fastpaths_off(*paths: str) -> Iterator[None]:
    """Make the named fast paths (all of them when none is named) refuse
    every commit, so their callers run the stage machine."""
    saved = []
    try:
        for name in paths or FASTPATHS:
            path = FASTPATHS[name]
            saved.append((path, path.owner.__dict__[path.method]))
            setattr(path.owner, path.method, _refuse)
        yield
    finally:
        for path, method in reversed(saved):
            setattr(path.owner, path.method, method)


# -- the observation ----------------------------------------------------------


def trace_digest(trace: list) -> str:
    text = repr([tuple(event) for event in trace])
    return hashlib.sha256(text.encode()).hexdigest()


def observe(result: RunResult, sessions=(), extra: Any = None) -> dict:
    """What a fast path must leave unchanged: the fingerprint (which holds
    every lock's counts and its wait and hold logs), every session's read
    records, the fault ledger, the trace (as a digest, when tracing is on)
    and the program's own ``extra`` observations. No read value is below 0:
    a :class:`~repro.core.limit.ReadLog` refuses one, which fails the run."""
    return {
        "fingerprint": result.fingerprint(),
        "reads": [list(session.records) for session in sessions],
        "faults": {
            key: n for key, n in result.metrics.items()
            if key.startswith("faults.")
        },
        "trace": trace_digest(result.trace) if result.config.trace else None,
        "extra": extra,
    }


# -- the corpus ---------------------------------------------------------------


class Program(NamedTuple):
    """One fresh build of an entry: sessions hold per-run state."""

    specs: list[ThreadSpec]
    sessions: tuple = ()
    #: ``extract(result)``: the program's own observations, or None
    extract: Callable[[RunResult], Any] | None = None


@dataclasses.dataclass(frozen=True)
class Entry:
    """A corpus program at its own config."""

    name: str
    config: SimConfig
    build: Callable[[], Program]
    #: paths the program is built to engage; each commits in the reference
    #: run, and the grid's other axes turn them off
    targets: tuple[str, ...]
    #: metric -> the least count the reference run must reach (bails,
    #: PMIs, injected faults)
    seen: Mapping[str, int] = dataclasses.field(default_factory=dict)
    #: metrics the reference run must not count
    unseen: Collection[str] = ()
    #: read records the reference run logs, over all its sessions
    records: int | None = None
    #: the program at its full size, which the own axis runs; the other
    #: axes run ``build``
    full: Callable[[], Program] | None = None


def run(entry: Entry, config: SimConfig, off: tuple[str, ...] = (), full=False):
    """Run ``entry`` (at its full size if ``full``) at ``config`` with the
    ``off`` paths off; return its observation and its metrics."""
    program = (entry.full if full and entry.full else entry.build)()
    with fastpaths_off(*off) if off else contextlib.nullcontext():
        result = Engine(config).run(program.specs)
    extra = program.extract(result) if program.extract else None
    return observe(result, program.sessions, extra), result.metrics


def bails(path: str, *reasons: str) -> dict[str, int]:
    return {f"fastpath_bailout.{path}.{reason}": 1 for reason in reasons}


def _specs(*factories) -> list[ThreadSpec]:
    return [ThreadSpec(f"t{i}", f) for i, f in enumerate(factories)]


def _config(n_cores=1, timeslice=20_000, seed=3, width=None, **kwargs):
    pmu = {} if width is None else {"pmu": PmuConfig(counter_width=width)}
    return SimConfig(
        machine=MachineConfig(n_cores=n_cores, **pmu),
        kernel=KernelConfig(timeslice_cycles=timeslice),
        seed=seed,
        **kwargs,
    )


#: Sleep lengths: well inside, near and past the 20k-cycle timeslice.
SLEEPS = (3_000, 150, 45_000, 19_000, 700, 26_000)


def sleepy(iters: int = 12) -> Program:
    """Four threads on LiMiT counters counting kernel cycles: two sleep
    (inside a region), one waits on a keyed event and one wakes it, and
    both of those take a lock they hold across a sleep, so the other
    spins out and futex-waits."""
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

    return Program(_specs(sleeper, sleeper, waiter, waker), (session,))


def sleeps_at_pmis() -> Program:
    """A lone thread whose 14-bit counter, zeroed at each switch-in, wraps
    near the end of some computes (a sleep fetched with a PMI due) and
    inside some sleeps' kernel paths."""
    session = LimitSession([Event.CYCLES], count_kernel=True)

    def program(ctx):
        yield from session.setup(ctx)
        for i in range(40):
            yield Compute(13_400 + 37 * i, SIMPLE_RATES)
            yield Sleep(2_000)
            yield from session.read(ctx, 0)
        yield from session.teardown(ctx)

    return Program(_specs(program), (session,))


def sleep_at_slice_end(lead: int, slice_cycles: int = 20_000) -> Program:
    """A lone thread computes up to ``lead`` cycles before its slice ends,
    then sleeps."""

    def program(ctx):
        yield Compute(slice_cycles - lead, SIMPLE_RATES)
        yield Sleep(4_000)
        yield Compute(1_000, SIMPLE_RATES)

    return Program(_specs(program))


def kernel_ops(log: list) -> list[ThreadSpec]:
    """Every kernel-path op: SpawnThread, JoinThread (of a live target, a
    finished one and an unknown tid), Sleep (inside and past the
    timeslice), YieldCpu (alone and with a queued competitor) and Syscall
    (with an action, without one, and a ``wait_key`` blocked until a
    ``wake_key``). Op results go to ``log``."""

    def quick(ctx):
        yield Compute(1_500, SIMPLE_RATES)

    def waker(ctx):
        yield Compute(90_000, SIMPLE_RATES)
        log.append(("wake_key", (yield Syscall("wake_key", ("k", 1)))))
        yield Sleep(4_000)
        yield Compute(80_000, SIMPLE_RATES)

    def main(ctx):
        log.append(("yield", (yield YieldCpu())))
        log.append(("getpid", (yield Syscall("getpid"))))
        log.append(("work", (yield Syscall("work", (700,)))))
        waker_tid = yield SpawnThread(waker, "waker")
        quick_tid = yield SpawnThread(quick, "quick")
        log.append(("spawned", waker_tid, quick_tid))
        log.append(("yield", (yield YieldCpu())))
        log.append(("wait_key", (yield Syscall("wait_key", ("k",)))))
        yield Sleep(3_000)
        yield Sleep(45_000)
        log.append(("join_finished", (yield JoinThread(quick_tid))))
        log.append(("join_live", (yield JoinThread(waker_tid))))
        try:
            yield JoinThread(999)
        except SimulationError as exc:
            log.append(("join_unknown", str(exc)))
        yield Compute(1_000, SIMPLE_RATES)

    return [ThreadSpec("main", main)]


def _kernel_ops() -> Program:
    log: list = []
    return Program(kernel_ops(log), extract=lambda result: log)


def lock_phases(n_threads: int, iters: int = 30) -> Program:
    """Threads mixing a shared (contended) lock and a private
    (uncontended) one, Compute, Rdtsc and LiMiT reads inside a region."""
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

    return Program(_specs(*[program] * n_threads), (session,))


#: 10-bit counters counting user cycles wrap every ~1k cycles, so some wrap
#: inside a CAS or a spin batch and some PMIs are still due when the next
#: op begins.
NARROW_LOCKS = _config(n_cores=2, seed=5, width=10)
#: Four threads on three cores with a short slice: contended locks, futex
#: sleeps, preemption, and CASes that straddle a slice boundary.
SLICED_LOCKS = dataclasses.replace(
    _config(n_cores=3, timeslice=2_500, seed=5),
    locks=LockConfig(spin_limit_cycles=120),
)


def spins(iters: int = 15) -> Program:
    """Two threads on one hot lock, each hold outlasting several spin
    rounds, inside a region and under a LiMiT session counting user cycles
    and instructions."""
    session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS])

    def program(ctx):
        yield from session.setup(ctx)
        for i in range(iters):
            yield RegionBegin("cs")
            yield LockAcquire("hot")
            yield Compute(300 + 211 * ((3 * i + ctx.tid) % 5), SIMPLE_RATES)
            yield from session.read(ctx, 0)
            yield LockRelease("hot")
            yield RegionEnd()
            yield Compute(100 + 37 * (i % 3), SIMPLE_RATES)

    return Program(_specs(program, program), (session,))


def hot_lock(hold: int, iters: int = 10, think: int = 137) -> Program:
    """Two threads taking turns on one lock held ``hold`` cycles."""

    def worker(ctx):
        for _ in range(iters):
            yield LockAcquire("hot")
            yield Compute(hold, COMPUTE_RATES)
            yield LockRelease("hot")
            yield Compute(think, COMPUTE_RATES)

    return Program(_specs(worker, worker))


#: Kernel work per iteration: zero, small, a few thousand cycles, and one
#: body longer than the 20k-cycle timeslice.
WORKS = (0, 150, 3_000, 45_000, 9_000, 1)


def mixed_syscalls(n_threads: int = 3, iters: int = 12) -> Program:
    """Threads mixing Compute, action-free syscalls inside a region and
    kernel-counting LiMiT reads."""
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

    return Program(_specs(*[program] * n_threads), (session,))


#: Shrink faults fired at timer ticks, which bound every kernel fold by the
#: horizon. With 12k-cycle slices another core's tick falls inside a
#: syscall often enough that a fold past the horizon shows in the reads.
TICK_FAULTS = _config(
    n_cores=2, timeslice=12_000, seed=0, width=20,
    fault_plan=F.FaultPlan(tuple(
        F.shrink_counter(width, nth=k)
        for k, width in enumerate((18, 16, 15, 14, 13, 12), 1)
    )),
)


def crowded_reads(n_readers: int = 3, iters: int = 30) -> Program:
    """Two compute hogs and ``n_readers`` threads that read after short
    computes, sleeps and syscalls, so reads are often in flight when
    another core takes its tick."""
    session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS], count_kernel=True)

    def hog(ctx):
        yield from session.setup(ctx)
        for i in range(6):
            yield Compute(60_000, SIMPLE_RATES)
            yield from session.read(ctx, i % 2)
        yield from session.teardown(ctx)

    def reader(ctx):
        yield from session.setup(ctx)
        for i in range(iters):
            yield Compute(300 + 97 * (i % 7), SIMPLE_RATES)
            if i % 3 == 0:
                yield Sleep(200 + 300 * (i % 4))
            elif i % 3 == 1:
                yield Syscall("work", (500 + 250 * (i % 5),))
            yield from session.read(ctx, i % 2)
        yield from session.teardown(ctx)

    return Program(_specs(hog, hog, *[reader] * n_readers), (session,))


#: Deeper shrinks at 6k-cycle slices on four cores: a read folded past the
#: horizon shows in what it returns.
CROWD_TICK_FAULTS = _config(
    n_cores=4, timeslice=6_000, seed=0, width=20,
    fault_plan=F.FaultPlan(tuple(
        F.shrink_counter(width, nth=k)
        for k, width in enumerate((17, 15, 13, 12, 11, 10), 1)
    )),
)


def reads(session_cls, n_reads=20, gap=2_000, slots=(0, 1)) -> Program:
    """A thread reading each of ``slots`` (0: CYCLES, 1: INSTRUCTIONS)
    after each of ``n_reads`` computes."""
    session = session_cls([Event.CYCLES, Event.INSTRUCTIONS])

    def reader(ctx):
        yield from session.setup(ctx)
        for _ in range(n_reads):
            yield Compute(gap, SIMPLE_RATES)
            for slot in slots:
                yield from session.read(ctx, slot)

    return Program(_specs(reader), (session,))


def sampled(period: int) -> Program:
    """A PMI sampler on CYCLES over one long compute phase."""

    def program(ctx):
        yield Syscall("perf_open", (Event.CYCLES, "sample", period, True, False))
        yield Compute(400_000, SIMPLE_RATES)

    return Program(_specs(program))


def wrapping_reads(iters: int = 4) -> Program:
    """Two threads reading, under a lock, counters that wrap every few
    hundred cycles: inside every would-be batched window."""
    session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS])

    def worker(ctx):
        yield from session.setup(ctx)
        for _ in range(iters):
            yield Compute(9_000, SIMPLE_RATES)
            yield LockAcquire("hot")
            yield Compute(120_000, SIMPLE_RATES)
            yield from session.read(ctx, 0)
            yield LockRelease("hot")

    return Program(_specs(worker, worker), (session,))


def spawn_and_wake() -> Program:
    """A solo computer beside a core that spawns short workers: each spawn
    and finish moves the horizon under a planned jump."""

    def solo(ctx):
        yield Compute(3_000_000, SIMPLE_RATES)

    def child(ctx):
        yield Compute(40_000, SIMPLE_RATES)

    def spawner(ctx):
        for i in range(8):
            yield Sleep(60_000)
            yield SpawnThread(child, f"child{i}")

    return Program(_specs(solo, spawner))


def _trial(factory, **kwargs) -> Callable[[], Program]:
    def build() -> Program:
        trial = factory(**kwargs)
        return Program(trial.build(), extract=getattr(trial, "extract", None))

    return build


def _service_chain(n: int) -> Program:
    """E20's full-policy chain: two generators of ``n`` requests each."""
    chain = dataclasses.replace(chain_config("full", True), requests_per_generator=n)
    return Program(ServiceChainWorkload(chain).build())


def _mysql(n: int) -> Program:
    """E6's LiMiT MySQL arm: eight workers of ``n`` transactions each."""
    session = LimitSession([Event.CYCLES], count_kernel=True, name="limit")
    instr = Instrumentation(sessions=[session], lock_reader=session)
    workload = MysqlWorkload(MysqlConfig(n_workers=8, transactions_per_worker=n))
    return Program(workload.build(instr), (session,))


def _traffic(n: int) -> Program:
    """Open-loop traffic: four workers of ``n`` requests each."""
    config = TrafficConfig(n_workers=4, requests_per_worker=n)
    return Program(TrafficWorkload(config).build())


SOLO, MULTI, NARROW = _config(), _config(n_cores=2), _config(n_cores=2, width=14)
SOLO_14 = _config(width=14)
SOLO_READS = _config(timeslice=1_000_000, seed=2)
#: 10-bit counters: some reads start too close to the mask to commit whole.
NARROW_READS = _config(timeslice=1_000_000, seed=2, width=10)
SWAPS = (F.delay_swap(900, every=3), F.dup_swap(every=4))
SHRINKS = tuple(F.shrink_counter(w, nth=k) for k, w in enumerate((18, 16, 15), 1))
SLEEP_PATHS = ("sleep", "resumed_exit")
SPIN_BUDGET = _config(n_cores=2, timeslice=100_000, seed=21)
#: The E2, E3 and E13 trial shapes.
TRIALS = {
    "e02": (density_trial, dict(total=200_000, density=16, technique="limit")),
    "e03": (PrecisionTrial, dict(reps=2, arm="sample", period=50_000)),
    "e13": (LimitTrial, dict(n_phases=4, phase_cycles=200_000)),
}

CORPUS: tuple[Entry, ...] = (
    # sleeps shorter and longer than the slice, woken key waits, futex waits
    Entry("sleepy-solo", SOLO, sleepy, SLEEP_PATHS, records=48),
    Entry("sleepy-multi", MULTI, sleepy, SLEEP_PATHS, records=48),
    Entry(
        "sleepy-narrow", NARROW, sleepy, SLEEP_PATHS, records=120,
        full=lambda: sleepy(30),
    ),
    Entry(
        "sleepy-swap-faults",
        _config(n_cores=2, width=20, fault_plan=F.FaultPlan(SWAPS)),
        sleepy, SLEEP_PATHS, seen={"faults.injected": 1}, records=48,
    ),
    # a tick fault rewrites every core's counters: exits fold before the horizon
    Entry(
        "sleepy-shrink-faults",
        _config(n_cores=2, width=20, fault_plan=F.FaultPlan(SWAPS + SHRINKS)),
        sleepy, SLEEP_PATHS, records=48,
        seen={"faults.injected": 1, **bails("resumed_exit", "horizon")},
    ),
    Entry(
        "sleep-pmi-due", SOLO_14, sleeps_at_pmis, ("sleep",), records=40,
        seen={**bails("sleep", "pmi_due", "wrap"), "pmis": 1},
    ),
    # the sleep's entry (280 cycles) ends before the slice, at it, or after
    *(
        Entry(
            f"sleep-slice-end-{lead}", SOLO,
            lambda lead=lead: sleep_at_slice_end(lead),
            ("resumed_exit",) + (("sleep",) if lead == 0 or lead > 280 else ()),
            seen=bails("sleep", "slice") if 0 < lead <= 280 else {},
        )
        for lead in (0, 1, 279, 280, 281, 5_000)
    ),
    Entry("kernel-ops", _config(seed=11), _kernel_ops, ("syscall",) + SLEEP_PATHS),
    # free locks, lone releases, Compute and Rdtsc, some falling back
    Entry(
        "lock-phases-narrow", NARROW_LOCKS, lambda: lock_phases(2), ("phase",),
        seen=bails("phase", "wrap", "pmi_due"), records=60,
    ),
    Entry(
        "lock-phases-sliced", SLICED_LOCKS, lambda: lock_phases(4, 20), ("phase",),
        seen={**bails("phase", "slice"), "futex_wakes": 1}, records=120,
        full=lambda: lock_phases(4),
    ),
    Entry(
        "spin-narrow", NARROW_LOCKS, spins, ("spin",), seen=bails("spin", "wrap"),
        records=80, full=lambda: spins(40),
    ),
    Entry(
        "spin-wide", _config(n_cores=2, seed=5), spins, ("spin",),
        unseen=bails("spin", "wrap"), records=80, full=lambda: spins(40),
    ),
    # release before, at and after the 2k-cycle spin budget
    *(
        Entry(
            f"spin-budget-hold-{hold}", SPIN_BUDGET,
            lambda hold=hold: hot_lock(hold), ("spin",),
            full=lambda hold=hold: hot_lock(hold, iters=20),
        )
        for hold in (500, 1_900, 2_072, 2_100, 4_000, 60_000)
    ),
    Entry(
        "spin-budget-exhausted", _config(n_cores=2, timeslice=500_000, seed=21),
        lambda: hot_lock(200_000, think=1_000), ("spin",),
        seen={"futex_waits": 1},
    ),
    Entry(
        "spin-budget-tiny",
        dataclasses.replace(SPIN_BUDGET, locks=LockConfig(spin_limit_cycles=60)),
        lambda: hot_lock(5_000, think=0), ("spin",),
    ),
    # bodies crossing the slice, wraps inside the kernel path, PMIs due
    Entry(
        "syscalls-multi", MULTI, mixed_syscalls, ("syscall",),
        seen=bails("syscall", "slice"), records=36,
    ),
    Entry(
        "syscalls-narrow", NARROW, lambda: mixed_syscalls(iters=40), ("syscall",),
        seen=bails("syscall", "slice", "wrap", "pmi_due"), records=120,
    ),
    Entry(
        "syscalls-tick-faults", TICK_FAULTS, lambda: mixed_syscalls(iters=20),
        ("phase", "syscall", "resumed_exit"), records=60,
        seen={"faults.injected.shrink_counter": 1, **bails("syscall", "horizon")},
    ),
    # full-width counters never stop a read at a wrap; 10-bit ones do
    *(
        Entry(
            f"reads-{kind}{suffix}", config, lambda cls=cls: reads(cls), ("read",),
            **{"seen" if suffix else "unseen": bails("read", "wrap")}, records=40,
        )
        for kind, cls in (("safe", LimitSession), ("unsafe", UnsafeLimitSession))
        for suffix, config in (("", SOLO_READS), ("-narrow", NARROW_READS))
    ),
    # another core's tick fault lands while reads are in flight
    Entry(
        "reads-tick-faults", CROWD_TICK_FAULTS, crowded_reads, ("read", "phase"),
        seen={"faults.injected.shrink_counter": 1, **bails("read", "horizon")},
        records=102,
    ),
    Entry(
        "reads-solo", SOLO_READS,
        lambda: reads(LimitSession, n_reads=50, gap=1_000, slots=(0,)), ("read",),
        records=50,
    ),
    # a counter overflow before, on and after a 50k-cycle slice end
    *(
        Entry(
            f"overflow-at-slice-end{offset:+d}", _config(timeslice=50_000),
            lambda offset=offset: sampled(50_000 + offset), ("macro",),
            seen={"pmis": 1},
        )
        for offset in range(-4, 5)
    ),
    Entry(
        "pmi-skid-mid-jump", SOLO, lambda: sampled(70_001), ("macro",),
        seen={"pmis": 5, **bails("macro", "pmi_due")},
    ),
    *(
        Entry(
            f"wrap-in-batched-window-{width}",
            _config(n_cores=2, timeslice=30_000, seed=5, width=width),
            wrapping_reads, ("macro",), records=12,
            full=lambda: wrapping_reads(6),
        )
        for width in (12, 16)
    ),
    Entry(
        "spawn-and-wake-cut-a-jump", _config(n_cores=2, timeslice=25_000, seed=9),
        spawn_and_wake, ("macro",),
    ),
    *(
        Entry(
            f"{name}-seed{seed}", single_core_config(seed=seed),
            _trial(factory, **kwargs),
            ("phase",) if name == "e03" else ("read", "phase"),
        )
        for name, (factory, kwargs) in TRIALS.items()
        for seed in (11, 4242)
    ),
    # the bench traffic: a few hundred requests or transactions on the own
    # axis, a few dozen on the others
    Entry(
        "service-chain", multicore_config(n_cores=8, seed=2002),
        lambda: _service_chain(12), ("phase", "syscall"),
        full=lambda: _service_chain(150),
    ),
    Entry(
        "mysql-limit", multicore_config(n_cores=4, seed=66), lambda: _mysql(5),
        ("read", "phase", "spin"), full=lambda: _mysql(40),
    ),
    Entry(
        "traffic", multicore_config(n_cores=4, seed=19), lambda: _traffic(30),
        ("phase", "syscall"), full=lambda: _traffic(75),
    ),
)


# -- the scenario generator ---------------------------------------------------

RATES = EventRates.profile(ipc=1.3, llc_mpki=2.0, branch_frac=0.2,
                           branch_miss_rate=0.03)

#: Random lock-and-syscall programs. Every iteration makes a ``work``
#: syscall whose kernel path is empty, short, or longer than the smallest
#: timeslice.
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


def build(params, session=None) -> list[ThreadSpec]:
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

    return [ThreadSpec(f"w{i}", worker) for i in range(params["n_threads"])]


def config(params) -> SimConfig:
    return _config(
        n_cores=params["n_cores"], timeslice=params["timeslice"],
        seed=params["seed"],
    )
