"""The execution engine: deterministic multicore simulation.

The engine advances a set of cores through simulated time, executing thread
programs (op generators), charging cycle costs, accruing PMU events with
exact integer arithmetic, and invoking kernel mechanisms (scheduling,
futexes, counter virtualization, PMIs) at the right instants.

Determinism & causality
-----------------------
Each step advances exactly one core — always the one with the smallest local
clock (ties broken by core id) — by one bounded piece of work whose
externally visible effects commit at the piece's end. Because the acting
core's clock is globally minimal, effects are committed in nondecreasing
global time order, so cross-core interactions (futex wakes, lock handoffs)
are causally consistent and runs are exactly reproducible.

Compute pieces are additionally split at timeslice boundaries and at the
exact cycle a PMU counter will overflow, so PMIs are delivered with the
configured skid rather than at arbitrary op boundaries.

Macro-stepping
--------------
When a thread is alone on its core inside a long preemptible compute phase,
the piece-by-piece loop degenerates to: run to the slice boundary, take a
timer tick, extend the slice, repeat. The macro-stepping fast path
(:meth:`Engine._try_macro_step`) recognises this and accrues many such
timeslices in one closed-form step — k whole quanta of user cycles plus k
batched timer ticks of kernel cycles — using the same exact integer event
arithmetic, and stopping the jump before the earliest cross-core
interaction or counter-overflow crossing so results are fingerprint
identical to the slow path. See docs/architecture.md ("Macro-stepping")
for the engage conditions and invariants.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import os
import time
from typing import Any, Callable, Generator

from repro.common.config import SimConfig
from repro.common.errors import (
    ConfigError,
    CounterError,
    SimulationError,
)
from repro.common.rng import RandomStream
from repro.faults import plan as fp
from repro.faults.injector import FaultInjector
from repro.obs import runtime as obs_runtime
from repro.obs import trace as tr
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceBus
from repro.hw.events import (
    Domain,
    Event,
    EventRates,
    KERNEL_RATES,
    LIBRARY_RATES,
    N_EVENTS,
    SPIN_RATES,
    cycles_until_count,
    events_in,
)
from repro.hw.machine import Core, Machine
from repro.hw.pmu import PlanEntry
from repro.kernel.futex import FutexTable
from repro.kernel.locks import LockRegistry
from repro.kernel.perf import PerfFd, PerfSubsystem, SampleRecord
from repro.kernel.scheduler import Scheduler
from repro.kernel.vpmu import MuxState, SlotSpec, VirtualPmu
from repro.sim import ops
from repro.sim.program import ThreadContext, ThreadSpec
from repro.sim.results import (
    CoreResult,
    KernelCounters,
    RegionTruth,
    RunResult,
    ThreadResult,
)

#: Default cap on stored per-invocation region durations (see
#: SimConfig.region_log_budget).
REGION_LOG_BUDGET = 2_000_000


class ThreadState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


class _OpExec:
    """In-flight execution state of one op (a tiny phase state machine).

    Each thread owns one and reuses it for every op it runs:
    :meth:`Engine._fetch_next_op` resets ``op``, ``adv`` (the op's advance
    handler) and the phase counters, and each ``_begin_*`` handler
    initializes the op-kind scratch slots its op reads.
    """

    __slots__ = (
        "op", "adv", "stage",
        "phase_cycles", "phase_consumed", "phase_rates", "phase_domain",
        "phase_preemptible",
        "t0", "spin_used", "contended", "slept",
        "body", "sys_name", "action", "exc", "result",
        "hw", "acc", "restarts", "fpc",
    )

    op: ops.Op
    adv: Callable[..., None]
    stage: str
    phase_cycles: int
    phase_consumed: int
    phase_rates: EventRates
    phase_domain: Domain
    phase_preemptible: bool
    # lock acquire
    t0: int
    spin_used: int
    contended: bool
    slept: bool
    # syscall-class ops
    body: int
    sys_name: str
    action: Callable[..., Any] | None
    exc: BaseException | None
    result: Any
    # PMC reads
    hw: int
    acc: int
    restarts: int
    fpc: bool

    def set_phase(
        self,
        cycles: int,
        rates: EventRates,
        domain: Domain,
        preemptible: bool,
    ) -> None:
        self.phase_cycles = cycles
        self.phase_consumed = 0
        self.phase_rates = rates
        self.phase_domain = domain
        self.phase_preemptible = preemptible


#: The two domains as module globals: loading a global is several times
#: cheaper than attribute access on the Enum class, and every piece of
#: every op names one.
_USER = Domain.USER
_KERNEL = Domain.KERNEL

#: Enum members in definition order, for folding flat tallies back to dicts.
_EVENT_MEMBERS = tuple(Event)

#: Whole-window accrual recipes are memoized for windows up to this length.
_RECIPE_MAX_WINDOW = 65536
#: Cap on the windows one plan entry tracks (recipes and first sightings);
#: the dict is cleared when it fills.
_RECIPES_PER_ENTRY = 1024
#: Keys of the composite recipes that share a plan entry's recipe dict with
#: the window recipes (whose keys are ints): whole safe/unsafe reads on the
#: LIBRARY_RATES entry, one contended-lock spin round on the SPIN_RATES one,
#: a syscall's entry and exit phases on the KERNEL_RATES kernel one.
_SAFE = "safe"
_UNSAFE = "unsafe"
_SPIN = "spin"
_FRAME = "frame"


def _window_recipe(entry: PlanEntry, after: int) -> tuple[tuple, tuple]:
    """Accrual recipe for the whole window ``(0, after]`` of a phase whose
    PMU plan entry is ``entry``: ``(deltas, counts)`` with ``deltas`` the
    non-zero ``(Event.index, n)`` ground-truth adds for the phase rates and
    ``counts`` the non-zero ``(counter_index, counter, mask, n)`` adds for
    the plan, both by the running-floor rule (``events_in(0, after)``).

    Nearly every accounted window is a whole small phase with a recurring
    cost constant (every kernel path, every library-call op), so
    :meth:`Engine._account` stores these on the entry and replays them.
    """
    deltas = tuple(
        (idx, (after * ppm) // 1_000_000)
        for _event, ppm, idx in entry[0].flat
        if (after * ppm) // 1_000_000
    )
    counts = tuple(
        (index, ctr, mask, (after * ppm) // 1_000_000)
        for index, ctr, ppm, mask in entry[1]
        if (after * ppm) // 1_000_000
    )
    return deltas, counts


def accrue_rate_events(
    flat: tuple,
    before: int,
    after: int,
    ev: list[int],
    rev: list[int] | None = None,
) -> None:
    """Shared exact-accrual helper: apply the running-floor event deltas of
    one ``(before, after]`` phase-relative window to a flat tally array
    ``ev`` (indexed by ``Event.index``; optionally also an open region's
    tally array ``rev``).

    This is the single place the ``(after*ppm)//1e6 - (before*ppm)//1e6``
    ground-truth arithmetic lives for thread/region tallies; both the
    per-chunk slow path (:meth:`Engine._account`) and the macro-stepping
    fast path call it, so they cannot drift apart.
    """
    if rev is None:
        for _event, ppm, idx in flat:
            n = (after * ppm) // 1_000_000 - (before * ppm) // 1_000_000
            if n:
                ev[idx] += n
    else:
        for _event, ppm, idx in flat:
            n = (after * ppm) // 1_000_000 - (before * ppm) // 1_000_000
            if n:
                ev[idx] += n
                rev[idx] += n


def _tally_dict(arr: list[int]) -> dict[Event, int]:
    """Fold a flat tally array back into the result-facing Event dict."""
    return {e: arr[e.index] for e in _EVENT_MEMBERS if arr[e.index]}


class SimThread:
    """Engine-side state of one simulated thread."""

    __slots__ = (
        "tid",
        "name",
        "scratch",
        "gen",
        "state",
        "core_id",
        "available_at",
        "send_value",
        "throw_exc",
        "cur",
        "op_exec",
        "vpmu",
        "slot_saved",
        "slot_truth_base",
        "slot_reset_truth",
        "mux",
        "in_pmc_read",
        "pmc_read_interrupted",
        "read_restarts",
        "last_rdpmc_truth",
        "last_kernel_read_truth",
        "region_stack",
        "region_entries",
        "regions",
        "region_ev",
        "owned_locks",
        "profiler",
        "ev_user",
        "ev_kernel",
        "user_cycles",
        "kernel_cycles",
        "n_context_switches",
        "n_preemptions",
        "n_migrations",
        "n_cross_socket_migrations",
        "n_syscalls",
        "started_at",
        "finished_at",
        "block_key",
    )

    def __init__(self, tid: int, name: str, ctx: ThreadContext,
                 gen: Generator, n_slots: int) -> None:
        self.tid = tid
        self.name = name
        #: the program's ThreadContext.scratch; the context itself is not
        #: kept, since it refers back to the engine
        self.scratch = ctx.scratch
        self.gen = gen
        self.state = ThreadState.READY
        self.core_id: int | None = None
        self.available_at = 0
        self.send_value: Any = None
        self.throw_exc: BaseException | None = None
        #: the op in flight, or None between ops
        self.cur: _OpExec | None = None
        #: the one _OpExec this thread's ops run in, reset at every fetch
        self.op_exec = _OpExec()
        self.vpmu = VirtualPmu(n_slots)
        self.slot_saved: list[int | None] = [None] * n_slots
        self.slot_truth_base: list[int] = [0] * n_slots
        self.slot_reset_truth: list[int] = [0] * n_slots
        self.mux: MuxState | None = None
        self.in_pmc_read = False
        self.pmc_read_interrupted = False
        self.read_restarts = 0
        self.last_rdpmc_truth: int | None = None
        self.last_kernel_read_truth: dict[int, int] = {}
        self.region_stack: list[str] = []
        self.region_entries: list[tuple[str, int, int]] = []
        self.regions: dict[str, RegionTruth] = {}
        #: per-region flat event tallies (folded into RegionTruth.events at
        #: collection time; arrays keep the accrual loops dict-free).
        self.region_ev: dict[str, list[int]] = {}
        self.owned_locks: set[str] = set()
        self.profiler = None
        self.ev_user: list[int] = [0] * N_EVENTS
        self.ev_kernel: list[int] = [0] * N_EVENTS
        self.user_cycles = 0
        self.kernel_cycles = 0
        self.n_context_switches = 0
        self.n_preemptions = 0
        self.n_migrations = 0
        self.n_cross_socket_migrations = 0
        self.n_syscalls = 0
        self.started_at = 0
        self.finished_at = 0
        self.block_key: tuple | None = None

    @property
    def cpu_cycles(self) -> int:
        return self.user_cycles + self.kernel_cycles

    def slot_truth(self, spec: SlotSpec) -> int:
        """Ground-truth event count matching a slot's domain filter."""
        idx = spec.event.index
        total = 0
        if spec.count_user:
            total += self.ev_user[idx]
        if spec.count_kernel:
            total += self.ev_kernel[idx]
        return total

    def slot_truth_since_open(self, idx: int, spec: SlotSpec) -> int:
        """Ground truth relative to when the slot was programmed — what a
        counter that started at zero at open time should read now."""
        return self.slot_truth(spec) - self.slot_truth_base[idx]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimThread {self.tid} {self.name!r} {self.state.value}>"


#: A deferred syscall body, run at syscall-exit commit time with the
#: acting core and thread; returns ``(value, blocker)`` where a
#: non-None blocker parks the thread instead of completing the call.
_SysAction = Callable[[Core, SimThread], "tuple[Any, Any]"]


class Engine:
    """Runs one simulation to completion."""

    def __init__(self, config: SimConfig | None = None) -> None:
        self.config = config or SimConfig()
        self.machine = Machine(self.config.machine)
        self.scheduler = Scheduler(
            self.config.machine.n_cores,
            [c.socket_id for c in self.machine.cores],
        )
        self.futex = FutexTable()
        self.locks = LockRegistry()
        self.perf = PerfSubsystem()
        self.kernel_counters = KernelCounters()
        self.threads: dict[int, SimThread] = {}
        self.live_count = 0
        # Observability: an active collector may force tracing on (tracing
        # is zero-perturbation by contract, so results are unchanged).
        self._collector = obs_runtime.current()
        if (
            self._collector is not None
            and self._collector.capture_traces
            and not self.config.trace
        ):
            self.config = dataclasses.replace(self.config, trace=True)
        self._tracing = self.config.trace
        self.obs = TraceBus(enabled=self._tracing)
        self.trace = self.obs.events  # same list; legacy alias
        self.metrics = MetricsRegistry(enabled=self.config.metrics)
        self._n_steps = 0
        self._n_fused = 0  #: pieces chained inside _step (still sim events)
        self._acting_core: Core | None = None
        if self._tracing:
            self._wire_subsystem_tracers()
        self._next_tid = 1
        self._seq = 0
        self._sleep_heap: list[tuple[int, int, int]] = []
        self._join_waiters: dict[int, list[int]] = {}
        self._key_credits: dict[str, int] = {}
        self._region_log_budget = self.config.region_log_budget
        self._max_cycles = self.config.max_cycles
        self._costs = self.config.machine.costs
        self._finished = False
        # -- fault injection (repro.faults) -----------------------------
        # None when no plan is configured, so every hook below reduces to a
        # single is-None branch on unfaulted runs.
        fault_plan = self.config.fault_plan
        self._faults = FaultInjector(fault_plan) if fault_plan else None
        # -- macro-stepping fast path state -----------------------------
        # config switch first, then the environment kill switch used by the
        # bench harness / property tests for A/B runs across process modes.
        self._macro = (
            self.config.macro_stepping
            and os.environ.get("REPRO_MACRO_STEPPING", "1") != "0"
        )
        self._macro_steps = 0
        self._quanta_batched = 0
        self._fast_reads = 0
        self._whole_syscalls = 0
        self._spin_batches = 0
        self._spin_rounds_batched = 0
        self._bailouts: dict[str, int] = {}
        self._ops_fetched = 0
        tick = self._costs.timer_tick
        # One timer tick's kernel ground-truth events: each tick is its own
        # phase starting at cycle 0, so k batched ticks accrue exactly
        # k * events_in(0, tick, ppm) per event (NOT events_in(0, k*tick)).
        self._tick_pairs = tuple(
            (event.index, events_in(0, tick, ppm))
            for event, ppm in KERNEL_RATES.items()
            if events_in(0, tick, ppm)
        )
        self._kernel_flat = KERNEL_RATES.flat
        # -- composite PMC-read fast path -------------------------------
        # Sub-phase cycle costs of the safe/unsafe read sequences, split at
        # the rdpmc: the accumulator/hardware values and slot-truth
        # bookkeeping must be taken with exactly the pre-rdpmc cycles
        # accrued, so the one-piece fast path applies part A, reads, then
        # applies part B. Each sub-phase accrues from its own cycle 0.
        # The combined recipes live on the LIBRARY_RATES plan entry under
        # the protocol name (see _try_fast_read).
        c = self._costs
        self._read_phases = {
            _SAFE: (
                (c.pmc_call_overhead, c.pmc_read_begin, c.pmc_load_accum,
                 c.rdpmc),
                (c.pmc_read_end, c.pmc_store_result),
            ),
            _UNSAFE: (
                (c.pmc_call_overhead, c.pmc_load_accum, c.rdpmc),
                (c.pmc_store_result,),
            ),
        }
        # -- main-loop actor selection ----------------------------------
        # Multi-core runs keep a lazily-invalidated heap of (now, core_id);
        # single-core runs bypass it entirely.
        self._use_core_heap = self.config.machine.n_cores > 1
        self._core_heap: list[tuple[int, int]] = []
        #: earliest time any *other* actor (core or sleeper) can commit an
        #: effect; valid while the current core chain runs.
        self._horizon: int | None = None
        #: set by any event that may create an actor below the horizon
        #: (core unpark, sleep-heap push) to end the current chain.
        self._chain_break = False
        if self.config.kernel.limit_patch:
            self.machine.enable_user_rdpmc()

    # ------------------------------------------------------------------
    # observability wiring
    # ------------------------------------------------------------------

    def _wire_subsystem_tracers(self) -> None:
        """Hook the kernel/hw subsystems into the trace bus. Only installed
        when tracing is on, so disabled runs pay nothing here."""
        emit = self.obs.emit
        cores = self.machine.cores

        def on_steal(thief: int, victim: int, tid: int) -> None:
            emit(cores[thief].now, thief, tid, tr.SCHED_STEAL, victim)

        def on_wait(key: str, tid: int) -> None:
            core = self._acting_core
            emit(core.now, core.core_id, tid, tr.FUTEX_WAIT, key)

        def on_wake(key: str, woken: list[int]) -> None:
            core = self._acting_core
            waker = core.current_tid if core.current_tid is not None else 0
            emit(core.now, core.core_id, waker, tr.FUTEX_WAKE, (key, len(woken)))

        def on_sample(fd: PerfFd, record: SampleRecord) -> None:
            core_id = self.threads[record.tid].core_id
            emit(record.time, core_id if core_id is not None else 0,
                 record.tid, tr.SAMPLE, fd.fd)

        self.scheduler.on_steal = on_steal
        self.futex.on_wait = on_wait
        self.futex.on_wake = on_wake
        self.perf.on_sample = on_sample
        for core in cores:
            def on_overflow(index: int, core: Core = core) -> None:
                tid = core.current_tid if core.current_tid is not None else 0
                emit(core.now, core.core_id, tid, tr.CTR_OVERFLOW, index)

            core.pmu.on_overflow = on_overflow

    def _record_metrics(self, run_wall: float, collect_wall: float,
                        result: RunResult) -> None:
        """Fill the self-telemetry registry from totals the run kept anyway
        (one pass per run, nothing per simulated event)."""
        reg = self.metrics
        k = self.kernel_counters
        reg.counter("sim_events").add(self._n_steps)
        reg.counter("context_switches").add(k.n_context_switches)
        reg.counter("preemptions").add(
            sum(t.n_preemptions for t in self.threads.values())
        )
        reg.counter("pmis").add(k.n_pmis)
        reg.counter("counter_overflows").add(k.n_counter_overflows)
        reg.counter("timer_ticks").add(k.n_timer_ticks)
        reg.counter("syscalls").add(k.syscall_total())
        reg.counter("futex_waits").add(k.n_futex_waits)
        reg.counter("futex_wakes").add(k.n_futex_wakes)
        reg.counter("samples").add(k.n_samples)
        reg.counter("steals").add(k.n_steals)
        reg.counter("read_restarts").add(
            sum(t.read_restarts for t in self.threads.values())
        )
        reg.counter("threads").add(len(self.threads))
        reg.counter("trace_events").add(len(self.obs.events))
        reg.counter("macro_steps").add(self._macro_steps)
        reg.counter("quanta_batched").add(self._quanta_batched)
        reg.counter("fast_reads").add(self._fast_reads)
        reg.counter("whole_syscalls").add(self._whole_syscalls)
        reg.counter("spin_batches").add(self._spin_batches)
        reg.counter("spin_rounds_batched").add(self._spin_rounds_batched)
        reg.counter("fastpath_bailouts").add(sum(self._bailouts.values()))
        for reason in sorted(self._bailouts):
            reg.counter("fastpath_bailout." + reason).add(
                self._bailouts[reason]
            )
        reg.counter("ops_fetched").add(self._ops_fetched)
        if self._faults is not None:
            f = self._faults
            # Service faults the workload never resolved become misses now,
            # before the ledger counters freeze into the run's metrics.
            f.flush_service_pending()
            reg.counter("faults.injected").add(f.total_injected)
            for kind in sorted(f.injected):
                reg.counter("faults.injected." + kind).add(f.injected[kind])
            reg.counter("faults.detected").add(f.detected)
            reg.counter("faults.missed").add(f.missed)
        reg.gauge("sim_cycles").set(result.wall_cycles)
        if run_wall > 0:
            reg.gauge("sim_events_per_sec").set(self._n_steps / run_wall)
            reg.gauge("sim_cycles_per_sec").set(result.wall_cycles / run_wall)
        reg.timer("wall.engine_run").add(run_wall)
        reg.timer("wall.collect").add(collect_wall)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, specs: list[ThreadSpec]) -> RunResult:
        """Execute the given threads to completion and return the results."""
        if self._finished:
            raise SimulationError("Engine instances are single-use")
        if not specs:
            raise ConfigError("need at least one thread spec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate thread names: {names}")
        for spec in specs:
            thread = self._create_thread(spec.factory, spec.name, at=0)
            self._make_ready(thread, at=0)
        t0 = time.perf_counter()
        self._main_loop()
        run_wall = time.perf_counter() - t0
        self._finished = True
        t1 = time.perf_counter()
        result = self._collect()
        collect_wall = time.perf_counter() - t1
        if self.metrics.enabled:
            self._record_metrics(run_wall, collect_wall, result)
            result.metrics = self.metrics.snapshot()
        if self._collector is not None:
            self._collector.record_run(
                result,
                wall_seconds=run_wall + collect_wall,
                sim_events=self._n_steps,
            )
        return result

    def thread(self, tid: int) -> SimThread:
        try:
            return self.threads[tid]
        except KeyError:
            raise SimulationError(f"no thread with tid {tid}") from None

    def thread_now(self, tid: int) -> int:
        """Best-known current time for a thread (ground-truth peek)."""
        thread = self.thread(tid)
        if thread.core_id is not None:
            return self.machine.cores[thread.core_id].now
        return thread.available_at

    def service_fault(self, tid: int, kind: str, tier: str):
        """Workload-level fault hook: does a service fault of ``kind``
        targeting ``tier`` fire for thread ``tid`` here?

        Service-chain workloads (repro.workloads.service) call this at
        their hook points — request service, downstream call, worker loop
        top — mirroring how the engine's own hook points consult the
        injector. The decision is deterministic (plan + simulated state
        only) and the firing opens a ledger entry the workload must close
        via :meth:`service_fault_resolved`. Returns the firing spec or
        ``None``.
        """
        faults = self._faults
        if faults is None:
            return None
        thread = self.thread(tid)
        if thread.core_id is None:
            return None
        core = self.machine.cores[thread.core_id]
        spec = faults.fire(kind, core, thread, point=tier)
        if spec is not None:
            self._fault_event(core, thread, kind, (tier, spec.arg))
        return spec

    def service_fault_resolved(
        self, tid: int, kind: str, absorbed: bool = True
    ) -> None:
        """Close one open service-fault ledger entry (detect vs miss)."""
        faults = self._faults
        if faults is None:
            return
        faults.resolve_service_fault(kind, absorbed)
        if absorbed and self._tracing:
            thread = self.thread(tid)
            if thread.core_id is not None:
                core = self.machine.cores[thread.core_id]
                self.obs.emit(
                    core.now, core.core_id, tid, tr.FAULT_DETECT, kind
                )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _main_loop(self) -> None:
        cores = self.machine.cores
        threads = self.threads
        sleep_heap = self._sleep_heap
        core_heap = self._core_heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        max_cycles = self._max_cycles
        step = self._step
        single = cores[0] if len(cores) == 1 else None
        n_steps = 0
        while self.live_count > 0:
            # -- pick the acting core: smallest (now, core_id) ------------
            # Due sleepers (wake time <= the would-be actor's clock) are
            # made ready first, exactly as the seed engine's rescan did.
            if single is not None:
                core = None if single.parked else single
                while sleep_heap and (
                    core is None or sleep_heap[0][0] <= core.now
                ):
                    wake_at, _, tid = heappop(sleep_heap)
                    self._make_ready(threads[tid], at=wake_at)
                    core = None if single.parked else single
                horizon = sleep_heap[0][0] if sleep_heap else None
            else:
                # The heap is lazily invalidated: an entry is stale when its
                # core has parked or moved on (clocks only advance, so a
                # stale entry never under-reports a core's time).
                core = None
                while True:
                    while core_heap:
                        t, cid = core_heap[0]
                        c = cores[cid]
                        if c.parked or c.now != t:
                            heappop(core_heap)
                        else:
                            break
                    if sleep_heap and (
                        not core_heap or sleep_heap[0][0] <= core_heap[0][0]
                    ):
                        wake_at, _, tid = heappop(sleep_heap)
                        self._make_ready(threads[tid], at=wake_at)
                        continue
                    if core_heap:
                        _, cid = heappop(core_heap)
                        core = cores[cid]
                    break
                horizon = None
                while core_heap:
                    t, cid = core_heap[0]
                    c = cores[cid]
                    if c.parked or c.now != t:
                        heappop(core_heap)
                    else:
                        horizon = t
                        break
                if sleep_heap and (
                    horizon is None or sleep_heap[0][0] < horizon
                ):
                    horizon = sleep_heap[0][0]
            if core is None:
                blocked = [
                    f"{t.name}({t.block_key})"
                    for t in threads.values()
                    if t.state is ThreadState.BLOCKED
                ]
                raise SimulationError(
                    f"deadlock: no runnable threads; blocked: {blocked}"
                )
            # -- run the chosen core until another actor could act --------
            # While core.now stays below every other actor's time the core
            # remains the global minimum, so re-running selection would pick
            # it again; chaining skips that. Any event that could create an
            # earlier actor (unpark, sleep-heap push) sets _chain_break.
            self._horizon = horizon
            self._chain_break = False
            while True:
                if core.now > max_cycles:
                    raise SimulationError(
                        f"simulation exceeded max_cycles={max_cycles}"
                    )
                n_steps += 1
                step(core)
                if core.parked or self._chain_break or self.live_count == 0:
                    break
                if horizon is not None and core.now >= horizon:
                    break
            if single is None and not core.parked:
                heappush(core_heap, (core.now, core.core_id))
        # Chained pieces replace what were separate _step calls one-for-one,
        # so this total is bit-identical to the pre-fusion step count.
        self._n_steps = n_steps + self._n_fused

    def _step(self, core: Core) -> None:
        """Run one engine step of ``core``: service a due PMI or timer tick,
        or execute one piece of the current thread's op — fetch-and-begin,
        one phase chunk, or the op's advance. The piece execution is fused
        into this function (rather than delegated through per-piece helper
        calls) because it runs once per simulated micro-op and per-call
        overhead here dominates whole-sweep wall time.
        """
        if self._tracing:
            self._acting_core = core
        tid = core.current_tid
        if tid is None:
            self._dispatch(core)
            return
        thread = self.threads[tid]
        now = core.now
        if core.pmi_due_at is not None and now >= core.pmi_due_at:
            self._service_pmi(core, thread)
            return
        if core.slice_ends_at is not None and now >= core.slice_ends_at:
            self._timer_tick(core, thread)
            return
        # invariant for the whole call, fused pieces included
        tracing = self._tracing
        max_cycles = self._max_cycles
        horizon = self._horizon
        ex = thread.cur
        while True:
            if ex is None:
                if not self._fetch_next_op(core, thread):
                    return
                ex = thread.cur
            # ex is None here only when the op completed inside its begin
            # handler (a fast PMC read or a whole syscall): the fetch was
            # the whole piece.
            if ex is not None:
                consumed = ex.phase_consumed
                cycles = ex.phase_cycles
                if consumed < cycles:
                    remaining = cycles - consumed
                    entry = core.pmu.plan_entry(
                        ex.phase_rates, ex.phase_domain
                    )
                    if ex.phase_preemptible:
                        # Macro-step candidate: a preemptible phase that
                        # outlives the current timeslice (i.e. the slow path
                        # would hit at least one timer tick before the phase
                        # ends).
                        if (
                            self._macro
                            and remaining > core.slice_ends_at - now
                            and self._try_macro_step(core, thread, ex, entry)
                        ):
                            return
                        # limit only ever shrinks from `remaining`, so the
                        # final chunk is max(1, limit) — identical to
                        # max(1, min(remaining, limit)).
                        limit = remaining
                        bound = core.slice_ends_at
                        if bound is not None and bound - now < limit:
                            limit = bound - now
                        bound = core.pmi_due_at
                        if bound is not None and bound - now < limit:
                            limit = bound - now
                        # Split at the first counter-overflow crossing. A
                        # counter that gains fewer than `need` events in the
                        # next `limit` cycles cannot cross within them, so
                        # the pre-check skips its cycles_until_count exactly.
                        end = consumed + limit
                        for _index, ctr, ppm, mask in entry[1]:
                            need = mask + 1 - ctr.value
                            if (
                                (end * ppm) // 1_000_000
                                - (consumed * ppm) // 1_000_000
                                < need
                            ):
                                continue
                            d = cycles_until_count(consumed, ppm, need)
                            if d is not None and d < limit:
                                limit = d
                                end = consumed + limit
                        chunk = limit if limit > 0 else 1
                    else:
                        chunk = remaining
                    after = consumed + chunk
                    self._account(
                        core, thread, ex.phase_domain, entry, consumed,
                        after,
                    )
                    ex.phase_consumed = after
                    if after < cycles:
                        return
                ex.adv(self, core, thread, ex)
            # Chain straight into the thread's next piece — the following
            # stage of a multi-phase op, or the fetch of its next op — when
            # the main loop would deterministically re-pick this core
            # anyway: the checks below mirror its chain conditions and this
            # function's own preamble exactly, so the fetch/_account/advance
            # sequence is identical to stepping one piece per call and only
            # the per-step dispatch overhead is elided. Each fused piece is
            # tallied so sim_events stays the dispatch-independent piece
            # count it was before fusion existed.
            if (
                tracing
                or core.current_tid != tid
                or core.parked
                or self._chain_break
                or self.live_count == 0
            ):
                return
            now = core.now
            if now > max_cycles:
                return
            if horizon is not None and now >= horizon:
                return
            if core.pmi_due_at is not None and now >= core.pmi_due_at:
                return
            if core.slice_ends_at is not None and now >= core.slice_ends_at:
                return
            self._n_fused += 1
            ex = thread.cur

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------

    def _create_thread(
        self,
        factory: Callable[[ThreadContext], Any],
        name: str,
        at: int,
    ) -> SimThread:
        tid = self._next_tid
        self._next_tid += 1
        rng = RandomStream(self.config.seed, "thread", name, tid)
        ctx = ThreadContext(name, tid, rng, self)
        gen = factory(ctx)
        if not hasattr(gen, "send"):
            raise ConfigError(
                f"program factory for thread {name!r} must return a "
                f"generator, got {type(gen).__name__}"
            )
        thread = SimThread(tid, name, ctx, gen, self.config.machine.pmu.n_counters)
        thread.started_at = at
        thread.available_at = at
        self.threads[tid] = thread
        self.live_count += 1
        return thread

    def _make_ready(self, thread: SimThread, at: int) -> None:
        thread.state = ThreadState.READY
        thread.available_at = at
        thread.block_key = None
        idle = [
            c.core_id
            for c in self.machine.cores
            if (c.parked or c.current_tid is None)
            and self.scheduler.queue_length(c.core_id) == 0
        ]
        core_id = self.scheduler.place(thread.core_id, idle)
        self.scheduler.enqueue(thread.tid, core_id)
        core = self.machine.cores[core_id]
        if core.parked:
            core.parked = False
            if at > core.now:
                core.now = at
            if self._use_core_heap:
                heapq.heappush(self._core_heap, (core.now, core_id))
            # a new actor may now exist below the current chain's horizon
            self._chain_break = True
        if self._tracing:
            self.obs.emit(at, core_id, thread.tid, tr.READY, thread.name)

    def _finish_thread(self, core: Core, thread: SimThread) -> None:
        if thread.owned_locks:
            raise SimulationError(
                f"thread {thread.name!r} exited holding locks "
                f"{sorted(thread.owned_locks)}"
            )
        if thread.region_stack:
            raise SimulationError(
                f"thread {thread.name!r} exited with open regions "
                f"{thread.region_stack}"
            )
        self._switch_out(core, thread, requeue=False)
        thread.state = ThreadState.FINISHED
        thread.finished_at = core.now
        self.live_count -= 1
        for waiter in self._join_waiters.pop(thread.tid, []):
            self._make_ready(self.threads[waiter], at=core.now)
        if self._tracing:
            self.obs.emit(core.now, core.core_id, thread.tid, tr.EXIT, thread.name)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _dispatch(self, core: Core) -> None:
        tid = self.scheduler.pick_next(core.core_id)
        if tid is None:
            core.parked = True
            return
        self._switch_in(core, self.threads[tid])

    def _switch_in(self, core: Core, thread: SimThread) -> None:
        core.parked = False
        if thread.available_at > core.now:
            core.now = thread.available_at
        crossed_socket = False
        if thread.core_id is not None and thread.core_id != core.core_id:
            thread.n_migrations += 1
            old_socket = self.machine.cores[thread.core_id].socket_id
            crossed_socket = old_socket != core.socket_id
            if crossed_socket:
                thread.n_cross_socket_migrations += 1
        thread.core_id = core.core_id
        thread.state = ThreadState.RUNNING
        core.current_tid = thread.tid
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.SWITCH_IN, thread.name
            )
        # Restore the thread's counters FIRST, then charge the switch
        # path: the incoming thread's OS-domain counters must observe the
        # switch-in work, or virtualized kernel-cycle counts would drift
        # from truth by one switch path per reschedule.
        self._program_counters(core, thread)
        cost = self._costs.context_switch
        if crossed_socket:
            cost += self._costs.cross_socket_migration
        n_active = thread.vpmu.n_active()
        if n_active and not self.config.kernel.hw_thread_virtualization:
            cost += self._costs.ctx_restore_per_counter * n_active
        self._account_kernel(core, thread, cost)
        core.slice_ends_at = core.now + self.config.kernel.timeslice_cycles

    def _switch_out(
        self, core: Core, thread: SimThread, requeue: bool,
        preempted: bool = False, front: bool = False,
    ) -> None:
        faults = self._faults
        if faults is not None:
            spec = faults.fire(fp.DELAY_SWAP, core, thread)
            if spec is not None:
                # The save path stalls while the outgoing thread's counters
                # are still live: the extra kernel cycles land in both the
                # counters and the ground truth, so exactness must survive.
                delay = spec.arg if spec.arg else 600
                self._account_kernel(core, thread, delay)
                self._fault_event(core, thread, fp.DELAY_SWAP, delay)
        n_active = thread.vpmu.n_active()
        if n_active and not self.config.kernel.hw_thread_virtualization:
            self._account_kernel(
                core, thread, self._costs.ctx_save_per_counter * n_active
            )
        self._fold_counters(core, thread)
        if faults is not None:
            spec = faults.fire(fp.DUP_SWAP, core, thread)
            if spec is not None:
                # The whole save path runs a second time: duplicate the
                # per-counter cost and re-fold. Count-mode folds of the now
                # deprogrammed (zero-valued, no-latch) counters are no-ops —
                # the idempotence the virtualization design relies on.
                if n_active and not self.config.kernel.hw_thread_virtualization:
                    self._account_kernel(
                        core, thread,
                        self._costs.ctx_save_per_counter * n_active,
                    )
                self._fold_counters(core, thread)
                self._fault_event(core, thread, fp.DUP_SWAP, n_active)
        if thread.in_pmc_read:
            thread.pmc_read_interrupted = True
        thread.n_context_switches += 1
        if preempted:
            thread.n_preemptions += 1
        self.kernel_counters.n_context_switches += 1
        core.current_tid = None
        core.slice_ends_at = None
        core.pmi_due_at = None
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.SWITCH_OUT, thread.name
            )
        if requeue:
            thread.state = ThreadState.READY
            thread.available_at = core.now
            if front:
                self.scheduler.requeue_front(thread.tid, core.core_id)
            else:
                self.scheduler.enqueue(thread.tid, core.core_id)
            if self._tracing:
                self.obs.emit(
                    core.now, core.core_id, thread.tid, tr.READY, thread.name
                )

    def _timer_tick(self, core: Core, thread: SimThread) -> None:
        if self._tracing:
            self.obs.emit(core.now, core.core_id, thread.tid, tr.TIMER_TICK)
        self.kernel_counters.n_timer_ticks += 1
        self._account_kernel(core, thread, self._costs.timer_tick)
        if self._faults is not None:
            spec = self._faults.fire(fp.SHRINK_COUNTER, core, thread)
            if spec is not None:
                self._shrink_counters(core, thread, spec.arg)
        if thread.mux is not None and len(thread.mux.specs) > 1:
            self._account_kernel(core, thread, 2 * self._costs.wrmsr)
            self._mux_rotate(core, thread)
        if self.scheduler.queue_length(core.core_id) > 0:
            self._switch_out(core, thread, requeue=True, preempted=True)
        else:
            core.slice_ends_at = core.now + self.config.kernel.timeslice_cycles

    def _block(self, core: Core, thread: SimThread, key: tuple) -> None:
        thread.state = ThreadState.BLOCKED
        thread.block_key = key
        self._switch_out(core, thread, requeue=False)

    # ------------------------------------------------------------------
    # counter virtualization (the LiMiT kernel patch)
    # ------------------------------------------------------------------

    def _program_counters(self, core: Core, thread: SimThread) -> None:
        pmu = core.pmu
        for idx in thread.vpmu.active_indices():
            spec = thread.vpmu.slots[idx]
            ctr = pmu.counter(idx)
            ctr.program(spec.event, spec.count_user, spec.count_kernel)
            if spec.mode == "count":
                ctr.write(0)
            else:
                saved = thread.slot_saved[idx]
                if saved is None:
                    saved = max(0, ctr.threshold - spec.period)
                ctr.write(saved)

    def _fold_counters(self, core: Core, thread: SimThread) -> None:
        pmu = core.pmu
        for idx in thread.vpmu.active_indices():
            ctr = pmu.counter(idx)
            if ctr.overflow_pending:
                self._apply_overflow(core, thread, idx)
            spec = thread.vpmu.slots[idx]
            if spec.mode == "count":
                thread.vpmu.fold(idx, ctr.read())
            else:
                thread.slot_saved[idx] = ctr.read()
            ctr.deprogram()

    def _apply_overflow(self, core: Core, thread: SimThread, idx: int) -> None:
        ctr = core.pmu.counter(idx)
        wraps = ctr.clear_overflow()
        if not wraps:
            return
        self.kernel_counters.n_counter_overflows += wraps
        if self._faults is not None:
            # Applying a latched overflow recovers any dropped PMIs on this
            # core: the wrap reached the accumulator after all (detected).
            n = self._faults.note_overflow_recovered(core.core_id)
            if n and self._tracing:
                self.obs.emit(
                    core.now, core.core_id, thread.tid,
                    tr.FAULT_DETECT, fp.DROP_PMI,
                )
        spec = thread.vpmu.slots[idx]
        if spec is None:  # orphaned counter; nothing to attribute
            return
        if spec.mode == "count":
            thread.vpmu.vaccum[idx] += wraps * ctr.threshold
        else:
            fd = self.perf.fd_for_slot(thread.tid, idx)
            region = thread.region_stack[-1] if thread.region_stack else None
            if fd is not None and fd.enabled:
                record = SampleRecord(
                    time=core.now,
                    tid=thread.tid,
                    region=region,
                    event=spec.event,
                    fd=fd.fd,
                )
                self.perf.record_sample(fd, record)
                self.kernel_counters.n_samples += 1
            thread.vpmu.sample_counts[idx] += 1
            ctr.write(max(0, ctr.threshold - spec.period))

    def _service_pmi(self, core: Core, thread: SimThread) -> None:
        core.pmi_due_at = None
        pending = core.pmu.pending_overflow_indices()
        if not pending:
            return
        faults = self._faults
        if faults is not None:
            spec = faults.fire(fp.DROP_PMI, core, thread)
            if spec is not None:
                # The interrupt is lost before the handler runs: no cost, no
                # overflow application, no interruption flag. The hardware
                # latch survives, so the overflow is recovered at redelivery
                # (arg cycles) or at the next virtualization fold — and the
                # safe read's pending-overflow check still catches it.
                if spec.arg > 0:
                    core.pmi_due_at = core.now + spec.arg
                faults.note_dropped_pmi(core.core_id)
                self._fault_event(core, thread, fp.DROP_PMI, spec.arg)
                return
        n_samples = sum(
            1
            for idx in pending
            if thread.vpmu.slots[idx] is not None
            and thread.vpmu.slots[idx].mode == "sample"
        )
        cost = self._costs.pmi_handler + self._costs.pmi_sample_record * n_samples
        self.kernel_counters.n_pmis += 1
        self._account_kernel(core, thread, cost)
        # The handler itself may have pushed more counters over the edge
        # (kernel-domain counting); service everything pending now.
        for idx in core.pmu.pending_overflow_indices():
            self._apply_overflow(core, thread, idx)
        if thread.in_pmc_read:
            thread.pmc_read_interrupted = True
        if self._tracing:
            self.obs.emit(core.now, core.core_id, thread.tid, tr.PMI, tuple(pending))
        if faults is not None:
            spec = faults.fire(fp.REPEAT_PMI, core, thread)
            if spec is not None:
                # A spurious second interrupt right behind the real one: the
                # handler runs again (full dispatch cost, nothing pending to
                # apply) and mid-read it spuriously flags an interruption,
                # forcing a harmless restart.
                self.kernel_counters.n_pmis += 1
                self._account_kernel(core, thread, self._costs.pmi_handler)
                if thread.in_pmc_read:
                    thread.pmc_read_interrupted = True
                self._fault_event(core, thread, fp.REPEAT_PMI, tuple(pending))

    # ------------------------------------------------------------------
    # fault injection hooks (repro.faults)
    # ------------------------------------------------------------------

    def _fault_event(self, core: Core, thread: SimThread | None,
                     kind: str, detail: Any = None) -> None:
        """Trace one fired injection. Only the *recording* is gated on
        tracing — the decision already happened, so traced and untraced runs
        inject identically (the zero-perturbation contract)."""
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id,
                thread.tid if thread is not None else 0,
                tr.FAULT_INJECT, (kind, detail),
            )

    def _shrink_counters(self, core: Core, thread: SimThread, width: int) -> None:
        """Narrow every hardware counter on every core to ``width`` bits.

        The truncated high bits of each live value latch as overflow wraps,
        so counting slots recover them through the normal overflow path
        (``vaccum += wraps * new_threshold`` with the *new* threshold equals
        exactly the bits shifted out) and nothing is lost. Cached accrual
        plans and the recipes on their entries embed the old mask, so every
        changed PMU's plan caches are flushed; sampling preloads saved under
        the old width are clamped.
        """
        mask = (1 << width) - 1
        for c in self.machine.cores:
            changed = False
            for ctr in c.pmu.counters:
                if ctr.width <= width:
                    continue
                ctr.width = width
                excess = ctr.value >> width
                if excess:
                    ctr.value &= mask
                    ctr.overflow_pending += excess
                    ctr.overflow_total += excess
                changed = True
            if not changed:
                continue
            c.pmu.flush_plans()
            if (
                c.current_tid is not None
                and c.pmu.pending_overflow_indices()
            ):
                running = self.threads[c.current_tid]
                self._arm_pmi(c, running)
        for t in self.threads.values():
            t.slot_saved = [
                (s & mask if s is not None else None) for s in t.slot_saved
            ]
        self._fault_event(core, thread, fp.SHRINK_COUNTER, width)

    def _arm_pmi(self, core: Core, thread: SimThread) -> None:
        """Schedule the PMI for a just-latched overflow after the configured
        skid; fault injection may amplify the skid or align the delivery to
        the end of the current timeslice."""
        skid = self._costs.pmi_skid
        faults = self._faults
        if faults is not None:
            spec = faults.fire(fp.AMPLIFY_SKID, core, thread)
            if spec is not None:
                if spec.arg == fp.ALIGN_SLICE:
                    if (
                        core.slice_ends_at is not None
                        and core.slice_ends_at > core.now
                    ):
                        skid = core.slice_ends_at - core.now
                else:
                    skid *= spec.arg
                self._fault_event(core, thread, fp.AMPLIFY_SKID, skid)
        due = core.now + skid
        if core.pmi_due_at is None or due < core.pmi_due_at:
            core.pmi_due_at = due

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _account(
        self,
        core: Core,
        thread: SimThread,
        domain: Domain,
        entry: PlanEntry,
        before: int,
        after: int,
    ) -> None:
        """Charge ``after - before`` cycles of a phase to the machine,
        thread, ground truth, active region and PMU counters.

        ``entry`` is the phase's ``(rates, plan, recipes)`` PMU plan entry
        (:meth:`Pmu.plan_entry`), resolved by the caller; its plan is ``()``
        when no counter is programmed.
        """
        chunk = after - before
        core.now += chunk
        core.busy_cycles += chunk
        user = domain is _USER
        if user:
            core.user_cycles += chunk
            thread.user_cycles += chunk
            ev = thread.ev_user
        else:
            core.kernel_cycles += chunk
            thread.kernel_cycles += chunk
            ev = thread.ev_kernel
        ev[0] += chunk  # Event.CYCLES.index == 0
        region_stack = thread.region_stack
        rev = None
        if region_stack:
            name = region_stack[-1]
            if user:
                rev = thread.region_ev[name]
                rev[0] += chunk
            else:
                thread.regions[name].kernel_cycles += chunk
        if before == 0 and after <= _RECIPE_MAX_WINDOW:
            recipes = entry[2]
            rec = recipes.get(after)
            if rec is None:
                if after in recipes:
                    # Second sighting: the window recurs, so build its
                    # recipe. One-shot windows (e.g. phase lengths drawn
                    # per request) stay on the generic path below.
                    rec = recipes[after] = _window_recipe(entry, after)
                else:
                    if len(recipes) >= _RECIPES_PER_ENTRY:
                        recipes.clear()
                    recipes[after] = None
            if rec is not None:
                deltas, counts = rec
                if rev is None:
                    for idx, n in deltas:
                        ev[idx] += n
                else:
                    for idx, n in deltas:
                        ev[idx] += n
                        rev[idx] += n
                if counts:
                    overflowed = False
                    on_overflow = core.pmu.on_overflow
                    for index, ctr, mask, n in counts:
                        v = ctr.value + n
                        if v <= mask:
                            ctr.value = v
                        elif ctr.accrue(n):
                            overflowed = True
                            if on_overflow is not None:
                                on_overflow(index)
                    if overflowed:
                        self._arm_pmi(core, thread)
                return
        flat = entry[0].flat
        if flat:
            accrue_rate_events(flat, before, after, ev, rev)
        plan = entry[1]
        if plan:
            overflowed = False
            on_overflow = core.pmu.on_overflow
            for index, ctr, ppm, mask in plan:
                n = (after * ppm) // 1_000_000 - (before * ppm) // 1_000_000
                if n:
                    v = ctr.value + n
                    if v <= mask:
                        ctr.value = v
                    elif ctr.accrue(n):
                        overflowed = True
                        if on_overflow is not None:
                            on_overflow(index)
            if overflowed:
                self._arm_pmi(core, thread)

    def _account_kernel(self, core: Core, thread: SimThread, cycles: int) -> None:
        """One-shot non-preemptible kernel phase."""
        if cycles:
            self._account(
                core, thread, _KERNEL,
                core.pmu.plan_entry(KERNEL_RATES, _KERNEL), 0, cycles,
            )

    # ------------------------------------------------------------------
    # op execution
    # ------------------------------------------------------------------

    def _fetch_next_op(self, core: Core, thread: SimThread) -> bool:
        try:
            if thread.throw_exc is not None:
                exc = thread.throw_exc
                thread.throw_exc = None
                op = thread.gen.throw(exc)
            else:
                op = thread.gen.send(thread.send_value)
        except StopIteration:
            self._finish_thread(core, thread)
            return False
        self._ops_fetched += 1
        thread.send_value = None
        handlers = _OP_HANDLERS.get(type(op))
        if handlers is None:
            handlers = _dispatch_resolve(
                op, f"thread {thread.name!r} yielded non-op {op!r}"
            )
        begin, adv = handlers
        ex = thread.op_exec
        ex.op = op
        ex.adv = adv
        # an op whose begin commits it whole sets no phase
        ex.phase_cycles = ex.phase_consumed = 0
        # published first: a begin that completes its op (a fast read)
        # clears it again
        thread.cur = ex
        begin(self, core, thread, ex)
        return True

    def _bail(self, reason: str) -> bool:
        """Count a fast-path bailout; always False (for `return` chaining)."""
        self._bailouts[reason] = self._bailouts.get(reason, 0) + 1
        return False

    def _try_macro_step(
        self, core: Core, thread: SimThread, ex: _OpExec, entry: PlanEntry
    ) -> bool:
        """Fast-forward k whole timeslices of a solo compute phase in one
        closed-form step: k quanta of user cycles plus k batched timer
        ticks of kernel cycles, with all event/counter accrual done by the
        same exact integer arithmetic the slow path uses.

        Engages only when nothing can interleave: no runnable sibling on
        this core, no pending PMI, no rotating multiplex group, and the
        whole jump (a) starts every sub-step strictly before any other
        actor's time and (b) wraps no hardware counter (so no PMI can
        become due mid-window). Returns False (and counts the reason) when
        any condition fails, leaving the slow path to run unchanged.
        """
        faults = self._faults
        if faults is not None:
            if faults.tick_armed:
                # macro steps batch timer ticks without running _timer_tick,
                # where tick-triggered faults (shrink_counter) fire
                return self._bail("fault_tick_armed")
            if faults.fire(fp.FORCE_BAILOUT, core, thread, point="macro"):
                self._fault_event(core, thread, fp.FORCE_BAILOUT, "macro")
                return self._bail("fault_forced")
        if core.pmi_due_at is not None:
            return self._bail("pmi_due")
        if self.scheduler.queue_length(core.core_id) > 0:
            return self._bail("runqueue")
        mux = thread.mux
        if mux is not None and len(mux.specs) > 1:
            return self._bail("mux")
        if ex.phase_domain is not _USER:  # pragma: no cover - defensive
            return self._bail("domain")
        now = core.now
        quantum = self.config.kernel.timeslice_cycles
        tick = self._costs.timer_tick
        stride = quantum + tick
        head = core.slice_ends_at - now
        consumed = ex.phase_consumed
        remaining = ex.phase_cycles - consumed
        # Largest k from the phase itself: the k-th quantum must still be
        # cut short by its tick, i.e. head + (k-1)*quantum < remaining
        # (at the boundary the slow path finishes the phase instead).
        k = (remaining - head - 1) // quantum + 1
        # Every batched sub-step must *start* strictly before the earliest
        # other actor (the k-th tick starts at t_end - tick); at a tie the
        # outer loop must arbitrate by core id / process wakeups first.
        horizon = self._horizon
        if horizon is not None:
            if now + head >= horizon:
                return self._bail("horizon")
            k_h = (horizon - now - head - 1) // stride + 1
            if k_h < k:
                k = k_h
        if k < 1:
            return self._bail("horizon")
        # Shrink k until no counter can wrap inside the window. Counter
        # fill is monotonic in k, so binary-search the largest safe k; if
        # even one slice would wrap, the slow path delivers that PMI.
        # ``entry`` is the phase's own (user-domain) plan entry.
        user_plan = entry[1]
        kernel_plan = core.pmu.plan_entry(KERNEL_RATES, _KERNEL)[1]
        if user_plan or kernel_plan:
            caps: dict[int, list] = {}
            for index, ctr, ppm, _mask in user_plan:
                caps[index] = [ctr, ppm, 0]
            for index, ctr, ppm, _mask in kernel_plan:
                per_tick = events_in(0, tick, ppm)
                entry = caps.get(index)
                if entry is None:
                    caps[index] = [ctr, 0, per_tick]
                else:
                    entry[2] = per_tick
            base = {
                index: (consumed * entry[1]) // 1_000_000
                for index, entry in caps.items()
            }

            def fits(kk: int) -> bool:
                u_end = consumed + head + (kk - 1) * quantum
                for index, (ctr, ppm_u, per_tick) in caps.items():
                    n = kk * per_tick
                    if ppm_u:
                        n += (u_end * ppm_u) // 1_000_000 - base[index]
                    if ctr.value + n > ctr.mask:
                        return False
                return True

            if not fits(1):
                return self._bail("overflow")
            lo, hi = 1, k
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if fits(mid):
                    lo = mid
                else:
                    hi = mid - 1
            k = lo
        # ---- commit: the jump is safe; apply k slices in closed form ----
        user_cycles = head + (k - 1) * quantum
        kernel_cycles = k * tick
        t_end = now + user_cycles + kernel_cycles
        if self._tracing:
            # the slow path emits TIMER_TICK at each slice boundary, before
            # charging the tick; reproduce the identical event stream
            emit = self.obs.emit
            cid = core.core_id
            tid = thread.tid
            t = now + head
            for _ in range(k):
                emit(t, cid, tid, tr.TIMER_TICK)
                t += stride
        core.now = t_end
        core.busy_cycles += user_cycles + kernel_cycles
        core.user_cycles += user_cycles
        core.kernel_cycles += kernel_cycles
        thread.user_cycles += user_cycles
        thread.kernel_cycles += kernel_cycles
        ev_user = thread.ev_user
        ev_user[0] += user_cycles  # Event.CYCLES.index == 0
        ev_kernel = thread.ev_kernel
        ev_kernel[0] += kernel_cycles
        rev = None
        if thread.region_stack:
            name = thread.region_stack[-1]
            rev = thread.region_ev[name]
            rev[0] += user_cycles
            thread.regions[name].kernel_cycles += kernel_cycles
        u_end = consumed + user_cycles
        accrue_rate_events(
            ex.phase_rates.flat, consumed, u_end, ev_user, rev
        )
        for idx, per_tick in self._tick_pairs:
            ev_kernel[idx] += k * per_tick
        # PMU counters: no wrap is possible by construction, so plain adds
        for _index, ctr, ppm, _mask in user_plan:
            n = (u_end * ppm) // 1_000_000 - (consumed * ppm) // 1_000_000
            if n:
                ctr.accrue(n)
        for _index, ctr, ppm, _mask in kernel_plan:
            n = k * events_in(0, tick, ppm)
            if n:
                ctr.accrue(n)
        ex.phase_consumed = u_end
        self.kernel_counters.n_timer_ticks += k
        core.slice_ends_at = t_end + quantum
        self._macro_steps += 1
        self._quanta_batched += k
        return True

    def _complete(self, thread: SimThread, value: Any) -> None:
        thread.send_value = value
        thread.cur = None

    def _throw(self, thread: SimThread, exc: BaseException) -> None:
        thread.throw_exc = exc
        thread.cur = None

    # -- op begin ----------------------------------------------------------
    # Op handling dispatches on type(op) through one class-level table of
    # (begin, advance) pairs built after the class body (subclasses resolve
    # through the MRO on first sight and are memoized), replacing the
    # seed's isinstance chains.

    def _begin_compute(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op = ex.op
        ex.stage = "run"
        ex.set_phase(op.cycles, op.rates, _USER, True)

    def _begin_rdtsc(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "run"
        ex.set_phase(self._costs.rdtsc, LIBRARY_RATES, _USER, True)

    def _begin_rdpmc(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "run"
        ex.set_phase(self._costs.rdpmc, LIBRARY_RATES, _USER, True)

    def _begin_rdpmc_destructive(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "run"
        ex.set_phase(
            self._costs.rdpmc_destructive, LIBRARY_RATES, _USER, True
        )

    def _begin_pmc_read_begin(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "run"
        ex.set_phase(self._costs.pmc_read_begin, LIBRARY_RATES, _USER, True)

    def _begin_pmc_read_end(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "run"
        ex.set_phase(self._costs.pmc_read_end, LIBRARY_RATES, _USER, True)

    def _begin_load_vaccum(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "run"
        ex.set_phase(self._costs.pmc_load_accum, LIBRARY_RATES, _USER, True)

    def _begin_pmc_safe_read(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        if not self._try_fast_read(core, thread, ex, _SAFE):
            ex.stage = "call"
            ex.set_phase(
                self._costs.pmc_call_overhead, LIBRARY_RATES, _USER, True
            )

    def _begin_pmc_unsafe_read(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        if not self._try_fast_read(core, thread, ex, _UNSAFE):
            ex.stage = "call"
            ex.set_phase(
                self._costs.pmc_call_overhead, LIBRARY_RATES, _USER, True
            )

    def _begin_region(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "run"
        hook = self._costs.instrument_hook if thread.profiler is not None else 0
        ex.set_phase(hook, LIBRARY_RATES, _USER, True)

    def _begin_lock_acquire(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "cas"
        ex.t0 = core.now
        ex.spin_used = 0
        ex.contended = False
        ex.slept = False
        ex.set_phase(self._costs.cas, LIBRARY_RATES, _USER, True)

    def _begin_lock_release(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "cas"
        ex.set_phase(self._costs.cas, LIBRARY_RATES, _USER, True)

    def _begin_syscall_op(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op = ex.op
        name = op.name
        handler = _SYSCALLS.get(name)
        if handler is None:
            raise SimulationError(f"unknown syscall {name!r}")
        thread.n_syscalls += 1
        table = self.kernel_counters.n_syscalls
        table[name] = table.get(name, 0) + 1
        # The handler runs here rather than at the end of the entry phase.
        # Nothing else runs on this thread in between, and every handler
        # reads only its args, static config and this thread's own state,
        # so it returns (or raises) exactly what it would there.
        exc = None
        try:
            body, action = handler(self, core, thread, op.args)
        except Exception as raised:  # delivered as the syscall's "errno"
            body, action, exc = 0, None, raised
        else:
            if action is None and self._try_whole_syscall(core, thread, body):
                return
        self._begin_syscall(core, thread, ex, name)
        ex.stage = "entry"
        ex.body = body
        ex.action = action
        ex.exc = exc

    def _begin_spawn(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "entry"
        thread.n_syscalls += 1
        table = self.kernel_counters.n_syscalls
        table["clone"] = table.get("clone", 0) + 1
        self._begin_syscall(core, thread, ex, "clone")

    def _begin_join(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "entry"
        thread.n_syscalls += 1
        self._begin_syscall(core, thread, ex, "join")

    def _begin_sleep(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "entry"
        thread.n_syscalls += 1
        self._begin_syscall(core, thread, ex, "sleep")

    def _begin_yield(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "entry"
        thread.n_syscalls += 1
        self._begin_syscall(core, thread, ex, "yield")

    def _begin_syscall(
        self, core: Core, thread: SimThread, ex: _OpExec, name: str
    ) -> None:
        """Common entry path of every syscall-class op: trace + entry phase."""
        ex.sys_name = name
        ex.exc = None
        ex.result = None
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.SYSCALL_ENTER, name
            )
        ex.set_phase(
            self._costs.syscall_entry, KERNEL_RATES, _KERNEL, False
        )

    def _end_syscall(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        """Trace the kernel->user return of a syscall-class op."""
        if self._tracing:
            self.obs.emit(
                core.now,
                core.core_id,
                thread.tid,
                tr.SYSCALL_EXIT,
                ex.sys_name,
            )

    # -- op advance ----------------------------------------------------------

    def _adv_compute(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        self._complete(thread, None)

    def _adv_rdtsc(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        self._complete(thread, core.now)

    def _adv_pmc_read_begin(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        thread.in_pmc_read = True
        thread.pmc_read_interrupted = False
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.PMC_READ_BEGIN
            )
        self._complete(thread, None)

    def _adv_pmc_read_end(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ok = (
            not thread.pmc_read_interrupted
            and not core.pmu.pending_overflow_indices()
        )
        thread.in_pmc_read = False
        thread.pmc_read_interrupted = False
        if not ok:
            thread.read_restarts += 1
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.PMC_READ_END, ok
            )
        self._complete(thread, ok)

    def _adv_load_vaccum(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        try:
            value = thread.vpmu.read_accumulator(ex.op.index)
        except CounterError as exc:
            self._throw(thread, exc)
        else:
            self._complete(thread, value)

    def _adv_rdpmc(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op = ex.op
        try:
            value = core.pmu.rdpmc(op.index, from_user=True)
        except CounterError as exc:
            self._throw(thread, exc)
            return
        if 0 <= op.index < len(thread.vpmu.slots):
            spec = thread.vpmu.slots[op.index]
            if spec is not None:
                thread.last_rdpmc_truth = thread.slot_truth_since_open(
                    op.index, spec
                )
        self._complete(thread, value)

    # -- composite PMC reads ------------------------------------------------
    # PmcSafeRead / PmcUnsafeRead run the whole LiMiT read protocol as one
    # op. Two execution paths, chosen per attempt by _try_fast_read:
    #
    # * fast path — when nothing can interrupt the window (no slice
    #   boundary, no due PMI, no counter wrap, not tracing), the entire
    #   sequence commits inside the op's begin handler, so fetch and read
    #   are one piece, with accrual sums precomputed on the LIBRARY_RATES
    #   plan entry;
    # * stage machine — otherwise, the op steps through phases with exactly
    #   the piece boundaries of the historical op-by-op form (Compute /
    #   PmcReadBegin / LoadVAccum / Rdpmc / PmcReadEnd / Compute), so
    #   interrupted reads restart, fault and undercount identically.

    def _read_recipe(self, plan: tuple, phases: tuple) -> tuple:
        """Combined accrual recipe for a whole PMC read executed as one
        piece: per-part summed running-floor deltas (each sub-phase accrues
        from its own cycle 0, so part sums are sums of ``events_in(0, c)``)
        plus per-counter whole-read totals for the no-wrap precheck.
        ``plan`` is the LIBRARY_RATES user plan the recipe is stored with."""
        flat = LIBRARY_RATES.flat

        def combine(costs: tuple) -> tuple[tuple, dict[int, list]]:
            ev: dict[int, int] = {}
            ctr: dict[int, list] = {}
            for cyc in costs:
                for _event, ppm, idx in flat:
                    n = (cyc * ppm) // 1_000_000
                    if n:
                        ev[idx] = ev.get(idx, 0) + n
                for index, counter, ppm, _mask in plan:
                    n = (cyc * ppm) // 1_000_000
                    if n:
                        entry = ctr.get(index)
                        if entry is None:
                            ctr[index] = [counter, _mask, n]
                        else:
                            entry[2] += n
            return tuple(ev.items()), ctr

        d_a, ctr_a = combine(phases[0])
        d_b, ctr_b = combine(phases[1])
        e_a = tuple((c, m, n) for c, m, n in ctr_a.values())
        e_b = tuple((c, m, n) for c, m, n in ctr_b.values())
        for index, entry in ctr_b.items():
            got = ctr_a.get(index)
            if got is None:
                ctr_a[index] = entry
            else:
                got[2] += entry[2]
        totals = tuple((c, m, n) for c, m, n in ctr_a.values())
        return (
            d_a, e_a, sum(phases[0]),
            d_b, e_b, sum(phases[1]),
            totals,
        )

    def _try_fast_read(
        self, core: Core, thread: SimThread, ex: _OpExec, protocol: str
    ) -> bool:
        """Complete a whole ``protocol`` (``_SAFE``/``_UNSAFE``) PMC read
        inside its begin handler if provably uninterruptible.

        All prechecks are side-effect free; any possible interleaving
        (slice boundary or due PMI inside the window, userspace-read fault,
        bad slot, latched or imminent counter overflow, tracing) bails to
        the stage machine, which reproduces the historical behaviour
        exactly. On success the committed state — tallies, counters,
        slot-truth bookkeeping, core clocks — is identical to running the
        uninterrupted stage sequence piece by piece, and the op is complete
        (``thread.cur`` cleared), so :meth:`_step` ends the piece at its
        fetch.
        """
        # Fault hooks come BEFORE the tracing bail: whenever read-targeting
        # faults are armed, traced and untraced runs must take the same
        # stage-machine path, or injection decisions would diverge.
        faults = self._faults
        if faults is not None and faults.reads_armed:
            if faults.fire(fp.FORCE_BAILOUT, core, thread, point="fast_read"):
                self._fault_event(core, thread, fp.FORCE_BAILOUT, "fast_read")
            return self._bail("read_fault_armed")
        if self._tracing:
            return self._bail("read_tracing")
        if core.pmi_due_at is not None:
            return self._bail("read_pmi_due")
        pmu = core.pmu
        if not pmu.user_rdpmc_enabled:
            return self._bail("read_fault")
        index = ex.op.index
        vpmu = thread.vpmu
        slots = vpmu.slots
        counters = pmu.counters
        if not 0 <= index < len(slots) or index >= len(counters):
            return self._bail("read_bad_slot")
        spec = slots[index]
        if spec is None or not spec.user_readable:
            return self._bail("read_bad_slot")
        entry = pmu.plan_entry(LIBRARY_RATES, _USER)
        recipes = entry[2]
        rec = recipes.get(protocol)
        if rec is None:
            rec = recipes[protocol] = self._read_recipe(
                entry[1], self._read_phases[protocol]
            )
        d_a, e_a, cycles_a, d_b, e_b, cycles_b, totals = rec
        total = cycles_a + cycles_b
        bound = core.slice_ends_at
        if bound is not None and bound - core.now < total:
            return self._bail("read_slice")
        for counter in counters:
            if counter.overflow_pending:
                return self._bail("read_overflow_pending")
        for counter, mask, n in totals:
            if counter.value + n > mask:
                return self._bail("read_wrap")
        # Commit. Part A (call + [begin +] load + rdpmc phases) accrues
        # before the values and ground truth are captured, part B ([end +]
        # store) after — exactly where the stage boundaries fall.
        ev = thread.ev_user
        rev = None
        region_stack = thread.region_stack
        if region_stack:
            rev = thread.region_ev[region_stack[-1]]
            rev[0] += total
        ev[0] += cycles_a
        if rev is None:
            for idx, n in d_a:
                ev[idx] += n
        else:
            for idx, n in d_a:
                ev[idx] += n
                rev[idx] += n
        for counter, _mask, n in e_a:
            counter.value += n
        acc = vpmu.vaccum[index]
        hw = counters[index].value
        thread.last_rdpmc_truth = thread.slot_truth_since_open(index, spec)
        ev[0] += cycles_b
        if rev is None:
            for idx, n in d_b:
                ev[idx] += n
        else:
            for idx, n in d_b:
                ev[idx] += n
                rev[idx] += n
        for counter, _mask, n in e_b:
            counter.value += n
        core.now += total
        core.busy_cycles += total
        core.user_cycles += total
        thread.user_cycles += total
        self._fast_reads += 1
        self._complete(thread, acc + hw)
        return True

    def _adv_pmc_safe_read(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> None:
        # ``stage`` names the phase that just finished; each transition
        # keeps the piece boundaries of the op-by-op protocol.
        stage = ex.stage
        costs = self._costs
        if stage == "rd":
            op = ex.op
            try:
                value = core.pmu.rdpmc(op.index, from_user=True)
            except CounterError as exc:
                self._throw(thread, exc)
                return
            if 0 <= op.index < len(thread.vpmu.slots):
                spec = thread.vpmu.slots[op.index]
                if spec is not None:
                    thread.last_rdpmc_truth = thread.slot_truth_since_open(
                        op.index, spec
                    )
            ex.hw = value
            ex.stage = "re"
            ex.set_phase(costs.pmc_read_end, LIBRARY_RATES, _USER, True)
        elif stage == "re":
            faults = self._faults
            if faults is not None and not ex.fpc:
                spec = faults.fire(
                    fp.PREEMPT_IN_READ, core, thread,
                    protocol="safe", point=fp.BEFORE_CHECK,
                )
                if spec is not None:
                    # Preempt exactly between the two halves of the restart
                    # check: the read-end cycles have been charged but the
                    # interruption flag has not been evaluated yet. The
                    # at-most-once guard ("fpc") keeps the re-entered
                    # advance below from re-firing after the resume.
                    ex.fpc = True
                    faults.note_read_hazard(thread.tid, "safe")
                    self._fault_event(
                        core, thread, fp.PREEMPT_IN_READ, fp.BEFORE_CHECK
                    )
                    self._switch_out(
                        core, thread, requeue=True, preempted=True, front=True
                    )
                    return
            ok = (
                not thread.pmc_read_interrupted
                and not core.pmu.pending_overflow_indices()
            )
            if faults is not None:
                faults.resolve_safe_check(thread.tid, ok)
            thread.in_pmc_read = False
            thread.pmc_read_interrupted = False
            if not ok:
                thread.read_restarts += 1
            if self._tracing:
                self.obs.emit(
                    core.now, core.core_id, thread.tid, tr.PMC_READ_END, ok
                )
            if ok:
                ex.stage = "st"
                ex.set_phase(
                    costs.pmc_store_result, LIBRARY_RATES, _USER, True
                )
                return
            restarts = ex.restarts = ex.restarts + 1
            if restarts > ops.MAX_RESTARTS:
                self._throw(
                    thread,
                    RuntimeError(
                        f"LiMiT read of slot {ex.op.index} restarted "
                        f">{ops.MAX_RESTARTS} times"
                    ),
                )
                return
            ex.stage = "rb"
            ex.set_phase(costs.pmc_read_begin, LIBRARY_RATES, _USER, True)
        elif stage == "rb":
            thread.in_pmc_read = True
            thread.pmc_read_interrupted = False
            if self._tracing:
                self.obs.emit(
                    core.now, core.core_id, thread.tid, tr.PMC_READ_BEGIN
                )
            ex.stage = "va"
            ex.set_phase(costs.pmc_load_accum, LIBRARY_RATES, _USER, True)
        elif stage == "va":
            try:
                acc = thread.vpmu.read_accumulator(ex.op.index)
            except CounterError as exc:
                self._throw(thread, exc)
                return
            ex.acc = acc
            ex.stage = "rd"
            ex.set_phase(costs.rdpmc, LIBRARY_RATES, _USER, True)
            faults = self._faults
            if faults is not None:
                spec = faults.fire(
                    fp.PREEMPT_IN_READ, core, thread,
                    protocol="safe", point=fp.BETWEEN_LOADS,
                )
                if spec is not None:
                    # The classic hazard: accumulator loaded, rdpmc not yet
                    # executed. The forced switch folds the counter, so the
                    # two loads span epochs; the restart check must fire.
                    faults.note_read_hazard(thread.tid, "safe")
                    self._fault_event(
                        core, thread, fp.PREEMPT_IN_READ, fp.BETWEEN_LOADS
                    )
                    self._switch_out(
                        core, thread, requeue=True, preempted=True, front=True
                    )
        elif stage == "call":
            ex.restarts = 0
            ex.fpc = False
            ex.stage = "rb"
            ex.set_phase(costs.pmc_read_begin, LIBRARY_RATES, _USER, True)
        elif stage == "st":
            self._complete(thread, ex.acc + ex.hw)
        else:  # pragma: no cover - stage machine is closed
            raise SimulationError(f"bad PmcSafeRead stage {stage!r}")

    def _adv_pmc_unsafe_read(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> None:
        stage = ex.stage
        costs = self._costs
        if stage == "rd":
            op = ex.op
            try:
                value = core.pmu.rdpmc(op.index, from_user=True)
            except CounterError as exc:
                self._throw(thread, exc)
                return
            if 0 <= op.index < len(thread.vpmu.slots):
                spec = thread.vpmu.slots[op.index]
                if spec is not None:
                    thread.last_rdpmc_truth = thread.slot_truth_since_open(
                        op.index, spec
                    )
            ex.hw = value
            ex.stage = "st"
            ex.set_phase(
                costs.pmc_store_result, LIBRARY_RATES, _USER, True
            )
        elif stage == "call":
            ex.stage = "va"
            ex.set_phase(costs.pmc_load_accum, LIBRARY_RATES, _USER, True)
        elif stage == "va":
            try:
                acc = thread.vpmu.read_accumulator(ex.op.index)
            except CounterError as exc:
                self._throw(thread, exc)
                return
            ex.acc = acc
            ex.stage = "rd"
            ex.set_phase(costs.rdpmc, LIBRARY_RATES, _USER, True)
            faults = self._faults
            if faults is not None:
                spec = faults.fire(
                    fp.PREEMPT_IN_READ, core, thread,
                    protocol="unsafe", point=fp.BETWEEN_LOADS,
                )
                if spec is not None:
                    # No protection here: the switch folds the hardware value
                    # into the accumulator *after* this read captured it, so
                    # the sum silently undercounts — a miss by construction.
                    faults.note_read_hazard(thread.tid, "unsafe")
                    self._fault_event(
                        core, thread, fp.PREEMPT_IN_READ, fp.BETWEEN_LOADS
                    )
                    self._switch_out(
                        core, thread, requeue=True, preempted=True, front=True
                    )
        elif stage == "st":
            self._complete(thread, ex.acc + ex.hw)
        else:  # pragma: no cover - stage machine is closed
            raise SimulationError(f"bad PmcUnsafeRead stage {stage!r}")

    def _adv_rdpmc_destructive(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> None:
        op = ex.op
        pmu = core.pmu
        try:
            hw = pmu.rdpmc(op.index, from_user=True)
        except CounterError as exc:
            self._throw(thread, exc)
            return
        try:
            spec = thread.vpmu.spec(op.index)
        except CounterError as exc:
            self._throw(thread, exc)
            return
        ctr = pmu.counter(op.index)
        if ctr.overflow_pending:
            # the instruction folds pending overflow state atomically
            self._apply_overflow(core, thread, op.index)
            hw = ctr.read()
        value = thread.vpmu.vaccum[op.index] + hw
        thread.vpmu.vaccum[op.index] = 0
        ctr.write(0)
        truth = thread.slot_truth(spec)
        thread.last_rdpmc_truth = truth - thread.slot_reset_truth[op.index]
        thread.slot_reset_truth[op.index] = truth
        self._complete(thread, value)

    def _adv_region_begin(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op = ex.op
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.REGION_BEGIN, op.name
            )
        thread.region_stack.append(op.name)
        if op.name not in thread.regions:
            thread.regions[op.name] = RegionTruth(name=op.name)
            thread.region_ev[op.name] = [0] * N_EVENTS
        thread.region_entries.append((op.name, thread.cpu_cycles, core.now))
        if thread.profiler is not None:
            thread.profiler.on_enter(thread.tid, op.name, core.now)
        self._complete(thread, None)

    def _adv_region_end(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        if not thread.region_stack:
            raise SimulationError(
                f"thread {thread.name!r}: RegionEnd with no open region"
            )
        name = thread.region_stack.pop()
        entry_name, cpu_snap, t0 = thread.region_entries.pop()
        if entry_name != name:  # pragma: no cover - structurally impossible
            raise SimulationError("region stack corrupted")
        rt = thread.regions[name]
        rt.invocations += 1
        if self._region_log_budget > 0:
            rt.exec_cycles.append(thread.cpu_cycles - cpu_snap)
            rt.wall_cycles.append(core.now - t0)
            self._region_log_budget -= 1
        if thread.profiler is not None:
            thread.profiler.on_exit(thread.tid, name, core.now)
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.REGION_END, name
            )
        self._complete(thread, None)

    # -- locks ---------------------------------------------------------------

    def _spin_recipe(self, spin_plan: tuple, lib_plan: tuple) -> tuple:
        """Accrual recipe for one contended-lock spin round: a spin phase
        (``spin_quantum`` cycles of SPIN_RATES) followed by a CAS retry
        (``cas`` cycles of LIBRARY_RATES), both user phases accruing from
        their own cycle 0 — so a round's deltas are plain sums of
        ``events_in(0, c)`` and k rounds accrue exactly k times them.

        Stored on the SPIN_RATES user plan entry. The LIBRARY_RATES entry
        of the same programming is never replaced while that entry lives
        (both go together in :meth:`Pmu.flush_plans`), so ``lib_plan``
        cannot change under the stored recipe."""
        costs = self._costs
        ev: dict[int, int] = {}
        ctr: dict[int, list] = {}
        for cyc, flat, plan in (
            (costs.spin_quantum, SPIN_RATES.flat, spin_plan),
            (costs.cas, LIBRARY_RATES.flat, lib_plan),
        ):
            for _event, ppm, idx in flat:
                n = (cyc * ppm) // 1_000_000
                if n:
                    ev[idx] = ev.get(idx, 0) + n
            for index, counter, ppm, _mask in plan:
                n = (cyc * ppm) // 1_000_000
                if n:
                    entry = ctr.get(index)
                    if entry is None:
                        ctr[index] = [counter, _mask, n]
                    else:
                        entry[2] += n
        return (
            tuple(ev.items()),
            tuple((counter, m, n) for counter, m, n in ctr.values()),
        )

    def _try_spin_batch(self, core: Core, thread: SimThread, ex: _OpExec) -> bool:
        """Fast-forward k whole spin+CAS rounds of a contended lock acquire
        in one closed-form step.

        Called from the ``cas`` stage after the CAS has failed with spin
        budget remaining, i.e. the slow path is about to run round after
        round of 2-piece spin/CAS phases. The CAS outcome can only change
        when another actor releases the lock — impossible before
        ``self._horizon`` — or when this core reschedules, which (absent a
        due PMI) only happens at a timer tick, bounded by
        ``slice_ends_at``. Every round that both *runs* and *decides*
        strictly before those bounds is therefore a guaranteed failed CAS,
        and k of them accrue exactly k times one round's deltas (each phase
        restarts at phase-relative cycle 0). k is additionally capped so no
        hardware counter can wrap inside the window; the round that would
        wrap is left to the slow path, which raises the PMI mid-phase
        exactly as before. No trace events occur inside the loop, so the
        batch is valid under tracing too.
        """
        faults = self._faults
        if faults is not None and faults.fire(
            fp.FORCE_BAILOUT, core, thread, point="spin"
        ):
            self._fault_event(core, thread, fp.FORCE_BAILOUT, "spin")
            return self._bail("fault_forced")
        costs = self._costs
        spin_q = costs.spin_quantum
        round_cycles = spin_q + costs.cas
        if round_cycles <= 0:  # pragma: no cover - degenerate cost model
            return self._bail("spin_degenerate")
        spin_used = ex.spin_used
        budget = self.config.locks.spin_limit_cycles - spin_used
        k = -(-budget // spin_q)  # rounds until the budget is exhausted
        if core.pmi_due_at is not None:
            return self._bail("spin_pmi_due")
        now = core.now
        bound = core.slice_ends_at
        if bound is not None:
            k_s = (bound - now) // round_cycles
            if k_s < k:
                k = k_s
            if k < 1:
                return self._bail("spin_slice")
        horizon = self._horizon
        if horizon is not None:
            k_h = (horizon - now - 1) // round_cycles
            if k_h < k:
                k = k_h
            if k < 1:
                return self._bail("spin_horizon")
        pmu = core.pmu
        spin_entry = pmu.plan_entry(SPIN_RATES, _USER)
        recipes = spin_entry[2]
        rec = recipes.get(_SPIN)
        if rec is None:
            rec = recipes[_SPIN] = self._spin_recipe(
                spin_entry[1], pmu.plan_entry(LIBRARY_RATES, _USER)[1]
            )
        deltas, entries = rec
        for counter, mask, n in entries:
            k_w = (mask - counter.value) // n
            if k_w < k:
                k = k_w
        if k < 1:
            return self._bail("spin_wrap")
        # ---- commit: k failed rounds, then re-decide with the same checks
        # the slow path's k-th CAS advance would have made at this state ----
        window = k * round_cycles
        ex.spin_used = spin_used + k * spin_q
        ev = thread.ev_user
        ev[0] += window  # Event.CYCLES.index == 0
        rev = None
        if thread.region_stack:
            rev = thread.region_ev[thread.region_stack[-1]]
            rev[0] += window
        if rev is None:
            for idx, n in deltas:
                ev[idx] += k * n
        else:
            for idx, n in deltas:
                kn = k * n
                ev[idx] += kn
                rev[idx] += kn
        for counter, _mask, n in entries:
            counter.value += k * n  # no wrap by construction
        core.now += window
        core.busy_cycles += window
        core.user_cycles += window
        thread.user_cycles += window
        self._spin_batches += 1
        self._spin_rounds_batched += k
        if ex.spin_used < self.config.locks.spin_limit_cycles:
            ex.stage = "spin"
            ex.spin_used += spin_q
            ex.set_phase(spin_q, SPIN_RATES, _USER, True)
        else:
            ex.stage = "fbody"
            self.kernel_counters.n_futex_waits += 1
            ex.set_phase(
                costs.syscall_entry + costs.futex_wait_kernel,
                KERNEL_RATES,
                _KERNEL,
                False,
            )
        return True

    def _adv_lock_acquire(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op: ops.LockAcquire = ex.op
        costs = self._costs
        lock = self.locks.get(op.lock)
        stage = ex.stage
        if stage == "cas":
            if not lock.held:
                waited = core.now - ex.t0
                lock.take(
                    thread.tid,
                    core.now,
                    waited=waited,
                    contended=ex.contended,
                    slept=ex.slept,
                )
                thread.owned_locks.add(op.lock)
                if self._tracing:
                    self.obs.emit(
                        core.now, core.core_id, thread.tid, tr.LOCK_ACQ, op.lock
                    )
                self._complete(thread, None)
                return
            ex.contended = True
            if ex.spin_used < self.config.locks.spin_limit_cycles:
                if self._macro and self._try_spin_batch(core, thread, ex):
                    return
                ex.stage = "spin"
                ex.spin_used += costs.spin_quantum
                ex.set_phase(costs.spin_quantum, SPIN_RATES, _USER, True)
                return
            ex.stage = "fbody"
            self.kernel_counters.n_futex_waits += 1
            ex.set_phase(
                costs.syscall_entry + costs.futex_wait_kernel,
                KERNEL_RATES,
                _KERNEL,
                False,
            )
            return
        if stage == "spin":
            ex.stage = "cas"
            ex.set_phase(costs.cas, LIBRARY_RATES, _USER, True)
            return
        if stage == "fbody":
            ex.stage = "fexit"
            ex.set_phase(costs.syscall_exit, KERNEL_RATES, _KERNEL, False)
            if lock.held:
                # genuinely sleep; retry CAS when woken
                self.futex.wait(op.lock, thread.tid)
                lock.n_sleepers += 1
                ex.slept = True
                self._block(core, thread, ("futex", op.lock))
            # else: lost the race with a release; fall through to fexit
            return
        if stage == "fexit":
            ex.stage = "cas"
            ex.spin_used = 0
            ex.set_phase(costs.cas, LIBRARY_RATES, _USER, True)
            return
        raise SimulationError(f"bad LockAcquire stage {stage!r}")

    def _adv_lock_release(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op: ops.LockRelease = ex.op
        costs = self._costs
        stage = ex.stage
        if stage == "cas":
            lock = self.locks.get(op.lock)
            lock.release(thread.tid, core.now)
            thread.owned_locks.discard(op.lock)
            if self._tracing:
                self.obs.emit(
                    core.now, core.core_id, thread.tid, tr.LOCK_REL, op.lock
                )
            if lock.n_sleepers > 0:
                ex.stage = "wbody"
                self.kernel_counters.n_futex_wakes += 1
                ex.set_phase(
                    costs.syscall_entry + costs.futex_wake_kernel,
                    KERNEL_RATES,
                    _KERNEL,
                    False,
                )
                return
            self._complete(thread, None)
            return
        if stage == "wbody":
            lock = self.locks.get(op.lock)
            woken = self.futex.wake(op.lock, 1)
            lock.n_sleepers -= len(woken)
            for tid in woken:
                self._make_ready(self.threads[tid], at=core.now)
            ex.stage = "wexit"
            ex.set_phase(costs.syscall_exit, KERNEL_RATES, _KERNEL, False)
            return
        if stage == "wexit":
            self._complete(thread, None)
            return
        raise SimulationError(f"bad LockRelease stage {stage!r}")

    # -- syscalls ----------------------------------------------------------
    # A Syscall runs entry, body and exit phases. One whose handler returns
    # no action changes nothing but this core and this thread, so when no
    # tick, PMI or counter wrap can cut the kernel path, _try_whole_syscall
    # commits all three phases inside the begin handler; otherwise the
    # stage machine in _adv_syscall runs them piece by piece.

    def _frame_recipe(self, entry: PlanEntry) -> tuple:
        """Accrual recipe for a syscall's entry plus exit phases on the
        KERNEL_RATES kernel plan entry ``entry``: ``(entry_cycles,
        frame_cycles, events, counts)`` with ``events`` the ``(Event.index,
        ppm, n)`` and ``counts`` the ``(counter, mask, ppm, n)`` of every
        rate and plan counter. Each phase accrues from its own cycle 0, so
        ``n`` is ``events_in(0, entry) + events_in(0, exit)``; ``ppm`` lets
        the caller add the body's own ``events_in(0, body)``."""
        costs = self._costs
        frame = (costs.syscall_entry, costs.syscall_exit)
        events = tuple(
            (idx, ppm, sum((c * ppm) // 1_000_000 for c in frame))
            for _event, ppm, idx in entry[0].flat
        )
        counts = tuple(
            (ctr, mask, ppm, sum((c * ppm) // 1_000_000 for c in frame))
            for _index, ctr, ppm, mask in entry[1]
        )
        return costs.syscall_entry, sum(frame), events, counts

    def _try_whole_syscall(
        self, core: Core, thread: SimThread, body: int
    ) -> bool:
        """Commit an action-free syscall with a ``body``-cycle kernel path
        (entry, body and exit phases) inside its begin handler.

        Exact when the stage machine would run the three phases back to
        back with nothing in between: not tracing (trace events are emitted
        per phase), no PMI due, no timer tick before the exit phase starts,
        no counter wrap (which would arm a PMI) and no run past
        ``max_cycles``. The other cores' horizon is not consulted: the
        phases touch only this core's clock and counters and this thread's
        tallies, which no other actor reads or writes before this core next
        acts. Armed tick faults are the exception (``shrink_counter`` on
        another core rewrites this core's counters), so they fall back too.
        All checks are side-effect free; on False the caller runs the stage
        machine unchanged.
        """
        if self._tracing:
            return False
        faults = self._faults
        if faults is not None and faults.tick_armed:
            return False
        if core.pmi_due_at is not None:
            return self._bail("syscall_pmi_due")
        kentry = core.pmu.plan_entry(KERNEL_RATES, _KERNEL)
        recipes = kentry[2]
        frame = recipes.get(_FRAME)
        if frame is None:
            frame = recipes[_FRAME] = self._frame_recipe(kentry)
        entry_cycles, frame_cycles, events, counts = frame
        now = core.now
        exit_at = now + entry_cycles + body
        bound = core.slice_ends_at
        if bound is not None and exit_at >= bound:
            return self._bail("syscall_slice")
        if exit_at > self._max_cycles:
            return False
        for counter, mask, ppm, n in counts:
            if counter.value + n + (body * ppm) // 1_000_000 > mask:
                return self._bail("syscall_wrap")
        for counter, _mask, ppm, n in counts:
            counter.value += n + (body * ppm) // 1_000_000
        total = frame_cycles + body
        ev = thread.ev_kernel
        ev[0] += total  # Event.CYCLES.index == 0
        for idx, ppm, n in events:
            ev[idx] += n + (body * ppm) // 1_000_000
        core.now = now + total
        core.busy_cycles += total
        core.kernel_cycles += total
        thread.kernel_cycles += total
        region_stack = thread.region_stack
        if region_stack:
            thread.regions[region_stack[-1]].kernel_cycles += total
        self._whole_syscalls += 1
        self._complete(thread, None)
        return True

    def _adv_syscall(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        costs = self._costs
        if ex.stage == "entry":
            # the handler ran at begin; if it raised, skip straight to exit
            if ex.exc is not None:
                ex.stage = "exit"
                ex.set_phase(costs.syscall_exit, KERNEL_RATES, _KERNEL, False)
                return
            ex.stage = "body"
            ex.set_phase(ex.body, KERNEL_RATES, _KERNEL, False)
            return
        if ex.stage == "body":
            action = ex.action
            result: Any = None
            block: tuple | None = None
            if action is not None:
                # the action closes over this engine: do not leave it on
                # the thread's reused _OpExec
                ex.action = None
                try:
                    result, block = action(core, thread)
                except Exception as exc:
                    ex.exc = exc
                    block = None
            ex.result = result
            ex.stage = "exit"
            ex.set_phase(costs.syscall_exit, KERNEL_RATES, _KERNEL, False)
            if block is not None:
                kind, arg = block
                if kind == "sleep":
                    self._seq += 1
                    heapq.heappush(
                        self._sleep_heap, (core.now + arg, self._seq, thread.tid)
                    )
                    self._chain_break = True
                    self._block(core, thread, ("sleep", arg))
                elif kind == "join":
                    self._join_waiters.setdefault(arg, []).append(thread.tid)
                    self._block(core, thread, ("join", arg))
                elif kind == "key":
                    self.futex.wait("key:" + arg, thread.tid)
                    self._block(core, thread, ("key", arg))
                else:  # pragma: no cover
                    raise SimulationError(f"bad block kind {kind!r}")
            return
        if ex.stage == "exit":
            self._end_syscall(core, thread, ex)
            exc = ex.exc
            if exc is not None:
                self._throw(thread, exc)
            else:
                self._complete(thread, ex.result)
            return
        raise SimulationError(f"bad Syscall stage {ex.stage!r}")

    def _adv_spawn(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op: ops.SpawnThread = ex.op
        costs = self._costs
        if ex.stage == "entry":
            ex.stage = "body"
            ex.set_phase(2600, KERNEL_RATES, _KERNEL, False)
            return
        if ex.stage == "body":
            child = self._create_thread(op.factory, op.name, at=core.now)
            self._make_ready(child, at=core.now)
            ex.result = child.tid
            ex.stage = "exit"
            ex.set_phase(costs.syscall_exit, KERNEL_RATES, _KERNEL, False)
            return
        if ex.stage == "exit":
            self._end_syscall(core, thread, ex)
            self._complete(thread, ex.result)
            return
        raise SimulationError(f"bad SpawnThread stage {ex.stage!r}")

    def _adv_join(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op: ops.JoinThread = ex.op
        costs = self._costs
        if ex.stage == "entry":
            ex.stage = "body"
            ex.set_phase(600, KERNEL_RATES, _KERNEL, False)
            return
        if ex.stage == "body":
            target = self.threads.get(op.tid)
            if target is None:
                ex.exc = SimulationError(f"join: no thread {op.tid}")
            ex.stage = "exit"
            ex.set_phase(costs.syscall_exit, KERNEL_RATES, _KERNEL, False)
            if target is not None and target.state is not ThreadState.FINISHED:
                self._join_waiters.setdefault(op.tid, []).append(thread.tid)
                self._block(core, thread, ("join", op.tid))
            return
        if ex.stage == "exit":
            self._end_syscall(core, thread, ex)
            exc = ex.exc
            if exc is not None:
                self._throw(thread, exc)
            else:
                self._complete(thread, None)
            return
        raise SimulationError(f"bad JoinThread stage {ex.stage!r}")

    def _adv_sleep(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op: ops.Sleep = ex.op
        costs = self._costs
        if ex.stage == "entry":
            ex.stage = "body"
            ex.set_phase(900, KERNEL_RATES, _KERNEL, False)
            return
        if ex.stage == "body":
            ex.stage = "exit"
            ex.set_phase(costs.syscall_exit, KERNEL_RATES, _KERNEL, False)
            self._seq += 1
            heapq.heappush(
                self._sleep_heap, (core.now + op.cycles, self._seq, thread.tid)
            )
            self._chain_break = True
            self._block(core, thread, ("sleep", op.cycles))
            return
        if ex.stage == "exit":
            self._end_syscall(core, thread, ex)
            self._complete(thread, None)
            return
        raise SimulationError(f"bad Sleep stage {ex.stage!r}")

    def _adv_yield(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        costs = self._costs
        if ex.stage == "entry":
            ex.stage = "body"
            ex.set_phase(400, KERNEL_RATES, _KERNEL, False)
            return
        if ex.stage == "body":
            ex.stage = "exit"
            ex.set_phase(costs.syscall_exit, KERNEL_RATES, _KERNEL, False)
            return
        if ex.stage == "exit":
            self._end_syscall(core, thread, ex)
            self._complete(thread, None)
            if self.scheduler.queue_length(core.core_id) > 0:
                self._switch_out(core, thread, requeue=True)
            return
        raise SimulationError(f"bad YieldCpu stage {ex.stage!r}")

    # -- syscall handlers: (core, thread, args) -> (body_cycles, action) ------

    def _sys_work(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        (cycles,) = args
        if cycles < 0:
            raise ConfigError("work syscall needs non-negative cycles")
        return cycles, None

    def _sys_getpid(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            return thread.tid, None

        return 150, action

    def _sys_pmc_open(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        (spec,) = args
        if not isinstance(spec, SlotSpec):
            raise ConfigError("pmc_open takes a SlotSpec")
        if spec.mode != "count":
            raise ConfigError("pmc_open supports counting slots only")
        cost = 800 + 2 * self._costs.wrmsr

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            idx = thread.vpmu.allocate(spec)
            ctr = core.pmu.counter(idx)
            ctr.program(spec.event, spec.count_user, spec.count_kernel)
            ctr.write(0)
            base = thread.slot_truth(spec)
            thread.slot_truth_base[idx] = base
            thread.slot_reset_truth[idx] = base
            return idx, None

        return cost, action

    def _sys_pmc_close(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        (idx,) = args

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            thread.vpmu.spec(idx)  # validates
            core.pmu.counter(idx).deprogram()
            thread.vpmu.free(idx)
            thread.slot_saved[idx] = None
            return None, None

        return 400, action

    def _sys_perf_open(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        event, mode, period, count_user, count_kernel = args
        spec = SlotSpec(
            event=event,
            count_user=count_user,
            count_kernel=count_kernel,
            mode=mode,
            period=period,
            owner="perf",
            user_readable=False,
        )
        if mode == "sample" and period >= core.pmu.config.overflow_threshold:
            raise ConfigError(
                f"sampling period {period} exceeds counter range "
                f"{core.pmu.config.overflow_threshold}"
            )

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            idx = thread.vpmu.allocate(spec)
            ctr = core.pmu.counter(idx)
            ctr.program(spec.event, spec.count_user, spec.count_kernel)
            if mode == "count":
                ctr.write(0)
            else:
                ctr.write(max(0, ctr.threshold - period))
            base = thread.slot_truth(spec)
            thread.slot_truth_base[idx] = base
            thread.slot_reset_truth[idx] = base
            fd = self.perf.open(thread.tid, idx, event, mode, period)
            return fd.fd, None

        return 3500, action

    def _sys_perf_read(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        (fd_no,) = args
        cost = self._costs.perf_read_kernel_work + self._costs.perf_copyout

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            fd = self.perf.get(fd_no)
            if fd.tid != thread.tid:
                raise ConfigError("cross-thread perf reads are not modelled")
            spec = thread.vpmu.spec(fd.slot)
            value = thread.vpmu.vaccum[fd.slot] + core.pmu.counter(fd.slot).read()
            thread.last_kernel_read_truth[fd.slot] = thread.slot_truth_since_open(
                fd.slot, spec
            )
            return value, None

        return cost, action

    def _sys_perf_close(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        (fd_no,) = args

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            fd = self.perf.close(fd_no)
            core.pmu.counter(fd.slot).deprogram()
            thread.vpmu.free(fd.slot)
            thread.slot_saved[fd.slot] = None
            return fd, None

        return 1500, action

    def _sys_papi_read(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        (indices,) = args
        indices = tuple(indices)
        cost = (
            self._costs.papi_kernel_read_work
            + self._costs.papi_copyout
            + 150 * max(0, len(indices) - 1)
        )

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            values = []
            for idx in indices:
                spec = thread.vpmu.spec(idx)
                value = thread.vpmu.vaccum[idx] + core.pmu.counter(idx).read()
                thread.last_kernel_read_truth[idx] = (
                    thread.slot_truth_since_open(idx, spec)
                )
                values.append(value)
            return values, None

        return cost, action

    def _sys_wait_key(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        """Keyed-event wait: consume a pending credit if one exists,
        otherwise block until a wake_key posts one. The credit semantics
        (a wake with no waiter is remembered) make the primitive race-free
        for building semaphores/condvars in userspace."""
        (key,) = args
        if not isinstance(key, str) or not key:
            raise ConfigError("wait_key needs a non-empty string key")

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            credits = self._key_credits.get(key, 0)
            if credits > 0:
                self._key_credits[key] = credits - 1
                return True, None  # consumed a credit; no blocking
            return False, ("key", key)

        return 900, action

    def _sys_wake_key(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        """Keyed-event wake: release up to ``n`` waiters; excess wakes are
        stored as credits. ``n = -1`` wakes every current waiter and clears
        any stored credits (broadcast)."""
        key, n = args
        if not isinstance(key, str) or not key:
            raise ConfigError("wake_key needs a non-empty string key")

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            fkey = "key:" + key
            if n == -1:
                woken = self.futex.wake(fkey, 1 << 30)
                self._key_credits.pop(key, None)
            else:
                if n < 0:
                    raise ConfigError("wake_key count must be >= 0 or -1")
                woken = self.futex.wake(fkey, n)
                excess = n - len(woken)
                if excess > 0:
                    self._key_credits[key] = (
                        self._key_credits.get(key, 0) + excess
                    )
            for tid in woken:
                self._make_ready(self.threads[tid], at=core.now)
            return len(woken), None

        return 1_100, action

    # -- perf-style event multiplexing ----------------------------------

    def _mux_fold(self, core: Core, thread: SimThread) -> None:
        """Fold the live event's accumulated count into its group entry."""
        state = thread.mux
        ctr = core.pmu.counter(state.slot)
        state.counts[state.active] += (
            thread.vpmu.vaccum[state.slot] + ctr.read()
        )
        thread.vpmu.vaccum[state.slot] = 0
        if ctr.enabled:
            ctr.write(0)
        state.enabled_cpu[state.active] += (
            thread.cpu_cycles - state.active_since_cpu
        )
        state.active_since_cpu = thread.cpu_cycles

    def _mux_rotate(self, core: Core, thread: SimThread) -> None:
        """Rotate the multiplexed group to its next event (timer driven)."""
        state = thread.mux
        self._mux_fold(core, thread)
        state.active = (state.active + 1) % len(state.specs)
        state.rotations += 1
        spec = state.specs[state.active]
        ctr = core.pmu.counter(state.slot)
        if ctr.enabled or core.current_tid == thread.tid:
            ctr.program(spec.event, spec.count_user, spec.count_kernel)
            ctr.write(0)
        # keep the slot's bookkeeping spec in sync with the live event
        thread.vpmu.slots[state.slot] = spec

    def _sys_mux_open(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        events, count_user, count_kernel = args
        events = tuple(events)
        if not events:
            raise ConfigError("mux_open needs at least one event")
        if thread.mux is not None:
            raise ConfigError("thread already has a multiplexed group")
        specs = [
            SlotSpec(
                event=e,
                count_user=count_user,
                count_kernel=count_kernel,
                mode="count",
                owner="perf-mux",
                user_readable=False,
            )
            for e in events
        ]
        cost = 3500 + 2 * self._costs.wrmsr

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            idx = thread.vpmu.allocate(specs[0])
            ctr = core.pmu.counter(idx)
            ctr.program(specs[0].event, count_user, count_kernel)
            ctr.write(0)
            thread.mux = MuxState(
                slot=idx,
                specs=specs,
                truth_base=[thread.slot_truth(s) for s in specs],
                active_since_cpu=thread.cpu_cycles,
                total_cpu_base=thread.cpu_cycles,
            )
            thread.slot_truth_base[idx] = thread.slot_truth(specs[0])
            return idx, None

        return cost, action

    def _sys_mux_read(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        cost = self._costs.perf_read_kernel_work + self._costs.perf_copyout

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            state = thread.mux
            if state is None:
                raise ConfigError("mux_read without a multiplexed group")
            self._mux_fold(core, thread)
            total_cpu = thread.cpu_cycles - state.total_cpu_base
            triples = [
                (state.counts[i], state.enabled_cpu[i], total_cpu)
                for i in range(len(state.specs))
            ]
            thread.last_kernel_read_truth[state.slot] = 0  # unused for mux
            thread.scratch["_mux_truth"] = [
                thread.slot_truth(spec) - base
                for spec, base in zip(state.specs, state.truth_base)
            ]
            return triples, None

        return cost, action

    def _sys_mux_close(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[int, _SysAction | None]:
        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            state = thread.mux
            if state is None:
                raise ConfigError("mux_close without a multiplexed group")
            core.pmu.counter(state.slot).deprogram()
            thread.vpmu.free(state.slot)
            thread.slot_saved[state.slot] = None
            thread.mux = None
            return state.rotations, None

        return 1500, action

    # ------------------------------------------------------------------
    # result collection
    # ------------------------------------------------------------------

    def _collect(self) -> RunResult:
        threads = {}
        for tid, t in self.threads.items():
            for name, arr in t.region_ev.items():
                events = t.regions[name].events
                for event in _EVENT_MEMBERS:
                    n = arr[event.index]
                    if n:
                        events[event] = n
            threads[tid] = ThreadResult(
                tid=tid,
                name=t.name,
                started_at=t.started_at,
                finished_at=t.finished_at,
                user_cycles=t.user_cycles,
                kernel_cycles=t.kernel_cycles,
                n_context_switches=t.n_context_switches,
                n_preemptions=t.n_preemptions,
                n_migrations=t.n_migrations,
                n_cross_socket_migrations=t.n_cross_socket_migrations,
                n_syscalls=t.n_syscalls,
                read_restarts=t.read_restarts,
                events_user=_tally_dict(t.ev_user),
                events_kernel=_tally_dict(t.ev_kernel),
                regions=t.regions,
            )
        cores = [
            CoreResult(
                core_id=c.core_id,
                final_time=c.now,
                busy_cycles=c.busy_cycles,
                user_cycles=c.user_cycles,
                kernel_cycles=c.kernel_cycles,
            )
            for c in self.machine.cores
        ]
        self.kernel_counters.n_steals = self.scheduler.n_steals
        return RunResult(
            config=self.config,
            wall_cycles=self.machine.max_time(),
            threads=threads,
            cores=cores,
            kernel=self.kernel_counters,
            locks=self.locks.stats(),
            samples=self.perf.all_samples(),
            trace=self.trace,
        )


def _dispatch_resolve(op: Any, message: str) -> tuple[Callable, Callable]:
    """Slow-path dispatch: find an op's ``(begin, advance)`` handlers up its
    MRO (so op subclasses work), memoize them under the concrete type, or
    fail like the seed did."""
    for cls in type(op).__mro__:
        handlers = _OP_HANDLERS.get(cls)
        if handlers is not None:
            _OP_HANDLERS[type(op)] = handlers
            return handlers
    raise SimulationError(message)


#: Syscall handlers by name (unbound: called with the engine first, so no
#: engine holds a bound method of itself).
_SYSCALLS: dict[str, Callable[..., tuple[int, _SysAction | None]]] = {
    "work": Engine._sys_work,
    "getpid": Engine._sys_getpid,
    "pmc_open": Engine._sys_pmc_open,
    "pmc_close": Engine._sys_pmc_close,
    "perf_open": Engine._sys_perf_open,
    "perf_read": Engine._sys_perf_read,
    "perf_close": Engine._sys_perf_close,
    "papi_read": Engine._sys_papi_read,
    "wait_key": Engine._sys_wait_key,
    "wake_key": Engine._sys_wake_key,
    "mux_open": Engine._sys_mux_open,
    "mux_read": Engine._sys_mux_read,
    "mux_close": Engine._sys_mux_close,
}

#: ``(begin, advance)`` handlers per op type: ``begin`` sets up an op's
#: first phase when it is fetched, ``advance`` runs as each phase finishes.
_OP_HANDLERS: dict[type, tuple[Callable, Callable]] = {
    ops.Compute: (Engine._begin_compute, Engine._adv_compute),
    ops.Rdtsc: (Engine._begin_rdtsc, Engine._adv_rdtsc),
    ops.Rdpmc: (Engine._begin_rdpmc, Engine._adv_rdpmc),
    ops.RdpmcDestructive: (
        Engine._begin_rdpmc_destructive, Engine._adv_rdpmc_destructive
    ),
    ops.PmcReadBegin: (Engine._begin_pmc_read_begin, Engine._adv_pmc_read_begin),
    ops.PmcReadEnd: (Engine._begin_pmc_read_end, Engine._adv_pmc_read_end),
    ops.LoadVAccum: (Engine._begin_load_vaccum, Engine._adv_load_vaccum),
    ops.PmcSafeRead: (Engine._begin_pmc_safe_read, Engine._adv_pmc_safe_read),
    ops.PmcUnsafeRead: (
        Engine._begin_pmc_unsafe_read, Engine._adv_pmc_unsafe_read
    ),
    ops.RegionBegin: (Engine._begin_region, Engine._adv_region_begin),
    ops.RegionEnd: (Engine._begin_region, Engine._adv_region_end),
    ops.LockAcquire: (Engine._begin_lock_acquire, Engine._adv_lock_acquire),
    ops.LockRelease: (Engine._begin_lock_release, Engine._adv_lock_release),
    ops.Syscall: (Engine._begin_syscall_op, Engine._adv_syscall),
    ops.SpawnThread: (Engine._begin_spawn, Engine._adv_spawn),
    ops.JoinThread: (Engine._begin_join, Engine._adv_join),
    ops.Sleep: (Engine._begin_sleep, Engine._adv_sleep),
    ops.YieldCpu: (Engine._begin_yield, Engine._adv_yield),
}


def run_program(
    specs: list[ThreadSpec],
    config: SimConfig | None = None,
    lower: Callable[[], Any] | None = None,
) -> RunResult:
    """Convenience: build an engine, run the threads, return the results.

    ``lower`` is accepted for callers that still pass it and is ignored:
    the results are the same with or without it.
    """
    return Engine(config).run(specs)
