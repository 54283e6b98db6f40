"""The engine's machinery below the op handlers.

:class:`EngineBase` holds one run's state and the mechanisms every op
shares: thread lifecycle, the switch-out half of scheduling, counter
virtualization, PMIs, fault injection hooks, exact accounting, the whole
user phase and result collection. The module also defines the engine-side
thread and op state (:class:`SimThread`, :class:`_OpExec`) and the frame
recipes of the one-piece commits. :class:`repro.sim.engine.Engine` adds the
main loop, dispatch and the op handlers; see that module for the
determinism rules.

Macro-stepping
--------------
When a thread is alone on its core inside a long preemptible compute phase,
the piece-by-piece loop degenerates to: run to the slice boundary, take a
timer tick, extend the slice, repeat. The macro-stepping fast path
(:meth:`EngineBase._try_macro_step`) recognises this and accrues many such
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
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.common.config import SimConfig
from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import RandomStream
from repro.faults import kinds as fk
from repro.obs import runtime as obs_runtime
from repro.obs import trace as tr
from repro.obs.trace import TraceBus
from repro.hw.events import (
    KEEP,
    KERNEL_RATES,
    SHIFT,
    Domain,
    Event,
    EventRates,
    events_at,
    events_in,
    lane,
)
from repro.hw.machine import Core, Machine
from repro.hw.pmu import PlanEntry
from repro.kernel.futex import FutexTable
from repro.kernel.locks import LockRegistry
from repro.kernel.perf import PerfFd, PerfSubsystem, SampleRecord
from repro.kernel.scheduler import Scheduler
from repro.kernel.vpmu import MuxState, SlotSpec, VirtualPmu
from repro.sim import ops
from repro.sim.program import ThreadContext
from repro.sim.syscalls import mux_rotate
from repro.sim.results import (
    CoreResult,
    KernelCounters,
    RegionTruth,
    RunResult,
    ThreadResult,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector


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

#: Enum members in definition order, for unpacking tallies into dicts.
_EVENT_MEMBERS = tuple(Event)

#: Kernel cycles of a Sleep's body phase (the nanosleep path up to the block).
_SLEEP_BODY = 900


def _frame_recipe(phases: tuple[tuple[PlanEntry, int], ...]) -> tuple:
    """Accrual recipe of a frame: a fixed run of ``(entry, cycles)``
    sub-phases of one domain, each accruing from its own cycle 0, so the
    frame adds the sum of ``events_in(0, cycles)`` over its sub-phases and
    k frames add k times that.

    Returns ``(cycles, tally, packed, counts, last)``: ``cycles`` the
    sub-phases' sum, ``tally`` the packed tally they add (see
    :func:`repro.hw.events.events_at`; lane 0 is ``cycles``), ``packed`` the
    first entry's packed multiplier, ``counts`` one ``(counter, mask, ppm,
    n)`` per counter a sub-phase's plan names, and ``last`` the last
    sub-phase's cycles. ``n`` is the summed add; ``ppm`` is the rate in the
    first entry (0 if it has none). ``packed`` and ``ppm`` let a caller add
    one more first-entry sub-phase of variable length (a syscall's body).
    The recipe depends on nothing but the sub-phases, so :func:`_frame`
    stores it on the first entry."""
    first = phases[0][0]
    tally = 0
    ctr = {index: [c, mask, ppm, 0] for index, c, ppm, mask in first[1]}
    for entry, cycles in phases:
        tally += events_at(entry[0].packed, cycles)
        for index, c, ppm, mask in entry[1]:
            got = ctr.get(index)
            if got is None:
                got = ctr[index] = [c, mask, 0, 0]
            got[3] += (cycles * ppm) // 1_000_000
    return (
        sum(cycles for _entry, cycles in phases),
        tally,
        first[0].packed,
        tuple(tuple(got) for got in ctr.values()),
        phases[-1][1],
    )


def _frame(
    entry: PlanEntry,
    cycles: tuple[int, ...],
    entries: tuple[PlanEntry, ...] | None = None,
) -> tuple:
    """The :func:`_frame_recipe` of the sub-phases ``zip(entries, cycles)``
    (every one on ``entry`` when ``entries`` is None), memoized on
    ``entry`` under the ``cycles`` tuple. Only one call site builds the
    frames of a given first entry with other entries (a lock's spin round),
    so the cycle tuple names the frame."""
    recipes = entry[2]
    frame = recipes.get(cycles)
    if frame is None:
        frame = recipes[cycles] = _frame_recipe(
            tuple(zip(entries or (entry,) * len(cycles), cycles))
        )
    return frame


def _tally_dict(tally: int) -> dict[Event, int]:
    """Unpack a packed tally into the result-facing Event dict (its non-zero
    lanes, in Event order)."""
    out = {}
    for e in _EVENT_MEMBERS:
        n = lane(tally, e)
        if n:
            out[e] = n
    return out


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
        #: per-region packed event tallies (user domain; unpacked into
        #: RegionTruth.events at collection time)
        self.region_ev: dict[str, int] = {}
        self.owned_locks: set[str] = set()
        self.profiler = None
        #: packed event tallies per domain (see repro.hw.events.events_at)
        self.ev_user = 0
        self.ev_kernel = 0
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
        event = spec.event
        mask = event.lane_mask
        total = 0
        if spec.count_user:
            total += self.ev_user & mask
        if spec.count_kernel:
            total += self.ev_kernel & mask
        return total >> event.lane_shift

    def slot_truth_since_open(self, idx: int, spec: SlotSpec) -> int:
        """Ground truth relative to when the slot was programmed — what a
        counter that started at zero at open time should read now."""
        return self.slot_truth(spec) - self.slot_truth_base[idx]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimThread {self.tid} {self.name!r} {self.state.value}>"


class EngineBase:
    """State and shared mechanisms of one simulation run (see
    :class:`repro.sim.engine.Engine`)."""

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
        self._n_steps = 0
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
        # single is-None branch on unfaulted runs, which never load the
        # injector module.
        fault_plan = self.config.fault_plan
        self._faults: FaultInjector | None = None
        if fault_plan:
            from repro.faults.injector import FaultInjector

            self._faults = FaultInjector(fault_plan)
        # -- fast path telemetry -----------------------------------------
        self._macro_steps = 0
        self._quanta_batched = 0
        self._fast_reads = 0
        self._whole_syscalls = 0
        self._whole_sleeps = 0
        self._resumed_exits = 0
        self._whole_phases = 0
        self._spin_batches = 0
        self._spin_rounds_batched = 0
        self._bailouts: dict[tuple[str, str], int] = {}
        self._ops_fetched = 0
        # One timer tick's packed kernel tally: each tick is its own phase
        # starting at cycle 0, so k batched ticks accrue exactly k times it
        # (NOT events_at(packed, k*tick)).
        self._tick_events = events_at(KERNEL_RATES.packed, self._costs.timer_tick)
        # -- one-piece commits: the cycle tuples of their frames ----------
        # (see _frame_recipe). Kernel frames: a syscall's entry and exit
        # around its body, and a Sleep's entry and body up to the block. A
        # contended lock's spin round: the spin phase, then the CAS retry.
        # A composite read per protocol: the whole read, and its tail, the
        # phases after the rdpmc, whose adds the rdpmc did not see.
        c = self._costs
        self._syscall_frame = (c.syscall_entry, c.syscall_exit)
        self._sleep_frame = (c.syscall_entry, _SLEEP_BODY)
        self._spin_round = (c.spin_quantum, c.cas)
        self._read_frames = {
            "safe": (
                (c.pmc_call_overhead, c.pmc_read_begin, c.pmc_load_accum,
                 c.rdpmc, c.pmc_read_end, c.pmc_store_result),
                (c.pmc_read_end, c.pmc_store_result),
            ),
            "unsafe": (
                (c.pmc_call_overhead, c.pmc_load_accum, c.rdpmc,
                 c.pmc_store_result),
                (c.pmc_store_result,),
            ),
        }
        # -- main-loop actor selection ----------------------------------
        # A heap of (now, core_id) holding exactly the unparked cores other
        # than the acting one, each at its clock: only the acting core
        # parks or moves its clock, and _make_ready pushes a core once, as
        # it unparks it. So no entry ever goes stale, and a 1-core run is
        # the same algorithm on a heap of at most one entry.
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
                        result: RunResult) -> dict[str, float]:
        """The run's self-telemetry, sorted by name: counters taken from
        totals the run kept anyway (one pass per run, nothing per simulated
        event), the gauges, and the engine-run and collect wall timers."""
        k = self.kernel_counters
        threads = self.threads.values()
        out: dict[str, float] = {
            "sim_events": self._n_steps,
            "context_switches": k.n_context_switches,
            "preemptions": sum(t.n_preemptions for t in threads),
            "pmis": k.n_pmis,
            "counter_overflows": k.n_counter_overflows,
            "timer_ticks": k.n_timer_ticks,
            "syscalls": k.syscall_total(),
            "futex_waits": k.n_futex_waits,
            "futex_wakes": k.n_futex_wakes,
            "samples": k.n_samples,
            "steals": k.n_steals,
            "read_restarts": sum(t.read_restarts for t in threads),
            "threads": len(self.threads),
            "trace_events": len(self.obs.events),
            "macro_steps": self._macro_steps,
            "quanta_batched": self._quanta_batched,
            "fast_reads": self._fast_reads,
            "whole_syscalls": self._whole_syscalls,
            "whole_sleeps": self._whole_sleeps,
            "resumed_exits": self._resumed_exits,
            "whole_phases": self._whole_phases,
            "spin_batches": self._spin_batches,
            "spin_rounds_batched": self._spin_rounds_batched,
            "fastpath_bailouts": sum(self._bailouts.values()),
            "ops_fetched": self._ops_fetched,
        }
        for (path, reason), n in self._bailouts.items():
            out[f"fastpath_bailout.{path}.{reason}"] = n
        if self._faults is not None:
            f = self._faults
            # Service faults the workload never resolved become misses now,
            # before the ledger counters freeze into the run's metrics.
            f.flush_service_pending()
            out["faults.injected"] = f.total_injected
            for kind, n in f.injected.items():
                out["faults.injected." + kind] = n
            out["faults.detected"] = f.detected
            out["faults.missed"] = f.missed
        out["sim_cycles"] = result.wall_cycles
        if run_wall > 0:
            out["sim_events_per_sec"] = self._n_steps / run_wall
            out["sim_cycles_per_sec"] = result.wall_cycles / run_wall
        out["wall.engine_run_seconds"] = run_wall
        out["wall.engine_run_calls"] = 1
        out["wall.collect_seconds"] = collect_wall
        out["wall.collect_calls"] = 1
        return dict(sorted(out.items()))

    def thread(self, tid: int) -> SimThread:
        try:
            return self.threads[tid]
        except KeyError:
            raise SimulationError(f"no thread with tid {tid}") from None

    def thread_clock(self, thread: SimThread) -> int:
        """Best-known current time for a thread (ground-truth peek)."""
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
        runqueues = self.scheduler.runqueues
        idle = [
            c.core_id
            for c in self.machine.cores
            if (c.parked or c.current_tid is None) and not runqueues[c.core_id]
        ]
        core_id = self.scheduler.place(thread.core_id, idle)
        self.scheduler.enqueue(thread.tid, core_id)
        core = self.machine.cores[core_id]
        if core.parked:
            core.parked = False
            if at > core.now:
                core.now = at
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

    def _switch_out(
        self, core: Core, thread: SimThread, requeue: bool,
        preempted: bool = False, front: bool = False,
    ) -> None:
        faults = self._faults
        if faults is not None:
            spec = faults.fire(fk.DELAY_SWAP, core, thread)
            if spec is not None:
                # The save path stalls while the outgoing thread's counters
                # are still live: the extra kernel cycles land in both the
                # counters and the ground truth, so exactness must survive.
                delay = spec.arg if spec.arg else 600
                self._account_kernel(core, thread, delay)
                self._fault_event(core, thread, fk.DELAY_SWAP, delay)
        active = thread.vpmu.active_indices()
        n_active = len(active)
        if n_active and not self.config.kernel.hw_thread_virtualization:
            self._account_kernel(
                core, thread, self._costs.ctx_save_per_counter * n_active
            )
        self._fold_counters(core, thread, active)
        if faults is not None:
            spec = faults.fire(fk.DUP_SWAP, core, thread)
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
                self._fold_counters(core, thread, active)
                self._fault_event(core, thread, fk.DUP_SWAP, n_active)
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
            spec = self._faults.fire(fk.SHRINK_COUNTER, core, thread)
            if spec is not None:
                self._shrink_counters(core, thread, spec.arg)
        if thread.mux is not None and len(thread.mux.specs) > 1:
            self._account_kernel(core, thread, 2 * self._costs.wrmsr)
            mux_rotate(core, thread)
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

    def _program_counters(
        self, core: Core, thread: SimThread, active: list[int]
    ) -> None:
        """Switch-in half of virtualization over the thread's ``active``
        slot indices (``vpmu.active_indices()``, read once per switch)."""
        counters = core.pmu.counters
        slots = thread.vpmu.slots
        for idx in active:
            spec = slots[idx]
            ctr = counters[idx]
            ctr.program(spec.event, spec.count_user, spec.count_kernel)
            if spec.mode == "count":
                ctr.write(0)
            else:
                saved = thread.slot_saved[idx]
                if saved is None:
                    saved = max(0, ctr.threshold - spec.period)
                ctr.write(saved)

    def _fold_counters(
        self, core: Core, thread: SimThread, active: list[int]
    ) -> None:
        """Switch-out half of virtualization over the ``active`` slots."""
        counters = core.pmu.counters
        vpmu = thread.vpmu
        for idx in active:
            ctr = counters[idx]
            if ctr.overflow_pending:
                self._apply_overflow(core, thread, idx)
            spec = vpmu.slots[idx]
            if spec.mode == "count":
                vpmu.fold(idx, ctr.read())
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
                    tr.FAULT_DETECT, fk.DROP_PMI,
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
            spec = faults.fire(fk.DROP_PMI, core, thread)
            if spec is not None:
                # The interrupt is lost before the handler runs: no cost, no
                # overflow application, no interruption flag. The hardware
                # latch survives, so the overflow is recovered at redelivery
                # (arg cycles) or at the next virtualization fold — and the
                # safe read's pending-overflow check still catches it.
                if spec.arg > 0:
                    core.pmi_due_at = core.now + spec.arg
                faults.note_dropped_pmi(core.core_id)
                self._fault_event(core, thread, fk.DROP_PMI, spec.arg)
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
            spec = faults.fire(fk.REPEAT_PMI, core, thread)
            if spec is not None:
                # A spurious second interrupt right behind the real one: the
                # handler runs again (full dispatch cost, nothing pending to
                # apply) and mid-read it spuriously flags an interruption,
                # forcing a harmless restart.
                self.kernel_counters.n_pmis += 1
                self._account_kernel(core, thread, self._costs.pmi_handler)
                if thread.in_pmc_read:
                    thread.pmc_read_interrupted = True
                self._fault_event(core, thread, fk.REPEAT_PMI, tuple(pending))

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
        plans and the frames on their entries embed the old mask, so every
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
        self._fault_event(core, thread, fk.SHRINK_COUNTER, width)

    def _arm_pmi(self, core: Core, thread: SimThread) -> None:
        """Schedule the PMI for a just-latched overflow after the configured
        skid; fault injection may amplify the skid or align the delivery to
        the end of the current timeslice."""
        skid = self._costs.pmi_skid
        faults = self._faults
        if faults is not None:
            spec = faults.fire(fk.AMPLIFY_SKID, core, thread)
            if spec is not None:
                if spec.arg == fk.ALIGN_SLICE:
                    if (
                        core.slice_ends_at is not None
                        and core.slice_ends_at > core.now
                    ):
                        skid = core.slice_ends_at - core.now
                else:
                    skid *= spec.arg
                self._fault_event(core, thread, fk.AMPLIFY_SKID, skid)
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

        ``entry`` is the phase's ``(rates, plan, frames)`` PMU plan entry
        (:meth:`Pmu.plan_entry`), resolved by the caller; its plan is ``()``
        when no counter is programmed. The tallies take every event of the
        window, CYCLES included, in one packed add (the inlined
        ``events_at(packed, after) - events_at(packed, before)``).
        """
        chunk = after - before
        core.now += chunk
        core.busy_cycles += chunk
        packed = entry[0].packed
        n = ((after * packed) & KEEP) >> SHIFT
        if before:
            n -= ((before * packed) & KEEP) >> SHIFT
        region_stack = thread.region_stack
        if domain is _USER:
            core.user_cycles += chunk
            thread.user_cycles += chunk
            thread.ev_user += n
            if region_stack:
                thread.region_ev[region_stack[-1]] += n
        else:
            core.kernel_cycles += chunk
            thread.kernel_cycles += chunk
            thread.ev_kernel += n
            if region_stack:
                thread.regions[region_stack[-1]].kernel_cycles += chunk
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

    def _charge_frame(
        self,
        core: Core,
        thread: SimThread,
        domain: Domain,
        frame: tuple,
        path: str,
        bound: int | None,
        horizon: int | None = None,
        k: int = 1,
        body: int = 0,
    ) -> int:
        """The one fold gate: charge up to ``k`` applications of ``frame``
        (see :func:`_frame_recipe`) as one accrual and return how many, or
        count the bail ``(path, reason)`` and return 0 with every tally,
        counter and clock as it was.

        ``bound`` is the slice end (None when the commit sets its own
        slice); commits that touch state other cores read pass the
        ``horizon``. The reasons, in order: ``pmi_due``; ``slice``, unless a
        user frame ends by ``bound`` or a kernel frame's last sub-phase
        starts before it; ``horizon``, unless that point is before
        ``horizon``; ``max_cycles``, when a kernel frame's last sub-phase
        starts past the cap; ``wrap``, when a counter would pass its mask
        (the PMI a wrap arms is the stage machine's). A user frame shrinks
        ``k`` to the applications that pass. A kernel frame may carry a
        ``body``-cycle sub-phase of its first entry (a syscall's body). The
        charge adds what one :meth:`_account` per sub-phase adds.
        """
        if core.pmi_due_at is not None:
            return self._bail(path, "pmi_due")
        cycles, tally, packed, counts, last = frame
        now = core.now
        if domain is _USER:
            if bound is not None:
                room = bound - now
                if room < k * cycles:
                    if room < cycles:
                        return self._bail(path, "slice")
                    k = room // cycles
            if horizon is not None:
                room = horizon - now - 1
                if room < k * cycles:
                    if room < cycles:
                        return self._bail(path, "horizon")
                    k = room // cycles
        else:
            at = now + cycles + body - last
            if bound is not None and at >= bound:
                return self._bail(path, "slice")
            if horizon is not None and at >= horizon:
                return self._bail(path, "horizon")
            if at > self._max_cycles:
                return self._bail(path, "max_cycles")
        for counter, mask, ppm, n in counts:
            room = mask - counter.value
            if body:
                room -= (body * ppm) // 1_000_000
            if room < k * n:
                if room < n:
                    return self._bail(path, "wrap")
                k = room // n
        total = k * cycles + body
        core.now += total
        core.busy_cycles += total
        n = tally if k == 1 else k * tally
        if body:
            n += ((body * packed) & KEEP) >> SHIFT
        region_stack = thread.region_stack
        if domain is _USER:
            core.user_cycles += total
            thread.user_cycles += total
            thread.ev_user += n
            if region_stack:
                thread.region_ev[region_stack[-1]] += n
        else:
            core.kernel_cycles += total
            thread.kernel_cycles += total
            thread.ev_kernel += n
            if region_stack:
                thread.regions[region_stack[-1]].kernel_cycles += total
        if body:
            for counter, _mask, ppm, m in counts:
                counter.value += k * m + (body * ppm) // 1_000_000
        else:
            for counter, _mask, _ppm, m in counts:
                counter.value += k * m
        return k

    def _bail(self, path: str, reason: str) -> bool:
        """Count a ``(path, reason)`` bailout; always False (for `return` chaining)."""
        self._bailouts[path, reason] = self._bailouts.get((path, reason), 0) + 1
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
                return self._bail("macro", "fault_tick_armed")
            if faults.fire(fk.FORCE_BAILOUT, core, thread, point="macro"):
                self._fault_event(core, thread, fk.FORCE_BAILOUT, "macro")
                return self._bail("macro", "fault_forced")
        if core.pmi_due_at is not None:
            return self._bail("macro", "pmi_due")
        if self.scheduler.queue_length(core.core_id) > 0:
            return self._bail("macro", "runqueue")
        mux = thread.mux
        if mux is not None and len(mux.specs) > 1:
            return self._bail("macro", "mux")
        if ex.phase_domain is not _USER:  # pragma: no cover - defensive
            return self._bail("macro", "domain")
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
                return self._bail("macro", "horizon")
            k_h = (horizon - now - head - 1) // stride + 1
            if k_h < k:
                k = k_h
        if k < 1:
            return self._bail("macro", "horizon")
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
                return self._bail("macro", "wrap")
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
        u_end = consumed + user_cycles
        packed = ex.phase_rates.packed
        n = (((u_end * packed) & KEEP) >> SHIFT) - (
            ((consumed * packed) & KEEP) >> SHIFT
        )
        thread.ev_user += n
        thread.ev_kernel += k * self._tick_events
        if thread.region_stack:
            name = thread.region_stack[-1]
            thread.region_ev[name] += n
            thread.regions[name].kernel_cycles += kernel_cycles
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

    def _try_whole_phase(
        self, core: Core, thread: SimThread, cycles: int, rates: EventRates
    ) -> bool:
        """Charge a preemptible ``cycles``-long user phase of ``rates``
        inside its op's begin handler, when the stage machine would run it
        as one chunk; else bail as path ``phase`` with the fold gate's
        user-frame reasons (``pmi_due``, ``slice``, ``wrap``; see
        :meth:`_charge_frame`) and leave the stage machine unchanged. The
        caller then finishes the op as its advance would.

        The stage machine runs such a phase's fetch, accrual and advance in
        one piece with nothing in between, so neither the horizon nor
        tracing needs a check. Phase lengths vary, so the phase stays on
        :meth:`_account` (a frame per length would grow without bound).
        """
        if core.pmi_due_at is not None:
            return self._bail("phase", "pmi_due")
        if core.slice_ends_at - core.now < cycles:
            return self._bail("phase", "slice")
        if cycles:
            entry = core.pmu.plan_entry(rates, _USER)
            for _index, ctr, ppm, mask in entry[1]:
                if ctr.value + (cycles * ppm) // 1_000_000 > mask:
                    return self._bail("phase", "wrap")
            self._account(core, thread, _USER, entry, 0, cycles)
        self._whole_phases += 1
        return True

    def _complete(self, thread: SimThread, value: Any) -> None:
        thread.send_value = value
        thread.cur = None

    def _throw(self, thread: SimThread, exc: BaseException) -> None:
        thread.throw_exc = exc
        thread.cur = None

    # ------------------------------------------------------------------
    # result collection
    # ------------------------------------------------------------------

    def _collect(self) -> RunResult:
        threads = {}
        for tid, t in self.threads.items():
            for name, tally in t.region_ev.items():
                t.regions[name].events.update(_tally_dict(tally))
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
            trace=self.obs.events,
        )
