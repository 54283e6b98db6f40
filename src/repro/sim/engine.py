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

:class:`Engine` holds the main loop, dispatch and the op handlers. It
builds on :class:`repro.sim.base.EngineBase` (run state, virtualization,
PMIs, accounting) and calls the syscall handlers of
:mod:`repro.sim.syscalls`.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable

from repro.common.config import SimConfig
from repro.common.errors import ConfigError, CounterError, SimulationError
from repro.faults import kinds as fk
from repro.obs import trace as tr
from repro.hw.events import (
    KERNEL_RATES,
    LIBRARY_RATES,
    SPIN_RATES,
    cycles_until_count,
    lane,
)
from repro.hw.machine import Core
from repro.kernel.locks import LockState
from repro.sim import ops
from repro.sim.program import ThreadSpec
from repro.sim.syscalls import SYSCALLS as _SYSCALLS, SysAction
from repro.sim.results import RegionTruth, RunResult
from repro.sim.base import (
    EngineBase,
    SimThread,
    ThreadState,
    _KERNEL,
    _SLEEP_BODY,
    _USER,
    _OpExec,
    _frame,
)


class Engine(EngineBase):
    """Runs one simulation to completion."""

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
        result.metrics = self._record_metrics(run_wall, collect_wall, result)
        if self._collector is not None:
            self._collector.record_run(
                result,
                wall_seconds=run_wall + collect_wall,
                sim_events=self._n_steps,
            )
        return result

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
        n_steps = 0
        core: Core | None = None  # the actor, off core_heap while it acts
        while self.live_count > 0:
            # -- pick the acting core: smallest (now, core_id) ------------
            # core_heap holds the other unparked cores at their clocks; the
            # previous actor goes back on it unless it parked. Due sleepers
            # (wake time <= the would-be actor's clock) are made ready first.
            if core is not None and not core.parked:
                heappush(core_heap, (core.now, core.core_id))
            while sleep_heap and (
                not core_heap or sleep_heap[0][0] <= core_heap[0][0]
            ):
                wake_at, _, tid = heappop(sleep_heap)
                self._make_ready(threads[tid], at=wake_at)
            core = cores[heappop(core_heap)[1]] if core_heap else None
            horizon = core_heap[0][0] if core_heap else None
            if sleep_heap and (horizon is None or sleep_heap[0][0] < horizon):
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
            # it again; chaining skips that, one piece per _step call. This
            # is the engine's only chaining path. Any event that could
            # create an earlier actor (unpark, sleep-heap push) sets
            # _chain_break.
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
        self._n_steps = n_steps

    def _step(self, core: Core) -> None:
        """Run one engine step of ``core``: service a due PMI or timer tick,
        or execute exactly one piece of the current thread's op — the fetch
        (with its begin handler), one phase chunk, and the op's advance once
        its phase is done. The main loop counts each call as one sim event
        and alone decides whether the same core runs the next piece. The
        piece execution is inlined here (rather than delegated through
        per-piece helper calls) because it runs once per simulated micro-op
        and per-call overhead here dominates whole-sweep wall time.
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
        ex = thread.cur
        if ex is None:
            if not self._fetch_next_op(core, thread):
                return
            ex = thread.cur
            # ex is None here only when the op completed inside its begin
            # handler (a fast PMC read, a whole syscall or a whole phase):
            # the fetch was the whole piece.
            if ex is None:
                return
        consumed = ex.phase_consumed
        cycles = ex.phase_cycles
        if consumed < cycles:
            remaining = cycles - consumed
            entry = core.pmu.plan_entry(ex.phase_rates, ex.phase_domain)
            if ex.phase_preemptible:
                # Macro-step candidate: a preemptible phase that outlives
                # the current timeslice (i.e. the slow path would hit at
                # least one timer tick before the phase ends).
                if (
                    remaining > core.slice_ends_at - now
                    and self._try_macro_step(core, thread, ex, entry)
                ):
                    return
                # limit only ever shrinks from `remaining`, so the final
                # chunk is max(1, limit) — identical to
                # max(1, min(remaining, limit)).
                limit = remaining
                bound = core.slice_ends_at
                if bound is not None and bound - now < limit:
                    limit = bound - now
                bound = core.pmi_due_at
                if bound is not None and bound - now < limit:
                    limit = bound - now
                # Split at the first counter-overflow crossing. A counter
                # that gains fewer than `need` events in the next `limit`
                # cycles cannot cross within them, so the pre-check skips
                # its cycles_until_count exactly.
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
            self._account(core, thread, ex.phase_domain, entry, consumed, after)
            ex.phase_consumed = after
            if after < cycles:
                return
        ex.adv(self, core, thread, ex)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _dispatch(self, core: Core) -> None:
        """Run the next queued thread on the free ``core``, or park it.

        The piece that frees a core by a block dispatches it in the same
        piece when nothing else can act first (see _try_whole_sleep);
        otherwise the dispatch is a piece of its own. A thread switched in
        with only its kernel exit phase left may finish that phase in the
        switch-in (see _try_resumed_exit)."""
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
        active = thread.vpmu.active_indices()
        self._program_counters(core, thread, active)
        cost = self._costs.context_switch
        if crossed_socket:
            cost += self._costs.cross_socket_migration
        if active and not self.config.kernel.hw_thread_virtualization:
            cost += self._costs.ctx_restore_per_counter * len(active)
        ex = thread.cur
        if ex is not None and self._try_resumed_exit(core, thread, ex, cost):
            return
        self._account_kernel(core, thread, cost)
        core.slice_ends_at = core.now + self.config.kernel.timeslice_cycles

    # ------------------------------------------------------------------
    # op execution
    # ------------------------------------------------------------------

    def _fetch_next_op(self, core: Core, thread: SimThread) -> bool:
        """Fetch the thread's next op and run its begin handler; False when
        the piece is over (the thread finished or left the core)."""
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
        # a begin that takes the thread off the core (a whole sleep)
        # returns True: the piece is over
        return not begin(self, core, thread, ex)

    # -- op begin ----------------------------------------------------------
    # Op handling dispatches on type(op) through one class-level table of
    # (begin, advance) pairs built after the class body (subclasses resolve
    # through the MRO on first sight and are memoized), replacing the
    # seed's isinstance chains.

    def _begin_compute(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op = ex.op
        if self._try_whole_phase(core, thread, op.cycles, op.rates):
            self._complete(thread, None)
            return
        ex.stage = "run"
        ex.set_phase(op.cycles, op.rates, _USER, True)

    def _begin_rdtsc(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        cycles = self._costs.rdtsc
        if self._try_whole_phase(core, thread, cycles, LIBRARY_RATES):
            self._complete(thread, core.now)
            return
        ex.stage = "run"
        ex.set_phase(cycles, LIBRARY_RATES, _USER, True)

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

    def _begin_pmc_read(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        if not self._try_fast_read(core, thread, ex):
            ex.stage = "call"
            ex.set_phase(
                self._costs.pmc_call_overhead, LIBRARY_RATES, _USER, True
            )

    def _begin_region(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.stage = "run"
        hook = self._costs.instrument_hook if thread.profiler is not None else 0
        ex.set_phase(hook, LIBRARY_RATES, _USER, True)

    def _begin_lock_acquire(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        # A free lock is taken by the first CAS: commit it here (see
        # _try_whole_phase). The lock word read now is the one the CAS
        # advance would read, since nothing runs between the two.
        lock = self.locks.get(ex.op.lock)
        cas = self._costs.cas
        if lock.owner is None and self._try_whole_phase(
            core, thread, cas, LIBRARY_RATES
        ):
            self._lock_taken(core, thread, lock, cas, False, False)
            return
        ex.stage = "cas"
        ex.t0 = core.now
        ex.spin_used = 0
        ex.contended = False
        ex.slept = False
        ex.set_phase(cas, LIBRARY_RATES, _USER, True)

    def _begin_lock_release(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        # With no sleeper to wake, the release is its CAS alone. An
        # unowned release raises after the CAS is charged, as it does in
        # the stage machine.
        lock = self.locks.get(ex.op.lock)
        cas = self._costs.cas
        if lock.n_sleepers == 0 and self._try_whole_phase(
            core, thread, cas, LIBRARY_RATES
        ):
            self._lock_released(core, thread, lock)
            self._complete(thread, None)
            return
        ex.stage = "cas"
        ex.set_phase(cas, LIBRARY_RATES, _USER, True)

    def _begin_syscall_op(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op = ex.op
        name = op.name
        handler = _SYSCALLS.get(name)
        if handler is None:
            raise SimulationError(f"unknown syscall {name!r}")
        table = self.kernel_counters.n_syscalls
        table[name] = table.get(name, 0) + 1
        # The handler runs here rather than at the end of the entry phase.
        # Nothing else runs on this thread in between, and every handler
        # reads only its args, static config and this thread's own state,
        # so it returns (or raises) exactly what it would there.
        try:
            body, action = handler(self, core, thread, op.args)
        except Exception as raised:  # delivered as the syscall's "errno"
            self._begin_kernel_path(core, thread, ex, name, 0, None)
            ex.exc = raised
            return
        if action is None and self._try_whole_syscall(core, thread, body):
            thread.n_syscalls += 1
            return
        self._begin_kernel_path(core, thread, ex, name, body, action)

    def _begin_spawn(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op: ops.SpawnThread = ex.op
        table = self.kernel_counters.n_syscalls
        table["clone"] = table.get("clone", 0) + 1

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            child = self._create_thread(op.factory, op.name, at=core.now)
            self._make_ready(child, at=core.now)
            return child.tid, None

        self._begin_kernel_path(core, thread, ex, "clone", 2600, action)

    def _begin_join(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        tid = ex.op.tid

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            target = self.threads.get(tid)
            if target is None:
                raise SimulationError(f"join: no thread {tid}")
            if target.state is ThreadState.FINISHED:
                return None, None
            return None, ("join", tid)

        self._begin_kernel_path(core, thread, ex, "join", 600, action)

    def _begin_sleep(self, core: Core, thread: SimThread, ex: _OpExec) -> bool:
        self._begin_kernel_path(
            core, thread, ex, "sleep", _SLEEP_BODY, _sleep_action
        )
        return self._try_whole_sleep(core, thread, ex)

    def _begin_yield(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        self._begin_kernel_path(core, thread, ex, "yield", 400, None)

    def _begin_kernel_path(
        self,
        core: Core,
        thread: SimThread,
        ex: _OpExec,
        name: str,
        body: int,
        action: SysAction | None,
    ) -> None:
        """Common begin of every syscall-class op: count it, trace it and
        set up the entry phase of :meth:`_adv_syscall`'s kernel path, with
        a ``body``-cycle body phase whose end runs ``action``."""
        thread.n_syscalls += 1
        ex.stage = "entry"
        ex.sys_name = name
        ex.body = body
        ex.action = action
        ex.exc = None
        ex.result = None
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.SYSCALL_ENTER, name
            )
        ex.set_phase(
            self._costs.syscall_entry, KERNEL_RATES, _KERNEL, False
        )

    # -- op advance ----------------------------------------------------------

    def _adv_compute(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        self._complete(thread, None)

    def _adv_rdtsc(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        self._complete(thread, core.now)

    # -- the LiMiT read protocol --------------------------------------------
    # Open the window, load the accumulator, rdpmc, then the verdict (and a
    # restart when it fails). Each step is written once and shared by the
    # op-by-op handlers (PmcReadBegin / LoadVAccum / Rdpmc / PmcReadEnd)
    # and the composite reads. PmcSafeRead / PmcUnsafeRead run the whole
    # protocol as one op, on one of two paths chosen per attempt:
    #
    # * fast path (_try_fast_read) — when nothing can interrupt the window
    #   (not tracing, and the fold gate passes: see _charge_frame), the
    #   whole read commits inside the op's begin handler as one frame, so
    #   fetch and read are one piece;
    # * stage machine (_adv_pmc_read) — otherwise, the op steps through
    #   phases with exactly the piece boundaries of the op-by-op form
    #   (Compute / PmcReadBegin / LoadVAccum / Rdpmc / PmcReadEnd /
    #   Compute), so interrupted reads restart, fault and undercount
    #   identically. The unsafe protocol skips the window.

    def _open_window(self, core: Core, thread: SimThread) -> None:
        """Enter the read critical region: until the verdict, a context
        switch or PMI flags the read interrupted."""
        thread.in_pmc_read = True
        thread.pmc_read_interrupted = False
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.PMC_READ_BEGIN
            )

    def _window_verdict(self, core: Core, thread: SimThread) -> bool:
        """Leave the read critical region: True when nothing interrupted
        the read and no overflow is latched; a False counts a restart."""
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
        return ok

    def _load_vaccum(self, thread: SimThread, index: int) -> int | None:
        """Load slot ``index``'s virtual accumulator, or throw the
        CounterError into the thread and return None."""
        try:
            return thread.vpmu.read_accumulator(index)
        except CounterError as exc:
            self._throw(thread, exc)
            return None

    def _rdpmc(self, core: Core, thread: SimThread, index: int) -> int | None:
        """Execute rdpmc on slot ``index`` and note the slot's truth, or
        throw the CounterError into the thread and return None."""
        try:
            value = core.pmu.rdpmc(index, from_user=True)
        except CounterError as exc:
            self._throw(thread, exc)
            return None
        self._note_rdpmc_truth(thread, index)
        return value

    def _note_rdpmc_truth(self, thread: SimThread, index: int) -> None:
        """Note the ground truth of slot ``index`` as an rdpmc of it reads
        now (``last_rdpmc_truth``). A thread has one slot per hardware
        counter, so any index rdpmc accepts is a slot index."""
        spec = thread.vpmu.slots[index]
        if spec is not None:
            thread.last_rdpmc_truth = thread.slot_truth_since_open(index, spec)

    def _adv_pmc_read_begin(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        self._open_window(core, thread)
        self._complete(thread, None)

    def _adv_pmc_read_end(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        self._complete(thread, self._window_verdict(core, thread))

    def _adv_load_vaccum(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        value = self._load_vaccum(thread, ex.op.index)
        if value is not None:
            self._complete(thread, value)

    def _adv_rdpmc(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        value = self._rdpmc(core, thread, ex.op.index)
        if value is not None:
            self._complete(thread, value)

    def _try_fast_read(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> bool:
        """Complete a whole composite PMC read inside its begin handler if
        provably uninterruptible.

        All prechecks are side-effect free; any possible interleaving
        (userspace-read fault, bad slot, latched counter overflow, tracing,
        the fold gate's reasons, or, with tick faults armed, another actor
        before the read ends: see :meth:`_tick_horizon`) bails to the
        stage machine, which
        reproduces the historical behaviour exactly. On success the
        committed state — tallies, counters, slot-truth bookkeeping, core
        clocks — is identical to running the uninterrupted stage sequence
        piece by piece, and the op is complete (``thread.cur`` cleared), so
        :meth:`_step` ends the piece at its fetch.
        """
        # Fault hooks come BEFORE the tracing bail: whenever read-targeting
        # faults are armed, traced and untraced runs must take the same
        # stage-machine path, or injection decisions would diverge.
        faults = self._faults
        if faults is not None and faults.reads_armed:
            if faults.fire(fk.FORCE_BAILOUT, core, thread, point="fast_read"):
                self._fault_event(core, thread, fk.FORCE_BAILOUT, "fast_read")
            return self._bail("read", "fault_armed")
        if self._tracing:
            return self._bail("read", "tracing")
        pmu = core.pmu
        if not pmu.user_rdpmc_enabled:
            return self._bail("read", "rdpmc_off")
        index = ex.op.index
        vpmu = thread.vpmu
        slots = vpmu.slots
        counters = pmu.counters
        if not 0 <= index < len(slots):
            return self._bail("read", "bad_slot")
        spec = slots[index]
        if spec is None or not spec.user_readable:
            return self._bail("read", "bad_slot")
        for counter in counters:
            if counter.overflow_pending:
                return self._bail("read", "overflow_pending")
        entry = pmu.plan_entry(LIBRARY_RATES, _USER)
        recipes = entry[2]
        whole, tail_cycles = self._read_frames[ex.op.protocol]
        frame = recipes.get(whole) or _frame(entry, whole)
        horizon = self._tick_horizon() if faults is not None else None
        if not self._charge_frame(
            core, thread, _USER, frame, "read", core.slice_ends_at, horizon
        ):
            return False
        # The whole read is charged as one frame; now take the rdpmc (no
        # rdpmc fault is left, so the counter is read directly). It ran
        # before the read's tail ([end +] store), so back out what the tail
        # added to the slot's counter and, when the slot counts user
        # events, to its ground truth.
        counter = counters[index]
        hw = counter.value
        self._note_rdpmc_truth(thread, index)
        tail = recipes.get(tail_cycles) or _frame(entry, tail_cycles)
        for c, _mask, _ppm, n in tail[3]:
            if c is counter:
                hw -= n
        if spec.count_user:
            thread.last_rdpmc_truth -= lane(tail[1], spec.event)
        self._fast_reads += 1
        self._complete(thread, vpmu.vaccum[index] + hw)
        return True

    def _adv_pmc_read(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        """Stage machine of a composite read. ``stage`` names the phase
        that just finished: ``call``, then ``rb`` (open the window), ``va``,
        ``rd``, ``re`` (the verdict: on to ``st`` or restart at ``rb``) and
        ``st``. The unsafe protocol skips ``rb`` and ``re``."""
        stage = ex.stage
        costs = self._costs
        if stage == "rd":
            hw = self._rdpmc(core, thread, ex.op.index)
            if hw is None:
                return
            ex.hw = hw
            if ex.op.protocol == "safe":
                ex.stage = "re"
                ex.set_phase(costs.pmc_read_end, LIBRARY_RATES, _USER, True)
            else:
                ex.stage = "st"
                ex.set_phase(
                    costs.pmc_store_result, LIBRARY_RATES, _USER, True
                )
        elif stage == "re":
            faults = self._faults
            if faults is not None and not ex.fpc:
                spec = faults.fire(
                    fk.PREEMPT_IN_READ, core, thread,
                    protocol="safe", point=ops.BEFORE_CHECK,
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
                        core, thread, fk.PREEMPT_IN_READ, ops.BEFORE_CHECK
                    )
                    self._switch_out(
                        core, thread, requeue=True, preempted=True, front=True
                    )
                    return
            ok = self._window_verdict(core, thread)
            if faults is not None:
                faults.resolve_safe_check(thread.tid, ok)
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
            self._open_window(core, thread)
            ex.stage = "va"
            ex.set_phase(costs.pmc_load_accum, LIBRARY_RATES, _USER, True)
        elif stage == "va":
            acc = self._load_vaccum(thread, ex.op.index)
            if acc is None:
                return
            ex.acc = acc
            ex.stage = "rd"
            ex.set_phase(costs.rdpmc, LIBRARY_RATES, _USER, True)
            faults = self._faults
            if faults is not None:
                protocol = ex.op.protocol
                spec = faults.fire(
                    fk.PREEMPT_IN_READ, core, thread,
                    protocol=protocol, point=ops.BETWEEN_LOADS,
                )
                if spec is not None:
                    # The classic hazard: accumulator loaded, rdpmc not yet
                    # executed. The forced switch folds the counter, so the
                    # two loads span epochs: a safe read's restart check
                    # must fire, while an unsafe read sums the accumulator
                    # taken before the fold with the counter restarted after
                    # it and silently undercounts (a miss by construction).
                    faults.note_read_hazard(thread.tid, protocol)
                    self._fault_event(
                        core, thread, fk.PREEMPT_IN_READ, ops.BETWEEN_LOADS
                    )
                    self._switch_out(
                        core, thread, requeue=True, preempted=True, front=True
                    )
        elif stage == "call":
            if ex.op.protocol == "safe":
                ex.restarts = 0
                ex.fpc = False
                ex.stage = "rb"
                ex.set_phase(costs.pmc_read_begin, LIBRARY_RATES, _USER, True)
            else:
                ex.stage = "va"
                ex.set_phase(costs.pmc_load_accum, LIBRARY_RATES, _USER, True)
        elif stage == "st":
            self._complete(thread, ex.acc + ex.hw)
        else:  # pragma: no cover - stage machine is closed
            raise SimulationError(
                f"bad {type(ex.op).__name__} stage {stage!r}"
            )

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
            thread.region_ev[op.name] = 0
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
        restarts at phase-relative cycle 0). The fold gate shrinks k to
        those rounds and to the rounds no counter wraps in; the round that
        would wrap is left to the slow path, which raises the PMI mid-phase
        exactly as before. No trace events occur inside the loop, so the
        batch is valid under tracing too.
        """
        faults = self._faults
        if faults is not None and faults.fire(
            fk.FORCE_BAILOUT, core, thread, point="spin"
        ):
            self._fault_event(core, thread, fk.FORCE_BAILOUT, "spin")
            return self._bail("spin", "fault_forced")
        costs = self._costs
        spin_q = costs.spin_quantum
        if spin_q + costs.cas <= 0:  # pragma: no cover - degenerate cost model
            return self._bail("spin", "degenerate")
        spin_used = ex.spin_used
        budget = self.config.locks.spin_limit_cycles - spin_used
        pmu = core.pmu
        spin_entry = pmu.plan_entry(SPIN_RATES, _USER)
        frame = _frame(
            spin_entry, self._spin_round,
            (spin_entry, pmu.plan_entry(LIBRARY_RATES, _USER)),
        )
        k = self._charge_frame(
            core, thread, _USER, frame, "spin", core.slice_ends_at,
            self._horizon, -(-budget // spin_q),  # rounds left in the budget
        )
        if not k:
            return False
        # ---- k failed rounds are charged: re-decide with the same checks
        # the slow path's k-th CAS advance would have made at this state ----
        ex.spin_used = spin_used + k * spin_q
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

    def _lock_taken(
        self,
        core: Core,
        thread: SimThread,
        lock: LockState,
        waited: int,
        contended: bool,
        slept: bool,
    ) -> None:
        """A CAS just took the free ``lock``: record it and finish the
        acquire. Shared by the whole-phase and the stage-machine paths."""
        lock.take(thread.tid, core.now, waited, contended, slept)
        thread.owned_locks.add(lock.name)
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.LOCK_ACQ, lock.name
            )
        self._complete(thread, None)

    def _lock_released(self, core: Core, thread: SimThread, lock: LockState) -> None:
        """A CAS just released ``lock`` (raising LockProtocolError if this
        thread does not own it). Shared by both release paths; the caller
        then wakes a sleeper or completes."""
        lock.release(thread.tid, core.now)
        thread.owned_locks.discard(lock.name)
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.LOCK_REL, lock.name
            )

    def _adv_lock_acquire(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op: ops.LockAcquire = ex.op
        costs = self._costs
        lock = self.locks.get(op.lock)
        stage = ex.stage
        if stage == "cas":
            if not lock.held:
                self._lock_taken(
                    core, thread, lock, core.now - ex.t0, ex.contended, ex.slept
                )
                return
            ex.contended = True
            if ex.spin_used < self.config.locks.spin_limit_cycles:
                if self._try_spin_batch(core, thread, ex):
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
            self._lock_released(core, thread, lock)
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

    # -- kernel paths --------------------------------------------------------
    # Every syscall-class op (Syscall, SpawnThread, JoinThread, Sleep and
    # YieldCpu) runs entry, body and exit phases through one stage machine,
    # _adv_syscall. A Syscall whose handler returns no action changes
    # nothing but this core and this thread, so when the fold gate finds
    # nothing to cut the kernel path, _try_whole_syscall commits all three
    # phases inside the begin handler; otherwise the stage machine runs them
    # piece by piece.

    def _kernel_frame(self, core: Core, cycles: tuple[int, ...]) -> tuple:
        """The :func:`_frame` of kernel sub-phases ``cycles`` on this core."""
        kentry = core.pmu.plan_entry(KERNEL_RATES, _KERNEL)
        return kentry[2].get(cycles) or _frame(kentry, cycles)

    def _tick_horizon(self) -> int | None:
        """On a faulted run, the horizon a fold of several pieces must stay
        below when tick faults are armed (a kernel frame's last sub-phase
        starts before it, a user frame ends before it), else None.

        ``shrink_counter`` fires only at a timer tick, and on any core it
        rewrites every core's counters. A frame that stays below every
        other actor's time, the chain's horizon or a sleeper pushed since
        (a whole Sleep dispatches in its own piece), has no other core's
        tick between its pieces, so its fold stays exact."""
        if not self._faults.tick_armed:
            return None
        horizon = self._horizon
        heap = self._sleep_heap
        if heap and (horizon is None or heap[0][0] < horizon):
            horizon = heap[0][0]
        return horizon

    def _try_whole_syscall(
        self, core: Core, thread: SimThread, body: int
    ) -> bool:
        """Commit an action-free syscall with a ``body``-cycle kernel path
        (entry, body and exit phases) inside its begin handler.

        Exact when the stage machine would run the three phases back to
        back with nothing in between: not tracing (trace events are emitted
        per phase), and a pass of the fold gate. The horizon is not
        consulted: the phases touch only this core's clock and counters and
        this thread's tallies, which no other actor reads or writes before
        this core next acts. Armed tick faults are the exception
        (``shrink_counter`` at another core's tick rewrites this core's
        counters), so then the exit must start before :meth:`_tick_horizon`.
        On False the caller runs the stage machine unchanged.
        """
        if self._tracing:
            return self._bail("syscall", "tracing")
        frame = self._kernel_frame(core, self._syscall_frame)
        horizon = self._tick_horizon() if self._faults is not None else None
        if not self._charge_frame(
            core, thread, _KERNEL, frame, "syscall", core.slice_ends_at,
            horizon, body=body,
        ):
            return False
        self._whole_syscalls += 1
        self._complete(thread, None)
        return True

    def _try_whole_sleep(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> bool:
        """Run a Sleep's entry and body phases and its block inside the
        fetch piece, then dispatch the freed core in the same piece when
        nothing can act before it.

        The stage machine runs entry and body as two pieces with no other
        actor between them exactly when the fold gate passes their frame
        (no tick at the body piece, nothing arms a PMI between them). Unlike
        a whole syscall, the gate gets the horizon (the main loop keeps the
        chain below it): the block pushes a sleeper and frees the core,
        shared state that other cores read. The block runs through the
        stage machine's own body advance, so traces are unchanged and
        tracing needs no bail.

        After the block, the stage machine re-selects. When the core's
        clock is still below the horizon and the new sleeper wakes after it
        (a short sleep can be due already: the switch-out's save path runs
        after the push), it picks this core again with nothing made ready,
        so the dispatch is the next piece: it runs here. Returns True when
        the thread left the core, False (nothing done) when the stage
        machine must run.
        """
        horizon = self._horizon
        frame = self._kernel_frame(core, self._sleep_frame)
        if not self._charge_frame(
            core, thread, _KERNEL, frame, "sleep", core.slice_ends_at, horizon
        ):
            return False
        ex.stage = "body"
        self._adv_syscall(core, thread, ex)
        self._whole_sleeps += 1
        now = core.now
        if (
            (horizon is None or now < horizon)
            and self._sleep_heap[0][0] > now
            and now <= self._max_cycles
        ):
            self._dispatch(core)
        return True

    def _try_resumed_exit(
        self, core: Core, thread: SimThread, ex: _OpExec, cost: int
    ) -> bool:
        """Charge the ``cost``-cycle switch-in path and the thread's pending
        kernel exit phase as one accrual, and advance past the exit, inside
        the switch-in piece.

        That pending phase is the ``exit`` of :meth:`_adv_syscall`'s kernel
        path (a Sleep, a woken ``wait_key``, a join, or any syscall-class
        op preempted there) or the ``fexit`` of a lock's futex wait. A
        YieldCpu runs the same path, but its exit reads the run queue
        (:meth:`_adv_yield`), so it stays a piece of its own. Exact for
        the whole-syscall reason: the exit touches only this core's clock
        and counters and this thread, which no other actor reads or writes
        before this core acts again, so the horizon is not consulted unless
        a tick fault is armed (see :meth:`_tick_horizon`). It needs tracing
        off (the exit's trace event would move past other cores' events)
        and a pass of the fold gate with no slice bound: the exit starts
        before the new slice ends, since a timeslice is at least 1,000
        cycles. On False nothing is charged.
        """
        stage = ex.stage
        if stage != "fexit" and (stage != "exit" or ex.adv is Engine._adv_yield):
            return False
        if self._tracing:
            return self._bail("resumed_exit", "tracing")
        exit_at = core.now + cost
        frame = self._kernel_frame(core, (cost, ex.phase_cycles))
        horizon = self._tick_horizon() if self._faults is not None else None
        if not self._charge_frame(
            core, thread, _KERNEL, frame, "resumed_exit", None, horizon
        ):
            return False
        core.slice_ends_at = exit_at + self.config.kernel.timeslice_cycles
        self._resumed_exits += 1
        ex.adv(self, core, thread, ex)
        return True

    def _adv_syscall(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        """The one kernel-path stage machine: entry, a body whose end runs
        the op's action, then exit. Every syscall-class op runs it: Syscall,
        SpawnThread (as ``clone``), JoinThread, Sleep, and YieldCpu through
        :meth:`_adv_yield`.

        An action returns ``(value, blocker)``. A blocker parks the thread
        after the exit phase is set up: ``("sleep", cycles)`` pushes a
        sleeper, ``("join", tid)`` waits for a live target and ``("key",
        key)`` waits on a keyed event. An exception raised by the handler
        at begin skips the body; one raised by the action is delivered
        after the exit, as the op's "errno". _try_whole_sleep runs a
        Sleep's entry, body and block in the fetch piece, and
        _try_resumed_exit runs a pending exit in the switch-in piece, when
        nothing can come between the phases."""
        costs = self._costs
        stage = ex.stage
        if stage == "entry":
            # the handler ran at begin; if it raised, skip straight to exit
            if ex.exc is not None:
                ex.stage = "exit"
                ex.set_phase(costs.syscall_exit, KERNEL_RATES, _KERNEL, False)
                return
            ex.stage = "body"
            ex.set_phase(ex.body, KERNEL_RATES, _KERNEL, False)
            return
        if stage == "body":
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
                elif kind == "join":
                    self._join_waiters.setdefault(arg, []).append(thread.tid)
                elif kind == "key":
                    self.futex.wait("key:" + arg, thread.tid)
                else:  # pragma: no cover
                    raise SimulationError(f"bad block kind {kind!r}")
                self._block(core, thread, block)
            return
        if stage == "exit":
            if self._tracing:
                self.obs.emit(
                    core.now, core.core_id, thread.tid, tr.SYSCALL_EXIT,
                    ex.sys_name,
                )
            exc = ex.exc
            if exc is not None:
                self._throw(thread, exc)
            else:
                self._complete(thread, ex.result)
            return
        raise SimulationError(f"bad {type(ex.op).__name__} stage {stage!r}")

    def _adv_yield(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        """A YieldCpu runs :meth:`_adv_syscall`'s kernel path; after its
        exit the thread gives up the core when another thread is queued."""
        stage = ex.stage
        self._adv_syscall(core, thread, ex)
        if stage == "exit" and self.scheduler.queue_length(core.core_id) > 0:
            self._switch_out(core, thread, requeue=True)


def _sleep_action(core: Core, thread: SimThread) -> tuple[Any, Any]:
    """The body action of every Sleep: block for the op's cycles."""
    return None, ("sleep", thread.op_exec.op.cycles)


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
    ops.PmcSafeRead: (Engine._begin_pmc_read, Engine._adv_pmc_read),
    ops.PmcUnsafeRead: (Engine._begin_pmc_read, Engine._adv_pmc_read),
    ops.RegionBegin: (Engine._begin_region, Engine._adv_region_begin),
    ops.RegionEnd: (Engine._begin_region, Engine._adv_region_end),
    ops.LockAcquire: (Engine._begin_lock_acquire, Engine._adv_lock_acquire),
    ops.LockRelease: (Engine._begin_lock_release, Engine._adv_lock_release),
    ops.Syscall: (Engine._begin_syscall_op, Engine._adv_syscall),
    ops.SpawnThread: (Engine._begin_spawn, Engine._adv_syscall),
    ops.JoinThread: (Engine._begin_join, Engine._adv_syscall),
    ops.Sleep: (Engine._begin_sleep, Engine._adv_syscall),
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
