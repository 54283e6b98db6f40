"""Handlers of the generic ``Syscall`` op, by name.

A handler runs once, when the op is fetched, as ``handler(engine, core,
thread, args)``. It returns ``(body_cycles, action)``: the kernel cycles of
the syscall's body phase, and the action that runs at the body's end with
the acting core and thread, or None. An action returns ``(value,
blocker)``, where a non-None blocker parks the thread instead of completing
the call. A handler that raises delivers the exception as the syscall's
"errno". The table holds plain functions called with the engine first, so
no engine holds a bound method of itself.

Also here: the timer-driven rotation of a perf-style multiplexed event
group (``mux_open``), which the engine runs at its timer tick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import ConfigError
from repro.hw.events import CYCLE_BITS
from repro.kernel.vpmu import MuxState, SlotSpec

if TYPE_CHECKING:
    from repro.hw.machine import Core
    from repro.sim.base import SimThread
    from repro.sim.engine import Engine


#: A syscall action: ``(core, thread) -> (value, blocker)``.
SysAction = Callable[["Core", "SimThread"], "tuple[Any, Any]"]


def work(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
    (cycles,) = args
    if cycles < 0:
        raise ConfigError("work syscall needs non-negative cycles")
    if cycles >> CYCLE_BITS:
        raise ConfigError(f"work syscall cycles must be below 2**{CYCLE_BITS}")
    return cycles, None


def getpid(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
    def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
        return thread.tid, None

    return 150, action


def _open_slot(core: Core, thread: SimThread, spec: SlotSpec) -> int:
    """Allocate a slot for ``spec``, program its counter, preload it (0 for
    counting, ``period`` below the wrap for sampling) and set the slot's
    ground-truth bases; return the slot index."""
    idx = thread.vpmu.allocate(spec)
    ctr = core.pmu.counter(idx)
    ctr.program(spec.event, spec.count_user, spec.count_kernel)
    ctr.write(0 if spec.mode == "count" else max(0, ctr.threshold - spec.period))
    base = thread.slot_truth(spec)
    thread.slot_truth_base[idx] = base
    thread.slot_reset_truth[idx] = base
    return idx


def _close_slot(core: Core, thread: SimThread, idx: int) -> None:
    """Deprogram slot ``idx``'s counter and free the slot."""
    core.pmu.counter(idx).deprogram()
    thread.vpmu.free(idx)
    thread.slot_saved[idx] = None


def pmc_open(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
    (spec,) = args
    if not isinstance(spec, SlotSpec):
        raise ConfigError("pmc_open takes a SlotSpec")
    if spec.mode != "count":
        raise ConfigError("pmc_open supports counting slots only")
    cost = 800 + 2 * engine._costs.wrmsr

    def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
        return _open_slot(core, thread, spec), None

    return cost, action


def pmc_close(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
    (idx,) = args

    def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
        thread.vpmu.spec(idx)  # validates
        _close_slot(core, thread, idx)
        return None, None

    return 400, action


def perf_open(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
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
        idx = _open_slot(core, thread, spec)
        fd = engine.perf.open(thread.tid, idx, event, mode, period)
        return fd.fd, None

    return 3500, action


def perf_read(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
    (fd_no,) = args
    cost = engine._costs.perf_read_kernel_work + engine._costs.perf_copyout

    def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
        fd = engine.perf.get(fd_no)
        if fd.tid != thread.tid:
            raise ConfigError("cross-thread perf reads are not modelled")
        spec = thread.vpmu.spec(fd.slot)
        value = thread.vpmu.vaccum[fd.slot] + core.pmu.counter(fd.slot).read()
        thread.last_kernel_read_truth[fd.slot] = thread.slot_truth_since_open(
            fd.slot, spec
        )
        return value, None

    return cost, action


def perf_close(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
    (fd_no,) = args

    def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
        fd = engine.perf.close(fd_no)
        _close_slot(core, thread, fd.slot)
        return fd, None

    return 1500, action


def papi_read(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
    (indices,) = args
    indices = tuple(indices)
    cost = (
        engine._costs.papi_kernel_read_work
        + engine._costs.papi_copyout
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


def wait_key(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
    """Keyed-event wait: consume a pending credit if one exists,
    otherwise block until a wake_key posts one. The credit semantics
    (a wake with no waiter is remembered) make the primitive race-free
    for building semaphores/condvars in userspace."""
    (key,) = args
    if not isinstance(key, str) or not key:
        raise ConfigError("wait_key needs a non-empty string key")

    def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
        credits = engine._key_credits.get(key, 0)
        if credits > 0:
            engine._key_credits[key] = credits - 1
            return True, None  # consumed a credit; no blocking
        return False, ("key", key)

    return 900, action


def wake_key(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
    """Keyed-event wake: release up to ``n`` waiters; excess wakes are
    stored as credits. ``n = -1`` wakes every current waiter and clears
    any stored credits (broadcast)."""
    key, n = args
    if not isinstance(key, str) or not key:
        raise ConfigError("wake_key needs a non-empty string key")

    def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
        fkey = "key:" + key
        if n == -1:
            woken = engine.futex.wake(fkey, 1 << 30)
            engine._key_credits.pop(key, None)
        else:
            if n < 0:
                raise ConfigError("wake_key count must be >= 0 or -1")
            woken = engine.futex.wake(fkey, n)
            excess = n - len(woken)
            if excess > 0:
                engine._key_credits[key] = (
                    engine._key_credits.get(key, 0) + excess
                )
        for tid in woken:
            engine._make_ready(engine.threads[tid], at=core.now)
        return len(woken), None

    return 1_100, action


def mux_fold(core: Core, thread: SimThread) -> None:
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


def mux_rotate(core: Core, thread: SimThread) -> None:
    """Rotate the multiplexed group to its next event (timer driven)."""
    state = thread.mux
    mux_fold(core, thread)
    state.active = (state.active + 1) % len(state.specs)
    state.rotations += 1
    spec = state.specs[state.active]
    ctr = core.pmu.counter(state.slot)
    if ctr.enabled or core.current_tid == thread.tid:
        ctr.program(spec.event, spec.count_user, spec.count_kernel)
        ctr.write(0)
    # keep the slot's bookkeeping spec in sync with the live event
    thread.vpmu.slots[state.slot] = spec


def mux_open(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
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
    cost = 3500 + 2 * engine._costs.wrmsr

    def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
        idx = _open_slot(core, thread, specs[0])
        thread.mux = MuxState(
            slot=idx,
            specs=specs,
            truth_base=[thread.slot_truth(s) for s in specs],
            active_since_cpu=thread.cpu_cycles,
            total_cpu_base=thread.cpu_cycles,
        )
        return idx, None

    return cost, action


def mux_read(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
    cost = engine._costs.perf_read_kernel_work + engine._costs.perf_copyout

    def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
        state = thread.mux
        if state is None:
            raise ConfigError("mux_read without a multiplexed group")
        mux_fold(core, thread)
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


def mux_close(
    engine: Engine, core: Core, thread: SimThread, args: tuple
) -> tuple[int, SysAction | None]:
    def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
        state = thread.mux
        if state is None:
            raise ConfigError("mux_close without a multiplexed group")
        _close_slot(core, thread, state.slot)
        thread.mux = None
        return state.rotations, None

    return 1500, action


#: Syscall handlers by name.
SYSCALLS: dict[str, Callable[..., tuple[int, SysAction | None]]] = {
    "work": work,
    "getpid": getpid,
    "pmc_open": pmc_open,
    "pmc_close": pmc_close,
    "perf_open": perf_open,
    "perf_read": perf_read,
    "perf_close": perf_close,
    "papi_read": papi_read,
    "wait_key": wait_key,
    "wake_key": wake_key,
    "mux_open": mux_open,
    "mux_read": mux_read,
    "mux_close": mux_close,
}
