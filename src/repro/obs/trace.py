"""The structured trace bus: typed events of everything the simulator does.

A :class:`TraceEvent` is a named tuple ``(time, core, tid, kind, arg)`` —
deliberately a *tuple* subclass so the pre-existing ad-hoc tuple trace
(``record[3] == "switch_in"`` style consumers, including
:mod:`repro.analysis.timeline`) keeps working unchanged, while new code
gets typed field access (``event.kind``, ``event.time``).

Emission discipline
-------------------
Every emit site in the engine and kernel subsystems is guarded by a single
boolean test; when tracing is disabled **no event object is constructed**
and nothing is appended. This is the zero-perturbation contract: tracing
on/off must never change simulated results (a property test enforces it),
and tracing off must cost exactly one branch per would-be emit.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple

# -- event kinds ------------------------------------------------------------
# Scheduling
READY = "ready"                  #: thread became runnable (wake/spawn/preempt)
SWITCH_IN = "switch_in"          #: thread dispatched onto a core
SWITCH_OUT = "switch_out"        #: thread descheduled from a core
EXIT = "exit"                    #: thread finished
SCHED_STEAL = "sched_steal"      #: idle core stole work (arg = victim core)
# Kernel entries
SYSCALL_ENTER = "syscall_enter"  #: syscall entry path begins (arg = name)
SYSCALL_EXIT = "syscall_exit"    #: syscall return to user (arg = name)
PMI = "pmi"                      #: performance-monitoring interrupt serviced
TIMER_TICK = "timer_tick"        #: periodic timer interrupt
# Synchronization
LOCK_ACQ = "lock_acq"            #: userspace lock acquired (arg = lock name)
LOCK_REL = "lock_rel"            #: userspace lock released (arg = lock name)
FUTEX_WAIT = "futex_wait"        #: thread went to sleep on a futex (arg = key)
FUTEX_WAKE = "futex_wake"        #: futex wake (arg = (key, n_woken))
# Counter-read protocol (the LiMiT safe read)
PMC_READ_BEGIN = "pmc_read_begin"  #: entered the protected read sequence
PMC_READ_END = "pmc_read_end"      #: left it (arg = True ok / False restart)
CTR_OVERFLOW = "ctr_overflow"      #: a hardware counter wrapped (arg = index)
SAMPLE = "sample"                  #: sampling fd recorded a sample (arg = fd)
# Fault injection (repro.faults)
FAULT_INJECT = "fault_inject"    #: injected fault fired (arg = (kind, detail))
FAULT_DETECT = "fault_detect"    #: protocol caught an injected hazard
# Regions / phases
REGION_BEGIN = "region_begin"    #: instrumented code region entered
REGION_END = "region_end"        #: instrumented code region left
PHASE_BEGIN = "phase_begin"      #: experiment/runner phase began (arg = name)
PHASE_END = "phase_end"          #: experiment/runner phase ended (arg = name)

#: Every kind the simulator emits, with a one-line description (used by the
#: ``python -m repro.trace`` CLI and docs/observability.md).
KIND_DESCRIPTIONS: dict[str, str] = {
    READY: "thread became runnable (arg: thread name)",
    SWITCH_IN: "thread dispatched onto a core (arg: thread name)",
    SWITCH_OUT: "thread descheduled (arg: thread name)",
    EXIT: "thread finished (arg: thread name)",
    SCHED_STEAL: "idle core stole a thread (arg: victim core id)",
    SYSCALL_ENTER: "syscall entry (arg: syscall name)",
    SYSCALL_EXIT: "syscall return (arg: syscall name)",
    PMI: "performance-monitoring interrupt (arg: overflowed counter indices)",
    TIMER_TICK: "periodic timer interrupt",
    LOCK_ACQ: "userspace lock acquired (arg: lock name)",
    LOCK_REL: "userspace lock released (arg: lock name)",
    FUTEX_WAIT: "thread slept on a futex (arg: futex key)",
    FUTEX_WAKE: "futex wake (arg: (key, n_woken))",
    PMC_READ_BEGIN: "LiMiT protected read sequence entered",
    PMC_READ_END: "LiMiT protected read sequence left (arg: ok)",
    CTR_OVERFLOW: "hardware counter wrapped (arg: counter index)",
    SAMPLE: "sampling fd recorded a sample (arg: fd number)",
    FAULT_INJECT: "injected fault fired (arg: (fault kind, detail))",
    FAULT_DETECT: "protocol caught an injected hazard (arg: fault kind)",
    REGION_BEGIN: "instrumented region entered (arg: region name)",
    REGION_END: "instrumented region left (arg: region name)",
    PHASE_BEGIN: "experiment phase began (arg: phase name)",
    PHASE_END: "experiment phase ended (arg: phase name)",
}

KINDS: frozenset[str] = frozenset(KIND_DESCRIPTIONS)


class TraceEvent(NamedTuple):
    """One structured trace record.

    ``time`` is in simulated cycles for engine-emitted events; runner-level
    phase events use wall-clock microseconds (their bus says so).
    """

    time: int
    core: int
    tid: int
    kind: str
    arg: Any = None


class TraceBus:
    """An append-only, in-memory stream of :class:`TraceEvent`.

    The bus itself is trivial by design: emit appends one named tuple.
    The *callers* guard emission (``if tracing: bus.emit(...)``) so that a
    disabled bus costs one branch and constructs nothing.
    """

    __slots__ = ("enabled", "events")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def emit(self, time: int, core: int, tid: int, kind: str, arg: Any = None) -> None:
        """Append one event. Callers are expected to have checked
        :attr:`enabled`; emitting on a disabled bus still appends (the
        guard is the caller's single branch, not a hidden second one)."""
        self.events.append(TraceEvent(time, core, tid, kind, arg))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def as_events(records: Iterable[tuple]) -> list[TraceEvent]:
    """Coerce legacy plain-tuple trace records into :class:`TraceEvent`.

    Records shorter than 5 fields get ``arg=None``; TraceEvents pass
    through untouched. Useful for feeding old traces to the exporters.
    """
    out: list[TraceEvent] = []
    for record in records:
        if isinstance(record, TraceEvent):
            out.append(record)
        elif len(record) >= 5:
            out.append(TraceEvent(*record[:5]))
        else:
            time, core, tid, kind = record[:4]
            out.append(TraceEvent(time, core, tid, kind, None))
    return out
