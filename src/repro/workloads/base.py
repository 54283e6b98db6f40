"""Workload infrastructure: instrumentation plumbing and rate profiles.

A *workload* builds a list of ThreadSpecs. Every workload accepts an
:class:`Instrumentation` bundle describing which measurement machinery to
attach — sessions to open, a gprof-style profiler, and how (whether) to
instrument locks. This is what lets the experiments run the *same*
application code uninstrumented, LiMiT-instrumented, and PAPI-instrumented,
and compare both the measurements and the perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Protocol, Sequence

from repro.core.locks import InstrumentedLock, PlainLock
from repro.hw.events import EventRates
from repro.sim.program import ThreadContext, ThreadSpec


class _Session(Protocol):  # anything with setup/teardown generators
    def setup(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        ...  # pragma: no cover

    def teardown(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        ...  # pragma: no cover


@dataclass
class Instrumentation:
    """What measurement machinery a workload run should carry.

    * ``sessions`` — opened on every thread at start, closed at exit.
    * ``profiler`` — a gprof-style InstrumentingProfiler to attach (adds
      hook cost to every region entry/exit).
    * ``lock_reader`` — if set, workload locks become InstrumentedLocks
      using this reader (a LiMiT or PAPI session, or RdtscReader).
    * ``lock_reader_index`` — which of the reader's counters to use.
    * ``region_profiler`` — a PreciseRegionProfiler; when set, workloads
      route fine-grained regions through it (see :func:`run_region`).
    """

    sessions: Sequence[_Session] = ()
    profiler: Any | None = None
    lock_reader: Any | None = None
    lock_reader_index: int = 0
    region_profiler: Any | None = None
    #: session whose counters are read at workload boundaries (transaction
    #: end, request end, event-loop turn) via :meth:`checkpoint` — the
    #: behavior-over-time instrumentation pattern. Include it in
    #: ``sessions`` too so it gets opened per thread.
    checkpoint_session: Any | None = None
    _locks: dict[str, Any] = field(default_factory=dict)

    def thread_setup(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        for session in self.sessions:
            yield from session.setup(ctx)
        if self.profiler is not None:
            yield from self.profiler.attach(ctx)

    def thread_teardown(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        if self.profiler is not None:
            yield from self.profiler.detach(ctx)
        for session in self.sessions:
            yield from session.teardown(ctx)

    def checkpoint(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        """Read the checkpoint session's counters (no-op when unset)."""
        if self.checkpoint_session is not None:
            yield from self.checkpoint_session.read_all(ctx)

    def lock(self, name: str):
        """Shared (possibly instrumented) lock object for ``name``."""
        lock = self._locks.get(name)
        if lock is None:
            if self.lock_reader is not None:
                lock = InstrumentedLock(
                    name, self.lock_reader, self.lock_reader_index
                )
            else:
                lock = PlainLock(name)
            self._locks[name] = lock
        return lock

    def lock_observations(self) -> dict[str, Any]:
        """name -> LockObservation for every instrumented lock."""
        return {
            name: lock.observation
            for name, lock in self._locks.items()
            if isinstance(lock, InstrumentedLock)
        }


def run_region(
    instr: Instrumentation,
    ctx: ThreadContext,
    name: str,
    body: Generator[Any, Any, Any],
) -> Generator[Any, Any, Any]:
    """Run ``body`` as the named region, measured per-invocation when the
    instrumentation bundle carries a region profiler.

    Without a profiler this is a bare RegionBegin/End pair (ground-truth
    labelling only, zero simulated cost unless a gprof-style profiler is
    attached to the thread).
    """
    from repro.sim.ops import RegionBegin, RegionEnd

    if instr.region_profiler is not None:
        return (yield from instr.region_profiler.measure(ctx, name, body))
    yield RegionBegin(name)
    try:
        result = yield from body
    finally:
        yield RegionEnd()
    return result


class Workload:
    """Base class: subclasses implement :meth:`build`."""

    name = "workload"

    def build(self, instr: Instrumentation | None = None) -> list[ThreadSpec]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Rate profiles for application phases (IPC / miss-rate shapes chosen to
# give the workload classes their characteristic CPI structure).
# ---------------------------------------------------------------------------

#: SQL parsing / query optimisation: branchy, icache-hungry.
PARSE_RATES = EventRates.profile(
    ipc=1.1, llc_mpki=1.2, l2_mpki=6.0, branch_frac=0.24, branch_miss_rate=0.06,
    dtlb_mpki=0.4, stall_frac=0.3,
)

#: B-tree / row access: pointer chasing, cache-miss dominated.
ROW_ACCESS_RATES = EventRates.profile(
    ipc=0.7, llc_mpki=8.0, l2_mpki=22.0, branch_frac=0.18, branch_miss_rate=0.04,
    dtlb_mpki=2.5, load_frac=0.35, stall_frac=0.5,
)

#: Tight compute (expression evaluation, checksums).
COMPUTE_RATES = EventRates.profile(
    ipc=1.9, llc_mpki=0.2, l2_mpki=1.0, branch_frac=0.10, branch_miss_rate=0.01,
    stall_frac=0.08,
)

#: HTTP parsing / string handling.
HTTP_PARSE_RATES = EventRates.profile(
    ipc=1.3, llc_mpki=0.8, l2_mpki=4.0, branch_frac=0.26, branch_miss_rate=0.07,
    stall_frac=0.25,
)

#: JavaScript interpreter dispatch: very branchy, poor prediction.
JS_INTERP_RATES = EventRates.profile(
    ipc=0.9, llc_mpki=2.0, l2_mpki=9.0, branch_frac=0.30, branch_miss_rate=0.09,
    dtlb_mpki=1.0, stall_frac=0.4,
)

#: Garbage collection: memory sweeping.
GC_RATES = EventRates.profile(
    ipc=0.8, llc_mpki=12.0, l2_mpki=30.0, branch_frac=0.12, branch_miss_rate=0.03,
    load_frac=0.4, store_frac=0.2, stall_frac=0.55,
)
