"""Discrete-event execution engine and op vocabulary."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.base import SimThread, ThreadState
    from repro.sim.engine import Engine, run_program
    from repro.sim.ops import (
        Compute,
        JoinThread,
        LoadVAccum,
        LockAcquire,
        LockRelease,
        Op,
        PmcReadBegin,
        PmcReadEnd,
        Rdpmc,
        RdpmcDestructive,
        Rdtsc,
        RegionBegin,
        RegionEnd,
        Sleep,
        SpawnThread,
        Syscall,
        YieldCpu,
    )
    from repro.sim.program import ProgramFactory, ThreadContext, ThreadSpec
    from repro.sim.sync import Barrier, BoundedQueue, CondVar, Semaphore
    from repro.sim.results import (
        CoreResult,
        KernelCounters,
        RegionTruth,
        RunResult,
        ThreadResult,
        merge_histogram,
    )

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "Engine": "engine",
    "SimThread": "base",
    "ThreadState": "base",
    "run_program": "engine",
    "Compute": "ops",
    "JoinThread": "ops",
    "LoadVAccum": "ops",
    "LockAcquire": "ops",
    "LockRelease": "ops",
    "Op": "ops",
    "PmcReadBegin": "ops",
    "PmcReadEnd": "ops",
    "Rdpmc": "ops",
    "RdpmcDestructive": "ops",
    "Rdtsc": "ops",
    "RegionBegin": "ops",
    "RegionEnd": "ops",
    "Sleep": "ops",
    "SpawnThread": "ops",
    "Syscall": "ops",
    "YieldCpu": "ops",
    "ProgramFactory": "program",
    "ThreadContext": "program",
    "ThreadSpec": "program",
    "Barrier": "sync",
    "BoundedQueue": "sync",
    "CondVar": "sync",
    "Semaphore": "sync",
    "CoreResult": "results",
    "KernelCounters": "results",
    "RegionTruth": "results",
    "RunResult": "results",
    "ThreadResult": "results",
    "merge_histogram": "results",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
