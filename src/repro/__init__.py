"""repro — reproduction of "Rapid identification of architectural
bottlenecks via precise event counting" (Demme & Sethumadhavan, ISCA 2011).

The package implements LiMiT — precise, low-overhead userspace access to
virtualized performance counters — together with the full substrate it needs
(a deterministic multicore simulator with a PMU-aware kernel), the baseline
access techniques the paper compares against, generative models of the
paper's application workloads, and the analysis/experiment harness that
regenerates every evaluation artifact.

Quickstart::

    from repro import (
        Compute, Event, EventRates, LimitSession, SimConfig, ThreadSpec,
        run_program,
    )

    session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS])
    rates = EventRates.profile(ipc=1.5)

    def main(ctx):
        yield from session.setup(ctx)
        start = yield from session.read_all(ctx)
        yield Compute(1_000_000, rates)
        end = yield from session.read_all(ctx)
        ctx.scratch["delta"] = [e - s for s, e in zip(start, end)]

    result = run_program([ThreadSpec("main", main)], SimConfig())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.common.config import (
        CostModel,
        KernelConfig,
        LockConfig,
        MachineConfig,
        PmuConfig,
        SimConfig,
    )
    from repro.common.errors import ReproError
    from repro.common.rng import RandomStream
    from repro.common.units import Frequency, format_cycles
    from repro.core.enhancements import (
        with_all_enhancements,
        with_hw_thread_virtualization,
        with_wide_counters,
    )
    from repro.core.limit import (
        DestructiveReadSession,
        LimitSession,
        UnsafeLimitSession,
    )
    from repro.core.locks import InstrumentedLock, PlainLock, RdtscReader
    from repro.core.regions import PreciseRegionProfiler
    from repro.hw.events import Domain, Event, EventRates
    from repro.kernel.vpmu import SlotSpec
    from repro.sim.engine import Engine, run_program
    from repro.sim.ops import (
        Compute,
        JoinThread,
        LockAcquire,
        LockRelease,
        Rdtsc,
        RegionBegin,
        RegionEnd,
        Sleep,
        SpawnThread,
        Syscall,
        YieldCpu,
    )
    from repro.sim.program import ThreadContext, ThreadSpec
    from repro.sim.results import RunResult
    from repro.sim.sync import Barrier, BoundedQueue, CondVar, Semaphore

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "CostModel": "common.config",
    "KernelConfig": "common.config",
    "LockConfig": "common.config",
    "MachineConfig": "common.config",
    "PmuConfig": "common.config",
    "SimConfig": "common.config",
    "ReproError": "common.errors",
    "RandomStream": "common.rng",
    "Frequency": "common.units",
    "format_cycles": "common.units",
    "with_all_enhancements": "core.enhancements",
    "with_hw_thread_virtualization": "core.enhancements",
    "with_wide_counters": "core.enhancements",
    "DestructiveReadSession": "core.limit",
    "LimitSession": "core.limit",
    "UnsafeLimitSession": "core.limit",
    "InstrumentedLock": "core.locks",
    "PlainLock": "core.locks",
    "RdtscReader": "core.locks",
    "PreciseRegionProfiler": "core.regions",
    "Domain": "hw.events",
    "Event": "hw.events",
    "EventRates": "hw.events",
    "SlotSpec": "kernel.vpmu",
    "Engine": "sim.engine",
    "run_program": "sim.engine",
    "Compute": "sim.ops",
    "JoinThread": "sim.ops",
    "LockAcquire": "sim.ops",
    "LockRelease": "sim.ops",
    "Rdtsc": "sim.ops",
    "RegionBegin": "sim.ops",
    "RegionEnd": "sim.ops",
    "Sleep": "sim.ops",
    "SpawnThread": "sim.ops",
    "Syscall": "sim.ops",
    "YieldCpu": "sim.ops",
    "ThreadContext": "sim.program",
    "ThreadSpec": "sim.program",
    "RunResult": "sim.results",
    "Barrier": "sim.sync",
    "BoundedQueue": "sim.sync",
    "CondVar": "sim.sync",
    "Semaphore": "sim.sync",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = sorted(_EXPORTS)
