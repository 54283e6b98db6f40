"""Simulated OS kernel mechanisms: scheduling, futexes, perf, virtualization."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.kernel.futex import FutexTable
    from repro.kernel.locks import LockRegistry, LockState, LockStats
    from repro.kernel.perf import PerfFd, PerfSubsystem, SampleRecord
    from repro.kernel.scheduler import Scheduler
    from repro.kernel.vpmu import SlotSpec, VirtualPmu

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "FutexTable": "futex",
    "LockRegistry": "locks",
    "LockState": "locks",
    "LockStats": "locks",
    "PerfFd": "perf",
    "PerfSubsystem": "perf",
    "SampleRecord": "perf",
    "Scheduler": "scheduler",
    "SlotSpec": "vpmu",
    "VirtualPmu": "vpmu",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
