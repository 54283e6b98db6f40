"""LiMiT — precise, low-overhead performance-counter access (the paper's
primary contribution), implemented against the simulated machine."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.calibration import Calibration, calibrate
    from repro.core.enhancements import (
        with_all_enhancements,
        with_hw_thread_virtualization,
        with_wide_counters,
    )
    from repro.core.limit import (
        DestructiveReadSession,
        LimitSession,
        ReadRecord,
        UnsafeLimitSession,
    )
    from repro.core.locks import (
        InstrumentedLock,
        LockObservation,
        PlainLock,
        RdtscReader,
    )
    from repro.core.read_protocol import destructive_read
    from repro.core.regions import PreciseRegionProfiler, RegionObservation

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "Calibration": "calibration",
    "calibrate": "calibration",
    "with_all_enhancements": "enhancements",
    "with_hw_thread_virtualization": "enhancements",
    "with_wide_counters": "enhancements",
    "DestructiveReadSession": "limit",
    "LimitSession": "limit",
    "ReadRecord": "limit",
    "UnsafeLimitSession": "limit",
    "InstrumentedLock": "locks",
    "LockObservation": "locks",
    "PlainLock": "locks",
    "RdtscReader": "locks",
    "destructive_read": "read_protocol",
    "PreciseRegionProfiler": "regions",
    "RegionObservation": "regions",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
