"""Baseline measurement techniques the paper compares LiMiT against."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.instrumenting import FlatProfileEntry, InstrumentingProfiler
    from repro.baselines.multiplexing import MultiplexedSession, MuxEstimate
    from repro.baselines.papi import PapiLikeSession
    from repro.baselines.perf_read import PerfReadSession
    from repro.baselines.sampling import RegionEstimate, SamplingProfiler

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "FlatProfileEntry": "instrumenting",
    "InstrumentingProfiler": "instrumenting",
    "MultiplexedSession": "multiplexing",
    "MuxEstimate": "multiplexing",
    "PapiLikeSession": "papi",
    "PerfReadSession": "perf_read",
    "RegionEstimate": "sampling",
    "SamplingProfiler": "sampling",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
