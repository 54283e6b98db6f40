"""Shared utilities: units, configuration, deterministic RNG, errors, tables."""

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
    from repro.common.errors import (
        ConfigError,
        CounterError,
        ExperimentError,
        LockProtocolError,
        ReproError,
        SchedulerError,
        SessionError,
        SimulationError,
    )
    from repro.common.rng import RandomStream, derive_seed
    from repro.common.tables import render_histogram, render_series, render_table
    from repro.common.units import (
        DEFAULT_FREQUENCY,
        Frequency,
        format_cycles,
        per_kilo_instruction,
    )

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "CostModel": "config",
    "KernelConfig": "config",
    "LockConfig": "config",
    "MachineConfig": "config",
    "PmuConfig": "config",
    "SimConfig": "config",
    "ConfigError": "errors",
    "CounterError": "errors",
    "ExperimentError": "errors",
    "LockProtocolError": "errors",
    "ReproError": "errors",
    "SchedulerError": "errors",
    "SessionError": "errors",
    "SimulationError": "errors",
    "RandomStream": "rng",
    "derive_seed": "rng",
    "render_histogram": "tables",
    "render_series": "tables",
    "render_table": "tables",
    "DEFAULT_FREQUENCY": "units",
    "Frequency": "units",
    "format_cycles": "units",
    "per_kilo_instruction": "units",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
