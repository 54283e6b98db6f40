"""The simulated hardware platform: cores, PMUs, timestamp counter."""

from __future__ import annotations

from repro.common.config import MachineConfig
from repro.hw.pmu import Pmu


class Core:
    """One hardware core: a PMU plus local timing state.

    ``now`` is the core-local clock in cycles. Cores advance independently;
    the engine always commits externally visible actions in global time
    order (see repro.sim.engine).
    """

    __slots__ = (
        "core_id",
        "socket_id",
        "pmu",
        "now",
        "busy_cycles",
        "kernel_cycles",
        "user_cycles",
        "parked",
        "current_tid",
        "pmi_due_at",
        "slice_ends_at",
    )

    def __init__(self, core_id: int, pmu: Pmu, socket_id: int = 0) -> None:
        self.core_id = core_id
        self.socket_id = socket_id
        self.pmu = pmu
        self.now = 0
        self.busy_cycles = 0
        self.kernel_cycles = 0
        self.user_cycles = 0
        self.parked = True          #: no runnable thread; excluded from dispatch
        self.current_tid: int | None = None
        self.pmi_due_at: int | None = None
        self.slice_ends_at: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "parked" if self.parked else "running"
        return f"<Core {self.core_id} now={self.now} {state}>"


class Machine:
    """The full simulated platform."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.cores = [
            Core(i, Pmu(config.pmu), config.socket_of(i))
            for i in range(config.n_cores)
        ]

    def enable_user_rdpmc(self) -> None:
        """Apply the LiMiT kernel patch's CR4.PCE change on every core."""
        for core in self.cores:
            core.pmu.user_rdpmc_enabled = True

    def max_time(self) -> int:
        """The largest core-local clock — the machine-wide horizon."""
        return max(core.now for core in self.cores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Machine cores={len(self.cores)} t={self.max_time()}>"
