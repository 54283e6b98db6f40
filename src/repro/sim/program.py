"""Thread programs and their runtime context.

A workload is a list of :class:`ThreadSpec`; each spec names a thread and
provides a *program factory*: a callable taking a :class:`ThreadContext` and
returning the generator that yields ops (see repro.sim.ops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.common.rng import RandomStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.common.config import CostModel
    from repro.sim.engine import Engine, SimThread

ProgramFactory = Callable[["ThreadContext"], Generator[Any, Any, Any]]


@dataclass(frozen=True)
class ThreadSpec:
    """Description of one thread to start at time zero."""

    name: str
    factory: ProgramFactory

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("thread name must be non-empty")
        if not callable(self.factory):
            raise ConfigError(f"factory for {self.name!r} is not callable")


class ThreadContext:
    """Per-thread runtime handle passed to program factories.

    Gives workload code a deterministic RNG stream, its identity, and two
    *meta* observations that real programs could obtain with negligible cost
    and that analyses use for ground-truth labelling:

    * :meth:`now` — the current simulated time (free; analyses only), and
    * :attr:`scratch` — a dict for sessions/workloads to stash Python state.

    Programs must not use :meth:`now` to influence control flow in ways that
    would be impossible on real hardware; measurement libraries use
    ``Rdtsc`` ops (which cost cycles) for in-band timing.
    """

    def __init__(self, name: str, tid: int, rng: RandomStream, engine: "Engine") -> None:
        self.name = name
        self.tid = tid
        self.rng = rng
        self.scratch: dict[str, Any] = {}
        self._engine = engine

    def now(self) -> int:
        """Ground-truth current simulated time of this thread's core."""
        engine = self._engine
        return engine.thread_clock(engine.thread(self.tid))

    def now_of(self, thread: "SimThread") -> int:
        """:meth:`now`, given this context's :meth:`thread` already looked
        up (a read records both without a second lookup)."""
        return self._engine.thread_clock(thread)

    def thread(self) -> "SimThread":
        """The engine-side thread object (analyses and sessions only)."""
        return self._engine.thread(self.tid)

    def service_fault(self, kind: str, tier: str):
        """Consult the run's fault plan at a service-chain hook point.

        Returns the firing :class:`~repro.faults.plan.FaultSpec` (or
        ``None``). A firing opens a detect/miss ledger entry that the
        workload must close with :meth:`service_fault_resolved` once a
        resilience policy has absorbed the fault.
        """
        return self._engine.service_fault(self.tid, kind, tier)

    def service_fault_resolved(self, kind: str, absorbed: bool = True) -> None:
        """Close one open service-fault ledger entry."""
        self._engine.service_fault_resolved(self.tid, kind, absorbed)

    @property
    def costs(self) -> CostModel:
        """The machine's cost model (cycle costs of modelled sequences)."""
        return self._engine.config.machine.costs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ThreadContext {self.name!r} tid={self.tid}>"
