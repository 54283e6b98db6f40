"""Precise per-region measurement (the Firefox short-function study, E9).

A :class:`PreciseRegionProfiler` measures every invocation of named code
regions with exact counter reads — the kind of measurement the paper argues
is *only* feasible with LiMiT-class read costs: at ~37 ns a read, wrapping a
1 us function costs ~7%; with a ~1 us PAPI-class read it costs ~200%.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.common.units import cycle_log
from repro.core.limit import LimitSession
from repro.sim.ops import RegionBegin, RegionEnd
from repro.sim.program import ThreadContext


@dataclass
class RegionObservation:
    """Tool-side view of one region (in the session counter's event unit)."""

    name: str
    invocations: int = 0
    deltas: array[int] = field(default_factory=cycle_log)

    @property
    def total(self) -> int:
        return sum(self.deltas)

    @property
    def mean(self) -> float:
        return self.total / len(self.deltas) if self.deltas else 0.0


class PreciseRegionProfiler:
    """Measures named regions with a counter session, one read pair per
    invocation. Works with any session exposing LiMiT's read interface."""

    def __init__(self, session: LimitSession, counter_index: int = 0) -> None:
        self.session = session
        self.counter_index = counter_index
        self.observations: dict[str, RegionObservation] = {}

    def measure(
        self,
        ctx: ThreadContext,
        name: str,
        body: Generator[Any, Any, Any],
    ) -> Generator[Any, Any, Any]:
        """Run ``body`` as region ``name``, recording its exact cost."""
        yield RegionBegin(name)
        t0 = yield from self.session.read(ctx, self.counter_index)
        try:
            result = yield from body
        finally:
            t1 = yield from self.session.read(ctx, self.counter_index)
            yield RegionEnd()
            obs = self.observations.get(name)
            if obs is None:
                obs = RegionObservation(name=name)
                self.observations[name] = obs
            obs.invocations += 1
            obs.deltas.append(t1 - t0)
        return result

    def observation(self, name: str) -> RegionObservation:
        return self.observations.get(name, RegionObservation(name=name))
