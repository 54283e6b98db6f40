"""Microbenchmarks: read-cost calibration and instrumentation-density sweeps.

These generate the data for the paper's headline overhead table (E1) and
the overhead-vs-density figure (E2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.common.errors import ConfigError
from repro.hw.events import EventRates
from repro.sim.ops import Compute, Rdtsc
from repro.sim.program import ThreadContext, ThreadSpec
from repro.workloads.base import COMPUTE_RATES, Instrumentation, Workload

#: A reader is any session-like object: read(ctx, i) generator -> int.
Reader = Any


@dataclass
class ReadCostResult:
    """Outcome of a read-cost calibration loop (per technique)."""

    technique: str
    n_reads: int
    total_cycles: int

    @property
    def cycles_per_read(self) -> float:
        return self.total_cycles / self.n_reads if self.n_reads else 0.0


class ReadCostMicrobench(Workload):
    """Times ``n_reads`` back-to-back reads of a session with rdtsc.

    This is exactly how one calibrates read cost on real hardware: take the
    TSC, spin N reads, take the TSC again, divide. The rdtsc pair's own
    cost is excluded via a measured empty-loop baseline.
    """

    name = "read_cost"

    def __init__(self, reader: Reader, n_reads: int = 1_000,
                 technique: str | None = None) -> None:
        if n_reads < 1:
            raise ConfigError("need at least one read")
        self.reader = reader
        self.n_reads = n_reads
        self.technique = technique or getattr(reader, "name", "reader")
        self.result: ReadCostResult | None = None

    def build(self, instr: Instrumentation | None = None) -> list[ThreadSpec]:
        reader = self.reader

        def program(ctx: ThreadContext):
            if hasattr(reader, "setup"):
                yield from reader.setup(ctx)
            t0 = yield Rdtsc()
            for _ in range(self.n_reads):
                yield from reader.read(ctx, 0)
            t1 = yield Rdtsc()
            self.result = ReadCostResult(
                technique=self.technique,
                n_reads=self.n_reads,
                total_cycles=t1 - t0,
            )
            if hasattr(reader, "teardown"):
                yield from reader.teardown(ctx)

        return [ThreadSpec(f"microbench:{self.technique}", program)]


class DensitySweepWorkload(Workload):
    """A fixed compute kernel instrumented with reads at a given density.

    ``reads_per_million_cycles`` controls how often the measurement library
    is invoked; the experiment sweeps it and compares wall time against the
    uninstrumented run to produce the overhead curve (E2).
    """

    name = "density"

    def __init__(
        self,
        reader_factory: Callable[[], Reader] | None,
        total_compute_cycles: int = 10_000_000,
        reads_per_million_cycles: float = 10.0,
        rates: EventRates = COMPUTE_RATES,
        technique: str = "none",
    ) -> None:
        if total_compute_cycles < 1:
            raise ConfigError("need positive compute")
        if reads_per_million_cycles < 0:
            raise ConfigError("density must be non-negative")
        self.reader_factory = reader_factory
        self.total_compute_cycles = total_compute_cycles
        self.density = reads_per_million_cycles
        self.rates = rates
        self.technique = technique

    def build(self, instr: Instrumentation | None = None) -> list[ThreadSpec]:
        reader = self.reader_factory() if self.reader_factory else None
        if self.density > 0 and reader is not None:
            stride = max(1, round(1_000_000 / self.density))
        else:
            stride = self.total_compute_cycles

        def program(ctx: ThreadContext) -> Generator[Any, Any, None]:
            if reader is not None and hasattr(reader, "setup"):
                yield from reader.setup(ctx)
            done = 0
            while done < self.total_compute_cycles:
                chunk = min(stride, self.total_compute_cycles - done)
                yield Compute(chunk, self.rates)
                done += chunk
                if reader is not None and done < self.total_compute_cycles:
                    yield from reader.read(ctx, 0)
            if reader is not None and hasattr(reader, "teardown"):
                yield from reader.teardown(ctx)

        return [ThreadSpec(f"density:{self.technique}", program)]
