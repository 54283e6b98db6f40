"""Sampling profilers (perf-record / oprofile class).

A :class:`SamplingProfiler` opens a sampling perf fd per thread: the PMU
counter is preloaded so it overflows every ``period`` events, and the PMI
handler records which *region* the thread was in — after interrupt skid.
Cheap when the period is long, but:

* short regions are missed or mis-attributed (skid + quantisation), and
* counts are estimates (``samples x period``), not exact values.

Experiment E3 quantifies both against LiMiT's exact reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.common.errors import SessionError
from repro.hw.events import Event
from repro.kernel.perf import SampleRecord
from repro.sim.ops import Syscall
from repro.sim.program import ThreadContext
from repro.sim.results import RunResult


@dataclass(frozen=True)
class RegionEstimate:
    """A sampling profiler's estimate for one region."""

    region: str | None
    samples: int
    estimated_events: int    #: samples * period


class SamplingProfiler:
    """Overflow-driven statistical profiling of one event."""

    def __init__(
        self,
        event: Event,
        period: int,
        count_kernel: bool = False,
        name: str = "sampler",
    ) -> None:
        if period <= 0:
            raise SessionError(f"sampling period must be positive, got {period}")
        self.event = event
        self.period = period
        self.count_kernel = count_kernel
        self.name = name
        self.fds: dict[int, int] = {}

    def setup(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        if ctx.tid in self.fds:
            raise SessionError(
                f"profiler {self.name!r} already attached to thread {ctx.tid}"
            )
        fd = yield Syscall(
            "perf_open", (self.event, "sample", self.period, True, self.count_kernel)
        )
        self.fds[ctx.tid] = fd

    def teardown(self, ctx: ThreadContext) -> Generator[Any, Any, None]:
        fd = self.fds.pop(ctx.tid, None)
        if fd is None:
            raise SessionError(
                f"profiler {self.name!r} not attached to thread {ctx.tid}"
            )
        yield Syscall("perf_close", (fd,))

    # -- post-run analysis ---------------------------------------------------

    def my_samples(self, result: RunResult) -> list[SampleRecord]:
        fd_set = set(self.fds.values()) | {
            s.fd for s in result.samples if s.event is self.event
        }
        return [
            s
            for s in result.samples
            if s.event is self.event and s.fd in fd_set
        ]

    def estimates(self, result: RunResult) -> dict[str | None, RegionEstimate]:
        """Per-region event estimates: samples attributed x period."""
        counts: dict[str | None, int] = {}
        for sample in self.my_samples(result):
            counts[sample.region] = counts.get(sample.region, 0) + 1
        return {
            region: RegionEstimate(
                region=region,
                samples=n,
                estimated_events=n * self.period,
            )
            for region, n in counts.items()
        }

    def estimate_for(self, result: RunResult, region: str) -> int:
        """Estimated event count for one region (0 if never sampled)."""
        est = self.estimates(result).get(region)
        return est.estimated_events if est else 0
