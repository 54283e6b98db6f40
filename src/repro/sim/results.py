"""Results of a simulation run.

The engine assembles a :class:`RunResult` when the last thread finishes. It
contains *ground truth*: exact per-thread, per-domain, per-region event
counts that no measurement tool running inside the simulation can see.
Accuracy experiments compare tool observations against these.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable

from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.common.units import truth_log
from repro.hw.events import Domain, Event
from repro.kernel.locks import LockStats
from repro.kernel.perf import SampleRecord


@dataclass
class RegionTruth:
    """Ground truth for one region name within one thread."""

    name: str
    invocations: int = 0
    #: exact user-domain event counts accrued while innermost (CYCLES incl.)
    events: dict[Event, int] = field(default_factory=dict)
    #: kernel cycles charged while this region was innermost
    kernel_cycles: int = 0
    #: per-invocation executed cycles (user+kernel), for length histograms
    exec_cycles: array[int] = field(default_factory=truth_log)
    #: per-invocation wall cycles (includes descheduled time)
    wall_cycles: array[int] = field(default_factory=truth_log)

    @property
    def user_cycles(self) -> int:
        return self.events.get(Event.CYCLES, 0)


@dataclass
class ThreadResult:
    """Final, exact statistics of one simulated thread."""

    tid: int
    name: str
    started_at: int
    finished_at: int
    user_cycles: int
    kernel_cycles: int
    n_context_switches: int
    n_preemptions: int
    n_migrations: int
    n_cross_socket_migrations: int
    n_syscalls: int         #: syscall-class ops, Sleep, JoinThread and YieldCpu too
    read_restarts: int      #: LiMiT safe-read retries this thread performed
    events_user: dict[Event, int]
    events_kernel: dict[Event, int]
    regions: dict[str, RegionTruth]

    @property
    def cpu_cycles(self) -> int:
        return self.user_cycles + self.kernel_cycles

    @property
    def wall_cycles(self) -> int:
        return self.finished_at - self.started_at

    def truth(self, event: Event, domain: Domain | None = None) -> int:
        """Exact count of ``event`` in the given domain (both if None)."""
        if domain is Domain.USER:
            return self.events_user.get(event, 0)
        if domain is Domain.KERNEL:
            return self.events_kernel.get(event, 0)
        return self.events_user.get(event, 0) + self.events_kernel.get(event, 0)


@dataclass
class CoreResult:
    core_id: int
    final_time: int
    busy_cycles: int
    user_cycles: int
    kernel_cycles: int

    @property
    def utilization(self) -> float:
        return self.busy_cycles / self.final_time if self.final_time else 0.0


@dataclass
class KernelCounters:
    """Aggregate kernel activity during the run."""

    n_context_switches: int = 0
    n_timer_ticks: int = 0
    n_pmis: int = 0
    n_counter_overflows: int = 0
    n_samples: int = 0
    #: Per-name count of ``Syscall`` ops, plus ``"clone"`` for each
    #: ``SpawnThread``. ``Sleep``, ``JoinThread`` and ``YieldCpu`` run the
    #: same kernel path but count only in ``ThreadResult.n_syscalls``.
    n_syscalls: dict[str, int] = field(default_factory=dict)
    n_futex_waits: int = 0
    n_futex_wakes: int = 0
    n_steals: int = 0

    def syscall_total(self) -> int:
        return sum(self.n_syscalls.values())


@dataclass
class RunResult:
    """Everything a finished simulation exposes."""

    config: SimConfig
    wall_cycles: int
    threads: dict[int, ThreadResult]
    cores: list[CoreResult]
    kernel: KernelCounters
    locks: dict[str, LockStats]
    samples: list[SampleRecord]
    trace: list[tuple] = field(default_factory=list)
    #: simulator self-telemetry (host-side; excluded from fingerprint())
    metrics: dict[str, float] = field(default_factory=dict)

    # -- lookups -----------------------------------------------------------

    def thread_by_name(self, name: str) -> ThreadResult:
        for t in self.threads.values():
            if t.name == name:
                return t
        raise SimulationError(f"no thread named {name!r}")

    def threads_matching(self, prefix: str) -> list[ThreadResult]:
        return [t for t in self.threads.values() if t.name.startswith(prefix)]

    # -- aggregates ----------------------------------------------------------

    def total(self, event: Event, domain: Domain | None = None) -> int:
        return sum(t.truth(event, domain) for t in self.threads.values())

    def total_cpu_cycles(self) -> int:
        return sum(t.cpu_cycles for t in self.threads.values())

    def total_user_cycles(self) -> int:
        return sum(t.user_cycles for t in self.threads.values())

    def total_kernel_cycles(self) -> int:
        return sum(t.kernel_cycles for t in self.threads.values())

    def region_truths(self, name: str) -> list[RegionTruth]:
        """The RegionTruth of ``name`` in every thread that has it."""
        out = []
        for t in self.threads.values():
            if name in t.regions:
                out.append(t.regions[name])
        return out

    def merged_region(self, name: str) -> RegionTruth:
        """Merge one region's truth across all threads."""
        merged = RegionTruth(name=name)
        for rt in self.region_truths(name):
            merged.invocations += rt.invocations
            merged.kernel_cycles += rt.kernel_cycles
            for event, n in rt.events.items():
                merged.events[event] = merged.events.get(event, 0) + n
            merged.exec_cycles.extend(rt.exec_cycles)
            merged.wall_cycles.extend(rt.wall_cycles)
        return merged

    def all_region_names(self) -> list[str]:
        names: set[str] = set()
        for t in self.threads.values():
            names.update(t.regions)
        return sorted(names)

    def fingerprint(self) -> str:
        """Digest of every *simulated* quantity in this result.

        Deliberately excludes the host-side extras (``trace``, ``metrics``)
        and the config: two runs of the same workload must produce the same
        fingerprint whether or not tracing/metrics were on. The
        zero-perturbation property tests rest on this.
        """
        def thread_dict(t: ThreadResult) -> dict:
            return {
                "tid": t.tid,
                "name": t.name,
                "started_at": t.started_at,
                "finished_at": t.finished_at,
                "user_cycles": t.user_cycles,
                "kernel_cycles": t.kernel_cycles,
                "n_context_switches": t.n_context_switches,
                "n_preemptions": t.n_preemptions,
                "n_migrations": t.n_migrations,
                "n_cross_socket_migrations": t.n_cross_socket_migrations,
                "n_syscalls": t.n_syscalls,
                "read_restarts": t.read_restarts,
                "events_user": {e.name: n for e, n in sorted(
                    t.events_user.items(), key=lambda kv: kv[0].name)},
                "events_kernel": {e.name: n for e, n in sorted(
                    t.events_kernel.items(), key=lambda kv: kv[0].name)},
                "regions": {
                    name: {
                        "invocations": r.invocations,
                        "events": {e.name: n for e, n in sorted(
                            r.events.items(), key=lambda kv: kv[0].name)},
                        "kernel_cycles": r.kernel_cycles,
                        "exec_cycles": r.exec_cycles.tolist(),
                        "wall_cycles": r.wall_cycles.tolist(),
                    }
                    for name, r in sorted(t.regions.items())
                },
            }

        payload = {
            "wall_cycles": self.wall_cycles,
            "threads": {tid: thread_dict(t) for tid, t in sorted(self.threads.items())},
            "cores": [
                {
                    "core_id": c.core_id,
                    "final_time": c.final_time,
                    "busy_cycles": c.busy_cycles,
                    "user_cycles": c.user_cycles,
                    "kernel_cycles": c.kernel_cycles,
                }
                for c in self.cores
            ],
            "kernel": {
                "n_context_switches": self.kernel.n_context_switches,
                "n_timer_ticks": self.kernel.n_timer_ticks,
                "n_pmis": self.kernel.n_pmis,
                "n_counter_overflows": self.kernel.n_counter_overflows,
                "n_samples": self.kernel.n_samples,
                "n_syscalls": dict(sorted(self.kernel.n_syscalls.items())),
                "n_futex_waits": self.kernel.n_futex_waits,
                "n_futex_wakes": self.kernel.n_futex_wakes,
                "n_steals": self.kernel.n_steals,
            },
            "locks": {
                name: {
                    "n_acquires": s.n_acquires,
                    "n_contended": s.n_contended,
                    "n_futex_sleeps": s.n_futex_sleeps,
                    "hold_cycles": s.hold_cycles.tolist(),
                    "wait_cycles": s.wait_cycles.tolist(),
                }
                for name, s in sorted(self.locks.items())
            },
            "samples": [
                {
                    "time": s.time,
                    "tid": s.tid,
                    "region": s.region,
                    "event": s.event.name,
                    "fd": s.fd,
                }
                for s in self.samples
            ],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def check_conservation(self) -> None:
        """Assert the core accounting invariants; raises SimulationError.

        * per-core: busy == user + kernel and busy <= final time;
        * machine: sum of thread cpu cycles == sum of core busy cycles.
        """
        for core in self.cores:
            if core.user_cycles + core.kernel_cycles != core.busy_cycles:
                raise SimulationError(
                    f"core {core.core_id}: user {core.user_cycles} + kernel "
                    f"{core.kernel_cycles} != busy {core.busy_cycles}"
                )
            if core.busy_cycles > core.final_time:
                raise SimulationError(
                    f"core {core.core_id}: busy {core.busy_cycles} exceeds "
                    f"final time {core.final_time}"
                )
        thread_cpu = self.total_cpu_cycles()
        core_busy = sum(c.busy_cycles for c in self.cores)
        if thread_cpu != core_busy:
            raise SimulationError(
                f"thread cpu cycles {thread_cpu} != core busy cycles {core_busy}"
            )


def merge_histogram(values: Iterable[int], edges: list[int]) -> list[int]:
    """Bucket values by the given ascending edges; last bucket is overflow.

    Returns len(edges)+1 counts: [<e0, [e0,e1), ..., >=e_last].
    """
    counts = [0] * (len(edges) + 1)
    for v in values:
        counts[bisect_right(edges, v)] += 1
    return counts
