"""Synchronization statistics — the analysis behind case studies E6/E7.

Summarises per-lock ground truth (and tool observations) into the
quantities the paper reports: acquisition rates, hold/wait distributions,
contention rates, and the fraction of execution spent in or waiting on
critical sections.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import truth_log
from repro.kernel.locks import LockStats
from repro.sim.results import RunResult, merge_histogram

#: Histogram bin edges for critical-section lengths, in cycles at 2.4 GHz:
#: <240 (=100ns), <2.4k (1us), <24k (10us), <240k (100us), >=240k.
CS_HISTOGRAM_EDGES = [240, 2_400, 24_000, 240_000]
CS_HISTOGRAM_LABELS = ["<100ns", "<1us", "<10us", "<100us", ">=100us"]


@dataclass(frozen=True)
class LockSummary:
    """One lock's headline statistics."""

    name: str
    n_acquires: int
    contention_rate: float
    futex_rate: float          #: fraction of acquisitions that slept
    mean_hold_cycles: float
    mean_wait_cycles: float
    total_hold_cycles: int
    total_wait_cycles: int


@dataclass(frozen=True)
class SyncProfile:
    """Whole-run synchronization profile."""

    locks: dict[str, LockSummary]
    total_acquires: int
    acquires_per_mcycle: float      #: acquisition frequency
    hold_fraction: float            #: of total cpu cycles spent holding locks
    wait_fraction: float            #: of total cpu cycles spent waiting
    hold_histogram: list[int]       #: per CS_HISTOGRAM_EDGES bucket
    wait_histogram: list[int]

    @property
    def mean_hold_cycles(self) -> float:
        total = sum(s.total_hold_cycles for s in self.locks.values())
        n = sum(s.n_acquires for s in self.locks.values())
        return total / n if n else 0.0


def summarize_lock(name: str, stats: LockStats) -> LockSummary:
    return LockSummary(
        name=name,
        n_acquires=stats.n_acquires,
        contention_rate=stats.contention_rate,
        futex_rate=(
            stats.n_futex_sleeps / stats.n_acquires if stats.n_acquires else 0.0
        ),
        mean_hold_cycles=stats.mean_hold,
        mean_wait_cycles=stats.mean_wait,
        total_hold_cycles=stats.total_hold,
        total_wait_cycles=stats.total_wait,
    )


def sync_profile(result: RunResult, prefix: str = "") -> SyncProfile:
    """Build the synchronization profile of a run (optionally restricted to
    locks whose name starts with ``prefix``)."""
    summaries: dict[str, LockSummary] = {}
    all_holds = truth_log()
    all_waits = truth_log()
    for name, stats in result.locks.items():
        if not name.startswith(prefix):
            continue
        summaries[name] = summarize_lock(name, stats)
        all_holds.extend(stats.hold_cycles)
        all_waits.extend(stats.wait_cycles)
    total_acquires = sum(s.n_acquires for s in summaries.values())
    cpu = result.total_cpu_cycles()
    total_hold = sum(s.total_hold_cycles for s in summaries.values())
    total_wait = sum(s.total_wait_cycles for s in summaries.values())
    return SyncProfile(
        locks=summaries,
        total_acquires=total_acquires,
        acquires_per_mcycle=(
            total_acquires / (cpu / 1_000_000) if cpu else 0.0
        ),
        hold_fraction=total_hold / cpu if cpu else 0.0,
        wait_fraction=total_wait / cpu if cpu else 0.0,
        hold_histogram=merge_histogram(all_holds, CS_HISTOGRAM_EDGES),
        wait_histogram=merge_histogram(all_waits, CS_HISTOGRAM_EDGES),
    )


def short_section_fraction(
    profile: SyncProfile, threshold_cycles: int = 2_400
) -> float:
    """Fraction of critical sections shorter than ``threshold_cycles``
    (default 1 us at 2.4 GHz) — the paper's 'locks are short' headline."""
    counts = profile.hold_histogram
    total = sum(counts)
    if total == 0:
        return 0.0
    short = 0
    edge_acc = 0
    for i, edge in enumerate(CS_HISTOGRAM_EDGES):
        if edge <= threshold_cycles:
            short += counts[i]
            edge_acc = edge
    if edge_acc != threshold_cycles:
        # threshold between edges: conservative (counts fully below it only)
        pass
    return short / total
