"""Run-result export: structured JSON, a human-readable run report, the
measured user/kernel split and the top-down bottleneck diagnosis."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.analysis.expr import env_from_counts, evaluate, parse
from repro.analysis.sync_stats import sync_profile
from repro.analysis.tree import (
    STANDARD_METRICS,
    classify_env,
    counts_from_result,
    implications_report,
)
from repro.common.tables import render_table
from repro.sim.results import RunResult

_CPI = parse(STANDARD_METRICS["cpi"])


@dataclass(frozen=True)
class UserKernelBreakdown:
    """The E8 artifact: where cpu cycles go, per thread group."""

    group: str
    user_cycles: int
    kernel_cycles: int
    idle_wall_cycles: int      #: wall - cpu for the group's threads

    @property
    def cpu_cycles(self) -> int:
        return self.user_cycles + self.kernel_cycles

    @property
    def kernel_fraction(self) -> float:
        return self.kernel_cycles / self.cpu_cycles if self.cpu_cycles else 0.0


def user_kernel_breakdown(result: RunResult, prefix: str = "") -> UserKernelBreakdown:
    """Aggregate user/kernel split over threads whose name starts with
    ``prefix`` (empty prefix = whole run)."""
    threads = [t for t in result.threads.values() if t.name.startswith(prefix)]
    user = sum(t.user_cycles for t in threads)
    kernel = sum(t.kernel_cycles for t in threads)
    wall = sum(t.wall_cycles for t in threads)
    return UserKernelBreakdown(
        group=prefix or "all",
        user_cycles=user,
        kernel_cycles=kernel,
        idle_wall_cycles=max(0, wall - user - kernel),
    )


def result_to_dict(result: RunResult) -> dict[str, Any]:
    """A JSON-serializable snapshot of a run (threads, cores, kernel
    activity, locks, samples). Region per-invocation logs are summarized,
    not dumped, to keep exports bounded."""
    return {
        "wall_cycles": result.wall_cycles,
        "frequency_hz": result.config.machine.frequency.hz,
        "n_cores": len(result.cores),
        "threads": [
            {
                "tid": t.tid,
                "name": t.name,
                "user_cycles": t.user_cycles,
                "kernel_cycles": t.kernel_cycles,
                "wall_cycles": t.wall_cycles,
                "context_switches": t.n_context_switches,
                "migrations": t.n_migrations,
                "syscalls": t.n_syscalls,
                "read_restarts": t.read_restarts,
                "events_user": {e.value: n for e, n in t.events_user.items()},
                "events_kernel": {e.value: n for e, n in t.events_kernel.items()},
                "regions": {
                    name: {
                        "invocations": rt.invocations,
                        "user_cycles": rt.user_cycles,
                        "kernel_cycles": rt.kernel_cycles,
                    }
                    for name, rt in t.regions.items()
                },
            }
            for t in sorted(result.threads.values(), key=lambda t: t.tid)
        ],
        "cores": [
            {
                "core_id": c.core_id,
                "final_time": c.final_time,
                "busy_cycles": c.busy_cycles,
                "user_cycles": c.user_cycles,
                "kernel_cycles": c.kernel_cycles,
                "utilization": c.utilization,
            }
            for c in result.cores
        ],
        "kernel": {
            "context_switches": result.kernel.n_context_switches,
            "timer_ticks": result.kernel.n_timer_ticks,
            "pmis": result.kernel.n_pmis,
            "counter_overflows": result.kernel.n_counter_overflows,
            "samples": result.kernel.n_samples,
            "futex_waits": result.kernel.n_futex_waits,
            "futex_wakes": result.kernel.n_futex_wakes,
            "steals": result.kernel.n_steals,
            "syscalls": dict(result.kernel.n_syscalls),
        },
        "locks": {
            name: {
                "acquires": st.n_acquires,
                "contended": st.n_contended,
                "futex_sleeps": st.n_futex_sleeps,
                "total_hold_cycles": st.total_hold,
                "total_wait_cycles": st.total_wait,
                "mean_hold_cycles": st.mean_hold,
            }
            for name, st in sorted(result.locks.items())
        },
        "n_samples": len(result.samples),
    }


def result_to_json(result: RunResult, indent: int = 2) -> str:
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


def run_report(result: RunResult, top_locks: int = 5) -> str:
    """A multi-section text report of a finished run."""
    freq = result.config.machine.frequency
    sections = []

    breakdown = user_kernel_breakdown(result)
    sections.append(
        f"run: {result.wall_cycles:,} cycles "
        f"({freq.cycles_to_ms(result.wall_cycles):.2f} ms) on "
        f"{len(result.cores)} cores; kernel share "
        f"{breakdown.kernel_fraction:.1%}; "
        f"{result.kernel.n_context_switches} switches, "
        f"{result.kernel.syscall_total()} syscalls, "
        f"{result.kernel.n_pmis} PMIs"
    )

    rows = []
    for t in sorted(result.threads.values(), key=lambda t: -t.cpu_cycles):
        cpi = evaluate(_CPI, env_from_counts(t.events_user))
        rows.append(
            [
                t.name,
                t.user_cycles,
                t.kernel_cycles,
                "-" if cpi is None else round(cpi, 2),
                t.n_context_switches,
            ]
        )
    sections.append(
        render_table(
            ["thread", "user cy", "kernel cy", "cpi", "switches"],
            rows,
            title="threads",
        )
    )

    profile = sync_profile(result)
    if profile.total_acquires:
        lock_rows = []
        ranked = sorted(
            profile.locks.values(), key=lambda s: -s.total_hold_cycles
        )[:top_locks]
        for summary in ranked:
            lock_rows.append(
                [
                    summary.name,
                    summary.n_acquires,
                    f"{summary.contention_rate:.1%}",
                    round(summary.mean_hold_cycles),
                    round(summary.mean_wait_cycles),
                ]
            )
        sections.append(
            render_table(
                ["lock", "acquires", "contended", "mean hold", "mean wait"],
                lock_rows,
                title=f"hottest locks (of {len(profile.locks)})",
            )
        )

    return "\n\n".join(sections)


def bottleneck_report(result: RunResult) -> str:
    """The top-down diagnosis of a run — the same tree walk the manifest
    ``classification`` block records — under one line of measured facts:
    CPI over both domains (``$cpi``), the kernel share of cpu cycles, and
    the share of cpu cycles spent holding and waiting on locks."""
    env = env_from_counts(counts_from_result(result))
    cpi = evaluate(_CPI, env)
    kernel = user_kernel_breakdown(result).kernel_fraction
    sync = sync_profile(result)
    facts = (
        f"CPI {'-' if cpi is None else format(cpi, '.2f')}; "
        f"kernel {kernel:.1%}; lock-hold {sync.hold_fraction:.1%}; "
        f"lock-wait {sync.wait_fraction:.1%}"
    )
    return facts + "\n" + implications_report(classify_env(env))
