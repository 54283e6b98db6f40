"""E8 — Figure: user vs kernel cycle breakdown per application class.

Server workloads spend a large share of their cycles in the kernel —
syscalls, scheduling, interrupt handling — which per-user-mode profiling
misses entirely. LiMiT's per-domain counters (USR/OS select bits on the
virtualized counters) expose the split; SPEC-class compute is the control.
"""

from __future__ import annotations

from repro.analysis.reports import user_kernel_breakdown
from repro.common.tables import render_table
from repro.experiments.base import ExperimentResult, multicore_config
from repro.sim.engine import run_program
from repro.workloads.apache import ApacheConfig, ApacheWorkload
from repro.workloads.firefox import FirefoxConfig, FirefoxWorkload
from repro.workloads.mysql import MysqlConfig, MysqlWorkload
from repro.workloads.spec import SpecSuiteWorkload

EXP_ID = "E8"
TITLE = "User vs kernel cycles by application (Figure)"
PAPER_CLAIM = (
    "cloud/server applications execute a substantial fraction of their "
    "cycles in the kernel, invisible to user-only characterization; "
    "compute benchmarks do not"
)


def run(quick: bool = False) -> ExperimentResult:
    scale = 1 if quick else 4
    apps = {
        "mysql": MysqlWorkload(
            MysqlConfig(n_workers=8, transactions_per_worker=25 * scale)
        ),
        "apache": ApacheWorkload(
            ApacheConfig(n_workers=8, requests_per_worker=30 * scale)
        ),
        "firefox": FirefoxWorkload(FirefoxConfig(events=120 * scale)),
        "spec_suite": SpecSuiteWorkload(scale=0.5 * scale),
    }

    rows = []
    kernel_fracs: dict[str, float] = {}
    for app_name, workload in apps.items():
        result = run_program(workload.build(), multicore_config(n_cores=4, seed=88))
        result.check_conservation()
        b = user_kernel_breakdown(result)
        kernel_fracs[app_name] = b.kernel_fraction
        rows.append(
            [
                app_name,
                b.user_cycles,
                b.kernel_cycles,
                f"{b.kernel_fraction:.1%}",
                result.kernel.syscall_total(),
                result.kernel.n_context_switches,
            ]
        )
    table = render_table(
        ["app", "user cycles", "kernel cycles", "kernel %", "syscalls", "switches"],
        rows,
        title="cycle domain breakdown (ground truth; LiMiT's OS-domain "
        "counters observe the same split in-band)",
    )
    metrics = {f"{k}_kernel_fraction": v for k, v in kernel_fracs.items()}
    metrics["server_min_kernel_fraction"] = min(
        kernel_fracs["mysql"], kernel_fracs["apache"]
    )
    metrics["spec_kernel_fraction"] = kernel_fracs["spec_suite"]
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        blocks=[table],
        metrics=metrics,
    )
