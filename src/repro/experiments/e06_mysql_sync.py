"""E6 — Figure/Table: MySQL synchronization case study, and how the access
technique perturbs it.

The same MySQL model runs three times with identical seeds: uninstrumented,
with LiMiT-instrumented locks, and with PAPI-instrumented locks. Each
instrumented run reports what *its* tool observed; comparing against the
unperturbed run's ground truth shows the observer effect: microsecond-cost
reads inside every acquisition/release path inflate critical sections and
induce contention that was not there, while LiMiT's ~37 ns reads leave the
behaviour essentially unchanged — the reason the paper's MySQL numbers were
previously unobtainable.
"""

from __future__ import annotations

from repro.analysis.sync_stats import sync_profile
from repro.baselines.papi import PapiLikeSession
from repro.common.tables import render_table
from repro.core.limit import LimitSession
from repro.experiments.base import ExperimentResult, multicore_config
from repro.hw.events import Event
from repro.sim.engine import run_program
from repro.workloads.base import Instrumentation
from repro.workloads.mysql import LOG_LOCK, MysqlConfig, MysqlWorkload

EXP_ID = "E6"
TITLE = "MySQL locks: behaviour and measurement perturbation (Figure)"
PAPER_CLAIM = (
    "MySQL acquires locks extremely frequently but holds them briefly with "
    "little contention; only a low-overhead precise technique can measure "
    "this without distorting it"
)


def _mysql_config(quick: bool) -> MysqlConfig:
    return MysqlConfig(
        n_workers=8,
        transactions_per_worker=25 if quick else 120,
    )


def run(quick: bool = False) -> ExperimentResult:
    config = multicore_config(n_cores=4, seed=66)

    def one_run(instr: Instrumentation | None):
        workload = MysqlWorkload(_mysql_config(quick))
        result = run_program(workload.build(instr), config)
        result.check_conservation()
        return result, instr

    # -- arm 1: unperturbed ground truth --------------------------------------
    plain_result, _ = one_run(None)
    plain_sync = sync_profile(plain_result, prefix="mysql:")
    plain_log = plain_result.locks[LOG_LOCK]

    # -- arm 2: LiMiT-instrumented locks --------------------------------------
    limit = LimitSession([Event.CYCLES], count_kernel=True, name="limit")
    limit_result, limit_run_instr = one_run(
        Instrumentation(sessions=[limit], lock_reader=limit)
    )
    limit_obs = limit_run_instr.lock_observations()[LOG_LOCK]
    limit_log_truth = limit_result.locks[LOG_LOCK]

    # -- arm 3: PAPI-instrumented locks --------------------------------------
    papi = PapiLikeSession([Event.CYCLES], count_kernel=True, name="papi")
    papi_result, papi_run_instr = one_run(
        Instrumentation(sessions=[papi], lock_reader=papi)
    )
    papi_obs = papi_run_instr.lock_observations()[LOG_LOCK]
    papi_log_truth = papi_result.locks[LOG_LOCK]

    # -- tables -----------------------------------------------------------------
    table1 = render_table(
        ["arm", "wall slowdown", "log-lock true hold (cy)", "log-lock contention"],
        [
            ["plain", 1.0, round(plain_log.mean_hold, 0),
             f"{plain_log.contention_rate:.1%}"],
            [
                "limit-instrumented",
                round(limit_result.wall_cycles / plain_result.wall_cycles, 3),
                round(limit_log_truth.mean_hold, 0),
                f"{limit_log_truth.contention_rate:.1%}",
            ],
            [
                "papi-instrumented",
                round(papi_result.wall_cycles / plain_result.wall_cycles, 3),
                round(papi_log_truth.mean_hold, 0),
                f"{papi_log_truth.contention_rate:.1%}",
            ],
        ],
        title="perturbation: what instrumenting the locks does to the app",
    )

    table2 = render_table(
        ["metric", "value"],
        [
            ["lock acquisitions", plain_sync.total_acquires],
            ["acquisitions / Mcycle", round(plain_sync.acquires_per_mcycle, 1)],
            ["mean hold (cycles)", round(plain_sync.mean_hold_cycles, 0)],
            ["cycles held / total", f"{plain_sync.hold_fraction:.1%}"],
            ["cycles waiting / total", f"{plain_sync.wait_fraction:.2%}"],
        ],
        title="MySQL synchronization profile (unperturbed ground truth)",
    )

    limit_slow = limit_result.wall_cycles / plain_result.wall_cycles
    papi_slow = papi_result.wall_cycles / plain_result.wall_cycles
    hold_inflation_limit = (
        limit_log_truth.mean_hold / plain_log.mean_hold if plain_log.mean_hold else 0
    )
    hold_inflation_papi = (
        papi_log_truth.mean_hold / plain_log.mean_hold if plain_log.mean_hold else 0
    )
    metrics = {
        "limit_slowdown": limit_slow,
        "papi_slowdown": papi_slow,
        "limit_hold_inflation": hold_inflation_limit,
        "papi_hold_inflation": hold_inflation_papi,
        "acquires_per_mcycle": plain_sync.acquires_per_mcycle,
        "mean_hold_cycles": plain_sync.mean_hold_cycles,
        "wait_fraction": plain_sync.wait_fraction,
        "limit_obs_mean_hold": limit_obs.mean_hold,
        "papi_obs_mean_hold": papi_obs.mean_hold,
    }
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        blocks=[table1, table2],
        metrics=metrics,
    )
