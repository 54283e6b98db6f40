"""E19 (extension) — Open-loop traffic: tail latency through saturation.

The paper's pitch is precise counting *under production load*; ROADMAP
item 5 asks for the matching scenario. Worker threads serve an open-loop
arrival process (constant, diurnal, burst and overload schedules from
:mod:`repro.workloads.traffic`); per-request latency — queueing included —
is measured inside the simulated system by a PMC-derived clock built on
LiMiT safe reads of a user+kernel CYCLES counter, never by the harness.

The experiment sweeps the constant schedule's offered load through the
saturation knee and runs each shaped schedule once, reporting
p50/p95/p99/p99.9 per row from the windowed collector's mergeable
log-bucket histograms (exact merges: serial and ``--jobs N`` execution
produce bit-identical summaries — a property test holds this). Collector
memory stays bounded by the window retention no matter how many requests
flow, every windowed summary reconciles exactly against batch totals, and
every safe read is audited exact.
"""

from __future__ import annotations

from repro import fabric
from repro.common.tables import render_table
from repro.common.units import DEFAULT_FREQUENCY
from repro.experiments.base import ExperimentResult, multicore_config
from repro.obs.hist import SUMMARY_PERCENTILES
from repro.workloads.traffic import (
    DRIFT_STREAM,
    LATENCY_STREAM,
    TrafficConfig,
    TrafficWorkload,
    quick_config,
)

EXP_ID = "E19"
TITLE = "Open-loop traffic: tail latency through saturation (Figure)"
PAPER_CLAIM = (
    "precise in-application counter reads measure per-request latency "
    "under production-shaped load at negligible cost, with streamed "
    "window summaries reconciling exactly against batch totals"
)

N_WORKERS = 4
FULL_REQUESTS = 40_000   #: per worker per schedule point (7 points -> 1.12M)
QUICK_REQUESTS = 600


def _points(quick: bool) -> list[tuple[str, float]]:
    """(schedule, offered load) rows: a constant-rate sweep through the
    saturation knee plus one run of each shaped schedule."""
    sweep = [("constant", load) for load in (0.3, 0.6, 0.85, 1.05)]
    shaped = [("diurnal", 0.7), ("burst", 0.6), ("overload", 1.0)]
    return sweep + shaped


class TrafficTrial:
    """Fabric job factory: one schedule point of the traffic generator."""

    def __init__(self, schedule: str, load: float, quick: bool) -> None:
        self.schedule = schedule
        self.load = load
        self.quick = quick
        self.workload: TrafficWorkload | None = None

    def build(self):
        cfg = TrafficConfig(
            n_workers=N_WORKERS,
            requests_per_worker=FULL_REQUESTS,
            schedule=self.schedule,
            load=self.load,
        )
        if self.quick:
            cfg = quick_config(cfg, QUICK_REQUESTS)
        self.workload = TrafficWorkload(cfg)
        return self.workload.build()

    def extract(self, result):
        session = self.workload.session
        return {"clock": session.error_stats() if session else None}


def _us(cycles: int) -> float:
    return DEFAULT_FREQUENCY.cycles_to_ns(cycles) / 1000.0


def run(quick: bool = False) -> ExperimentResult:
    points = _points(quick)
    outcomes = fabric.run_many(
        [
            fabric.RunJob(
                workload="repro.experiments.e19_open_loop.TrafficTrial",
                config=multicore_config(n_cores=N_WORKERS, seed=1900 + i),
                kwargs={"schedule": s, "load": load, "quick": quick},
                label=f"{EXP_ID}:{s}@{load:g}",
            )
            for i, (s, load) in enumerate(points)
        ]
    )

    rows = []
    total_requests = 0
    reconciled = True
    bounded = True
    reads_exact = True
    drift_p99 = 0
    p99_by_constant_load: dict[float, int] = {}
    for (schedule, load), outcome in zip(points, outcomes):
        record = outcome.records[-1]
        stats = record.windows
        hist = stats.totals.hists[f"{LATENCY_STREAM}.{schedule}"]
        summary = hist.summary()
        total_requests += summary["count"]
        reconciled = reconciled and stats.reconcile()
        audit = stats.memory_audit()
        bounded = bounded and audit["max_retained"] <= audit["retention"]
        clock = (outcome.extra or {}).get("clock") or {}
        reads_exact = reads_exact and clock.get("max_abs_error", 1) == 0
        drift = stats.totals.hists.get(DRIFT_STREAM)
        if drift is not None:
            drift_p99 = max(drift_p99, drift.percentile(99.0))
        if schedule == "constant":
            p99_by_constant_load[load] = summary["p99"]
        rows.append(
            [
                schedule,
                f"{load:.2f}",
                summary["count"],
                f"{audit['max_retained']}/{audit['retention']}",
            ]
            + [f"{_us(summary[key]):.1f}" for key, _p in SUMMARY_PERCENTILES]
        )

    table = render_table(
        ["schedule", "load", "requests", "windows"]
        + [key for key, _p in SUMMARY_PERCENTILES],
        rows,
        title=(
            "Open-loop request latency by arrival schedule (percentiles in "
            "us, from in-sim safe-PMC-read timestamps; queueing included)"
        ),
    )

    low = min(p99_by_constant_load)
    knee = max(p99_by_constant_load)
    amplification = (
        p99_by_constant_load[knee] / p99_by_constant_load[low]
        if p99_by_constant_load[low]
        else 0.0
    )
    metrics = {
        "total_requests": float(total_requests),
        "p99_saturation_amplification": amplification,
        "windows_reconciled": 1.0 if reconciled else 0.0,
        "memory_bounded": 1.0 if bounded else 0.0,
        "all_reads_exact": 1.0 if reads_exact else 0.0,
        "clock_drift_p99_cycles": float(drift_p99),
    }
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        blocks=[table],
        metrics=metrics,
        notes=(
            f"{total_requests} open-loop requests; pushing offered load "
            f"{low:g} -> {knee:g} of capacity amplifies p99 by "
            f"{amplification:.1f}x; PMC clock drift p99 "
            f"{drift_p99} cycles between rdtsc resyncs; all windowed "
            "summaries reconcile exactly with batch totals"
        ),
    )
