"""E20 (extension) — Resilient multi-tier traffic: the policy matrix.

Requests flow through an edge -> app -> db service chain under an
overload ramp (:mod:`repro.workloads.service`), once per arm of a
resilience-policy matrix:

* ``unprotected`` — no policies, effectively unbounded queues: the
  backlog (and with it p99) grows without bound past the knee.
* ``shed`` — bounded queues + priority depth shedding only.
* ``full`` — admission control (token bucket + depth gate), staleness
  timeouts, budgeted retries and circuit breakers.
* ``budgeted`` / ``budget_off`` — client-style retries of timed-out work
  with the retry budget on vs off: the off arm reproduces retry-storm
  metastability (issued calls far exceed admitted work), the on arm is
  the identical configuration with the budget breaking the loop.
* ``faults`` — the full arm under injected service-level faults
  (tier latency spikes, error bursts, a db crash/restart), proving the
  detect/miss ledger accounts for every injection.

Latency is measured inside the simulation by per-thread PMC-derived
clocks (LiMiT safe reads + rdtsc discipline); per-arm windowed latency
streams feed the multi-window SLO burn-rate alerts of
:mod:`repro.obs.alerts` — the unprotected arm must page during the
overload windows and stay silent in the calm ones, while the full arm
stays silent throughout. All verdicts derive from order-invariant window
merges, so serial and ``--jobs N`` runs agree bit-for-bit.
"""

from __future__ import annotations

from repro import fabric
from repro.common.tables import render_table
from repro.common.units import DEFAULT_FREQUENCY
from repro.experiments.base import ExperimentResult, multicore_config
from repro.faults.plan import (
    TIER_CRASH,
    TIER_ERROR,
    TIER_LATENCY,
    FaultPlan,
    tier_crash,
    tier_error,
    tier_latency,
)
from repro.obs import runtime as obs_runtime
from repro.obs.alerts import SloSpec, evaluate
from repro.workloads.service import (
    LATENCY_STREAM,
    PolicyConfig,
    ServiceChainConfig,
    ServiceChainWorkload,
    default_tiers,
    quick_chain,
)

EXP_ID = "E20"
TITLE = (
    "Resilient multi-tier traffic: admission control, load shedding, "
    "retry budgets and SLO burn-rate alerts (Figure)"
)
PAPER_CLAIM = (
    "precise in-application latency measurement localizes overload "
    "collapse to the unprotected configuration: admission control and "
    "load shedding keep goodput and p99 bounded through the same ramp, "
    "unbudgeted retries amplify issued load into a self-sustaining "
    "storm, and multi-window burn-rate alerts page on exactly the "
    "overloaded windows"
)

FULL_REQUESTS = 6_000   #: per generator per arm (2 generators)
QUICK_REQUESTS = 2_000
OVERLOAD_PEAK = 3.0
#: SLO for the burn-rate alerts: this fraction of requests must complete
#: within the chain deadline.
SLO_OBJECTIVE = 0.95

ARMS: tuple[str, ...] = (
    "unprotected", "shed", "full", "budgeted", "budget_off", "faults",
)

_POLICIES = {
    "unprotected": PolicyConfig.unprotected,
    "shed": PolicyConfig.shed_only,
    "full": PolicyConfig.full,
    "budgeted": PolicyConfig.budgeted,
    "budget_off": PolicyConfig.budget_off,
    "faults": PolicyConfig.full,
}


def chain_config(arm: str, quick: bool) -> ServiceChainConfig:
    """The service-chain shape for one arm (shared schedule; only the
    policies and — for the unprotected arm — queue bounds vary)."""
    requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    if arm == "unprotected":
        # Effectively unbounded queues: nothing sheds, everything waits.
        tiers = default_tiers(queue_capacity=4 * 2 * requests)
    else:
        tiers = default_tiers()
    cfg = ServiceChainConfig(
        tiers=tiers,
        policy=_POLICIES[arm](),
        label=arm,
        overload_peak=OVERLOAD_PEAK,
    )
    if quick:
        cfg = quick_chain(cfg, QUICK_REQUESTS)
    return cfg


def fault_plan(quick: bool) -> FaultPlan:
    """Service-level faults for the ``faults`` arm: periodic latency
    spikes at the bottleneck, an error burst at the app tier, and one
    db crash/restart outage mid-ramp."""
    nth = 400 if quick else 1200
    return FaultPlan(
        (
            tier_latency("db", extra=60_000, every=40),
            tier_error("app", every=50),
            tier_crash("db", outage=3_000_000, nth=nth),
        ),
        label="e20-service-faults",
    )


def slo_spec(arm: str, deadline_cycles: int) -> SloSpec:
    """The burn-rate alert policy evaluated over one arm's stream."""
    return SloSpec(
        name=f"{EXP_ID}-{arm}",
        stream=f"{LATENCY_STREAM}.{arm}",
        threshold_cycles=deadline_cycles,
        objective=SLO_OBJECTIVE,
    )


class ChainTrial:
    """Fabric job factory: one policy arm of the service chain."""

    def __init__(self, arm: str, quick: bool) -> None:
        self.arm = arm
        self.quick = quick
        self.workload: ServiceChainWorkload | None = None

    def build(self):
        self.workload = ServiceChainWorkload(chain_config(self.arm, self.quick))
        return self.workload.build()

    def extract(self, result):
        workload = self.workload
        session = workload.session if workload else None
        return {
            "summary": workload.summary() if workload else {},
            "clock": session.error_stats() if session else None,
        }


def _us(cycles: int) -> float:
    return DEFAULT_FREQUENCY.cycles_to_ns(cycles) / 1000.0


def run(quick: bool = False) -> ExperimentResult:
    jobs = []
    deadline = chain_config("full", quick).deadline_cycles
    for i, arm in enumerate(ARMS):
        config = multicore_config(
            n_cores=chain_config(arm, quick).n_threads, seed=2000 + i
        )
        if arm == "faults":
            config = config.with_faults(fault_plan(quick))
        jobs.append(
            fabric.RunJob(
                workload="repro.experiments.e20_resilience.ChainTrial",
                config=config,
                kwargs={"arm": arm, "quick": quick},
                label=f"{EXP_ID}:{arm}",
            )
        )
        # Register each arm's SLO on the ambient collector so the run
        # manifest grows an ``alerts`` block covering the whole matrix.
        obs_runtime.register_alert_spec(slo_spec(arm, deadline))

    outcomes = fabric.run_many(jobs)

    rows = []
    by_arm: dict[str, dict] = {}
    reconciled = True
    reads_exact = True
    for arm, outcome in zip(ARMS, outcomes):
        record = outcome.records[-1]
        stats = record.windows
        extra = outcome.extra or {}
        summary = extra.get("summary", {})
        clock = extra.get("clock") or {}
        reads_exact = reads_exact and clock.get("max_abs_error", 1) == 0
        reconciled = reconciled and stats.reconcile()
        hist = stats.totals.hists[f"{LATENCY_STREAM}.{arm}"]
        report = evaluate(stats, slo_spec(arm, deadline))
        calm_windows = set(range(chain_config(arm, quick).calm_cycles
                                 // stats.spec.window_cycles))
        by_arm[arm] = {
            "summary": summary,
            "p99": hist.percentile(99.0),
            "alerts": report,
            "calm_windows": calm_windows,
            "metrics": record.metrics,
        }
        offered = summary.get("offered", 0) or 1
        rows.append([
            arm,
            summary.get("offered", 0),
            summary.get("admitted", 0),
            f"{summary.get('goodput', 0) / offered:.2f}",
            summary.get("calls", 0),
            summary.get("retries", 0),
            f"{_us(hist.percentile(99.0)):.0f}",
            report.fired,
        ])

    table = render_table(
        ["arm", "offered", "admitted", "goodput", "calls", "retries",
         "p99_us", "alerts"],
        rows,
        title=(
            "Policy matrix through the same overload ramp (goodput = "
            "fraction completing within the deadline; latency from "
            "in-sim safe-PMC clocks; alerts = burn-rate firings)"
        ),
    )

    unprot = by_arm["unprotected"]
    full = by_arm["full"]
    shed = by_arm["shed"]
    budget_off = by_arm["budget_off"]
    budgeted = by_arm["budgeted"]
    faults = by_arm["faults"]

    def goodput_frac(arm: dict) -> float:
        s = arm["summary"]
        return s.get("goodput", 0) / max(1, s.get("offered", 0))

    # Retry amplification: issued tier calls per offered request. The
    # chain has three hops, so ~3.0 is the no-retry baseline.
    def amplification(arm: dict) -> float:
        s = arm["summary"]
        return s.get("calls", 0) / max(1, s.get("offered", 0))

    # The fault ledger must account for every injection.
    injected = faults["metrics"].get("faults.injected", 0.0)
    detected = faults["metrics"].get("faults.detected", 0.0)
    missed = faults["metrics"].get("faults.missed", 0.0)
    ledger_clean = injected > 0 and detected == injected and missed == 0

    # Alert placement: the unprotected arm pages only outside the calm
    # windows; the full arm never pages.
    unprot_fired = unprot["alerts"].firing_windows()
    alerts_in_overload_only = (
        len(unprot_fired) > 0
        and not (set(unprot_fired) & unprot["calm_windows"])
    )

    metrics = {
        "p99_collapse_ratio": unprot["p99"] / max(1, full["p99"]),
        "shed_vs_unprotected_p99": shed["p99"] / max(1, unprot["p99"]),
        "goodput_unprotected": goodput_frac(unprot),
        "goodput_full": goodput_frac(full),
        "amplification_budget_off": amplification(budget_off),
        "amplification_budgeted": amplification(budgeted),
        "retries_budget_off": float(
            budget_off["summary"].get("retries", 0)
        ),
        "retries_budgeted": float(budgeted["summary"].get("retries", 0)),
        "alerts_unprotected": float(unprot["alerts"].fired),
        "alerts_full": float(full["alerts"].fired),
        "alerts_in_overload_only": 1.0 if alerts_in_overload_only else 0.0,
        "faults_injected": injected,
        "fault_ledger_clean": 1.0 if ledger_clean else 0.0,
        "windows_reconciled": 1.0 if reconciled else 0.0,
        "all_reads_exact": 1.0 if reads_exact else 0.0,
    }
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        blocks=[table],
        metrics=metrics,
        notes=(
            f"same ramp, six arms: unprotected p99 is "
            f"{metrics['p99_collapse_ratio']:.0f}x the full-policy arm's "
            f"and its goodput {goodput_frac(unprot):.2f} vs "
            f"{goodput_frac(full):.2f}; unbudgeted retries amplify "
            f"issued calls to {metrics['amplification_budget_off']:.1f} "
            f"per request (budgeted: "
            f"{metrics['amplification_budgeted']:.1f}); burn-rate "
            f"alerts fired {unprot['alerts'].fired}x on the unprotected "
            f"arm, all in overload windows, and 0x on the full arm; "
            f"every injected service fault was resolved in the ledger "
            f"({int(injected)} injected, {int(missed)} missed)"
        ),
    )
