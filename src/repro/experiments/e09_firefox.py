"""E9 — Figure: profiling Firefox's microsecond-scale JS functions.

The paper's flagship "previously impossible" measurement: per-invocation
costs of functions that run for hundreds of nanoseconds to a few
microseconds. At those scales a PAPI-class read pair costs more than the
function itself (distorting the engine's behaviour), and samplers see only
the largest functions. LiMiT measures every invocation at a few percent
total overhead.

Four arms over the same Firefox model (identical seeds, hence identical
function call sequences): uninstrumented, LiMiT per-function measurement,
PAPI-class per-function measurement, PMI sampling.
"""

from __future__ import annotations

from repro.analysis.accuracy import relative_error, score_attribution
from repro.baselines.papi import PapiLikeSession
from repro.baselines.sampling import SamplingProfiler
from repro.common.tables import render_table
from repro.core.limit import LimitSession
from repro.core.regions import PreciseRegionProfiler
from repro.experiments.base import ExperimentResult, multicore_config
from repro.hw.events import Event
from repro.sim.engine import run_program
from repro.workloads.base import Instrumentation
from repro.workloads.firefox import FirefoxConfig, FirefoxWorkload

EXP_ID = "E9"
TITLE = "Per-invocation profiling of short Firefox JS functions (Figure)"
PAPER_CLAIM = (
    "only tens-of-ns reads make per-invocation measurement of us-scale "
    "functions viable: heavyweight reads multiply runtime and sampling "
    "resolves only the biggest functions"
)


def _config(quick: bool) -> FirefoxConfig:
    return FirefoxConfig(events=150 if quick else 600)


def _js_truths(result) -> dict[str, int]:
    """Ground-truth user cycles per js function region."""
    truths = {}
    for name in result.all_region_names():
        if name.startswith("js::"):
            truths[name] = result.merged_region(name).user_cycles
    return truths


def run(quick: bool = False) -> ExperimentResult:
    sim_config = multicore_config(n_cores=2, seed=99)
    costs = sim_config.machine.costs

    def one_run(instr):
        workload = FirefoxWorkload(_config(quick))
        result = run_program(workload.build(instr), sim_config)
        result.check_conservation()
        return result

    # -- arm 1: ground truth -----------------------------------------------
    plain_result = one_run(None)
    truths = _js_truths(plain_result)
    plain_wall = plain_result.wall_cycles

    # -- arm 2: LiMiT per-function measurement -------------------------------
    limit_session = LimitSession([Event.CYCLES], name="limit")
    limit_prof = PreciseRegionProfiler(limit_session)
    limit_result = one_run(
        Instrumentation(sessions=[limit_session], region_profiler=limit_prof)
    )

    # -- arm 3: PAPI-class per-function measurement ----------------------------
    papi_session = PapiLikeSession([Event.CYCLES], name="papi")
    papi_prof = PreciseRegionProfiler(papi_session)
    papi_result = one_run(
        Instrumentation(sessions=[papi_session], region_profiler=papi_prof)
    )

    # -- arm 4: sampling ---------------------------------------------------------
    sampler = SamplingProfiler(Event.CYCLES, period=100_000, name="sampler")
    sampler_result = one_run(Instrumentation(sessions=[sampler]))

    # -- score ------------------------------------------------------------------
    def profiler_errors(prof, overhead):
        errors = []
        for name, truth in truths.items():
            obs = prof.observations.get(name)
            if obs is None or truth == 0:
                continue
            estimate = obs.total - obs.invocations * overhead
            errors.append(relative_error(estimate, truth))
        return errors

    limit_errs = profiler_errors(limit_prof, costs.limit_delta_overhead)
    papi_errs = profiler_errors(papi_prof, costs.papi_delta_overhead)
    sampler_estimates = {
        region: est.estimated_events
        for region, est in sampler.estimates(sampler_result).items()
        if region and region.startswith("js::")
    }
    sampler_score = score_attribution(sampler_estimates, truths)

    def mean(xs):
        return sum(xs) / len(xs) if xs else float("inf")

    rows = [
        ["none (truth)", 1.0, len(truths), "-"],
        [
            "limit per-invocation",
            round(limit_result.wall_cycles / plain_wall, 3),
            len(limit_errs),
            f"{100 * mean(limit_errs):.2f}%",
        ],
        [
            "papi per-invocation",
            round(papi_result.wall_cycles / plain_wall, 3),
            len(papi_errs),
            f"{100 * mean(papi_errs):.2f}%",
        ],
        [
            "sampling (p=100k)",
            round(sampler_result.wall_cycles / plain_wall, 3),
            sampler_score.n_resolved,
            "-",
        ],
    ]
    table = render_table(
        ["technique", "wall slowdown", "functions resolved", "mean rel err"],
        rows,
        title=f"profiling {len(truths)} short JS functions",
    )

    metrics = {
        "limit_slowdown": limit_result.wall_cycles / plain_wall,
        "papi_slowdown": papi_result.wall_cycles / plain_wall,
        "sampler_resolution": sampler_score.resolution,
        "limit_mean_rel_err": mean(limit_errs),
        "n_functions": float(len(truths)),
    }
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        blocks=[table],
        metrics=metrics,
    )
