"""E3 — Figure: measurement precision on short code regions.

The core precision argument: statistical sampling cannot resolve short
regions (it either misses them or mis-attributes by large factors), while
precise counting measures them exactly — at any length.

One thread repeatedly executes target regions of known lengths (100 ns to
100 us) separated by filler. Three measurement strategies are scored
against ground truth:

* LiMiT precise region measurement (overhead-calibrated), and
* PMI sampling at several periods (samples x period estimates).
"""

from __future__ import annotations

from repro import fabric
from repro.analysis.accuracy import relative_error, score_attribution
from repro.baselines.sampling import SamplingProfiler
from repro.common.tables import render_table
from repro.core.limit import LimitSession
from repro.core.regions import PreciseRegionProfiler
from repro.experiments.base import ExperimentResult, single_core_config
from repro.hw.events import Event
from repro.sim.ops import Compute
from repro.sim.program import ThreadSpec
from repro.workloads.base import COMPUTE_RATES

EXP_ID = "E3"
TITLE = "Precision on short regions: precise counting vs sampling (Figure)"
PAPER_CLAIM = (
    "sampling-based profiling misses or grossly mis-attributes sub-10us "
    "regions; LiMiT's precise reads measure them exactly"
)

REGION_LENGTHS = [240, 2_400, 24_000, 240_000]  # 100ns .. 100us @2.4GHz
FILLER_CYCLES = 6_000


def _region_name(length: int) -> str:
    return f"target:{length}"


def _workload(reps: int, profiler: PreciseRegionProfiler | None,
              sampler: SamplingProfiler | None):
    def body(length):
        yield Compute(length, COMPUTE_RATES)

    def program(ctx):
        if profiler is not None:
            yield from profiler.session.setup(ctx)
        if sampler is not None:
            yield from sampler.setup(ctx)
        from repro.sim.ops import RegionBegin, RegionEnd

        for _ in range(reps):
            for length in REGION_LENGTHS:
                name = _region_name(length)
                if profiler is not None:
                    yield from profiler.measure(ctx, name, body(length))
                else:
                    yield RegionBegin(name)
                    yield Compute(length, COMPUTE_RATES)
                    yield RegionEnd()
                yield Compute(FILLER_CYCLES, COMPUTE_RATES)
        if sampler is not None:
            yield from sampler.teardown(ctx)
        if profiler is not None:
            yield from profiler.session.teardown(ctx)

    return [ThreadSpec("precision", program)]


class PrecisionTrial:
    """Fabric job factory for one arm of the precision experiment.

    ``arm`` is ``limit`` (precise region profiler), ``plain`` (baseline)
    or ``sample`` (PMI sampler with the given period). The measurement
    tools live and die in the executing process; :meth:`extract` ships
    their observations back as plain data.
    """

    def __init__(self, reps: int, arm: str, period: int = 0) -> None:
        self.reps = reps
        self.arm = arm
        self.period = period
        self.profiler: PreciseRegionProfiler | None = None
        self.sampler: SamplingProfiler | None = None

    def build(self):
        if self.arm == "limit":
            session = LimitSession([Event.CYCLES], name="limit")
            self.profiler = PreciseRegionProfiler(session)
        elif self.arm == "sample":
            self.sampler = SamplingProfiler(
                Event.CYCLES, self.period, name=f"p{self.period}"
            )
        return _workload(self.reps, self.profiler, self.sampler)

    def extract(self, result):
        if self.profiler is not None:
            observed = {}
            for length in REGION_LENGTHS:
                obs = self.profiler.observation(_region_name(length))
                observed[length] = (obs.invocations, obs.total)
            return observed
        if self.sampler is not None:
            return {
                length: self.sampler.estimate_for(result, _region_name(length))
                for length in REGION_LENGTHS
            }
        return None


_TRIAL = "repro.experiments.e03_precision.PrecisionTrial"


def run(quick: bool = False) -> ExperimentResult:
    reps = 60 if quick else 400
    periods = [50_000, 500_000] if quick else [20_000, 200_000, 2_000_000]
    config = single_core_config(seed=33)
    costs = config.machine.costs

    def job(arm: str, period: int = 0) -> fabric.RunJob:
        label = f"{EXP_ID}:{arm}" + (f":{period}" if period else "")
        return fabric.RunJob(
            workload=_TRIAL,
            config=config,
            kwargs={"reps": reps, "arm": arm, "period": period},
            label=label,
        )

    jobs = [job("limit"), job("plain")]
    jobs += [job("sample", period) for period in periods]
    limit_out, plain_out, *sample_outs = fabric.run_many(jobs)

    # -- LiMiT precise measurement ------------------------------------------
    limit_out.result.check_conservation()
    limit_errors: dict[int, float] = {}
    for length in REGION_LENGTHS:
        invocations, total = limit_out.extra[length]
        # calibrated: subtract the known in-delta read overhead
        estimate = total - invocations * costs.limit_delta_overhead
        truth = length * invocations
        limit_errors[length] = relative_error(estimate, truth)

    # -- sampling at each period ---------------------------------------------
    sampler_errors: dict[int, dict[int, float]] = {}
    sampler_resolution: dict[int, float] = {}
    sampler_slowdown: dict[int, float] = {}
    baseline = plain_out.result
    for period, sample_out in zip(periods, sample_outs):
        result = sample_out.result
        result.check_conservation()
        truths = {
            length: result.merged_region(_region_name(length)).user_cycles
            for length in REGION_LENGTHS
        }
        estimates = {length: sample_out.extra[length] for length in REGION_LENGTHS}
        sampler_errors[period] = {
            length: relative_error(estimates[length], truth)
            for length, truth in truths.items()
        }
        sampler_resolution[period] = score_attribution(estimates, truths).resolution
        sampler_slowdown[period] = result.wall_cycles / baseline.wall_cycles

    # -- render ---------------------------------------------------------------
    freq = config.machine.frequency
    headers = ["region length", "limit err %"] + [
        f"sample p={p} err %" for p in periods
    ]
    rows = []
    for length in REGION_LENGTHS:
        row = [
            f"{freq.cycles_to_ns(length):.0f} ns",
            round(100 * limit_errors[length], 3),
        ]
        for p in periods:
            err = sampler_errors[p][length]
            row.append("missed" if err == float("inf") else round(100 * err, 1))
        rows.append(row)
    table1 = render_table(headers, rows, title="relative error by region length")

    table2 = render_table(
        ["sampling period", "resolution", "slowdown"],
        [
            [p, f"{sampler_resolution[p]:.0%}", round(sampler_slowdown[p], 3)]
            for p in periods
        ],
        title="sampler resolution (regions seen at all) and overhead",
    )

    metrics = {
        "limit_worst_err": max(limit_errors.values()),
        "sampler_best_short_err": min(
            sampler_errors[p][REGION_LENGTHS[0]] for p in periods
        ),
        "finest_sampler_slowdown": sampler_slowdown[periods[0]],
    }
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        blocks=[table1, table2],
        metrics=metrics,
    )
