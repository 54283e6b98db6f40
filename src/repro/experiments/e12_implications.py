"""E12 — Table: the seven implications for architects, quantified.

The paper closes its case studies with seven implications for computer
architects in the cloud era. This experiment aggregates the headline
metric behind each implication from the other experiments' machinery,
producing the summary table. It takes E1, E3, E6 and E8 through
:func:`~repro.experiments.base.reuse`, so a sweep that already ran them
does not simulate them again.
"""

from __future__ import annotations

from repro.common.tables import render_table
from repro.common.units import DEFAULT_FREQUENCY
from repro.experiments import (
    e01_read_cost,
    e03_precision,
    e06_mysql_sync,
    e08_user_kernel,
)
from repro.experiments.base import ExperimentResult, reuse

EXP_ID = "E12"
TITLE = "Seven implications for architects (summary table)"
PAPER_CLAIM = (
    "the case studies yield seven implications for architects in the "
    "cloud era (synchronization, kernel time, measurement methodology)"
)


def run(quick: bool = False) -> ExperimentResult:
    e1 = reuse(e01_read_cost, quick=True)
    e3 = reuse(e03_precision, quick=True)
    e6 = reuse(e06_mysql_sync, quick=quick)
    e8 = reuse(e08_user_kernel, quick=quick)

    mean_hold_ns = DEFAULT_FREQUENCY.cycles_to_ns(e6.metric("mean_hold_cycles"))
    implications = [
        (
            "I1 critical sections are short",
            f"MySQL mean lock hold = {mean_hold_ns:.0f} ns",
            "optimize the uncontended lock fast path, not queueing",
        ),
        (
            "I2 locks fire constantly",
            f"{e6.metric('acquires_per_mcycle'):.1f} acquisitions per Mcycle",
            "lock ops are a first-order instruction-mix component",
        ),
        (
            "I3 contention is rare",
            f"lock-wait is {e6.metric('wait_fraction'):.2%} of cycles",
            "speculation (e.g. lock elision) will almost always succeed",
        ),
        (
            "I4 kernel time is first-class",
            f"server kernel share >= "
            f"{e8.metric('server_min_kernel_fraction'):.0%} "
            f"(SPEC: {e8.metric('spec_kernel_fraction'):.1%})",
            "architecture studies must include OS code, not just user loops",
        ),
        (
            "I5 measurement must not perturb",
            f"PAPI-instrumented MySQL runs "
            f"{e6.metric('papi_slowdown'):.2f}x (LiMiT "
            f"{e6.metric('limit_slowdown'):.2f}x)",
            "heavyweight reads change the phenomenon being studied",
        ),
        (
            "I6 sampling misses short behavior",
            f"best sampler error on 100ns regions = "
            f"{100 * e3.metric('sampler_best_short_err'):.0f}%",
            "fine-grained studies need precise counting",
        ),
        (
            "I7 precise access can be cheap",
            f"LiMiT read = {e1.metric('limit_ns'):.1f} ns "
            f"({e1.metric('perf_vs_limit'):.0f}x faster than read(2))",
            "expose counters to userspace, virtualized per thread",
        ),
    ]
    table = render_table(
        ["implication", "measured evidence", "consequence"],
        implications,
        title="implications, quantified from this reproduction",
    )
    metrics = {
        "mean_hold_ns": mean_hold_ns,
        "papi_slowdown": e6.metric("papi_slowdown"),
        "limit_slowdown": e6.metric("limit_slowdown"),
        "limit_read_ns": e1.metric("limit_ns"),
        "n_implications": 7.0,
    }
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        blocks=[table],
        metrics=metrics,
    )
