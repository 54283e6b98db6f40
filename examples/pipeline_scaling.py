#!/usr/bin/env python
"""Pipeline scaling study: where does a parallel compressor's time go?

Sweeps the compressor thread count of a pbzip2-style pipeline, prints the
wall time and compressor utilization at each count, and renders an
execution Gantt chart from a traced run — the kind of whole-program view
the paper argues becomes reliable only when the underlying measurements
are precise.

Run:  python examples/pipeline_scaling.py
"""

import dataclasses

from repro import SimConfig, run_program
from repro.analysis import (
    build_timelines,
    render_gantt,
    scheduling_stats,
    user_kernel_breakdown,
)
from repro.common.config import MachineConfig
from repro.common.tables import render_table
from repro.workloads import PipelineConfig, PipelineWorkload

BASE = PipelineConfig(n_blocks=48)


def run_with(n_compressors: int, trace: bool = False):
    config = SimConfig(
        machine=MachineConfig(n_cores=8), seed=99, trace=trace
    )
    workload = PipelineWorkload(
        dataclasses.replace(BASE, n_compressors=n_compressors)
    )
    result = run_program(workload.build(), config)
    result.check_conservation()
    return workload, result


def main() -> None:
    rows = []
    for n in (1, 2, 4, 6):
        _, result = run_with(n)
        breakdown = user_kernel_breakdown(result, "pipeline:compress")
        rows.append(
            [
                n,
                result.wall_cycles,
                round(result.wall_cycles / 1_000_000, 2),
                f"{breakdown.cpu_cycles / result.wall_cycles / n:.0%}",
            ]
        )
    print(render_table(
        ["compressors", "wall cycles", "Mcycles", "compressor utilization"],
        rows,
        title="pipeline scaling (48 blocks, 8 cores)",
    ))
    print()

    workload, traced = run_with(4, trace=True)
    timelines = build_timelines(traced)
    print("execution timeline (4 compressors):")
    print(render_gantt(timelines, width=64))
    stats = scheduling_stats(timelines)
    print()
    print(
        f"run fraction {stats.run_fraction:.0%}; "
        f"mean scheduling latency {stats.mean_ready_cycles:,.0f} cy; "
        f"input queue peaked at {workload.input_queue.max_depth} blocks"
    )


if __name__ == "__main__":
    main()
