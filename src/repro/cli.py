"""Command-line interface: run a named workload and report on it.

Usage::

    python -m repro run mysql                 # run + text report
    python -m repro run apache --diagnose     # + top-down bottleneck tree
    python -m repro run firefox --json out.json
    python -m repro run pipeline --gantt      # + execution timeline
    python -m repro run mysql --manifest m.json --trace-dir traces/
                                              # + run manifest and
                                              #   Perfetto/JSONL traces
    python -m repro list                      # available workloads
    python -m repro calibrate                 # measure read costs

(Reproducing the paper's tables/figures is a separate entry point:
``python -m repro.experiments``.)
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.analysis import (
    bottleneck_report,
    build_timelines,
    render_gantt,
    result_to_json,
    run_report,
)
from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.common.units import format_cycles
from repro.sim.engine import run_program


def _workload_catalog():
    from repro.workloads import (
        ApacheConfig,
        ApacheWorkload,
        FirefoxConfig,
        FirefoxWorkload,
        MemcachedConfig,
        MemcachedWorkload,
        MysqlConfig,
        MysqlWorkload,
        PipelineConfig,
        PipelineWorkload,
        SpecSuiteWorkload,
        StreamclusterConfig,
        StreamclusterWorkload,
        TrafficConfig,
        TrafficWorkload,
    )

    return {
        "mysql": lambda scale: MysqlWorkload(
            MysqlConfig(n_workers=8, transactions_per_worker=round(40 * scale))
        ),
        "apache": lambda scale: ApacheWorkload(
            ApacheConfig(n_workers=8, requests_per_worker=round(40 * scale))
        ),
        "firefox": lambda scale: FirefoxWorkload(
            FirefoxConfig(events=round(300 * scale))
        ),
        "memcached": lambda scale: MemcachedWorkload(
            MemcachedConfig(n_workers=8, requests_per_worker=round(100 * scale))
        ),
        "pipeline": lambda scale: PipelineWorkload(
            PipelineConfig(n_compressors=4, n_blocks=round(40 * scale))
        ),
        "spec": lambda scale: SpecSuiteWorkload(scale=scale),
        "streamcluster": lambda scale: StreamclusterWorkload(
            StreamclusterConfig(n_workers=4, n_phases=round(20 * scale))
        ),
        "traffic": lambda scale: TrafficWorkload(
            TrafficConfig(
                n_workers=4, requests_per_worker=max(1, round(400 * scale))
            )
        ),
    }


def build_workload_specs(name: str, scale: float):
    """Thread specs for a catalog workload (fabric job factory)."""
    return _workload_catalog()[name](scale).build()


def _cmd_list(args) -> int:
    for name in sorted(_workload_catalog()):
        print(name)
    return 0


def _cmd_run(args) -> int:
    catalog = _workload_catalog()
    factory = catalog.get(args.workload)
    if factory is None:
        print(
            f"unknown workload {args.workload!r}; try: {', '.join(sorted(catalog))}",
            file=sys.stderr,
        )
        return 2
    from repro.obs import runtime as obs_runtime

    config = SimConfig(
        machine=MachineConfig(n_cores=args.cores, n_sockets=args.sockets),
        kernel=KernelConfig(timeslice_cycles=args.timeslice),
        seed=args.seed,
        trace=args.gantt,
    )
    want_traces = args.trace_dir is not None
    cache = None
    cache_dir = args.cache_dir
    if cache_dir is None and args.cache:
        from repro.fabric import default_cache_dir

        cache_dir = default_cache_dir()
    if args.no_cache:
        cache_dir = None
    # Traces and gantt timelines must come from a real execution.
    if cache_dir and not want_traces and not args.gantt:
        from repro.fabric import ResultCache

        cache = ResultCache(cache_dir)

    cached = False
    started = time.perf_counter()
    with obs_runtime.collect(
        capture_traces=want_traces, label=args.workload
    ) as collector:
        if cache is not None:
            from repro import fabric

            outcome = fabric.run_one(
                fabric.RunJob(
                    workload="repro.cli.build_workload_specs",
                    config=config,
                    kwargs={"name": args.workload, "scale": args.scale},
                    label=args.workload,
                ),
                cache=cache,
            )
            result, cached = outcome.result, outcome.cached
        else:
            result = run_program(factory(args.scale).build(), config)
    wall = time.perf_counter() - started
    result.check_conservation()
    print(run_report(result))
    if args.diagnose:
        print()
        print("bottleneck diagnosis")
        print("====================")
        print(bottleneck_report(result))
    if args.gantt:
        print()
        print(render_gantt(build_timelines(result), width=args.gantt_width))
    if args.json:
        Path(args.json).write_text(result_to_json(result) + "\n")
        print(f"\n(wrote {args.json})")
    if args.trace_dir:
        from repro.obs.export import events_to_jsonl, write_perfetto

        args.trace_dir.mkdir(parents=True, exist_ok=True)
        perfetto_path = args.trace_dir / f"{args.workload}.trace.json"
        jsonl_path = args.trace_dir / f"{args.workload}.jsonl"
        write_perfetto(perfetto_path, collector.perfetto_runs())
        events_to_jsonl(collector.all_events(), jsonl_path)
        print(f"\n(wrote {perfetto_path} and {jsonl_path})")
    if args.manifest:
        from repro.obs.export import write_manifest

        args.manifest.parent.mkdir(parents=True, exist_ok=True)
        write_manifest(
            args.manifest,
            {
                "workload": args.workload,
                "status": "passed",
                "wall_seconds": wall,
                "engine_runs": collector.n_runs,
                "sim_cycles": collector.sim_cycles,
                "sim_events": collector.sim_events,
                "context_switches": collector.context_switches,
                "config_hash": collector.config_hash(),
                "metrics": collector.metrics_snapshot(),
                "cached": cached,
                "cache": cache.stats.as_dict() if cache is not None else None,
            },
        )
        print(f"(wrote {args.manifest})")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.core.calibration import calibrate

    config = SimConfig(machine=MachineConfig(n_cores=1), seed=args.seed)
    cal = calibrate(config, n_reads=args.reads)
    freq = config.machine.frequency
    print("measured read costs")
    print("===================")
    for label, cycles in [
        ("rdtsc", cal.rdtsc_cycles),
        ("limit", cal.limit_read_cycles),
        ("limit destructive", cal.destructive_read_cycles),
        ("papi-class", cal.papi_read_cycles),
        ("perf read(2)", cal.perf_read_cycles),
    ]:
        print(f"  {label:<18} {format_cycles(cycles, freq)}")
    print(f"  papi/limit ratio   {cal.papi_vs_limit:.1f}x")
    print(f"  perf/limit ratio   {cal.perf_vs_limit:.1f}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="LiMiT reproduction workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list runnable workloads")

    run_p = sub.add_parser("run", help="run a workload and report")
    run_p.add_argument("workload")
    run_p.add_argument("--cores", type=int, default=4)
    run_p.add_argument("--sockets", type=int, default=1,
                       help="split cores across this many sockets")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--scale", type=float, default=1.0,
                       help="workload size multiplier")
    run_p.add_argument("--timeslice", type=int, default=1_000_000)
    run_p.add_argument("--diagnose", action="store_true",
                       help="print the top-down bottleneck classification")
    run_p.add_argument("--gantt", action="store_true",
                       help="trace the run and print a timeline")
    run_p.add_argument("--gantt-width", type=int, default=72)
    run_p.add_argument("--json", metavar="PATH",
                       help="write the full result as JSON")
    run_p.add_argument("--manifest", type=Path, metavar="PATH",
                       help="write a machine-readable run manifest (JSON)")
    run_p.add_argument("--trace-dir", type=Path, metavar="DIR",
                       help="capture a trace; write Perfetto + JSONL files here")
    run_p.add_argument("--cache", action="store_true",
                       help="reuse cached simulation results (default dir)")
    run_p.add_argument("--cache-dir", type=Path, metavar="DIR",
                       help="result cache directory (implies --cache)")
    run_p.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")

    cal_p = sub.add_parser("calibrate", help="measure per-read costs")
    cal_p.add_argument("--reads", type=int, default=2_000)
    cal_p.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
