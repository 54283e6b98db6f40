"""Tracked performance baseline: ``python -m repro.bench``.

Measures the workloads the perf-sensitive subsystems are judged on and
writes the results as ``BENCH_PR9.json`` (schema ``repro.bench/v1``,
documented in docs/performance.md):

* **contention microbench** — two threads on two cores alternating long
  solo compute stretches (many scheduler quanta: the macro-stepping sweet
  spot) with short critical sections on a shared lock and a LiMiT counter
  read per iteration. Run twice in-process — macro-stepping on and off —
  so the reported speedup is a same-machine, same-process A/B ratio.
* **experiment sweep** — every registered experiment in quick mode, timed
  per experiment, with the engines' fast-path telemetry (macro-step hit
  rate, batched quanta, composite fast reads, bailouts) aggregated from
  the run collector.
* **streaming observability A/B** — the open-loop traffic workload run
  twice in-process, once bare and once under a windowed collector with a
  live JSONL stream export *and* a registered SLO burn-rate alert
  (evaluated over the merged windows, as the manifest path does), so the
  reported streaming overhead is a same-machine ratio that includes the
  alerting layer. Fingerprints must match (zero perturbation) and the
  overhead must stay under :data:`STREAM_OVERHEAD_MAX`.

``--check BASELINE.json`` is the CI regression gate. Wall-clock seconds are
not comparable across machines, so the gate compares machine-independent
quantities against the committed baseline: the deterministic sweep piece
count (``sim_events`` — un-fusing ops or losing a fast path inflates it),
the sweep macro hit rate, and the microbench on/off speedup (a ratio of
two runs on the *same* host). Any of them regressing by more than
``--threshold`` (default 25%) fails the check, as does same-host
streaming overhead above the absolute :data:`STREAM_OVERHEAD_MAX` cap.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.core.limit import LimitSession
from repro.experiments.base import result_sharing
from repro.hw.events import Event
from repro.obs import runtime as obs_runtime
from repro.sim.engine import run_program
from repro.sim.ops import Compute, LockAcquire, LockRelease
from repro.sim.program import ThreadSpec
from repro.workloads.base import COMPUTE_RATES

SCHEMA = "repro.bench/v1"
DEFAULT_OUT = "BENCH_PR9.json"

#: Hard cap on the streaming-observability overhead ratio (same-host A/B).
STREAM_OVERHEAD_MAX = 0.05

#: Microbench shape: the two threads alternate long critical sections on a
#: shared lock. While one computes for many scheduler quanta, the other is
#: blocked on the futex and its core parks — the running thread is the sole
#: runnable on its core with no near actor, exactly the macro-stepping fast
#: path's case. The short parallel stretch before each acquire keeps the
#: lock genuinely contended (spin, futex sleep, cross-core wake) every
#: iteration, and the in-section LiMiT read exercises the composite read.
MICRO_COMPUTE = 20_000_000
MICRO_PARALLEL = 50_000
MICRO_ITERS = 800
MICRO_ITERS_QUICK = 200


def _micro_specs(session: LimitSession, iters: int) -> list[ThreadSpec]:
    def worker(ctx):
        yield from session.setup(ctx)
        for _ in range(iters):
            yield Compute(MICRO_PARALLEL, COMPUTE_RATES)
            yield LockAcquire("bench:hot")
            yield Compute(MICRO_COMPUTE, COMPUTE_RATES)
            value = yield from session.read(ctx, 0)
            assert value >= 0
            yield LockRelease("bench:hot")

    return [ThreadSpec(f"bench:{i}", worker) for i in range(2)]


def _run_micro(iters: int, macro: bool) -> dict:
    config = SimConfig(
        machine=MachineConfig(n_cores=2),
        kernel=KernelConfig(timeslice_cycles=1_000_000),
        seed=7,
        macro_stepping=macro,
    )
    session = LimitSession(
        [Event.CYCLES, Event.INSTRUCTIONS], name=f"bench:{macro}"
    )
    started = time.perf_counter()
    with obs_runtime.collect(label="bench-micro") as collector:
        result = run_program(_micro_specs(session, iters), config)
    wall = time.perf_counter() - started
    summary = collector.macro_summary()
    return {
        "wall_seconds": wall,
        "sim_events": collector.sim_events,
        "fingerprint": result.fingerprint(),
        **summary,
    }


def run_microbench(quick: bool) -> dict:
    """Contention microbench, macro-stepping on vs off (same process)."""
    iters = MICRO_ITERS_QUICK if quick else MICRO_ITERS
    off = _run_micro(iters, macro=False)
    on = _run_micro(iters, macro=True)
    if on["fingerprint"] != off["fingerprint"]:  # pragma: no cover - invariant
        raise RuntimeError(
            "macro-stepping changed the microbench fingerprint "
            f"({on['fingerprint']} != {off['fingerprint']})"
        )
    return {
        "iters_per_thread": iters,
        "compute_cycles": MICRO_COMPUTE,
        "macro_on": {k: v for k, v in on.items() if k != "fingerprint"},
        "macro_off": {k: v for k, v in off.items() if k != "fingerprint"},
        "fingerprint": on["fingerprint"],
        "speedup": off["wall_seconds"] / on["wall_seconds"]
        if on["wall_seconds"] > 0
        else 0.0,
    }


def run_sweep(quick: bool) -> dict:
    """Every registered experiment, timed, with fast-path telemetry."""
    from repro.experiments.registry import all_experiments

    def _total(records, key):
        return sum(r.metrics.get(key, 0) for r in records)

    experiments: dict[str, dict] = {}
    total_started = time.perf_counter()
    with result_sharing(), obs_runtime.collect(label="bench-sweep") as collector:
        for entry in all_experiments():
            n_before = len(collector.records)
            started = time.perf_counter()
            entry.run(quick=quick)
            sub = collector.records[n_before:]
            quanta = _total(sub, "quanta_batched")
            ticks = _total(sub, "timer_ticks")
            experiments[entry.exp_id] = {
                "wall_seconds": time.perf_counter() - started,
                "sim_events": sum(r.sim_events for r in sub),
                "macro_steps": _total(sub, "macro_steps"),
                "macro_hit_rate": quanta / ticks if ticks else 0.0,
            }
    wall = time.perf_counter() - total_started
    snap = collector.metrics_snapshot()
    return {
        "wall_seconds": wall,
        "sim_events": collector.sim_events,
        "pieces_per_sec": collector.sim_events / wall if wall > 0 else 0.0,
        "macro_steps": snap["macro_steps"],
        "quanta_batched": snap["quanta_batched"],
        "macro_hit_rate": snap["macro_hit_rate"],
        "fast_reads": snap["fast_reads"],
        "fastpath_bailouts": snap["fastpath_bailouts"],
        "bailouts": collector.bailouts_by_reason(),
        "experiments": experiments,
    }


STREAM_REQUESTS = 10_000
STREAM_REQUESTS_QUICK = 1_500
#: Paired repetitions of the A/B; the reported overhead is the median of
#: the per-pair on/off ratios, which strips host scheduling noise from
#: the short runs (the true recording cost is well under 1%, so the gate
#: is effectively a noise-robust regression tripwire).
STREAM_REPEATS = 9


def _run_traffic(requests: int, streaming: bool) -> dict:
    import tempfile

    from repro.obs.alerts import SloSpec
    from repro.obs.export import JsonlStreamWriter
    from repro.obs.windows import WindowSpec
    from repro.workloads.traffic import LATENCY_STREAM, TrafficConfig, TrafficWorkload

    config = SimConfig(
        machine=MachineConfig(n_cores=4),
        kernel=KernelConfig(timeslice_cycles=1_000_000),
        seed=19,
    )
    workload = TrafficWorkload(
        TrafficConfig(n_workers=4, requests_per_worker=requests)
    )
    if streaming:
        with tempfile.TemporaryDirectory() as tmp:
            writer = JsonlStreamWriter(
                Path(tmp) / "bench", label="bench", spec=WindowSpec()
            )
            started = time.perf_counter()
            with obs_runtime.collect(
                label="bench-stream",
                window_spec=WindowSpec(),
                stream=writer,
            ) as collector:
                # The manifest path registers SLOs and evaluates them over
                # the merged windows; the streaming arm pays that cost too
                # so the overhead gate covers the alerting layer.
                obs_runtime.register_alert_spec(
                    SloSpec(
                        name="bench-slo",
                        stream=f"{LATENCY_STREAM}.constant",
                        threshold_cycles=1_000_000,
                        objective=0.95,
                    )
                )
                result = run_program(workload.build(), config)
            writer.close(summary=collector.windows_summary())
            alerts = collector.alerts_summary()
            wall = time.perf_counter() - started
            n_windows = writer.n_windows
            n_alerts = alerts["fired"] if alerts else 0
    else:
        started = time.perf_counter()
        result = run_program(workload.build(), config)
        wall = time.perf_counter() - started
        n_windows = 0
        n_alerts = 0
    return {
        "wall_seconds": wall,
        "n_windows": n_windows,
        "n_alerts": n_alerts,
        "fingerprint": result.fingerprint(),
    }


def run_streaming_overhead(quick: bool) -> dict:
    """Traffic workload bare vs under a live windowed stream export.

    Each repetition runs both arms back to back (alternating which goes
    first, so slow thermal/boost drift cancels instead of taxing one arm)
    and yields one on/off wall-time ratio; the reported overhead is the
    *median* of those per-repetition ratios, which a single host hiccup
    in either arm cannot move. The runs are deterministic, so every
    repetition compares the same work on both sides.
    """
    import statistics

    requests = STREAM_REQUESTS_QUICK if quick else STREAM_REQUESTS
    offs, ons, ratios = [], [], []
    for rep in range(STREAM_REPEATS):
        order = (False, True) if rep % 2 == 0 else (True, False)
        pair = {}
        for streaming in order:
            run = _run_traffic(requests, streaming)
            pair[streaming] = run
            (ons if streaming else offs).append(run)
        ratios.append(
            pair[True]["wall_seconds"] / pair[False]["wall_seconds"]
        )
    off = min(offs, key=lambda r: r["wall_seconds"])
    on = min(ons, key=lambda r: r["wall_seconds"])
    fingerprints = {r["fingerprint"] for r in offs + ons}
    if len(fingerprints) != 1:  # pragma: no cover - invariant
        raise RuntimeError(
            "streaming observation changed the traffic fingerprint "
            f"({sorted(fingerprints)})"
        )
    overhead = statistics.median(ratios) - 1.0
    return {
        "requests": requests * 4,
        "repeats": STREAM_REPEATS,
        "streaming_on": {
            k: v for k, v in on.items() if k != "fingerprint"
        },
        "streaming_off": {
            k: v for k, v in off.items() if k != "fingerprint"
        },
        "fingerprint": on["fingerprint"],
        "overhead": overhead,
    }


def measure(quick: bool) -> dict:
    return {
        "schema": SCHEMA,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "microbench": run_microbench(quick),
        "sweep": run_sweep(quick),
        "streaming": run_streaming_overhead(quick),
    }


def check(current: dict, baseline: dict, threshold: float, out) -> int:
    """Compare a fresh measurement against the committed baseline using
    machine-independent quantities; returns a process exit code."""
    failures: list[str] = []

    def gate(label: str, fresh: float, committed: float, higher_is_better: bool):
        if committed <= 0:
            return
        ratio = fresh / committed
        regressed = (
            ratio < 1 - threshold if higher_is_better else ratio > 1 + threshold
        )
        status = "FAIL" if regressed else "ok"
        print(
            f"  [{status}] {label}: {fresh:.4g} vs baseline "
            f"{committed:.4g} ({ratio:.2f}x)",
            file=out,
        )
        if regressed:
            failures.append(label)

    print(f"regression check (threshold {threshold:.0%}):", file=out)
    gate(
        "sweep sim_events (deterministic piece count)",
        current["sweep"]["sim_events"],
        baseline["sweep"]["sim_events"],
        higher_is_better=False,
    )
    gate(
        "sweep macro_hit_rate",
        current["sweep"]["macro_hit_rate"],
        baseline["sweep"]["macro_hit_rate"],
        higher_is_better=True,
    )
    gate(
        "microbench speedup (macro off/on, same host)",
        current["microbench"]["speedup"],
        baseline["microbench"]["speedup"],
        higher_is_better=True,
    )
    streaming = current.get("streaming")
    if streaming is not None:
        # Absolute same-host cap, independent of the committed baseline.
        overhead = streaming["overhead"]
        ok = overhead <= STREAM_OVERHEAD_MAX
        print(
            f"  [{'ok' if ok else 'FAIL'}] streaming obs overhead: "
            f"{overhead:+.1%} (cap {STREAM_OVERHEAD_MAX:.0%})",
            file=out,
        )
        if not ok:
            failures.append("streaming obs overhead")
    if failures:
        print(f"REGRESSED: {', '.join(failures)}", file=out)
        return 1
    print("no perf regression vs baseline", file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=f"Measure the tracked perf baseline ({DEFAULT_OUT}).",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized parameters"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help=f"write the measurement JSON here (default: {DEFAULT_OUT}; "
        "with --check, nothing is written unless --out is given)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare against a committed baseline; non-zero exit on "
        "regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional regression for --check (default: 0.25)",
    )
    parser.add_argument(
        "--baseline-note",
        type=str,
        default=None,
        help="free-form provenance note recorded in the output JSON "
        "(e.g. pre-change sweep wall time measured with the same harness)",
    )
    args = parser.parse_args(argv)

    current = measure(quick=args.quick)
    if args.baseline_note:
        current["baseline_note"] = args.baseline_note

    micro = current["microbench"]
    sweep = current["sweep"]
    print(
        f"microbench: macro on {micro['macro_on']['wall_seconds']:.3f}s, "
        f"off {micro['macro_off']['wall_seconds']:.3f}s -> "
        f"{micro['speedup']:.2f}x"
    )
    print(
        f"sweep: {sweep['wall_seconds']:.2f}s, "
        f"{sweep['sim_events']:,} pieces "
        f"({sweep['pieces_per_sec']:,.0f}/s), "
        f"macro hit rate {sweep['macro_hit_rate']:.1%}, "
        f"{sweep['fast_reads']:,.0f} fast reads"
    )
    streaming = current["streaming"]
    print(
        f"streaming: {streaming['requests']:,} requests, on "
        f"{streaming['streaming_on']['wall_seconds']:.3f}s vs off "
        f"{streaming['streaming_off']['wall_seconds']:.3f}s -> "
        f"{streaming['overhead']:+.1%} overhead "
        f"({streaming['streaming_on']['n_windows']} windows streamed)"
    )

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        code = check(current, baseline, args.threshold, sys.stdout)
    else:
        code = 0

    out_path = args.out
    if out_path is None and args.check is None:
        out_path = Path(DEFAULT_OUT)
    if out_path is not None:
        out_path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out_path}")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
