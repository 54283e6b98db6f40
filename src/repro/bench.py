"""Streaming-observability overhead check: ``python -m repro.bench``.

The always-on streaming path must stay nearly free and must not perturb
the simulation. The check runs the open-loop traffic workload twice per
repetition, in-process: once bare, and once under a windowed collector
with a live JSONL stream export *and* a registered SLO burn-rate alert
(evaluated over the merged windows, as the manifest path does), so the
measured overhead includes the alerting layer. :func:`judge` decides:

* the median of the per-pair streamed/bare wall ratios must be at most
  ``1 + STREAM_OVERHEAD_MAX``;
* every run's fingerprint, in both arms, must be identical.

The quartiles of the per-pair ratios are printed as the spread. A breach
of either rule makes the process exit non-zero. ``--quick`` runs the
CI-sized workload.
"""

from __future__ import annotations

import argparse
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.obs import runtime as obs_runtime
from repro.sim.engine import run_program

#: Hard cap on the streaming-observability overhead ratio (same-host A/B).
STREAM_OVERHEAD_MAX = 0.05

STREAM_REQUESTS = 10_000
STREAM_REQUESTS_QUICK = 1_500
#: Paired repetitions of the A/B. The check judges the median of the
#: per-pair on/off ratios, which strips host scheduling noise from the
#: short runs: one hiccup in either arm cannot move it.
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
    and yields one on/off wall-time ratio. The runs are deterministic, so
    every repetition compares the same work on both sides; the returned
    ``ratios`` and ``fingerprints`` are what :func:`judge` decides on.
    """
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
    return {
        "requests": requests * 4,
        "repeats": STREAM_REPEATS,
        "streaming_on": min(ons, key=lambda r: r["wall_seconds"]),
        "streaming_off": min(offs, key=lambda r: r["wall_seconds"]),
        "ratios": ratios,
        "fingerprints": [r["fingerprint"] for r in offs + ons],
    }


@dataclass(frozen=True)
class Verdict:
    """The streaming check's decision, with the numbers behind it."""

    overhead: float  #: median per-pair ratio, minus 1
    q1: float  #: lower quartile of the per-pair ratios, minus 1
    q3: float  #: upper quartile of the per-pair ratios, minus 1
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def judge(ratios: Sequence[float], fingerprints: Iterable[str]) -> Verdict:
    """Pass iff the median of the per-pair on/off wall ratios is at most
    ``1 + STREAM_OVERHEAD_MAX`` and every run has the same fingerprint."""
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    failures = []
    if median > 1.0 + STREAM_OVERHEAD_MAX:
        failures.append(
            f"overhead {median - 1.0:+.1%} is above the "
            f"{STREAM_OVERHEAD_MAX:.0%} cap"
        )
    distinct = sorted(set(fingerprints))
    if len(distinct) != 1:
        failures.append(
            f"streaming changed the traffic fingerprint ({distinct})"
        )
    return Verdict(median - 1.0, q1 - 1.0, q3 - 1.0, tuple(failures))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Check the streaming-observability overhead cap "
        f"({STREAM_OVERHEAD_MAX:.0%}) with a paired same-host A/B.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized parameters"
    )
    args = parser.parse_args(argv)

    run = run_streaming_overhead(args.quick)
    verdict = judge(run["ratios"], run["fingerprints"])
    print(
        f"streaming: {run['requests']:,} requests, {run['repeats']} pairs, "
        f"best on {run['streaming_on']['wall_seconds']:.3f}s vs off "
        f"{run['streaming_off']['wall_seconds']:.3f}s "
        f"({run['streaming_on']['n_windows']} windows streamed)"
    )
    print(
        f"overhead: {verdict.overhead:+.1%} median, IQR "
        f"{verdict.q3 - verdict.q1:.1%} ({verdict.q1:+.1%} to "
        f"{verdict.q3:+.1%}), cap {STREAM_OVERHEAD_MAX:.0%}"
    )
    for failure in verdict.failures:
        print(f"FAIL: {failure}")
    if verdict.ok:
        print("ok")
    return 0 if verdict.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
