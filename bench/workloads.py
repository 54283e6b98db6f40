"""The benchmark's four workloads, and the child process that runs one sample.

Each builder does the workload's set-up (imports and input construction)
and returns ``(call, finish)``: ``call()`` is the timed call, and
``finish(value)`` checks what it produced and returns the sample's outputs
(fingerprints or artifact digests, graded by the parent against
``golden.json``), its simulated cycles and any extra counts. A failed
workload check raises, which fails the sample.

Sizes are builder arguments so tests can run each builder tiny; the child
always uses the defaults below.

Child usage (``run.py`` starts one fresh process per sample)::

    python bench/workloads.py WORKLOAD SEED MODE WORKDIR

``MODE`` is ``setup`` (set up, then stop), ``run`` or ``trace`` (the
timed call under span recording). The child prints one JSON line.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable

#: Workload seed at bench seed 0 (the default input, as in the registered
#: experiment); bench seed N runs default + N, so seed 1 is the held-out
#: input. The quick sweep has no seed input: the registry fixes its seeds.
DEFAULT_SEEDS = {"service_chain": 2002, "mysql_locks": 66, "traffic_streamed": 19}
REGISTRY_SEED = "registry"

#: Experiments the quick sweep runs; one per-layer metric each. E20 is left
#: out: it is three quarters of the whole sweep, too long to repeat within
#: one run, and its code is what ``service_chain`` runs at full size.
EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 22) if i != 20)

#: Layers (as understood by spans.layer_metrics) that run on each workload.
_SIM_LAYERS = ("sim.engine", "sim.compiled", "fastpath", "kernel", "obs")
LAYERS = {
    "sweep_quick_no_e20": _SIM_LAYERS
    + ("obs.summaries", "obs.manifest", "analysis", "experiments"),
    "service_chain": _SIM_LAYERS,
    "mysql_locks": _SIM_LAYERS,
    "traffic_streamed": _SIM_LAYERS + ("obs.summaries", "obs.stream"),
}

Prepared = tuple[Callable[[], Any], Callable[[Any], dict]]


def workload_seed(name: str, bench_seed: int) -> int | str:
    if name == "sweep_quick_no_e20":
        return REGISTRY_SEED
    return DEFAULT_SEEDS[name] + bench_seed


def sweep_quick_no_e20(
    seed: int | str, work: Path, experiments: tuple[str, ...] = EXPERIMENT_IDS
) -> Prepared:
    """Every registered experiment other than E20 in quick mode, serially,
    through the runner's CLI entry point, writing a manifest and text
    artifacts."""
    from repro.experiments import runner

    manifest = work / "manifest.json"
    out = work / "out"
    argv = ["--quick", "--jobs", "1", "--manifest", str(manifest), "--out", str(out)]
    argv += list(experiments)

    def call() -> int:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return runner.main(argv)

    def finish(_code: int) -> dict:
        records = json.loads(manifest.read_text())["experiments"]
        outputs = {r["id"]: r["status"] for r in records}
        for path in sorted(out.glob("*.txt")):
            outputs[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return {
            "sim_cycles": sum(r["sim_cycles"] for r in records),
            "outputs": outputs,
        }

    return call, finish


def _checked_run(result) -> dict:
    """``finish`` for a single run whose only check is conservation."""
    result.check_conservation()
    return {
        "sim_cycles": result.wall_cycles,
        "outputs": {"fingerprint": result.fingerprint()},
    }


def service_chain(seed: int | str, work: Path, requests: int = 6_000) -> Prepared:
    """E20's ``full``-policy arm at full size, observed in memory."""
    from dataclasses import replace

    from repro.experiments.base import multicore_config
    from repro.experiments.e20_resilience import chain_config
    from repro.obs import runtime as obs_runtime
    from repro.sim.engine import run_program
    from repro.workloads.service import ServiceChainWorkload

    cfg = replace(chain_config("full", False), requests_per_generator=requests)
    config = multicore_config(n_cores=cfg.n_threads, seed=seed)
    specs = ServiceChainWorkload(cfg).build()

    def call():
        with obs_runtime.collect(label="bench:service_chain"):
            return run_program(specs, config)

    return call, _checked_run


def mysql_locks(seed: int | str, work: Path, transactions: int = 1_200) -> Prepared:
    """E6's LiMiT-instrumented MySQL arm, 8 workers on 4 cores, with the
    compiled tier lowering a fresh build as E6 does."""
    from repro.core.limit import LimitSession
    from repro.experiments.base import multicore_config
    from repro.hw.events import Event
    from repro.obs import runtime as obs_runtime
    from repro.sim.engine import run_program
    from repro.workloads.base import Instrumentation
    from repro.workloads.mysql import MysqlConfig, MysqlWorkload

    def build():
        session = LimitSession([Event.CYCLES], count_kernel=True, name="limit")
        instr = Instrumentation(sessions=[session], lock_reader=session)
        cfg = MysqlConfig(n_workers=8, transactions_per_worker=transactions)
        return MysqlWorkload(cfg).build(instr)

    config = multicore_config(n_cores=4, seed=seed)
    specs = build()

    def call():
        with obs_runtime.collect(label="bench:mysql_locks"):
            return run_program(specs, config, lower=build)

    return call, _checked_run


def traffic_streamed(
    seed: int | str, work: Path, requests: int = 20_000
) -> Prepared:
    """E19's open-loop traffic under a windowed collector that streams
    JSONL windows to disk and evaluates one SLO burn-rate alert."""
    from repro.experiments.base import multicore_config
    from repro.obs import runtime as obs_runtime
    from repro.obs.alerts import SloSpec
    from repro.obs.export import JsonlStreamWriter
    from repro.obs.windows import WindowSpec
    from repro.sim.engine import run_program
    from repro.workloads.traffic import LATENCY_STREAM, TrafficConfig, TrafficWorkload

    config = multicore_config(n_cores=4, seed=seed)
    specs = TrafficWorkload(
        TrafficConfig(n_workers=4, requests_per_worker=requests)
    ).build()
    writer = JsonlStreamWriter(work / "stream", label="bench", spec=WindowSpec())
    slo = SloSpec(
        name="bench-slo",
        stream=f"{LATENCY_STREAM}.constant",
        threshold_cycles=1_000_000,
        objective=0.95,
    )

    def call():
        with obs_runtime.collect(
            label="bench:traffic_streamed", window_spec=WindowSpec(), stream=writer
        ) as collector:
            obs_runtime.register_alert_spec(slo)
            result = run_program(specs, config)
        writer.close(summary=collector.windows_summary())
        collector.alerts_summary()
        return result, collector

    def finish(value) -> dict:
        result, collector = value
        if not collector.windows.reconcile():
            raise RuntimeError("streamed windows do not reconcile with totals")
        return {
            "sim_cycles": result.wall_cycles,
            "outputs": {"fingerprint": result.fingerprint()},
            "counts": {"windows_streamed": writer.n_windows},
        }

    return call, finish


BUILDERS: dict[str, Callable[..., Prepared]] = {
    "sweep_quick_no_e20": sweep_quick_no_e20,
    "service_chain": service_chain,
    "mysql_locks": mysql_locks,
    "traffic_streamed": traffic_streamed,
}


def child(name: str, bench_seed: int, mode: str, work: Path) -> dict:
    """One sample in this (fresh) process; see the module docstring."""
    from clock import SpeedClock
    from spans import Recorder, layer_metrics

    recorder = Recorder(name) if mode == "trace" else None
    clock = SpeedClock()
    clock.start()
    if recorder is not None:
        recorder.install()
    call, finish = BUILDERS[name](workload_seed(name, bench_seed), work)
    setup_s = clock.read()
    sample: dict[str, Any] = {"setup_s": setup_s}
    if mode == "setup":
        clock.stop()
        return sample
    started, cpu_started = time.perf_counter(), time.process_time()
    value = recorder.call(f"bench.{name}", call) if recorder else call()
    sample["norm_cpu_s"] = clock.read() - setup_s
    sample["cpu_s"] = time.process_time() - cpu_started
    sample["wall_s"] = time.perf_counter() - started
    clock.stop()
    # Read the high-water mark before finish() hashes the result.
    sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sample.update(finish(value))
    counts = sample.pop("counts", {})
    if recorder is not None:
        recorder.counts.update(counts)
        sample["layers"] = layer_metrics(
            recorder.spans,
            recorder.counts,
            recorder.lowered_ops_fetched,
            LAYERS[name],
            EXPERIMENT_IDS,
        )
        sample["spans"] = recorder.spans
    return sample


if __name__ == "__main__":
    workload, seed, mode, workdir = sys.argv[1:]
    print(json.dumps(child(workload, int(seed), mode, Path(workdir))))
