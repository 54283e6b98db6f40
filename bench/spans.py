"""Span recording for the traced pass, and the per-layer metrics it yields.

A :class:`Recorder` wraps public callables of each simulator layer so every
call becomes a span ``(name, start, end, parent, workload)``. Wrappers go in
before the experiment registry is imported: some experiment modules bind
names at import time, and the registry binds every ``eNN.run``.

Counts (ops fetched, syscalls, ...) are not measured here: the
``Engine.run`` wrapper copies them from each run's own metrics record, the
same numbers an untraced run records, so tracing cannot change them.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import re
import time
from collections.abc import Iterable
from typing import Any, Callable

#: Engine self-telemetry keys summed over every run of a traced rep.
COUNT_KEYS = (
    "sim_events",
    "ops_fetched",
    "compiled_ops",
    "quanta_batched",
    "timer_ticks",
    "fast_reads",
    "spin_rounds_batched",
    "fastpath_bailouts",
    "syscalls",
    "context_switches",
    "wall.engine_run_seconds",
    "wall.collect_seconds",
    "wall.lowering_seconds",
)

#: (owner module, attribute path, span name). Class methods are wrapped on
#: the class, so every instance (and every caller) goes through the span.
TARGETS = (
    ("repro.sim.engine", "Engine.run", "sim.engine.run"),
    ("repro.fabric", "run_many", "fabric.run_many"),
    ("repro.fabric", "run_one", "fabric.run_one"),
    ("repro.obs.runtime", "RunCollector.record_run", "obs.record_run"),
    ("repro.obs.runtime", "RunCollector.windows_summary", "obs.windows_summary"),
    ("repro.obs.runtime", "RunCollector.alerts_summary", "obs.alerts_summary"),
    ("repro.obs.export", "JsonlStreamWriter.close", "obs.stream_close"),
    ("repro.obs.export", "write_manifest", "obs.manifest_write"),
    ("repro.analysis.tree", "classify_named_counts", "analysis.classify"),
    ("repro.analysis.refute", "sweep", "analysis.refute_sweep"),
)

EXPERIMENT_MODULE = re.compile(r"e\d\d_")


class Recorder:
    """Keeps spans in memory for one traced rep of one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = {}
        self.lowered_ops_fetched = 0.0
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
        }
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _engine_run(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = self.call("sim.engine.run", fn, *args, **kwargs)
            self.add_counts(result.metrics)
            return result

        return wrapper

    def add_counts(self, metrics: dict[str, float]) -> None:
        for key in COUNT_KEYS:
            self.counts[key] = self.counts.get(key, 0) + metrics.get(key, 0)
        # Compiled hit-rate denominator: only runs that lowered tables, as
        # in RunCollector.compiled_summary.
        if metrics.get("compiled_tables", 0) > 0:
            self.lowered_ops_fetched += metrics.get("ops_fetched", 0)

    def install(self) -> None:
        """Wrap every target, then every experiment module's ``run``, and
        only then import the runner (which imports the registry)."""
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            if path == "Engine.run":
                wrapped = self._engine_run(fn)
            else:
                wrapped = self.wrap(name, fn)
            setattr(owner, attr, wrapped)
        import repro.experiments as experiments

        for info in pkgutil.iter_modules(experiments.__path__):
            if EXPERIMENT_MODULE.match(info.name):
                module = importlib.import_module(f"repro.experiments.{info.name}")
                module.run = self.wrap(f"experiments.{module.EXP_ID}", module.run)
        runner = importlib.import_module("repro.experiments.runner")
        runner.main = self.wrap("experiments.runner", runner.main)


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span run one after another on one thread, so their
    durations add up without overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def _total(spans: list[dict[str, Any]], names: Iterable[str]) -> float:
    wanted = set(names)
    return sum(s["end"] - s["start"] for s in spans if s["name"] in wanted)


def layer_metrics(
    spans: list[dict[str, Any]],
    counts: dict[str, float],
    lowered_ops_fetched: float,
    layers: Iterable[str],
    experiment_ids: Iterable[str] = (),
) -> dict[str, float]:
    """Per-layer metrics of one traced rep, for the layers that run."""
    layers = set(layers)
    out: dict[str, float] = {}
    fetched = counts.get("ops_fetched", 0)
    if "sim.engine" in layers:
        main_loop = counts.get("wall.engine_run_seconds", 0.0)
        out["sim.engine.run_s"] = _total(spans, ["sim.engine.run"])
        out["sim.main_loop_s"] = main_loop
        out["sim.collect_s"] = counts.get("wall.collect_seconds", 0.0)
        out["sim.ns_per_op"] = main_loop * 1e9 / fetched if fetched else 0.0
        out["sim.sim_events"] = counts.get("sim_events", 0)
        out["sim.ops_fetched"] = fetched
    if "sim.compiled" in layers:
        compiled = counts.get("compiled_ops", 0)
        out["sim.compiled.lowering_s"] = counts.get("wall.lowering_seconds", 0.0)
        out["sim.compiled.ops"] = compiled
        out["sim.compiled.hit_rate"] = (
            compiled / lowered_ops_fetched if lowered_ops_fetched else 0.0
        )
    if "fastpath" in layers:
        ticks = counts.get("timer_ticks", 0)
        quanta = counts.get("quanta_batched", 0)
        out["fastpath.quanta_batched"] = quanta
        out["fastpath.macro_hit_rate"] = quanta / ticks if ticks else 0.0
        out["fastpath.fast_reads"] = counts.get("fast_reads", 0)
        out["fastpath.spin_rounds_batched"] = counts.get("spin_rounds_batched", 0)
        out["fastpath.bailouts"] = counts.get("fastpath_bailouts", 0)
    if "kernel" in layers:
        out["kernel.syscalls"] = counts.get("syscalls", 0)
        out["kernel.context_switches"] = counts.get("context_switches", 0)
        out["kernel.timer_ticks"] = counts.get("timer_ticks", 0)
    if "obs" in layers:
        out["obs.record_run_s"] = _total(spans, ["obs.record_run"])
    if "obs.summaries" in layers:
        out["obs.windows_summary_s"] = _total(spans, ["obs.windows_summary"])
        out["obs.alerts_summary_s"] = _total(spans, ["obs.alerts_summary"])
    if "obs.stream" in layers:
        out["obs.stream_close_s"] = _total(spans, ["obs.stream_close"])
        out["obs.windows_streamed"] = counts.get("windows_streamed", 0)
    if "obs.manifest" in layers:
        out["obs.manifest_write_s"] = _total(spans, ["obs.manifest_write"])
    if "analysis" in layers:
        out["analysis.classify_s"] = _total(spans, ["analysis.classify"])
        out["analysis.refute_sweep_s"] = _total(spans, ["analysis.refute_sweep"])
    if "experiments" in layers:
        own = self_times(spans)
        for eid in experiment_ids:
            # Top-level runs only: E12 re-runs E1/E3/E6/E8 inside its own
            # span, and that time belongs to E12.
            out[f"experiments.{eid}.total_s"] = sum(
                s["end"] - s["start"]
                for s in spans
                if s["name"] == f"experiments.{eid}"
                and not _inside_experiment(spans, s)
            )
        out["experiments.runner.self_s"] = sum(
            t for s, t in zip(spans, own) if s["name"] == "experiments.runner"
        )
        out["fabric.self_s"] = sum(
            t for s, t in zip(spans, own) if s["name"].startswith("fabric.")
        )
    return out


def _inside_experiment(spans: list[dict[str, Any]], span: dict[str, Any]) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"].startswith("experiments.E"):
            return True
        parent = spans[parent]["parent"]
    return False
