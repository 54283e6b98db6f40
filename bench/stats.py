"""Metric definitions, quartile summaries and regression verdicts.

The end-to-end metrics and their bounds are read from ``BENCHMARK.json``
at the repository root, so the bound a change is judged by is written down
once. Four more are added here. ``fail_frac`` is 0 on a healthy commit,
and its bound is "no increase". Raw ``cpu_s`` and ``wall_s`` are reported
for information only: on a shared VM they mostly measure the neighbours
(see ``clock.py``), so they have no bound. ``sim_mcycles_per_s`` has none
either: at a fixed input it is a constant over ``norm_cpu_s``, so that
bound already judges it, and across inputs it also moves with the
simulated cycles, which vary by a few percent from seed to seed.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metric names: letters, digits, ``_``, ``.`` and ``-``, at most 64.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

FAIL_FRAC = {"name": "fail_frac", "unit": "fraction", "better": "lower", "bound": 0.0}
INFO = [
    {"name": "sim_mcycles_per_s", "unit": "Mcycles/s", "better": "higher", "bound": None},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": None},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": None},
]

#: A bounded timing or size needs at least this many samples on each side
#: before a verdict: one gives no quartile spread to judge it by.
MIN_SAMPLES = 2


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_metrics() -> list[dict]:
    """Every end-to-end metric: name, unit, better, bound (None: no bound)."""
    return load_benchmark()["end_to_end"] + [FAIL_FRAC] + INFO


def summarize(values: list[float], unit: str) -> dict:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives
    them (a single value is its own quartiles), with the raw values."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "unit": unit,
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "values": list(values),
    }


def spread(summary: dict) -> float:
    """Quartile distance as a share of the median."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def worsening(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``
    (negative when it is better); from an ``old`` of 0, the plain change."""
    change = (new - old) / abs(old) if old else new - old
    return change if better == "lower" else -change


def verdict(old: dict, new: dict, better: str, bound: float) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` for one
    metric of one workload, from two summaries.

    A bound of 0 marks an exact quantity (``fail_frac``): any change
    counts. Otherwise the verdict is ``unresolved`` when either side has
    fewer than ``MIN_SAMPLES`` samples, or when either side's quartile
    spread is wider than the bound, so the medians cannot show a change of
    that size, unless every NEW run beats every OLD run.
    """
    if bound > 0:
        if min(len(old["values"]), len(new["values"])) < MIN_SAMPLES:
            return "unresolved"
        if max(spread(old), spread(new)) > bound:
            if better == "lower":
                every_new_wins = max(new["values"]) < min(old["values"])
            else:
                every_new_wins = min(new["values"]) > max(old["values"])
            return "better" if every_new_wins else "unresolved"
    change = worsening(old["median"], new["median"], better)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"
