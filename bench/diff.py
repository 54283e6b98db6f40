"""Compare two benchmark results.

    python bench/diff.py OLD.json NEW.json

For each (workload, end-to-end metric) pair it prints both medians with
their quartiles, the change against the metric's bound, and a verdict:
``better``, ``worse``, ``unchanged`` or ``unresolved`` (see
``stats.verdict``). Then, when both files carry a traced pass, it lists the
per-layer metrics and the experiments that moved most, and checks that the
deterministic counts repeat exactly. Exits 1 if any metric is worse,
which includes any rise in ``fail_frac``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

#: Per-layer counts that a simulator-only change must leave exactly equal.
DETERMINISTIC = ("kernel.", "sim.sim_events", "sim.ops_fetched", "sim.compiled.ops")
TOP = 8


def _fmt(summary: dict) -> str:
    return f"{summary['median']:.4g} [{summary['q1']:.4g}, {summary['q3']:.4g}]"


def end_to_end(old: dict, new: dict) -> tuple[list[str], bool]:
    """Verdict lines for every pair, and whether any pair is worse."""
    lines = [
        f"{'workload':<18} {'metric':<18} {'OLD median [q1, q3]':<30} "
        f"{'NEW median [q1, q3]':<30} {'worse by':>9} {'bound':>6}  verdict"
    ]
    worse = False
    for name, old_w in old["workloads"].items():
        new_w = new["workloads"].get(name)
        if new_w is None:
            lines.append(f"{name:<18} missing from NEW")
            worse = True
            continue
        for metric in stats.end_to_end_metrics():
            key = metric["name"]
            if key not in old_w["metrics"] or key not in new_w["metrics"]:
                continue
            o, n = old_w["metrics"][key], new_w["metrics"][key]
            change = stats.worsening(o["median"], n["median"], metric["better"])
            if metric["bound"] is None:
                bound, verdict = "-", "info"
            else:
                bound = f"{metric['bound']:.0%}"
                verdict = stats.verdict(o, n, metric["better"], metric["bound"])
                worse |= verdict == "worse"
            lines.append(
                f"{name:<18} {key:<18} {_fmt(o):<30} {_fmt(n):<30} "
                f"{change:>+9.1%} {bound:>6}  {verdict}"
            )
    return lines, worse


def _relative(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return (new - old) / abs(old) if old else float("inf")


def layers(old: dict, new: dict) -> list[str]:
    """The per-layer metrics and experiments that moved most, and the
    deterministic counts that differ."""
    moved, counts_differ, n_counts = [], [], 0
    for name, old_w in old["workloads"].items():
        new_w = new["workloads"].get(name, {})
        if "trace" not in old_w or "trace" not in new_w:
            continue
        new_layers = new_w["trace"]["layers"]
        for key, o in old_w["trace"]["layers"].items():
            if key not in new_layers:
                continue
            n = new_layers[key]
            if key.startswith(DETERMINISTIC):
                n_counts += 1
                if o != n:
                    counts_differ.append(f"  {name} {key}: {o:g} -> {n:g}")
            else:
                moved.append((abs(_relative(o, n)), name, key, o, n))
    if not moved:
        return ["(no traced pass in both files: no per-layer comparison)"]
    moved.sort(reverse=True)

    def rows(items: list) -> list[str]:
        return [
            f"  {name:<18} {key:<32} {o:>12.4g} -> {n:<12.4g} {_relative(o, n):+.1%}"
            for _, name, key, o, n in items
        ]

    experiments = [m for m in moved if m[2].startswith("experiments.E")]
    others = [m for m in moved if not m[2].startswith("experiments.E")]
    lines = ["per-layer metrics that moved most (one traced sample each):"]
    lines += rows(others[:TOP])
    if experiments:
        lines.append("experiments that moved most:")
        lines += rows(experiments[:TOP])
    if counts_differ:
        lines.append(f"deterministic counts that differ ({len(counts_differ)} of {n_counts}):")
        lines += counts_differ
    else:
        lines.append(f"deterministic counts: all {n_counts} equal")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python bench/diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    lines, worse = end_to_end(old, new)
    print("\n".join(lines + [""] + layers(old, new)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
