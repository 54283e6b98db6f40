"""Smoke matrix: every end-to-end gate from one set of recorded runs.

Runs five legs of the experiment runner in-process with
``REPRO_FP_RECORDS=1``, so every engine run's
:meth:`~repro.sim.results.RunResult.fingerprint` lands in the leg's
manifest, then applies plain check functions to the manifests. Each
check returns the invariants it finds violated, one message per
violation. The legs (see :data:`LEGS`):

* ``serial`` — the full quick suite under the strict lint gate; the
  reference every other leg is compared with;
* ``cold`` / ``warm`` — the quick suite under ``--jobs 2``: ``cold``
  into an empty result cache, pooling every experiment's runs (E20's
  policy arms and E21's sweep among them) over two worker processes,
  ``warm`` served from that cache;
* ``stream`` — quick E19 streaming windows with a tight retention;
* ``trace`` — quick E1 and E4 with trace capture.

Usage::

    python -m repro.experiments.smoke [--dir results/smoke]

Each leg writes ``<dir>/<leg>/manifest.json`` (plus its outputs,
traces or streams); the cold and warm legs share ``<dir>/cache``.
Exits non-zero with every violated invariant named. This is the CI
``smoke`` job and the ``make smoke`` target.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.experiments.runner import main as run_suite

Manifests = dict[str, dict[str, Any]]

#: (leg name, runner argv). ``{leg}`` expands to the leg's directory and
#: ``{root}`` to the matrix directory; every leg also gets ``--manifest``.
_CACHED = (
    "--quick", "--jobs", "2", "--cache-dir", "{root}/cache",
    "--cache-stats", "{leg}/cache-stats.json", "--out", "{leg}/out",
)
LEGS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("serial", ("--quick", "--lint-strict", "--keep-going", "--out", "{leg}/out")),
    ("cold", _CACHED),
    ("warm", _CACHED),
    (
        "stream",
        (
            "--quick", "E19", "--lint-strict", "--stream-dir", "{leg}/streams",
            "--window-cycles", "2000000", "--window-retention", "8",
        ),
    ),
    ("trace", ("--quick", "E1", "E4", "--trace-dir", "{leg}/traces")),
)

#: Legs whose ``analysis`` and ``alerts`` blocks must equal serial's:
#: ``cold`` pools the runs inside every experiment over two workers.
POOLED_LEGS = ("cold",)

#: Every fault kind in the taxonomy; E17 must inject each one.
FAULT_KINDS = frozenset({
    "preempt_in_read", "drop_pmi", "repeat_pmi", "amplify_skid",
    "delay_swap", "dup_swap", "shrink_counter", "force_bailout",
})


def _exp(manifest: dict[str, Any], exp_id: str) -> dict[str, Any]:
    for exp in manifest["experiments"]:
        if exp["id"] == exp_id:
            return exp
    return {}


def check_summaries(manifests: Manifests) -> list[str]:
    """Every leg ran exactly the experiments it selects, and all passed."""
    from repro.experiments.registry import all_experiments

    every = [entry.exp_id for entry in all_experiments()]
    problems = []
    for name, argv in LEGS:
        if name not in manifests:
            continue
        selected = [arg for arg in argv if arg[:1] == "E"] or every
        ran = [exp["id"] for exp in manifests[name]["experiments"]]
        if ran != selected:
            problems.append(f"leg {name!r} ran {ran}, not {selected}")
        summary = manifests[name]["summary"]
        if summary["failed"] or summary["job_failures"]:
            problems.append(
                f"leg {name!r}: {summary['failed']} failed experiments, "
                f"{summary['job_failures']} job failures"
            )
    return problems


def check_fingerprints(manifests: Manifests) -> list[str]:
    """Every leg's per-experiment fingerprint multiset equals serial's:
    pooling, the cache, streaming and tracing are all bit-invisible to
    the simulated results."""
    serial = manifests["serial"]
    reference = {
        exp["id"]: sorted(exp.get("fingerprints", []))
        for exp in serial["experiments"]
    }
    if not any(reference.values()):
        return [
            "no fingerprints captured on the serial leg "
            "(REPRO_FP_RECORDS plumbing broken?)"
        ]
    problems = []
    for name, manifest in manifests.items():
        for exp in manifest["experiments"]:
            if sorted(exp.get("fingerprints", [])) != reference.get(exp["id"]):
                problems.append(
                    f"{exp['id']}: fingerprint multisets differ serial vs "
                    f"{name!r}"
                )
    return problems


def check_pooled_blocks(manifests: Manifests) -> list[str]:
    """The ``analysis`` and ``alerts`` blocks of every experiment a pooled
    leg ran equal serial's: verdicts and burn rates are deterministic
    folds over order-invariant merges."""
    serial = manifests["serial"]
    problems = []
    for name in POOLED_LEGS:
        if name not in manifests:
            continue
        for exp in manifests[name]["experiments"]:
            reference = _exp(serial, exp["id"])
            for block in ("analysis", "alerts"):
                if exp.get(block) != reference.get(block):
                    problems.append(
                        f"{exp['id']}: {block} blocks differ serial vs {name!r}"
                    )
    return problems


def check_reuse(manifests: Manifests) -> list[str]:
    """E12 reuses the E1/E3/E6/E8 outcomes of the cold leg's sweep, and
    reuses nothing under the serial leg's lint gate."""
    problems = []
    reused = _exp(manifests["cold"], "E12").get("reused")
    if reused != ["E1", "E3", "E6", "E8"]:
        problems.append(f"cold E12 reused {reused!r}, not E1/E3/E6/E8")
    if "reused" in _exp(manifests["serial"], "E12"):
        problems.append("E12 reused outcomes under the serial leg's lint gate")
    return problems


def check_refutation(manifests: Manifests) -> list[str]:
    """E21 judged every declared assumption and refuted at least one
    with a concrete counterexample configuration."""
    from repro.experiments.e21_refutation import declared_assumptions

    verdicts = _exp(manifests["serial"], "E21").get("analysis", {}).get(
        "assumptions", []
    )
    problems = []
    declared = {a.name for a in declared_assumptions()}
    judged = {v["assumption"] for v in verdicts}
    if judged != declared:
        problems.append(
            f"E21 verdicts ({sorted(judged)}) do not cover the declared "
            f"assumptions ({sorted(declared)})"
        )
    refuted = [v for v in verdicts if v["verdict"] == "refuted"]
    if not refuted:
        problems.append("the E21 sweep refuted nothing")
    for verdict in refuted:
        ce = verdict.get("counterexample")
        if not ce or not (ce.get("point") or ce.get("from")):
            problems.append(
                f"refuted {verdict['assumption']!r} carries no "
                "counterexample configuration"
            )
    return problems


def check_classification(manifests: Manifests) -> list[str]:
    """Every experiment carries a top-down classification whose level-1
    shares sum to one."""
    problems = []
    for exp in manifests["serial"]["experiments"]:
        cls = exp.get("analysis", {}).get("classification")
        if not cls or not cls.get("path"):
            problems.append(f"{exp['id']}: no top-down classification")
            continue
        total = sum(cls["levels"][0]["shares"].values())
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            problems.append(
                f"{exp['id']}: level-1 shares sum to {total!r}, not 1"
            )
    return problems


def check_alert_placement(manifests: Manifests) -> list[str]:
    """E20's unprotected arm pages, only past its calm windows; the
    full-policy arm never pages."""
    from repro.experiments.e20_resilience import chain_config

    slos = {
        slo["spec"]["name"]: slo
        for slo in _exp(manifests["serial"], "E20").get("alerts", {}).get(
            "slos", []
        )
    }
    unprot, full = slos.get("E20-unprotected"), slos.get("E20-full")
    if unprot is None or full is None:
        return [f"E20 alerts lack the unprotected or full SLO: {sorted(slos)}"]
    problems = []
    if unprot["fired"] <= 0:
        problems.append("the unprotected arm never paged under overload")
    calm = (
        chain_config("unprotected", True).calm_cycles
        // unprot["window_cycles"]
    )
    early = [e["window"] for e in unprot["events"] if e["window"] < calm]
    if early:
        problems.append(
            f"alerts fired inside the calm windows (indices {early} < {calm})"
        )
    if full["fired"] != 0:
        problems.append(f"the full-policy arm paged {full['fired']}x")
    return problems


def check_resilience_claims(manifests: Manifests) -> list[str]:
    """Shedding holds E20's p99 below the unprotected collapse, and the
    full policy set beats the unprotected goodput."""
    claims = _exp(manifests["serial"], "E20").get("result_metrics", {})
    problems = []
    shed_ratio = claims.get("shed_vs_unprotected_p99")
    if shed_ratio is None or shed_ratio >= 1.0:
        problems.append(
            f"shed p99 / unprotected p99 = {shed_ratio!r} (want < 1)"
        )
    if not claims.get("goodput_full", 0) > claims.get("goodput_unprotected", 1):
        problems.append(
            "the full-policy goodput does not beat the unprotected goodput"
        )
    return problems


def check_fault_ledger(manifests: Manifests) -> list[str]:
    """E17's own ledger: every fault kind fires, injections are detected,
    and misses come only from the unprotected preempt-in-read arm."""
    faults = _exp(manifests["serial"], "E17").get("faults")
    if faults is None:
        return ["no E17 fault ledger"]
    problems = []
    if not faults["injected"] > 0 or not faults["detected"] > 0:
        problems.append(
            f"E17 injected {faults['injected']} and detected "
            f"{faults['detected']} faults (want both > 0)"
        )
    kinds = set(faults["by_kind"])
    if kinds != FAULT_KINDS:
        problems.append(
            f"E17 fault kinds differ from the taxonomy: "
            f"{sorted(kinds ^ FAULT_KINDS)}"
        )
    if not faults["missed"] < faults["by_kind"].get("preempt_in_read", 0):
        problems.append(
            f"E17 missed {faults['missed']} faults, not fewer than its "
            "preempt_in_read injections"
        )
    return problems


def check_cache(manifests: Manifests) -> list[str]:
    """The cold leg stores every miss; the warm leg is served entirely by
    one experiment-level hit per experiment and runs at least 5x faster."""
    cold = manifests["cold"]["cache_stats"]
    warm = manifests["warm"]["cache_stats"]
    n_exps = len(manifests["warm"]["experiments"])
    problems = []
    if not cold["stores"] > 0 or cold["misses"] != cold["stores"]:
        problems.append(f"cold run: misses != stores > 0 ({cold})")
    if cold["errors"] or cold["quarantined"]:
        problems.append(f"cold run: cache errors or quarantines ({cold})")
    if warm["misses"] or warm["stores"] or warm["errors"]:
        problems.append(f"warm run: misses, stores or errors ({warm})")
    if warm["hits"] != n_exps:
        problems.append(f"warm run: {warm['hits']} hits, not {n_exps} ({warm})")
    speedup = cold["wall_seconds"] / max(warm["wall_seconds"], 1e-9)
    if speedup < 5.0:
        problems.append(f"warm run only {speedup:.1f}x faster (want >= 5x)")
    return problems


def check_outputs(manifests: Manifests) -> list[str]:
    """The cold and warm legs write the serial leg's output files, byte
    for byte."""
    reference = manifests["serial"].get("outputs")
    if not reference:
        return ["the serial leg wrote no output files"]
    return [
        f"leg {name!r}: output files differ from the serial leg's"
        for name in ("cold", "warm")
        if manifests[name].get("outputs") != reference
    ]


def check_traces(manifests: Manifests) -> list[str]:
    """Each traced experiment wrote a complete JSONL stream and a
    non-empty Perfetto file."""
    from repro.obs.export import read_jsonl

    problems = []
    for exp in manifests["trace"]["experiments"]:
        files = exp.get("trace_files")
        if not files:
            problems.append(f"{exp['id']}: no trace files")
            continue
        n_events = len(read_jsonl(files["jsonl"]))
        if n_events != files["n_trace_events"]:
            problems.append(
                f"{exp['id']}: {n_events} JSONL events, manifest says "
                f"{files['n_trace_events']}"
            )
        if not json.loads(Path(files["perfetto"]).read_text())["traceEvents"]:
            problems.append(f"{exp['id']}: empty Perfetto trace")
    return problems


def check_stream(manifests: Manifests) -> list[str]:
    """E19's windows stay bounded and reconcile exactly, and its stream
    directory is complete and closed."""
    from repro.obs.export import read_stream_manifest, read_stream_windows

    e19 = _exp(manifests["stream"], "E19")
    if "windows" not in e19 or "stream" not in e19:
        return ["no E19 windows or stream record"]
    windows = e19["windows"]
    problems = []
    if not (
        windows["max_retained"] <= windows["retention"]
        and windows["evicted_windows"] > 0
        and windows["reconciled"] is True
    ):
        problems.append(
            f"E19 windows not bounded with eviction and reconciled: {windows}"
        )
    requests = windows["counters"].get("traffic.requests")
    if requests != 16_800:
        problems.append(f"E19 counted {requests} requests, not 16800")
    stream = read_stream_manifest(e19["stream"]["dir"])
    if not stream["closed"] or not stream["n_records"] > 0:
        problems.append(f"E19 stream not closed and non-empty: {stream}")
    if len(read_stream_windows(e19["stream"]["dir"])) != stream["n_records"]:
        problems.append("E19 stream windows do not match its record count")
    return problems


def check_trace_cli(manifests: Manifests) -> list[str]:
    """``repro.trace summarize`` reads the E1 trace and ``repro.trace
    tail`` reads the E19 stream."""
    from repro.trace import main as trace_main

    jsonl = _exp(manifests["trace"], "E1").get("trace_files", {}).get("jsonl")
    stream = _exp(manifests["stream"], "E19").get("stream", {}).get("dir")
    if not jsonl or not stream:
        return ["no E1 trace file or E19 stream for the trace CLI"]
    problems = []
    for argv in (["summarize", jsonl], ["tail", stream, "-n", "5"]):
        code = trace_main(argv)
        if code != 0:
            problems.append(f"repro.trace {' '.join(argv)} exited {code}")
    return problems


CHECKS: tuple[Callable[[Manifests], list[str]], ...] = (
    check_summaries,
    check_fingerprints,
    check_pooled_blocks,
    check_reuse,
    check_refutation,
    check_classification,
    check_alert_placement,
    check_resilience_claims,
    check_fault_ledger,
    check_cache,
    check_outputs,
    check_traces,
    check_stream,
    check_trace_cli,
)


def run_leg(name: str, argv: tuple[str, ...], root: Path) -> dict[str, Any]:
    """Run one leg into a fresh ``root/name`` and return its manifest, with
    the leg's output files (``outputs``) and cache stats (``cache_stats``)
    attached when it wrote them."""
    from repro.obs.export import read_manifest

    leg = root / name
    shutil.rmtree(leg, ignore_errors=True)
    manifest_path = leg / "manifest.json"
    full_argv = [
        *(arg.format(leg=leg, root=root) for arg in argv),
        "--manifest", str(manifest_path),
    ]
    print(f"== smoke leg {name!r}: repro.experiments {' '.join(full_argv)}",
          flush=True)
    saved = os.environ.get("REPRO_FP_RECORDS")
    os.environ["REPRO_FP_RECORDS"] = "1"
    started = time.perf_counter()
    try:
        code = run_suite(full_argv)
    finally:
        if saved is None:
            os.environ.pop("REPRO_FP_RECORDS", None)
        else:
            os.environ["REPRO_FP_RECORDS"] = saved
    if code != 0:
        raise SystemExit(f"smoke: leg {name!r} failed (exit {code})")
    print(f"== smoke leg {name!r}: {time.perf_counter() - started:.1f}s",
          flush=True)
    manifest = read_manifest(manifest_path)
    out = leg / "out"
    if out.is_dir():
        manifest["outputs"] = {
            path.name: path.read_text() for path in sorted(out.iterdir())
        }
    stats = leg / "cache-stats.json"
    if stats.is_file():
        manifest["cache_stats"] = json.loads(stats.read_text())
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--dir",
        type=Path,
        default=Path("results/smoke"),
        help="directory for the leg manifests, outputs and cache",
    )
    args = parser.parse_args(argv)
    root = args.dir.resolve()
    # The cold leg must start from an empty cache.
    shutil.rmtree(root / "cache", ignore_errors=True)

    manifests = {name: run_leg(name, legv, root) for name, legv in LEGS}
    problems = [problem for check in CHECKS for problem in check(manifests)]
    for problem in problems:
        print(f"smoke FAILED: {problem}", file=sys.stderr)
    if not problems:
        print(f"smoke OK: {len(LEGS)} legs, {len(CHECKS)} checks")
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
