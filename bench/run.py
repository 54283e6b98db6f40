"""Host-time benchmark of the simulator, end to end and layer by layer.

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out PATH]

Every sample runs in a fresh child process (``workloads.py``), one at a
time, from this single parent: one client in a closed loop. Each workload
runs ``MIN_REPS`` timed reps, then more while one more would still end
within ``--seconds`` of timed wall time (``run_seconds`` in
``BENCHMARK.json`` by default); the order of workloads rotates on every
round. Set-up time is sampled at least ``SETUP_SAMPLES`` times per
workload, topping up with set-up-only children.
``--trace`` then adds one traced sample per workload, for the per-layer
metrics and the tracing overhead.

Every output is checked against ``golden.json`` (or, for a seed with no
golden, against the run's first sample). The report gives each metric with
its unit, sample count, median and quartiles; ``--out`` writes it as JSON
with provenance and every raw sample. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics (per-layer metrics with ``--trace``), keyed ``workload.metric``
when several workloads ran. The exit code is non-zero on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = stats.ROOT
SRC = ROOT / "src"
WORK = BENCH / ".work"
WORKLOADS = tuple(wl.BUILDERS)
#: Timed reps per workload at the least, however long they take: the
#: quartiles that ``diff.py`` judges a change by need two samples.
MIN_REPS = stats.MIN_SAMPLES
#: Set-up is short (about 0.3 s), so one sample in a slow spell of the host
#: can move the quartiles of five past the 10% bound; those of seven are
#: the second-lowest and second-highest sample, which one outlier leaves.
SETUP_SAMPLES = 7
#: Wall seconds a run has for each workload it runs, traced samples
#: included; a child still running when the run's time is up is killed, so
#: a single-workload run ends inside three minutes even if a child hangs.
WORKLOAD_TIMEOUT = 170


def run_child(name: str, seed: int, mode: str, deadline: float) -> dict:
    """One sample in a fresh process; ``{"error": ...}`` if it failed or
    was still running at ``deadline`` (a ``time.monotonic()`` value)."""
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(BENCH / "workloads.py"), name, str(seed), mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"mode": mode, "error": "no time left for this sample"}
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{name}-") as tmp:
        try:
            proc = subprocess.run(
                argv + [tmp],
                cwd=tmp,
                env=env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"mode": mode, "error": f"killed after {timeout:.0f}s: out of time"}
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"mode": mode, "error": f"exit {proc.returncode}: {tail}"}
    return {"mode": mode, **json.loads(proc.stdout.splitlines()[-1])}


def measure(names: list[str], seed: int, seconds: float, trace: bool) -> dict:
    """Raw samples per workload: the timed reps, the set-up probes and
    (with ``trace``) one traced sample."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT * len(names)
    samples: dict[str, list[dict]] = {name: [] for name in names}
    broken: set[str] = set()

    def record(name: str, sample: dict) -> None:
        samples[name].append(sample)
        if "error" in sample:
            broken.add(name)

    def wants_rep(name: str) -> bool:
        if name in broken:
            return False
        times = [s["wall_s"] for s in samples[name] if s["mode"] == "run"]
        if len(times) < MIN_REPS:
            return True
        # On a slow host the reps run longer, so a run keeps to its time
        # by taking fewer of them.
        return sum(times) + statistics.mean(times) <= seconds

    round_no = 0
    while todo := [n for n in names if wants_rep(n)]:
        k = round_no % len(names)
        for name in names[k:] + names[:k]:
            if name in todo:
                record(name, run_child(name, seed, "run", deadline))
        round_no += 1
    for name in names:
        while name not in broken and len(setup_values(samples[name])) < SETUP_SAMPLES:
            record(name, run_child(name, seed, "setup", deadline))
    if trace:
        for name in names:
            if name not in broken:
                record(name, run_child(name, seed, "trace", deadline))
    return samples


def setup_values(samples: list[dict]) -> list[float]:
    return [s["setup_s"] for s in samples if s["mode"] in ("run", "setup") and "error" not in s]


def grade(sample: dict, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one sample: each expected output
    is one operation; a sample that crashed fails all of them."""
    attempted = max(1, len(expected))
    if "error" in sample:
        return attempted, attempted, [sample["error"]]
    got = sample["outputs"]
    wrong = [
        f"{key}: got {got.get(key)}, golden {want}"
        for key, want in expected.items()
        if got.get(key) != want
    ]
    return attempted, len(wrong), wrong


def expected_outputs(golden: dict, name: str, wseed, samples: list[dict]) -> dict:
    """The golden outputs for this input; for a seed with no golden, the
    first sample's outputs, which every later sample must repeat."""
    expected = golden.get(name, {}).get(str(wseed))
    if expected is None:
        first = next((s for s in samples if "outputs" in s), None)
        expected = first["outputs"] if first else {}
    return expected


def summarize(name: str, seed: int, samples: list[dict], golden: dict) -> dict:
    wseed = wl.workload_seed(name, seed)
    expected = expected_outputs(golden, name, wseed, samples)
    attempted = failed = 0
    failures: list[str] = []
    for sample in samples:
        if sample["mode"] == "setup" and "error" not in sample:
            continue
        a, f, messages = grade(sample, expected)
        attempted += a
        failed += f
        failures += [f"{sample['mode']} sample: {m}" for m in messages]
    reps = [s for s in samples if s["mode"] == "run" and "error" not in s]
    values = {
        "norm_cpu_s": [s["norm_cpu_s"] for s in reps],
        "sim_mcycles_per_s": [s["sim_cycles"] / 1e6 / s["norm_cpu_s"] for s in reps],
        "setup_s": setup_values(samples),
        "peak_rss_mb": [s["peak_rss_mb"] for s in reps],
        "cpu_s": [s["cpu_s"] for s in reps],
        "wall_s": [s["wall_s"] for s in reps],
    }
    metrics = {}
    for metric in stats.end_to_end_metrics():
        key = metric["name"]
        if key == "fail_frac":
            summary = stats.summarize([failed / attempted], metric["unit"])
            metrics[key] = {**summary, "n": attempted}
        elif values[key]:
            metrics[key] = stats.summarize(values[key], metric["unit"])
    out = {
        "seed": wseed,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in samples],
    }
    traced = next((s for s in samples if s["mode"] == "trace" and "error" not in s), None)
    if traced is not None and reps:
        out["trace"] = {
            "norm_cpu_s": traced["norm_cpu_s"],
            "overhead": traced["norm_cpu_s"] / metrics["norm_cpu_s"]["median"] - 1,
            "layers": traced["layers"],
        }
    return out


def provenance(seed: int) -> dict:
    commit = dirty = None
    if (ROOT / ".git").exists():

        def git(*args: str) -> str:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()

        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain"))
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "bench_seed": seed,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def report(result: dict) -> None:
    print(f"{'workload':<18} {'metric':<18} {'unit':<9} {'n':>4} "
          f"{'median':>12} {'q1':>12} {'q3':>12}")
    for name, w in result["workloads"].items():
        for key, m in w["metrics"].items():
            print(f"{name:<18} {key:<18} {m['unit']:<9} {m['n']:>4} "
                  f"{m['median']:>12.6g} {m['q1']:>12.6g} {m['q3']:>12.6g}")
    for name, w in result["workloads"].items():
        for message in w["failures"]:
            print(f"FAIL {name}: {message}")
        if "trace" in w:
            t = w["trace"]
            print(f"\n{name} traced: {t['norm_cpu_s']:.3f} norm CPU s, tracing overhead "
                  f"{t['overhead']:+.1%} vs the untraced median")
            for key, value in t["layers"].items():
                print(f"  {key:<34} {value:>14.6g}")


def result_line(result: dict, trace: bool) -> dict:
    bench = stats.load_benchmark()
    names = bench["per_layer"] if trace else bench["end_to_end"]
    workloads = result["workloads"]
    metrics = {}
    for name, w in workloads.items():
        prefix = f"{name}." if len(workloads) > 1 else ""
        for metric in names:
            key = metric["name"]
            if trace:
                # A layer that does not run on this workload reads 0.
                value = w["trace"]["layers"].get(key, 0.0)
            else:
                value = w["metrics"][key]["median"]
            metrics[prefix + key] = {"value": value, "unit": metric["unit"]}
    failed = sum(w["failed"] for w in workloads.values())
    return {
        "correct": failed == 0,
        "attempted": sum(w["attempted"] for w in workloads.values()),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: 0 is the default input, 1 the held-out one")
    parser.add_argument("--seconds", type=float,
                        default=stats.load_benchmark()["run_seconds"],
                        help="timed seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced sample per workload")
    parser.add_argument("--out", type=Path, help="write the full result JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    # Stopped from outside, exit through an exception: subprocess.run then
    # kills the running child and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = [args.workload] if args.workload else list(WORKLOADS)
    golden = json.loads((BENCH / "golden.json").read_text())
    result = {
        "schema": "bench/result/v1",
        "provenance": provenance(args.seed),
        "settings": {"seconds": args.seconds, "trace": bool(args.trace), "workloads": names},
    }
    samples = measure(names, args.seed, args.seconds, bool(args.trace))
    result["workloads"] = {
        name: summarize(name, args.seed, samples[name], golden) for name in names
    }
    report(result)

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
    spans = {
        name: s["spans"] for name in names for s in samples[name] if "spans" in s
    }
    if spans:
        spans_path = args.out.with_suffix(".spans.json") if args.out else WORK / "spans.json"
        spans_path.write_text(json.dumps(spans) + "\n")
        print(f"spans: {spans_path}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"result: {args.out}")

    complete = all(
        "norm_cpu_s" in w["metrics"] and (not args.trace or "trace" in w)
        for w in result["workloads"].values()
    )
    if not complete:
        print("bench: a workload produced no usable sample", file=sys.stderr)
        return 1
    line = result_line(result, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
