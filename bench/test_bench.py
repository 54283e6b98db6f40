"""Tests for the benchmark itself: ``python -m pytest bench -q``.

They sit outside the tier-1 ``testpaths``. The smoke tests run each
workload builder in-process at a tiny size.
"""

from __future__ import annotations

import statistics
import sys
import time
from types import SimpleNamespace

import pytest

import clock
import diff
import run
import spans
import stats
import workloads

sys.path.insert(0, str(stats.ROOT / "src"))


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "workload": "w"}


def test_self_time_subtracts_direct_children_only():
    nested = [
        _span("experiments.runner", 0.0, 10.0, None),
        _span("experiments.E12", 1.0, 6.0, 0),
        _span("experiments.E1", 2.0, 4.0, 1),
        _span("sim.engine.run", 2.5, 3.5, 2),
        _span("obs.manifest_write", 7.0, 9.0, 0),
    ]
    assert spans.self_times(nested) == pytest.approx([3.0, 3.0, 1.0, 1.0, 2.0])
    layers = spans.layer_metrics(nested, {}, 0, ["experiments"], ["E1", "E12"])
    # E1 ran inside E12, so its time is E12's.
    assert layers["experiments.E12.total_s"] == pytest.approx(5.0)
    assert layers["experiments.E1.total_s"] == 0
    assert layers["experiments.runner.self_s"] == pytest.approx(3.0)


def test_recorder_links_nested_calls_to_their_parent():
    recorder = spans.Recorder("w")
    inner = recorder.wrap("inner", lambda x: x + 1)
    assert recorder.call("outer", lambda: inner(1) + inner(2)) == 5
    assert [(s["name"], s["parent"]) for s in recorder.spans] == [
        ("outer", None),
        ("inner", 0),
        ("inner", 0),
    ]


def test_every_metric_name_matches_the_name_rule():
    bench = stats.load_benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(set(names)) == len(names)
    for name in names + [m["name"] for m in [stats.FAIL_FRAC] + stats.INFO]:
        assert stats.NAME_RE.fullmatch(name), name
    for bad in ("", "-lead", "has space", "x" * 65, "a/b"):
        assert not stats.NAME_RE.fullmatch(bad), bad


def test_per_layer_names_are_what_the_layers_produce():
    every_layer = set().union(*workloads.LAYERS.values())
    produced = spans.layer_metrics([], {}, 0, every_layer, workloads.EXPERIMENT_IDS)
    declared = [m["name"] for m in stats.load_benchmark()["per_layer"]]
    assert sorted(produced) == sorted(declared)


def _summary(values):
    return stats.summarize(values, "s")


@pytest.mark.parametrize(
    "old, new, better, expected",
    [
        ([10.0, 10.1, 10.2], [10.0, 10.1, 10.2], "lower", "unchanged"),
        ([10.0, 10.1, 10.2], [11.5, 11.6, 11.7], "lower", "worse"),
        ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "lower", "better"),
        ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "higher", "worse"),
        # Spread wider than the bound: unresolved, whichever way it moved...
        ([8.0, 10.0, 12.0], [9.0, 10.5, 12.5], "lower", "unresolved"),
        ([8.0, 10.0, 12.0], [12.5, 13.0, 16.0], "lower", "unresolved"),
        # ...unless every NEW run beats every OLD run.
        ([8.0, 10.0, 12.0], [5.0, 6.0, 7.5], "lower", "better"),
        # Two samples a side are enough; one gives no spread to judge by.
        ([10.0, 10.1], [12.0, 12.1], "lower", "worse"),
        ([10.0, 10.1], [10.0, 10.1], "lower", "unchanged"),
        ([10.0], [12.0, 12.1, 12.2], "lower", "unresolved"),
        ([10.0, 10.1, 10.2], [5.0], "lower", "unresolved"),
    ],
)
def test_verdict_rules(old, new, better, expected):
    assert stats.verdict(_summary(old), _summary(new), better, 0.1) == expected


def test_fail_frac_rise_is_worse_and_fails_diff():
    def result(frac):
        summary = {**stats.summarize([frac], "fraction"), "n": 1}
        return {"workloads": {"w": {"metrics": {"fail_frac": summary}}}}

    lines, worse = diff.end_to_end(result(0.0), result(0.5))
    assert worse and lines[-1].endswith("worse")
    _, worse = diff.end_to_end(result(0.0), result(0.0))
    assert not worse


def test_speed_clock_scales_each_slice_by_the_probes_around_its_end(monkeypatch):
    ref = clock.REF_SECONDS
    slow = 2 * ref
    c = clock.SpeedClock()
    c._start = 1.0
    # Slices of 10, 20 and 30 ms ended by probes at full, half and full
    # speed, then an open slice of 40 ms. Each slice takes the median of
    # its probe and the probes next to it: the lone slow probe is outvoted,
    # and the end slices take the mean of their two.
    c._probes = [(1.01, ref), (1.03 + ref, slow), (1.06 + ref + slow, ref)]
    now = 1.10 + 2 * ref + slow
    monkeypatch.setattr(clock, "time", SimpleNamespace(process_time=lambda: now))
    assert clock.scale(slow) == pytest.approx(0.5**clock.SENSITIVITY)
    ends = clock.scale(1.5 * ref)
    assert c.read() == pytest.approx(0.01 * ends + 0.02 + 0.03 * ends + 0.04 * ends)
    c._probes = []
    assert c.read() == pytest.approx(now - 1.0)


def test_speed_clock_reads_twice_the_work_as_about_twice_the_time():
    def corrected(n):
        c = clock.SpeedClock()
        c.start()
        sum(len(str(i * i)) for i in range(n))
        c.stop()
        return c.read()

    # Pairs run back to back share the host's state; their median ratio
    # read 1.96-2.10 on the build host.
    ratio = statistics.median(corrected(1_000_000) / corrected(500_000) for _ in range(5))
    assert 1.7 < ratio < 2.3


def _sample(fingerprint, mode="run"):
    return {
        "mode": mode,
        "setup_s": 0.4,
        "norm_cpu_s": 6.5,
        "cpu_s": 7.0,
        "wall_s": 7.2,
        "peak_rss_mb": 50.0,
        "sim_cycles": 90_000_000,
        "outputs": {"fingerprint": fingerprint},
    }


def test_golden_mismatch_raises_fail_frac():
    golden = {"service_chain": {"2002": {"fingerprint": "good"}}}
    ok = run.summarize("service_chain", 0, [_sample("good"), _sample("good")], golden)
    assert ok["failed"] == 0 and ok["metrics"]["fail_frac"]["median"] == 0
    bad = run.summarize("service_chain", 0, [_sample("good"), _sample("bad")], golden)
    assert bad["failed"] == 1
    assert bad["metrics"]["fail_frac"]["median"] == pytest.approx(0.5)
    assert "golden good" in bad["failures"][0]


def test_seed_without_golden_must_repeat_its_first_sample():
    summary = run.summarize("service_chain", 7, [_sample("a"), _sample("b")], {})
    assert summary["seed"] == 2009 and summary["failed"] == 1


def test_crashed_sample_fails_every_operation():
    golden = {"sweep_quick_no_e20": {"registry": {"E1": "passed", "e1.quick.txt": "x"}}}
    crashed = {"mode": "run", "error": "exit 1: boom"}
    summary = run.summarize("sweep_quick_no_e20", 0, [crashed], golden)
    assert (summary["attempted"], summary["failed"]) == (2, 2)


def test_child_past_the_deadline_is_killed_and_fails():
    started = time.monotonic()
    killed = run.run_child("service_chain", 0, "run", started + 0.5)
    assert "out of time" in killed["error"]
    assert time.monotonic() - started < 5
    late = run.run_child("service_chain", 0, "run", time.monotonic())
    assert late == {"mode": "run", "error": "no time left for this sample"}


SMOKE_SIZES = {
    "sweep_quick_no_e20": {"experiments": ("E5",)},
    "service_chain": {"requests": 40},
    "mysql_locks": {"transactions": 4},
    "traffic_streamed": {"requests": 200},
}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_builder_smoke(name, tmp_path):
    builder = workloads.BUILDERS[name]
    seed = workloads.workload_seed(name, 0)
    call, finish = builder(seed, tmp_path, **SMOKE_SIZES[name])
    out = finish(call())
    assert out["sim_cycles"] > 0
    if name == "sweep_quick_no_e20":
        assert out["outputs"]["E5"] == "passed"
        assert len(out["outputs"]["e5.quick.txt"]) == 64
    else:
        again = workloads.BUILDERS[name](seed, tmp_path / "again", **SMOKE_SIZES[name])
        assert again[1](again[0]())["outputs"] == out["outputs"]
