"""Tests of the standard derived metrics and run-result exports."""

import json

import pytest

from repro.analysis.expr import env_from_counts, evaluate, parse
from repro.analysis.reports import result_to_dict, result_to_json, run_report
from repro.analysis.tree import STANDARD_METRICS, default_tree
from repro.hw.events import Event, EventRates
from repro.sim.ops import Compute, LockAcquire, LockRelease, Syscall
from tests.conftest import run_threads

COUNTS = {
    Event.CYCLES: 1_000_000,
    Event.INSTRUCTIONS: 1_500_000,
    Event.LLC_MISSES: 3_000,
    Event.LLC_REFERENCES: 9_000,
    Event.L2_MISSES: 12_000,
    Event.BRANCHES: 300_000,
    Event.BRANCH_MISSES: 15_000,
    Event.DTLB_MISSES: 600,
    Event.STALL_CYCLES: 250_000,
}


def metrics(counts):
    """Every standard metric over ground-truth ``counts`` (absent events
    are true zeros, as the simulator counts exactly)."""
    env = env_from_counts(counts)
    return {
        name: evaluate(parse(source), env)
        for name, source in STANDARD_METRICS.items()
    }


class TestDerivedMetrics:
    def test_ipc_cpi(self):
        m = metrics(COUNTS)
        assert m["ipc"] == pytest.approx(1.5)
        assert m["cpi"] == pytest.approx(1 / 1.5)

    def test_mpki(self):
        m = metrics(COUNTS)
        assert m["llc_mpki"] == pytest.approx(2.0)
        assert m["l2_mpki"] == pytest.approx(8.0)

    def test_ratios(self):
        m = metrics(COUNTS)
        assert m["llc_miss_ratio"] == pytest.approx(1 / 3)
        assert m["branch_miss_rate"] == pytest.approx(0.05)
        assert m["stall_fraction"] == pytest.approx(0.25)
        assert m["kernel_sensitive_mix"] == pytest.approx(0.2)

    def test_empty_counts_undefined(self):
        # No denominator data is "undefined", never a measured zero.
        assert set(metrics({}).values()) == {None}

    def test_absent_numerator_is_true_zero(self):
        m = metrics({Event.CYCLES: 1000, Event.INSTRUCTIONS: 500})
        assert m["llc_mpki"] == 0.0
        assert m["ipc"] == pytest.approx(0.5)

    def test_summary_surfaces_undefined(self):
        m = metrics({Event.CYCLES: 1000})
        assert m["ipc"] == 0.0  # instructions absent: true zero numerator
        assert m["llc_mpki"] is None  # instructions absent: no denominator
        assert m["branch_miss_rate"] is None
        assert m["stall_fraction"] == 0.0

    def test_summarize_bundle(self):
        # The shipped tree carries the same bundle, $-referenceable.
        env = env_from_counts(COUNTS)
        tree_metrics = default_tree().parsed_metrics()
        via_tree = {
            name: evaluate(parse(f"${name}"), env, tree_metrics)
            for name in STANDARD_METRICS
        }
        assert via_tree == metrics(COUNTS)

    def test_summarize_matches_profile_inputs(self, uniprocessor):
        """Round trip: profile() rates -> simulation -> standard metrics."""
        rates = EventRates.profile(
            ipc=1.25, llc_mpki=4.0, branch_frac=0.2, branch_miss_rate=0.1
        )

        def program(ctx):
            yield Compute(2_000_000, rates)

        result = run_threads(uniprocessor, program)
        m = metrics(result.thread_by_name("t0").events_user)
        assert m["ipc"] == pytest.approx(1.25, rel=0.001)
        assert m["llc_mpki"] == pytest.approx(4.0, rel=0.001)
        assert m["branch_miss_rate"] == pytest.approx(0.1, rel=0.001)


def _lockful_run(quad_core):
    def worker(ctx):
        yield Compute(20_000, EventRates.profile(ipc=1.0))
        yield LockAcquire("L")
        yield Compute(1_000, EventRates.profile(ipc=1.0))
        yield LockRelease("L")
        yield Syscall("work", (5_000,))

    return run_threads(quad_core, worker, worker)


class TestReports:
    def test_dict_roundtrips_json(self, quad_core):
        result = _lockful_run(quad_core)
        data = result_to_dict(result)
        text = result_to_json(result)
        assert json.loads(text) == json.loads(json.dumps(data, sort_keys=True))

    def test_dict_contents(self, quad_core):
        result = _lockful_run(quad_core)
        data = result_to_dict(result)
        assert data["wall_cycles"] == result.wall_cycles
        assert len(data["threads"]) == 2
        assert data["locks"]["L"]["acquires"] == 2
        assert data["kernel"]["syscalls"]["work"] == 2
        thread = data["threads"][0]
        assert thread["events_user"]["cycles"] == thread["user_cycles"]

    def test_run_report_sections(self, quad_core):
        result = _lockful_run(quad_core)
        report = run_report(result)
        assert "threads" in report
        assert "hottest locks" in report
        assert "kernel share" in report
        assert "t0" in report and "t1" in report

    def test_report_without_locks(self, uniprocessor):
        def program(ctx):
            yield Compute(10_000, EventRates.profile(ipc=1.0))

        result = run_threads(uniprocessor, program)
        report = run_report(result)
        assert "hottest locks" not in report
