"""Each experiment runs once per invocation: E12 reuses the E1/E3/E6/E8
outcomes a sweep already produced instead of simulating them again.

Reuse must be invisible in every record except E12's ``reused`` key and
its host timings, and must switch off wherever the experiment-level
cache does (tracing, an armed lint gate) or an outcome is unclean.
"""

import dataclasses
import io

import pytest

from repro.experiments import (
    e01_read_cost,
    e03_precision,
    e06_mysql_sync,
    e08_user_kernel,
    registry,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import run_entries
from repro.sim.engine import Engine

SWEEP = ["E1", "E3", "E6", "E8", "E12"]


def _run(ids, overrides=None, **kwargs):
    """``run_entries`` over ``ids`` (``overrides`` maps an id to a stand-in
    entry); returns the manifest records by id."""
    overrides = overrides or {}
    entries = [overrides.get(exp_id) or registry.get(exp_id) for exp_id in ids]
    records, _wall = run_entries(
        entries, stdout=io.StringIO(), stderr=io.StringIO(), **kwargs
    )
    return {record["id"]: record for record in records}


def _deterministic(record):
    """A manifest record without its host timings and ``reused`` key."""

    def strip(value):
        if isinstance(value, dict):
            return {
                k: strip(v)
                for k, v in value.items()
                if k not in ("wall_seconds", "sim_events_per_sec", "reused")
                and not k.startswith("wall.")
            }
        return value

    return strip(record)


def _counting_e12(monkeypatch, quick=True):
    """E12's registry entry, wrapped to count the engine runs made while
    it executes; returns ``(entry, calls)``."""
    calls = []
    inside = []
    real_run = Engine.run

    def counting(self, specs):
        if inside:
            calls.append(1)
        return real_run(self, specs)

    def run_e12(quick=quick):
        inside.append(True)
        try:
            return registry.get("E12").run(quick=quick)
        finally:
            inside.clear()

    monkeypatch.setattr(Engine, "run", counting)
    return dataclasses.replace(registry.get("E12"), run=run_e12), calls


@pytest.fixture(scope="module")
def sweeps():
    """The quick E1/E3/E6/E8/E12 sweep, E12 alone and E1 alone, with
    fingerprints captured, plus the engine runs made inside E12."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_FP_RECORDS", "1")
        e12, calls = _counting_e12(mp)
        swept = _run(SWEEP, {"E12": e12}, quick=True)
        e12_calls = list(calls)
        alone = _run(["E12"], quick=True)
        e1_alone = _run(["E1"], quick=True)
    return swept, e12_calls, alone["E12"], e1_alone["E1"]


class TestReuseInSweep:
    def test_e12_runs_no_engine(self, sweeps):
        swept, e12_calls, _alone, _e1 = sweeps
        assert e12_calls == []
        assert swept["E12"]["reused"] == ["E1", "E3", "E6", "E8"]

    def test_e12_record_equals_e12_alone(self, sweeps):
        swept, _calls, alone, _e1 = sweeps
        assert "reused" not in alone
        assert swept["E12"]["engine_runs"] == alone["engine_runs"] == 17
        assert swept["E12"]["fingerprints"] == alone["fingerprints"]
        assert swept["E12"]["analysis"] == alone["analysis"]
        assert _deterministic(swept["E12"]) == _deterministic(alone)

    def test_e1_record_unchanged_by_reuse(self, sweeps):
        swept, _calls, _alone, e1_alone = sweeps
        assert "reused" not in swept["E1"]
        assert swept["E1"]["fingerprints"]
        assert _deterministic(swept["E1"]) == _deterministic(e1_alone)


class TestReuseBypass:
    def _reexecutes(self, monkeypatch, ids, overrides=None, **kwargs):
        e12, calls = _counting_e12(monkeypatch)
        overrides = {**(overrides or {}), "E12": e12}
        record = _run(ids, overrides, quick=True, **kwargs)["E12"]
        assert "reused" not in record
        assert len(calls) == record["engine_runs"] == 17
        return record

    def test_lint_gate_reexecutes(self, monkeypatch):
        self._reexecutes(monkeypatch, ["E1", "E12"], lint_mode="strict")

    def test_trace_dir_reexecutes(self, monkeypatch, tmp_path):
        record = self._reexecutes(monkeypatch, ["E1", "E12"], trace_dir=tmp_path)
        assert record["trace_files"]["n_trace_events"] > 0

    def test_errored_sub_experiment_is_not_reused(self, monkeypatch):
        def boom(quick=False):
            raise RuntimeError("injected failure")

        e6 = dataclasses.replace(registry.get("E6"), run=boom)
        self._reexecutes(monkeypatch, ["E6", "E12"], {"E6": e6})

    def test_job_failure_sub_experiment_is_not_reused(self, monkeypatch):
        from repro import fabric
        from repro.common.config import MachineConfig, SimConfig

        def failing(quick=False):
            fabric.run_many(
                [
                    fabric.RunJob(
                        workload="repro.fabric.testing.ChaosWorkload",
                        config=SimConfig(machine=MachineConfig(n_cores=2)),
                        kwargs={"mode": "error"},
                        label="E6:error",
                    )
                ]
            )
            return e06_mysql_sync.run(quick=quick)

        e6 = dataclasses.replace(registry.get("E6"), run=failing)
        self._reexecutes(
            monkeypatch, ["E6", "E12"], {"E6": e6}, keep_going=True
        )


def test_full_mode_reuses_only_full_sub_experiments(monkeypatch):
    """Full-mode E12 asks for quick E1 and E3, which a full sweep never
    ran, so only E6 and E8 are reused. Stand-ins keep this cheap."""
    metrics = {
        "E1": {"limit_ns": 30.0, "perf_vs_limit": 100.0},
        "E3": {"sampler_best_short_err": 0.5},
        "E6": {
            "mean_hold_cycles": 300.0,
            "acquires_per_mcycle": 50.0,
            "wait_fraction": 0.01,
            "papi_slowdown": 1.5,
            "limit_slowdown": 1.01,
        },
        "E8": {"server_min_kernel_fraction": 0.3, "spec_kernel_fraction": 0.01},
    }
    asked = []
    entries = {}
    for module in (e01_read_cost, e03_precision, e06_mysql_sync, e08_user_kernel):

        def stand_in(quick=False, exp_id=module.EXP_ID):
            asked.append((exp_id, quick))
            return ExperimentResult(
                exp_id=exp_id, title="", paper_claim="", metrics=metrics[exp_id]
            )

        monkeypatch.setattr(module, "run", stand_in)
        entries[module.EXP_ID] = dataclasses.replace(
            registry.get(module.EXP_ID), run=stand_in
        )
    records = _run(SWEEP, entries, quick=False)
    assert records["E12"]["reused"] == ["E6", "E8"]
    assert records["E12"]["status"] == "passed"
    assert asked == [
        ("E1", False), ("E3", False), ("E6", False), ("E8", False),
        ("E1", True), ("E3", True),
    ]
