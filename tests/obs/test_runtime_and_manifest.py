"""Run collection, the experiment runner's manifest, and trace dumps."""

import json

from repro.common.config import MachineConfig, SimConfig
from repro.experiments import runner
from repro.hw.events import EventRates
from repro.obs import runtime as obs_runtime
from repro.obs.export import read_jsonl, read_manifest
from repro.sim.engine import run_program
from repro.sim.ops import Compute
from repro.sim.program import ThreadSpec

RATES = EventRates.profile(ipc=1.0)


def run_once(seed=0, trace=False):
    def worker(ctx):
        yield Compute(50_000, RATES)

    config = SimConfig(
        machine=MachineConfig(n_cores=1), seed=seed, trace=trace
    )
    return run_program([ThreadSpec("t", worker)], config)


class TestRunCollector:
    def test_records_every_engine_run(self):
        with obs_runtime.collect() as col:
            run_once(seed=1)
            run_once(seed=2)
        assert col.n_runs == 2
        assert col.sim_cycles > 0
        assert col.sim_events > 0

    def test_no_collector_no_crash(self):
        assert obs_runtime.current() is None
        run_once()  # must work fine outside any collect() scope

    def test_nested_collectors_innermost_wins(self):
        with obs_runtime.collect() as outer:
            run_once()
            with obs_runtime.collect() as inner:
                run_once()
            run_once()
        assert outer.n_runs == 2
        assert inner.n_runs == 1

    def test_capture_traces_forces_tracing(self):
        with obs_runtime.collect(capture_traces=True) as col:
            result = run_once(trace=False)
        assert result.trace  # engine turned tracing on for the scope
        assert col.all_events() == list(result.trace)

    def test_without_capture_no_traces_kept(self):
        with obs_runtime.collect() as col:
            run_once(trace=False)
        assert col.all_events() == []

    def test_metrics_snapshot_totals(self):
        with obs_runtime.collect() as col:
            r1 = run_once(seed=1)
            r2 = run_once(seed=2)
        snap = col.metrics_snapshot()
        assert snap["engine_runs"] == 2
        assert snap["sim_cycles"] == r1.wall_cycles + r2.wall_cycles
        assert snap["context_switches"] == (
            r1.kernel.n_context_switches + r2.kernel.n_context_switches
        )
        assert snap["wall_seconds"] > 0

    def test_config_hash_stable_and_sensitive(self):
        with obs_runtime.collect() as a:
            run_once(seed=1)
        with obs_runtime.collect() as b:
            run_once(seed=1)
        with obs_runtime.collect() as c:
            run_once(seed=2)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestResultMetrics:
    def test_metrics_on_by_default(self):
        result = run_once()
        assert result.metrics
        assert result.metrics["sim_cycles"] == result.wall_cycles
        assert "wall.engine_run_seconds" in result.metrics

    def test_metrics_off(self):
        def worker(ctx):
            yield Compute(50_000, RATES)

        config = SimConfig(machine=MachineConfig(n_cores=1), metrics=False)
        result = run_program([ThreadSpec("t", worker)], config)
        assert result.metrics == {}

    def test_metric_counts_match_ground_truth(self):
        result = run_once(trace=True)
        assert result.metrics["trace_events"] == len(result.trace)
        assert result.metrics["context_switches"] == (
            result.kernel.n_context_switches
        )
        assert result.metrics["pmis"] == result.kernel.n_pmis


class TestRunnerManifest:
    def test_manifest_and_traces(self, tmp_path, capsys):
        manifest_path = tmp_path / "m.json"
        trace_dir = tmp_path / "traces"
        rc = runner.main(
            [
                "E1",
                "--quick",
                "--manifest",
                str(manifest_path),
                "--trace-dir",
                str(trace_dir),
            ]
        )
        assert rc == 0
        manifest = read_manifest(manifest_path)
        assert manifest["summary"]["passed"] == 1
        assert manifest["summary"]["failed"] == 0
        (exp,) = manifest["experiments"]
        assert exp["id"] == "E1"
        assert exp["status"] == "passed"
        assert exp["wall_seconds"] > 0
        assert exp["engine_runs"] > 0
        # acceptance: manifest counts equal the metrics snapshot
        assert exp["sim_events"] == exp["metrics"]["sim_events"]
        assert exp["context_switches"] == exp["metrics"]["context_switches"]
        assert exp["sim_cycles"] == exp["metrics"]["sim_cycles"]
        # macro-stepping telemetry rides along, per experiment and summed
        macro = exp["macro"]
        for key in ("macro_steps", "quanta_batched", "fast_reads",
                    "whole_syscalls", "whole_phases", "fastpath_bailouts",
                    "macro_hit_rate"):
            assert key in macro
        assert isinstance(macro["bailouts"], dict)
        assert 0.0 <= macro["macro_hit_rate"] <= 1.0
        summary_macro = manifest["summary"]["macro"]
        assert summary_macro["macro_steps"] == macro["macro_steps"]
        assert summary_macro["quanta_batched"] == macro["quanta_batched"]
        assert summary_macro["whole_syscalls"] == macro["whole_syscalls"]
        assert summary_macro["whole_phases"] == macro["whole_phases"] > 0
        # trace files exist, parse, and agree with the manifest
        files = exp["trace_files"]
        events = read_jsonl(files["jsonl"])
        assert len(events) == files["n_trace_events"]
        doc = json.loads(open(files["perfetto"]).read())
        assert doc["traceEvents"]
        out = capsys.readouterr().out
        assert "1 passed, 0 failed" in out

    def test_summary_line_without_manifest(self, capsys):
        rc = runner.main(["E1", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 passed, 0 failed, total wall time" in out

    def test_failed_experiment_reported(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import registry

        entry = registry.get("E1")

        def boom(quick=False):
            raise RuntimeError("synthetic failure")

        broken = registry.ExperimentEntry(
            exp_id=entry.exp_id,
            title=entry.title,
            paper_claim=entry.paper_claim,
            run=boom,
        )
        monkeypatch.setitem(registry.REGISTRY, "E1", broken)
        manifest_path = tmp_path / "m.json"
        rc = runner.main(["E1", "--quick", "--manifest", str(manifest_path)])
        assert rc == 1
        manifest = read_manifest(manifest_path)
        (exp,) = manifest["experiments"]
        assert exp["status"] == "failed"
        assert "synthetic failure" in exp["error"]
        assert manifest["summary"]["failed"] == 1
        assert "0 passed, 1 failed" in capsys.readouterr().out
