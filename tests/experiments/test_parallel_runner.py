"""Runner-level parallelism and caching: --jobs and --cache flags.

Determinism makes these strong tests: a --jobs run must write byte-for-byte
the same artifact files as a serial run, and a warm-cache rerun must serve
every experiment from the cache while reproducing identical output.
"""

import json
from pathlib import Path

from repro.obs.export import read_manifest
from repro.experiments.runner import artifact_stem, main

EXPS = ["E5", "E13", "E16"]


def _run(tmp_path: Path, tag: str, *extra: str) -> Path:
    out = tmp_path / tag
    rc = main(
        ["--quick", "--out", str(out), "--manifest", str(out / "m.json"), *extra]
        + EXPS
    )
    assert rc == 0
    return out


class TestParallelRunner:
    def test_jobs_output_matches_serial(self, tmp_path: Path, capsys):
        serial = _run(tmp_path, "serial")
        parallel = _run(tmp_path, "par", "--jobs", "2")
        for exp_id in EXPS:
            name = f"{artifact_stem(exp_id, quick=True)}.txt"
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()
        m_serial = read_manifest(serial / "m.json")
        m_par = read_manifest(parallel / "m.json")
        assert [e["config_hash"] for e in m_serial["experiments"]] == [
            e["config_hash"] for e in m_par["experiments"]
        ]
        assert m_par["summary"]["jobs"] == 2

    def test_wall_time_is_child_attributed(self, tmp_path: Path, capsys):
        out = _run(tmp_path, "walls", "--jobs", "2")
        manifest = read_manifest(out / "m.json")
        for entry in manifest["experiments"]:
            # measured in the executing process around entry.run(): real
            # compute time, never zero, never the parent's total wait
            assert 0 < entry["wall_seconds"]
            assert entry["wall_seconds"] <= manifest["summary"]["wall_seconds"]

    def test_summary_line_format_stable(self, tmp_path: Path, capsys):
        _run(tmp_path, "fmt", "--jobs", "2")
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == f"{len(EXPS)} passed, 0 failed" or lines[
            -1
        ].startswith(f"{len(EXPS)} passed, 0 failed, total wall time ")


class TestRunnerCache:
    def test_warm_rerun_served_from_cache(self, tmp_path: Path, capsys):
        cache_dir = tmp_path / "cache"
        stats1 = tmp_path / "s1.json"
        stats2 = tmp_path / "s2.json"
        cold = _run(
            tmp_path, "cold",
            "--cache-dir", str(cache_dir), "--cache-stats", str(stats1),
        )
        capsys.readouterr()
        warm = _run(
            tmp_path, "warm",
            "--cache-dir", str(cache_dir), "--cache-stats", str(stats2),
        )
        stdout = capsys.readouterr().out
        assert stdout.count("cache hit") == len(EXPS)

        s1 = json.loads(stats1.read_text())
        s2 = json.loads(stats2.read_text())
        assert s1["hits"] == 0 and s1["stores"] > 0
        assert s2["misses"] == 0 and s2["hits"] == len(EXPS)
        assert s2["wall_seconds"] < s1["wall_seconds"]

        for exp_id in EXPS:
            name = f"{artifact_stem(exp_id, quick=True)}.txt"
            assert (cold / name).read_bytes() == (warm / name).read_bytes()
        m_warm = read_manifest(warm / "m.json")
        assert all(e.get("cached") for e in m_warm["experiments"])
        assert m_warm["summary"]["cache"]["hits"] == len(EXPS)
        # engine-run accounting survives replay (records travel with entries)
        m_cold = read_manifest(cold / "m.json")
        assert [e["engine_runs"] for e in m_warm["experiments"]] == [
            e["engine_runs"] for e in m_cold["experiments"]
        ]
        assert [e["config_hash"] for e in m_warm["experiments"]] == [
            e["config_hash"] for e in m_cold["experiments"]
        ]

    def test_trace_capture_bypasses_cache(self, tmp_path: Path, capsys):
        cache_dir = tmp_path / "cache"
        traces = tmp_path / "traces"
        out = tmp_path / "traced"
        rc = main(
            [
                "--quick", "E5",
                "--out", str(out),
                "--cache-dir", str(cache_dir),
                "--trace-dir", str(traces),
            ]
        )
        assert rc == 0
        assert not cache_dir.exists() or not any(cache_dir.rglob("*.pkl"))
        assert (traces / "e5.quick.jsonl").exists()
        assert (traces / "e5.quick.trace.json").exists()

    def test_failed_experiment_not_cached(self, tmp_path: Path, capsys, monkeypatch):
        import dataclasses

        from repro.experiments import registry

        def boom(quick=False):
            raise RuntimeError("injected failure")

        broken = dataclasses.replace(registry.REGISTRY["E5"], run=boom)
        monkeypatch.setitem(registry.REGISTRY, "E5", broken)
        cache_dir = tmp_path / "cache"
        rc = main(["--quick", "E5", "--cache-dir", str(cache_dir)])
        assert rc == 1
        assert not any(cache_dir.rglob("*.pkl")), "failures must not be cached"


def _chaos_experiment(exp_id: str, mode: str):
    """An experiment ``run`` that submits one ChaosWorkload job."""
    from repro import fabric
    from repro.common.config import MachineConfig, SimConfig
    from repro.experiments.base import ExperimentResult

    def run(quick=False):
        (outcome,) = fabric.run_many(
            [
                fabric.RunJob(
                    workload="repro.fabric.testing.ChaosWorkload",
                    config=SimConfig(machine=MachineConfig(n_cores=2), seed=1),
                    kwargs={"mode": mode},
                    label=f"{exp_id}:{mode}",
                )
            ]
        )
        return ExperimentResult(
            exp_id=exp_id,
            title=f"chaos {mode}",
            paper_claim="none",
            metrics={"job_failed": isinstance(outcome, fabric.JobFailure)},
        )

    return run


class TestRunnerPool:
    def test_worker_crash_is_blamed_on_its_experiment(
        self, tmp_path: Path, capsys, monkeypatch
    ):
        """With several experiments under --jobs N, a crashed worker is a
        structured job failure of the experiment that ran it, and the
        other experiment still passes."""
        import dataclasses

        from repro.experiments import registry

        for exp_id, mode in (("E5", "crash"), ("E13", "ok")):
            entry = dataclasses.replace(
                registry.REGISTRY[exp_id], run=_chaos_experiment(exp_id, mode)
            )
            monkeypatch.setitem(registry.REGISTRY, exp_id, entry)
        manifest = tmp_path / "m.json"
        rc = main(
            ["--quick", "E5", "E13", "--jobs", "2", "--keep-going",
             "--manifest", str(manifest)]
        )
        assert rc == 1
        crashed, ok = read_manifest(manifest)["experiments"]
        assert [f["kind"] for f in crashed["job_failures"]] == ["crash"]
        assert crashed["job_failures"][0]["label"] == "E5:crash"
        assert ok["status"] == "passed" and "job_failures" not in ok
