"""Tests of the workbench CLI."""

import json
from pathlib import Path


from repro.cli import main


class TestList:
    def test_lists_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("mysql", "apache", "firefox", "memcached", "pipeline", "spec", "streamcluster"):
            assert name in out


class TestRun:
    def test_basic_report(self, capsys):
        assert main(["run", "mysql", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "threads" in out
        assert "hottest locks" in out

    def test_unknown_workload(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_diagnose_flag(self, capsys):
        assert main(["run", "spec", "--scale", "0.1", "--diagnose"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck diagnosis" in out
        assert "top-down classification" in out

    def test_gantt_flag(self, capsys):
        assert main(["run", "pipeline", "--scale", "0.3", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "#=run" in out

    def test_json_export(self, tmp_path: Path, capsys):
        target = tmp_path / "run.json"
        assert main(
            ["run", "apache", "--scale", "0.2", "--json", str(target)]
        ) == 0
        data = json.loads(target.read_text())
        assert data["wall_cycles"] > 0
        assert data["threads"]

    def test_seed_changes_result(self, tmp_path: Path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "mysql", "--scale", "0.2", "--seed", "1", "--json", str(a)])
        main(["run", "mysql", "--scale", "0.2", "--seed", "2", "--json", str(b)])
        wall_a = json.loads(a.read_text())["wall_cycles"]
        wall_b = json.loads(b.read_text())["wall_cycles"]
        assert wall_a != wall_b

    def test_core_count_respected(self, tmp_path: Path, capsys):
        target = tmp_path / "run.json"
        main(["run", "spec", "--scale", "0.1", "--cores", "2",
              "--json", str(target)])
        data = json.loads(target.read_text())
        assert data["n_cores"] == 2


class TestCalibrate:
    def test_prints_costs(self, capsys):
        assert main(["calibrate", "--reads", "200"]) == 0
        out = capsys.readouterr().out
        assert "limit" in out
        assert "ratio" in out
