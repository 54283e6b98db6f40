"""Streaming JSONL export: rotation, manifests, followers, reconciliation."""

import json

import pytest

from repro.common.errors import ReproError
from repro.obs.export import (
    STREAM_SCHEMA,
    JsonlStreamWriter,
    StreamFollower,
    is_stream_dir,
    read_stream_manifest,
    read_stream_records,
    read_stream_windows,
    stream_part_paths,
)
from repro.obs.windows import SPILLED_INDEX, Window, WindowedStats, WindowSpec

SPEC = WindowSpec(window_cycles=1_000, retention=4)


def _window(index, n=3):
    w = Window(index)
    w.count("reqs", n)
    for v in range(n):
        w.hist("lat", SPEC.hist_bits).record(100 * (v + 1))
    return w


class TestJsonlStreamWriter:
    def test_rotation_bounds_part_size(self, tmp_path):
        with JsonlStreamWriter(tmp_path / "s", part_records=5) as w:
            for i in range(12):
                w.write_window(_window(i), run=0, source="live")
        parts = stream_part_paths(tmp_path / "s")
        assert len(parts) == 3
        for part in parts:
            n_lines = len(part.read_text().splitlines())
            assert n_lines <= 5

    def test_manifest_lists_every_part(self, tmp_path):
        with JsonlStreamWriter(
            tmp_path / "s", label="demo", spec=SPEC, part_records=4
        ) as w:
            for i in range(10):
                w.write_window(_window(i), run=2, source="flush")
        manifest = read_stream_manifest(tmp_path / "s")
        assert manifest["schema"] == STREAM_SCHEMA
        assert manifest["label"] == "demo"
        assert manifest["closed"] is True
        assert manifest["n_records"] == 10
        assert sum(p["records"] for p in manifest["parts"]) == 10
        assert manifest["spec"]["window_cycles"] == SPEC.window_cycles
        assert is_stream_dir(tmp_path / "s")

    def test_write_after_close_raises(self, tmp_path):
        w = JsonlStreamWriter(tmp_path / "s")
        w.close()
        with pytest.raises(ReproError, match="closed"):
            w.write_window(_window(0), run=0)

    def test_every_record_is_valid_json_as_written(self, tmp_path):
        # No buffering: each record is flushed and parseable immediately.
        w = JsonlStreamWriter(tmp_path / "s")
        w.write_window(_window(0), run=0, source="live")
        records = read_stream_records(tmp_path / "s")
        assert len(records) == 1
        assert records[0]["type"] == "window"
        w.close()

    def test_stream_windows_roundtrip_exactly(self, tmp_path):
        fed = [_window(i, n=i + 1) for i in range(6)]
        with JsonlStreamWriter(tmp_path / "s", spec=SPEC) as w:
            for win in fed:
                w.write_window(win, run=1, source="live")
        back = read_stream_windows(tmp_path / "s")
        assert [w for _, _, w in back] == fed
        assert all(run == 1 and src == "live" for run, src, _ in back)

    def test_not_a_stream_dir_raises_cleanly(self, tmp_path):
        assert not is_stream_dir(tmp_path)
        with pytest.raises(ReproError, match="not a stream directory"):
            read_stream_manifest(tmp_path)


class TestStreamTotalsReconcile:
    def test_sink_plus_flush_plus_late_equals_totals(self, tmp_path):
        """Everything the stats saw appears in the stream exactly once."""
        from repro.obs.runtime import collect, count_window, observe_latency

        writer = JsonlStreamWriter(tmp_path / "s", spec=SPEC)
        # Deliberately hostile arrival order: monotone bursts with
        # out-of-order stragglers that land behind the evict horizon.
        import random

        rng = random.Random(99)
        with collect(window_spec=SPEC, stream=writer) as collector:
            for _ in range(2_000):
                at = rng.randrange(0, 40_000)
                observe_latency("lat", rng.randrange(0, 1 << 16), at)
                count_window("reqs", 1, at=at)
        pending = collector._finish_pending()
        writer.close(summary=collector.windows_summary())

        streamed = Window(SPILLED_INDEX)
        for _run, _source, window in read_stream_windows(tmp_path / "s"):
            streamed.merge(window)
        assert streamed.counters == pending.totals.counters
        assert streamed.hists == pending.totals.hists

    def test_worker_records_stream_via_merge_records(self, tmp_path):
        """Records windowed in a sink-less worker are exported on merge."""
        from repro.obs.runtime import EngineRunRecord, RunCollector

        worker = WindowedStats(SPEC)
        for at in range(0, 30_000, 250):  # evicts well past retention
            worker.observe("lat", at % 7_000, at)
        record = EngineRunRecord(
            index=0, seed=1, config_repr="cfg", frequency=None,
            wall_seconds=0.0, sim_cycles=0, sim_events=0,
            context_switches=0, pmis=0, syscalls=0, windows=worker,
        )
        writer = JsonlStreamWriter(tmp_path / "s", spec=SPEC)
        collector = RunCollector(window_spec=SPEC, stream=writer)
        collector.merge_records([record])
        writer.close()
        adopted = collector.records[0]
        assert adopted.windows_streamed is True

        streamed = Window(SPILLED_INDEX)
        sources = set()
        for _run, source, window in read_stream_windows(tmp_path / "s"):
            sources.add(source)
            streamed.merge(window)
        assert "spilled" in sources  # worker evictions lost detail
        assert streamed.hists == worker.totals.hists

        # re-merging the *adopted* record downstream exports nothing again
        writer2 = JsonlStreamWriter(tmp_path / "s2", spec=SPEC)
        collector2 = RunCollector(window_spec=SPEC, stream=writer2)
        collector2.merge_records([adopted])
        writer2.close()
        assert read_stream_windows(tmp_path / "s2") == []


class TestStreamFollower:
    def test_incremental_polls_see_everything_once(self, tmp_path):
        writer = JsonlStreamWriter(tmp_path / "s", part_records=3)
        follower = StreamFollower(tmp_path / "s")
        seen = []
        for i in range(8):
            writer.write_window(_window(i), run=0, source="live")
            seen.extend(follower.poll())
        writer.close()
        seen.extend(follower.poll())
        indices = [r["window"]["index"] for r in seen
                   if r.get("type") == "window"]
        assert indices == list(range(8))
        assert follower.poll() == []  # drained

    def test_partial_line_is_not_consumed(self, tmp_path):
        d = tmp_path / "s"
        d.mkdir()
        part = d / "part-00000.jsonl"
        part.write_text('{"type":"window","run":0,"window"')  # no newline
        follower = StreamFollower(d)
        assert follower.poll() == []
        with open(part, "a") as fp:
            fp.write(':{"index":0,"counters":{},"hists":{}}}\n')
        polled = follower.poll()
        assert len(polled) == 1
        assert polled[0]["window"]["index"] == 0

    def test_manifest_is_none_until_written(self, tmp_path):
        d = tmp_path / "s"
        d.mkdir()
        follower = StreamFollower(d)
        assert follower.manifest() is None
        with JsonlStreamWriter(d):
            pass
        assert follower.manifest() is not None


class TestTornTrailingRecords:
    """A reader racing the writer (or a writer killed mid-record) sees a
    torn final line; bulk reads skip exactly that line with a warning."""

    def _stream(self, tmp_path, n=3):
        d = tmp_path / "s"
        with JsonlStreamWriter(d, spec=SPEC) as w:
            for i in range(n):
                w.write_window(_window(i), run=0, source="live")
        return d

    def test_torn_trailing_line_is_skipped(self, tmp_path, capsys):
        from repro.obs import warnings as obs_warnings

        obs_warnings.reset_seen()
        d = self._stream(tmp_path)
        part = stream_part_paths(d)[-1]
        with open(part, "ab") as fp:
            fp.write(b'{"type":"window","run":0,"win')  # killed mid-write
        records = read_stream_records(d)
        assert len(records) == 3  # the complete records survive
        err = capsys.readouterr().err
        assert "torn-stream-record" in err

    def test_torn_line_missing_newline_terminator(self, tmp_path):
        d = self._stream(tmp_path, n=2)
        part = stream_part_paths(d)[-1]
        raw = part.read_bytes().rstrip(b"\n")
        part.write_bytes(raw[:-7])  # truncate into the last record
        assert len(read_stream_records(d)) == 1

    def test_mid_file_corruption_still_raises(self, tmp_path):
        d = self._stream(tmp_path, n=3)
        part = stream_part_paths(d)[-1]
        lines = part.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"type": not json\n'
        part.write_bytes(b"".join(lines))
        with pytest.raises(ReproError, match="not a stream record"):
            read_stream_records(d)

    def test_trace_cli_tail_survives_torn_stream(self, tmp_path, capsys):
        from repro.trace import main as trace_main

        d = self._stream(tmp_path)
        with open(stream_part_paths(d)[-1], "ab") as fp:
            fp.write(b'{"type":"wind')
        assert trace_main(["tail", str(d), "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.strip()  # printed the intact windows


class TestOrphanStreamSweep:
    def _orphan(self, root, name):
        w = JsonlStreamWriter(root / name, label=name.upper(), spec=SPEC)
        w.write_window(_window(0), run=0, source="live")
        # simulate a kill: manifest on disk, never finalized
        w._write_stream_manifest(None)
        return root / name

    def test_removes_unclosed_keeps_closed_and_foreign(self, tmp_path, capsys):
        from repro.obs import warnings as obs_warnings
        from repro.obs.export import sweep_orphan_streams

        obs_warnings.reset_seen()
        orphan = self._orphan(tmp_path, "dead")
        with JsonlStreamWriter(tmp_path / "done", spec=SPEC) as w:
            w.write_window(_window(0), run=0, source="live")
        (tmp_path / "unrelated").mkdir()
        (tmp_path / "unrelated" / "notes.txt").write_text("keep me")

        removed = sweep_orphan_streams(tmp_path)
        assert removed == [orphan]
        assert not orphan.exists()
        assert (tmp_path / "done").is_dir()
        assert (tmp_path / "unrelated" / "notes.txt").exists()
        assert "orphan-stream" in capsys.readouterr().err

    def test_active_streams_are_spared(self, tmp_path):
        from repro.obs.export import sweep_orphan_streams

        live = self._orphan(tmp_path, "live")
        assert sweep_orphan_streams(tmp_path, active=("live",)) == []
        assert live.exists()

    def test_missing_root_is_a_noop(self, tmp_path):
        from repro.obs.export import sweep_orphan_streams

        assert sweep_orphan_streams(tmp_path / "nope") == []

    def test_runner_sweeps_before_streaming(self, tmp_path, capsys):
        """run_entries with a stream_dir clears a stale orphan so the new
        writer never interleaves with a dead generation's parts."""
        from repro.experiments.registry import get
        from repro.experiments.runner import run_entries

        orphan = self._orphan(tmp_path, "e1")
        import io

        records, _wall = run_entries(
            [get("E1")], quick=True, stream_dir=tmp_path,
            stdout=io.StringIO(), stderr=io.StringIO(),
        )
        assert not any(p.name.startswith("part-") and "dead" in str(p)
                       for p in (tmp_path / "e1").iterdir())
        manifest = read_stream_manifest(tmp_path / "e1")
        assert manifest["closed"] is True
        assert records[0]["status"] == "passed"
        assert orphan == tmp_path / "e1"  # same path, fresh generation
