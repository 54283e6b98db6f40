"""Trace and manifest exporters: JSONL, Chrome/Perfetto, run manifests.

Two interchange formats for :class:`~repro.obs.trace.TraceEvent` streams:

* **JSONL** — one event per line, lossless round-trip (tuples included),
  the format the ``python -m repro.trace`` CLI consumes;
* **Chrome ``trace_event`` JSON** — loadable in https://ui.perfetto.dev or
  ``chrome://tracing``: per-thread "run" slices reconstructed from
  switch_in/switch_out, nestable async slices for instrumented regions,
  instants for everything else. Multiple engine runs stack as separate
  process groups in one document.

Plus the machine-readable **run manifest** the experiment runner and the
workbench CLI write (schema ``repro.obs/manifest/v1``): per-experiment id,
status, wall seconds, simulated cycles, sim events and a metrics snapshot.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.common.errors import ReproError
from repro.common.units import DEFAULT_FREQUENCY, Frequency
from repro.obs import trace as tr
from repro.obs.trace import TraceEvent
from repro.obs.windows import Window, WindowSpec

MANIFEST_SCHEMA = "repro.obs/manifest/v1"

# -- JSONL -------------------------------------------------------------------


def _arg_to_json(arg: Any) -> Any:
    if isinstance(arg, tuple):
        return [_arg_to_json(a) for a in arg]
    return arg


def _arg_from_json(arg: Any) -> Any:
    if isinstance(arg, list):
        return tuple(_arg_from_json(a) for a in arg)
    return arg


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    return {
        "t": event.time,
        "core": event.core,
        "tid": event.tid,
        "kind": str(event.kind),
        "arg": _arg_to_json(event.arg),
    }


def event_from_dict(data: dict[str, Any]) -> TraceEvent:
    return TraceEvent(
        time=data["t"],
        core=data["core"],
        tid=data["tid"],
        kind=data["kind"],
        arg=_arg_from_json(data.get("arg")),
    )


def events_to_jsonl(events: Iterable[tuple], path: str | Path) -> int:
    """Write events (TraceEvents or legacy 5-tuples) as JSONL; returns the
    number of lines written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fp:
        for event in tr.as_events(events):
            fp.write(json.dumps(event_to_dict(event), separators=(",", ":")))
            fp.write("\n")
            n += 1
    return n


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    """Parse a JSONL trace file back into TraceEvents (lossless)."""
    events: list[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(event_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as exc:
                raise ReproError(
                    f"{path}:{lineno}: not a trace event line ({exc})"
                ) from None
    return events


# -- Chrome/Perfetto trace_event ---------------------------------------------

#: Kinds rendered as thread-track instant events (everything that isn't a
#: scheduling interval or a region boundary).
_INSTANT_KINDS = frozenset(
    {
        tr.READY,
        tr.SCHED_STEAL,
        tr.SYSCALL_ENTER,
        tr.SYSCALL_EXIT,
        tr.PMI,
        tr.TIMER_TICK,
        tr.LOCK_ACQ,
        tr.LOCK_REL,
        tr.FUTEX_WAIT,
        tr.FUTEX_WAKE,
        tr.PMC_READ_BEGIN,
        tr.PMC_READ_END,
        tr.CTR_OVERFLOW,
        tr.SAMPLE,
        tr.PHASE_BEGIN,
        tr.PHASE_END,
    }
)


def perfetto_events(
    events: Sequence[tuple],
    frequency: Frequency = DEFAULT_FREQUENCY,
    pid: int = 0,
    process_name: str = "sim",
    thread_names: dict[int, str] | None = None,
) -> list[dict[str, Any]]:
    """Convert one engine run's trace into ``trace_event`` dicts.

    Timestamps are microseconds (the format's unit), converted from cycles
    at ``frequency``. ``pid`` groups the run; several runs can share one
    document under different pids (see :func:`perfetto_document`).
    """
    evs = tr.as_events(events)
    us_per_cycle = frequency.cycles_to_ns(1) / 1000.0
    out: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    names = dict(thread_names or {})
    for e in evs:
        if e.kind in (tr.READY, tr.SWITCH_IN, tr.SWITCH_OUT, tr.EXIT):
            if isinstance(e.arg, str):
                names.setdefault(e.tid, e.arg)
    for tid in sorted(names):
        out.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": names[tid]},
            }
        )
    open_run: dict[int, int] = {}
    last_time = 0
    for e in sorted(evs, key=lambda e: e.time):
        ts = e.time * us_per_cycle
        last_time = max(last_time, e.time)
        if e.kind == tr.SWITCH_IN:
            open_run[e.tid] = e.time
        elif e.kind in (tr.SWITCH_OUT, tr.EXIT):
            start = open_run.pop(e.tid, None)
            if start is not None:
                out.append(
                    {
                        "ph": "X",
                        "pid": pid,
                        "tid": e.tid,
                        "ts": start * us_per_cycle,
                        "dur": max(0.0, (e.time - start) * us_per_cycle),
                        "name": "run",
                        "cat": "sched",
                    }
                )
            if e.kind == tr.EXIT:
                out.append(_instant(e, ts, pid))
        elif e.kind == tr.REGION_BEGIN:
            out.append(
                {
                    "ph": "b",
                    "cat": "region",
                    "id": str(e.tid),
                    "pid": pid,
                    "tid": e.tid,
                    "ts": ts,
                    "name": str(e.arg),
                }
            )
        elif e.kind == tr.REGION_END:
            out.append(
                {
                    "ph": "e",
                    "cat": "region",
                    "id": str(e.tid),
                    "pid": pid,
                    "tid": e.tid,
                    "ts": ts,
                    "name": str(e.arg),
                }
            )
        elif e.kind in _INSTANT_KINDS:
            out.append(_instant(e, ts, pid))
        # unknown kinds are skipped: the JSONL format is the lossless one
    # close run slices left open at the trace horizon
    for tid, start in sorted(open_run.items()):
        out.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": start * us_per_cycle,
                "dur": max(0.0, (last_time - start) * us_per_cycle),
                "name": "run",
                "cat": "sched",
            }
        )
    return out


def _instant(e: TraceEvent, ts: float, pid: int) -> dict[str, Any]:
    name = e.kind
    if isinstance(e.arg, str):
        name = f"{e.kind}:{e.arg}"
    return {
        "ph": "i",
        "s": "t",
        "pid": pid,
        "tid": e.tid,
        "ts": ts,
        "name": name,
        "cat": "event",
        "args": {"arg": _arg_to_json(e.arg), "core": e.core},
    }


def perfetto_document(
    runs: Sequence[tuple[str, Sequence[tuple], Frequency, dict[int, str] | None]],
) -> dict[str, Any]:
    """Assemble a loadable trace document from ``(label, events, frequency,
    thread_names)`` tuples, one process group per run."""
    trace_events: list[dict[str, Any]] = []
    for pid, (label, events, frequency, thread_names) in enumerate(runs):
        trace_events.extend(
            perfetto_events(
                events,
                frequency=frequency,
                pid=pid,
                process_name=label,
                thread_names=thread_names,
            )
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_perfetto(
    path: str | Path,
    runs: Sequence[tuple[str, Sequence[tuple], Frequency, dict[int, str] | None]],
) -> dict[str, Any]:
    """Write a Perfetto-loadable document; returns the document dict."""
    doc = perfetto_document(runs)
    Path(path).write_text(json.dumps(doc) + "\n")
    return doc


# -- summaries ---------------------------------------------------------------


def summarize_events(events: Sequence[tuple]) -> dict[str, Any]:
    """Counts and span of a trace: total, by kind, by tid, time bounds."""
    evs = tr.as_events(events)
    by_kind: dict[str, int] = {}
    by_tid: dict[int, int] = {}
    t_min: int | None = None
    t_max: int | None = None
    for e in evs:
        by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
        by_tid[e.tid] = by_tid.get(e.tid, 0) + 1
        t_min = e.time if t_min is None else min(t_min, e.time)
        t_max = e.time if t_max is None else max(t_max, e.time)
    return {
        "n_events": len(evs),
        "t_first": t_min or 0,
        "t_last": t_max or 0,
        "by_kind": dict(sorted(by_kind.items())),
        "by_tid": dict(sorted(by_tid.items())),
    }


# -- streaming window export -------------------------------------------------

STREAM_SCHEMA = "repro.obs/stream/v1"
STREAM_MANIFEST_NAME = "stream-manifest.json"

#: Records per part file before the writer rotates to a new one.
DEFAULT_PART_RECORDS = 4096


class JsonlStreamWriter:
    """Incremental JSONL exporter for windowed observations.

    Writes one JSON record per line into ``part-NNNNN.jsonl`` files inside
    a *stream directory*, rotating to a new part every ``part_records``
    records so no single file grows unboundedly, and maintaining a
    ``stream-manifest.json`` (schema ``repro.obs/stream/v1``) listing the
    parts. Every record is flushed as written, so ``python -m repro.trace
    tail``/``watch`` can follow the directory while a run is in flight.

    Window records look like::

        {"type": "window", "run": 0, "source": "live", "window": {...}}

    ``source`` is ``"live"`` for windows evicted mid-run by the collector,
    ``"flush"`` for retained windows written at run end, and ``"spilled"``
    for a run's evicted-aggregate window (index -1) when its per-window
    detail was lost before reaching this writer (e.g. evictions inside a
    fabric worker). Merging every window record of a stream reproduces the
    run's exact batch totals — each observation appears exactly once.
    """

    def __init__(
        self,
        directory: str | Path,
        label: str | None = None,
        spec: WindowSpec | None = None,
        part_records: int = DEFAULT_PART_RECORDS,
    ) -> None:
        if part_records < 1:
            raise ReproError(
                f"part_records must be >= 1, got {part_records}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.label = label
        self.spec = spec
        self.part_records = part_records
        self.parts: list[dict[str, Any]] = []
        self.n_records = 0
        self.n_windows = 0
        self.closed = False
        self._fp: Any = None
        self._part_lines = 0
        self._open_part()
        self._write_stream_manifest()  # followers can see the stream early

    def _open_part(self) -> None:
        if self._fp is not None:
            self._fp.close()
        name = f"part-{len(self.parts):05d}.jsonl"
        self.parts.append({"name": name, "records": 0})
        self._fp = open(self.directory / name, "w", encoding="utf-8")
        self._part_lines = 0

    def write_record(self, record: dict[str, Any]) -> None:
        if self.closed:
            raise ReproError(f"stream writer {self.directory} is closed")
        if self._part_lines >= self.part_records:
            self._open_part()
            self._write_stream_manifest()
        self._fp.write(json.dumps(record, separators=(",", ":")))
        self._fp.write("\n")
        self._fp.flush()
        self._part_lines += 1
        self.parts[-1]["records"] = self._part_lines
        self.n_records += 1

    def write_window(
        self, window: Window, run: int, source: str = "flush"
    ) -> None:
        self.write_record(
            {
                "type": "window",
                "run": run,
                "source": source,
                "window": window.as_dict(self.spec),
            }
        )
        self.n_windows += 1

    def sink(self, run: int):
        """An eviction sink bound to engine run ``run`` (for
        :class:`~repro.obs.windows.WindowedStats`'s ``on_evict``)."""

        def _evict(window: Window) -> None:
            self.write_window(window, run=run, source="live")

        return _evict

    def _write_stream_manifest(
        self, summary: dict[str, Any] | None = None
    ) -> None:
        data: dict[str, Any] = {
            "schema": STREAM_SCHEMA,
            "label": self.label,
            "spec": (
                {
                    "window_cycles": self.spec.window_cycles,
                    "retention": self.spec.retention,
                    "hist_bits": self.spec.hist_bits,
                }
                if self.spec is not None
                else None
            ),
            "closed": self.closed,
            "n_records": self.n_records,
            "n_windows": self.n_windows,
            "parts": [dict(p) for p in self.parts],
        }
        if summary is not None:
            data["summary"] = summary
        path = self.directory / STREAM_MANIFEST_NAME
        path.write_text(json.dumps(data, indent=2) + "\n")

    def close(self, summary: dict[str, Any] | None = None) -> None:
        """Finalize: close the open part and write the final manifest
        (optionally embedding the owning collector's windows summary)."""
        if self.closed:
            return
        if self._fp is not None:
            self._fp.close()
            self._fp = None
        # Drop a trailing part that never received a record.
        if self.parts and self.parts[-1]["records"] == 0:
            part = self.parts.pop()
            try:
                (self.directory / part["name"]).unlink()
            except OSError:  # pragma: no cover - unlink race
                pass
        self.closed = True
        self._write_stream_manifest(summary)

    def __enter__(self) -> "JsonlStreamWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def is_stream_dir(path: str | Path) -> bool:
    """True when ``path`` looks like a streaming trace directory."""
    return (Path(path) / STREAM_MANIFEST_NAME).is_file()


def read_stream_manifest(directory: str | Path) -> dict[str, Any]:
    path = Path(directory) / STREAM_MANIFEST_NAME
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ReproError(
            f"{directory}: not a stream directory (no {STREAM_MANIFEST_NAME})"
        ) from None
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: not valid JSON ({exc})") from None
    if data.get("schema") != STREAM_SCHEMA:
        raise ReproError(
            f"{path}: not a stream manifest (schema={data.get('schema')!r})"
        )
    return data


def stream_part_paths(directory: str | Path) -> list[Path]:
    """The stream's part files in write order."""
    return sorted(Path(directory).glob("part-*.jsonl"))


def read_stream_records(directory: str | Path) -> list[dict[str, Any]]:
    """Every record of a stream directory, in write order.

    A reader racing the writer (live tailing, or a writer killed
    mid-record by a per-job timeout) can observe a torn trailing line:
    the stream's very last line, cut mid-JSON or missing its newline.
    That one line is skipped with a warning — it will be complete on the
    next read if the writer is alive, and was never durable if it isn't.
    A malformed line anywhere *else* is real corruption and still raises.
    """
    from repro.obs import warnings as obs_warnings

    records: list[dict[str, Any]] = []
    parts = stream_part_paths(directory)
    for path in parts:
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        for lineno, line in enumerate(lines, start=1):
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                records.append(json.loads(text))
            except json.JSONDecodeError as exc:
                trailing = path == parts[-1] and lineno == len(lines)
                if trailing:
                    obs_warnings.structured(
                        "torn-stream-record",
                        "skipped torn trailing stream record "
                        "(mid-write or killed writer)",
                        part=path.name,
                        line=lineno,
                    )
                    continue
                raise ReproError(
                    f"{path}:{lineno}: not a stream record ({exc})"
                ) from None
    return records


def read_stream_windows(
    directory: str | Path,
) -> list[tuple[int, str, Window]]:
    """Every window record as ``(run, source, Window)``, in write order."""
    out: list[tuple[int, str, Window]] = []
    for record in read_stream_records(directory):
        if record.get("type") == "window":
            out.append(
                (
                    record.get("run", 0),
                    record.get("source", "flush"),
                    Window.from_dict(record["window"]),
                )
            )
    return out


def sweep_orphan_streams(
    root: str | Path, active: Sequence[str] = ()
) -> list[Path]:
    """Remove never-closed stream directories under ``root``.

    A stream writer killed before :meth:`JsonlStreamWriter.close` (a
    per-job ``--timeout``, a crashed pool worker, ^C) leaves a directory
    whose manifest still says ``closed: false``; followers would tail its
    stale parts forever and a new run reusing the path would interleave
    two generations of records. This sweeps ``root``'s immediate
    subdirectories, deletes every unclosed stream (skipping names in
    ``active`` — streams some live writer still owns), emits one
    structured ``orphan-stream`` warning per removal, and returns the
    removed paths. Unreadable/foreign directories are left untouched.
    """
    import shutil

    from repro.obs import warnings as obs_warnings

    root = Path(root)
    removed: list[Path] = []
    if not root.is_dir():
        return removed
    for child in sorted(root.iterdir()):
        if not child.is_dir() or child.name in active:
            continue
        try:
            manifest = read_stream_manifest(child)
        except ReproError:
            continue  # not a stream dir (or unreadable): not ours to touch
        if manifest.get("closed", False):
            continue
        parts = len(stream_part_paths(child))
        shutil.rmtree(child, ignore_errors=True)
        removed.append(child)
        obs_warnings.structured(
            "orphan-stream",
            "removed never-closed stream directory (writer was killed "
            "before finalizing)",
            dir=str(child),
            parts=parts,
            dedup=False,
        )
    return removed


class StreamFollower:
    """Incremental reader for live tailing of a stream directory.

    Remembers a byte offset per part file; every :meth:`poll` returns the
    records written since the previous poll (only complete, newline-
    terminated lines are consumed, so a record mid-write is picked up on
    the next poll). A part older than the newest one can never grow again
    (the writer rotates forward only), so it is marked done once drained.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._offsets: dict[str, int] = {}
        self._done: set[str] = set()

    def manifest(self) -> dict[str, Any] | None:
        """The stream manifest, or None while it's missing/partial."""
        try:
            return read_stream_manifest(self.directory)
        except ReproError:
            return None

    def poll(self) -> list[dict[str, Any]]:
        records: list[dict[str, Any]] = []
        parts = stream_part_paths(self.directory)
        for i, path in enumerate(parts):
            name = path.name
            if name in self._done:
                continue
            offset = self._offsets.get(name, 0)
            try:
                with open(path, "rb") as fp:
                    fp.seek(offset)
                    data = fp.read()
            except OSError:
                continue
            consumed = data.rfind(b"\n") + 1  # 0 when no complete line
            for line in data[:consumed].splitlines():
                text = line.decode("utf-8").strip()
                if not text:
                    continue
                try:
                    records.append(json.loads(text))
                except json.JSONDecodeError:
                    continue  # torn write; superseded on a later poll
            self._offsets[name] = offset + consumed
            if i < len(parts) - 1 and consumed == len(data):
                self._done.add(name)  # rotated away and fully drained
        return records


# -- run manifests -----------------------------------------------------------


def write_manifest(path: str | Path, manifest: dict[str, Any]) -> None:
    """Write a run manifest, stamping the schema id."""
    data = {"schema": MANIFEST_SCHEMA}
    data.update(manifest)
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=False) + "\n")


def read_manifest(path: str | Path) -> dict[str, Any]:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != MANIFEST_SCHEMA:
        raise ReproError(
            f"{path}: not a run manifest (schema={data.get('schema')!r})"
        )
    return data
