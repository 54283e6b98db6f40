"""repro.obs — structured observability for the simulator itself.

The paper's thesis is that precise, low-overhead observation changes what
you can see; this package holds the reproduction to the same standard:

* :mod:`repro.obs.trace` — a structured trace bus with typed events
  (scheduling, syscalls, futexes, locks, PMIs, counter-read protocol
  steps, regions/phases) emitted by the engine and kernel subsystems;
* self-telemetry: every run's ``RunResult.metrics``, a flat dict of
  counters (sim events processed, context switches, fast-path commits,
  …), events/sec and wall-time timers that the engine fills once per run
  from totals it keeps anyway, so it never perturbs simulated results;
* :mod:`repro.obs.export` — JSONL and Chrome/Perfetto ``trace_event``
  exporters plus run-manifest helpers, so any run can be opened in
  https://ui.perfetto.dev;
* :mod:`repro.obs.runtime` — a run collector that aggregates every engine
  run inside a ``with collect():`` block (used by the experiment runner,
  the workbench CLI and the benchmark harness).

The ``python -m repro.trace`` CLI converts/summarizes/filters trace files.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.export import (
        MANIFEST_SCHEMA,
        STREAM_SCHEMA,
        JsonlStreamWriter,
        StreamFollower,
        events_to_jsonl,
        is_stream_dir,
        perfetto_document,
        perfetto_events,
        read_jsonl,
        read_stream_manifest,
        read_stream_records,
        read_stream_windows,
        summarize_events,
        write_manifest,
        write_perfetto,
    )
    from repro.obs.hist import LogHistogram
    from repro.obs.runtime import (
        RunCollector,
        collect,
        count_window,
        current,
        observe_batch,
        observe_latency,
    )
    from repro.obs.trace import KINDS, TraceBus, TraceEvent
    from repro.obs.warnings import warn
    from repro.obs.windows import Window, WindowedStats, WindowSpec

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "MANIFEST_SCHEMA": "export",
    "STREAM_SCHEMA": "export",
    "JsonlStreamWriter": "export",
    "StreamFollower": "export",
    "events_to_jsonl": "export",
    "is_stream_dir": "export",
    "perfetto_document": "export",
    "perfetto_events": "export",
    "read_jsonl": "export",
    "read_stream_manifest": "export",
    "read_stream_records": "export",
    "read_stream_windows": "export",
    "summarize_events": "export",
    "write_manifest": "export",
    "write_perfetto": "export",
    "LogHistogram": "hist",
    "RunCollector": "runtime",
    "collect": "runtime",
    "count_window": "runtime",
    "current": "runtime",
    "observe_batch": "runtime",
    "observe_latency": "runtime",
    "KINDS": "trace",
    "TraceBus": "trace",
    "TraceEvent": "trace",
    "warn": "warnings",
    "Window": "windows",
    "WindowedStats": "windows",
    "WindowSpec": "windows",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
