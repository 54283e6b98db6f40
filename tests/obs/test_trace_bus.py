"""Tests of the trace bus and typed event records."""

from repro.obs import trace as tr
from repro.obs.trace import TraceBus, TraceEvent, as_events


class TestTraceEvent:
    def test_is_a_tuple(self):
        e = TraceEvent(10, 0, 1, tr.READY, "t")
        assert isinstance(e, tuple)
        assert (e[0], e[1], e[2], e[3], e[4]) == (10, 0, 1, "ready", "t")

    def test_named_access(self):
        e = TraceEvent(10, 2, 7, tr.LOCK_ACQ, "L")
        assert e.time == 10
        assert e.core == 2
        assert e.tid == 7
        assert e.kind == "lock_acq"
        assert e.arg == "L"

    def test_equals_plain_tuple(self):
        assert TraceEvent(1, 0, 3, "ready", "x") == (1, 0, 3, "ready", "x")

    def test_arg_defaults_to_none(self):
        assert TraceEvent(1, 0, 3, "timer_tick").arg is None


class TestTraceBus:
    def test_emit_appends(self):
        bus = TraceBus()
        bus.emit(5, 0, 1, tr.READY, "t")
        bus.emit(9, 0, 1, tr.SWITCH_IN, "t")
        assert len(bus) == 2
        assert [e.kind for e in bus] == ["ready", "switch_in"]

    def test_events_list_identity(self):
        # the engine aliases result.trace to bus.events; appends must be
        # visible through both names
        bus = TraceBus()
        alias = bus.events
        bus.emit(1, 0, 1, tr.READY, "t")
        assert alias is bus.events
        assert len(alias) == 1


class TestKindCatalog:
    def test_all_kinds_described(self):
        assert set(tr.KIND_DESCRIPTIONS) == set(tr.KINDS)

    def test_engine_lifecycle_kinds_present(self):
        for kind in ("ready", "switch_in", "switch_out", "exit", "pmi",
                     "syscall_enter", "syscall_exit", "lock_acq", "lock_rel",
                     "futex_wait", "futex_wake", "pmc_read_begin",
                     "pmc_read_end", "sched_steal", "ctr_overflow", "sample"):
            assert kind in tr.KINDS


class TestAsEvents:
    def test_coerces_legacy_tuples(self):
        legacy = [(1, 0, 3, "ready", "t"), (2, 0, 3, "switch_in", "t")]
        events = as_events(legacy)
        assert all(isinstance(e, TraceEvent) for e in events)
        assert events[0].kind == "ready"

    def test_passes_through_trace_events(self):
        e = TraceEvent(1, 0, 3, "ready", "t")
        assert as_events([e])[0] is e

    def test_accepts_4_tuples(self):
        events = as_events([(1, 0, 3, "timer_tick")])
        assert events[0].arg is None
