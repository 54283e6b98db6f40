"""What each session's ``read`` yields and records, and the ReadRecord type.

Safe and unsafe reads yield one cached composite read op per slot; the
destructive and PAPI-like protocols yield their multi-op sequences. Every
recorded read names its protocol.
"""

import pytest

from repro.baselines.papi import PapiLikeSession
from repro.common.errors import SessionError
from repro.core.limit import (
    DestructiveReadSession,
    LimitSession,
    ReadRecord,
    UnbufferedLimitSession,
    UnsafeLimitSession,
)
from repro.hw.events import Event
from repro.sim.ops import (
    Compute,
    PmcSafeRead,
    PmcUnsafeRead,
    RdpmcDestructive,
    Syscall,
)
from tests.conftest import SIMPLE_RATES, run_threads


def _recording(gen, ops):
    """Forward ``gen``'s ops to the engine, appending each to ``ops``."""
    value = None
    try:
        while True:
            op = gen.send(value)
            ops.append(op)
            value = yield op
    except StopIteration as stop:
        return stop.value


def _read_twice(config, session, read=None):
    """Set the session up on one thread and read counter 0 twice; returns
    the ops each read yielded."""
    read = read or session.read
    per_read = [[], []]

    def program(ctx):
        yield from session.setup(ctx)
        for ops in per_read:
            yield Compute(1_000, SIMPLE_RATES)
            yield from _recording(read(ctx, 0), ops)
        yield from session.teardown(ctx)

    run_threads(config, program)
    return per_read


@pytest.mark.parametrize(
    "session_cls, kinds, protocol",
    [
        (LimitSession, [PmcSafeRead], "safe"),
        (UnsafeLimitSession, [PmcUnsafeRead], "unsafe"),
        (DestructiveReadSession, [Compute, RdpmcDestructive, Compute],
         "destructive"),
        (PapiLikeSession, [Compute, Syscall], "papi"),
    ],
)
def test_read_yields_protocol_ops_and_records_protocol(
    uniprocessor, session_cls, kinds, protocol
):
    session = session_cls([Event.CYCLES])
    per_read = _read_twice(uniprocessor, session)
    assert [[type(op) for op in ops] for ops in per_read] == [kinds, kinds]
    assert [r.protocol for r in session.records] == [protocol, protocol]
    assert session.max_abs_error() == 0


@pytest.mark.parametrize("session_cls", [LimitSession, UnsafeLimitSession])
def test_single_op_reads_yield_the_slots_cached_op(uniprocessor, session_cls):
    session = session_cls([Event.CYCLES])
    (first,), (second,) = _read_twice(uniprocessor, session)
    assert first is second
    assert first.index == session.records[0].slot


def test_unbuffered_session_yields_a_safe_read_and_keeps_only_stats(
    uniprocessor,
):
    session = UnbufferedLimitSession([Event.CYCLES])
    per_read = _read_twice(uniprocessor, session)
    assert [[type(op) for op in ops] for ops in per_read] == [
        [PmcSafeRead], [PmcSafeRead]
    ]
    assert session.records == []
    assert session.error_stats() == {
        "n_reads": 2, "error_sum": 0, "max_abs_error": 0
    }


@pytest.mark.parametrize(
    "method, kind, protocol",
    [("read_safe", PmcSafeRead, "safe"), ("read_unsafe", PmcUnsafeRead, "unsafe")],
)
@pytest.mark.parametrize("session_cls", [LimitSession, UnsafeLimitSession])
def test_explicit_protocol_reads_ignore_the_default(
    uniprocessor, session_cls, method, kind, protocol
):
    session = session_cls([Event.CYCLES])
    per_read = _read_twice(uniprocessor, session, getattr(session, method))
    assert [[type(op) for op in ops] for ops in per_read] == [[kind], [kind]]
    assert [r.protocol for r in session.records] == [protocol, protocol]


def test_unknown_default_protocol_raises():
    with pytest.raises(SessionError, match="unknown protocol 'bogus'"):
        class BogusSession(LimitSession):
            default_protocol = "bogus"


class TestReadRecord:
    RECORD = ReadRecord(1, 500, 0, Event.CYCLES, 1_010, 1_000, "safe")

    def test_field_order(self):
        assert ReadRecord._fields == (
            "tid", "time", "slot", "event", "value", "truth", "protocol"
        )
        assert self.RECORD.time == 500 and self.RECORD.protocol == "safe"

    def test_error(self):
        assert self.RECORD.error == 10

    def test_equality(self):
        same = ReadRecord(
            tid=1, time=500, slot=0, event=Event.CYCLES, value=1_010,
            truth=1_000, protocol="safe",
        )
        assert same == self.RECORD
        assert hash(same) == hash(self.RECORD)
        assert self.RECORD._replace(truth=1_010) != self.RECORD

    def test_rejects_mutation(self):
        with pytest.raises(AttributeError):
            self.RECORD.value = 0
