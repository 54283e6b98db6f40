"""The columnar read log every session records into.

A :class:`ReadLog` keeps each read in typed columns and hands out
:class:`ReadRecord` s on access; to its readers it is a read-only sequence
of records, equal to a list of the same records.
"""

import pickle
import tracemalloc

import pytest

from repro.baselines.papi import PapiLikeSession
from repro.baselines.perf_read import PerfReadSession
from repro.core.limit import (
    DestructiveReadSession,
    LimitSession,
    ReadLog,
    ReadRecord,
    UnsafeLimitSession,
)
from repro.hw.events import Event
from repro.sim.ops import Compute
from tests.conftest import SIMPLE_RATES, run_threads

ROWS = [
    ReadRecord(1, 500, 0, Event.CYCLES, 1_010, 1_000, "safe"),
    ReadRecord(2, 900, 1, Event.INSTRUCTIONS, 2**40, 2**40 + 3, "unsafe"),
    ReadRecord(1, 1_400, 0, Event.CYCLES, 2**64 - 1, 2**64 - 1, "safe"),
]


def logged(rows):
    log = ReadLog()
    for row in rows:
        log.add(*row)
    return log


class TestSequence:
    def test_empty_log_equals_empty_list(self):
        assert ReadLog() == []
        assert [] == ReadLog()
        assert ReadLog() != ROWS[:1]

    def test_equals_any_sequence_of_the_same_records(self):
        log = logged(ROWS)
        assert log == ROWS and ROWS == log
        assert log == tuple(ROWS)
        assert log == logged(ROWS)
        assert log != ROWS[:-1]
        assert log != ROWS[::-1]
        assert log != ""

    def test_int_and_negative_indexing(self):
        log = logged(ROWS)
        assert len(log) == 3
        assert log[0] == ROWS[0] and log[1] == ROWS[1]
        assert log[-1] == ROWS[-1] and log[-3] == ROWS[0]
        for bad in (3, -4):
            with pytest.raises(IndexError):
                log[bad]

    def test_slicing_gives_a_list_of_records(self):
        log = logged(ROWS)
        assert log[1:] == ROWS[1:]
        assert log[-2:] == ROWS[-2:]
        assert log[::-1] == ROWS[::-1]
        assert log[5:] == []
        assert type(log[:1]) is list

    def test_records_are_built_on_access(self):
        log = logged(ROWS)
        assert all(type(r) is ReadRecord for r in log)
        assert log[0] is not log[0]
        assert list(log) == ROWS
        assert log[1].error == -3

    def test_pickle_round_trip(self):
        copy = pickle.loads(pickle.dumps(logged(ROWS)))
        assert copy == ROWS
        copy.add(*ROWS[0])
        assert copy == ROWS + ROWS[:1]


class TestQueries:
    def test_match_their_record_derived_values(self):
        log = logged(ROWS)
        assert log.errors() == [r.error for r in ROWS] == [10, -3, 0]
        assert log.max_abs_error() == max(abs(r.error) for r in ROWS)
        for tid in (1, 2, 7):
            assert log.records_for(tid) == [r for r in ROWS if r.tid == tid]

    def test_empty_log(self):
        assert ReadLog().errors() == []
        assert ReadLog().max_abs_error() == 0
        assert ReadLog().records_for(1) == []


class TestRange:
    @pytest.mark.parametrize("field", ["tid", "time", "slot", "value", "truth"])
    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_out_of_range_raises_and_leaves_the_log_as_it_was(self, field, bad):
        log = logged(ROWS)
        with pytest.raises(OverflowError):
            log.add(*ROWS[0]._replace(**{field: bad}))
        assert log == ROWS
        log.add(*ROWS[0])
        assert log == ROWS + ROWS[:1]


class TestFootprint:
    def test_at_most_64_bytes_per_read(self):
        """A list of ReadRecord tuples with boxed ints took 220 bytes a
        read; the columns take about 42."""
        n = 10_000
        big = 2**33
        tracemalloc.start()
        try:
            log = ReadLog()
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                log.add(i % 8, big + 90 * i, i % 4, Event.CYCLES,
                        big + 7 * i, big + 7 * i, "safe")
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == n
        assert grown / n <= 64


def _reads(protocol, *rows):
    """Records of a two-counter session whose reads were all exact."""
    events = (Event.CYCLES, Event.INSTRUCTIONS)
    return [
        ReadRecord(tid, time, slot, events[slot], value, value, protocol)
        for tid, time, slot, value in rows
    ]


#: What each session recorded before the log became columnar: two threads
#: on one core, each computing 5,000 cycles and then reading both counters.
PROTOCOL_RECORDS = {
    LimitSession: _reads(
        "safe",
        (1, 10_488, 0, 5_062), (1, 10_576, 1, 5_205),
        (2, 22_824, 0, 5_062), (2, 22_912, 1, 5_205),
    ),
    UnsafeLimitSession: _reads(
        "unsafe",
        (1, 10_470, 0, 5_056), (1, 10_540, 1, 5_173),
        (2, 22_770, 0, 5_056), (2, 22_840, 1, 5_173),
    ),
    DestructiveReadSession: _reads(
        "destructive",
        (1, 10_466, 0, 5_052), (1, 10_532, 1, 5_163),
        (2, 22_758, 0, 5_052), (2, 22_824, 1, 5_163),
    ),
    PapiLikeSession: _reads(
        "papi",
        (1, 12_520, 0, 5_220), (1, 12_520, 1, 5_308),
        (2, 26_800, 0, 5_220), (2, 26_800, 1, 5_308),
    ),
    PerfReadSession: _reads(
        "perf_read",
        (1, 23_760, 0, 5_000), (1, 32_160, 1, 5_000),
        (2, 59_880, 0, 5_000), (2, 68_280, 1, 5_000),
    ),
}


@pytest.mark.parametrize(
    "session_cls", list(PROTOCOL_RECORDS), ids=lambda cls: cls.__name__
)
def test_sessions_log_the_records_they_built_as_lists(
    uniprocessor, session_cls
):
    session = session_cls([Event.CYCLES, Event.INSTRUCTIONS])

    def program(ctx):
        yield from session.setup(ctx)
        yield Compute(5_000, SIMPLE_RATES)
        yield from session.read_all(ctx)
        yield from session.teardown(ctx)

    run_threads(uniprocessor, program, program)
    expected = PROTOCOL_RECORDS[session_cls]
    assert isinstance(session.records, ReadLog)
    assert list(session.records) == expected
    assert session.records == expected
    assert session.errors() == [0, 0, 0, 0]
    assert session.max_abs_error() == 0
