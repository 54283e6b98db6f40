"""Per-event cycle logs are int64 arrays, on both sides of the measurement.

Ground truth (``RegionTruth.exec_cycles``/``wall_cycles``,
``LockStats.hold_cycles``/``wait_cycles``) and the tool's view
(``LockObservation.waits``/``holds``, ``RegionObservation.deltas``) store
one 8-byte entry per event instead of one boxed int.
"""

import pickle
from array import array

import pytest

from repro.common.units import cycle_log
from repro.core.limit import LimitSession
from repro.core.locks import InstrumentedLock
from repro.core.regions import PreciseRegionProfiler
from repro.hw.events import Event, EventRates
from repro.kernel.locks import LockState
from repro.sim.ops import Compute
from tests.conftest import run_threads

RATES = EventRates.profile(ipc=1.0)


def _body(cycles):
    yield Compute(cycles, RATES)


@pytest.fixture
def measured_run(quad_core):
    """Three threads contending for one instrumented lock inside a
    measured region."""
    session = LimitSession([Event.CYCLES], count_kernel=True)
    lock = InstrumentedLock("L", session)
    prof = PreciseRegionProfiler(session)

    def critical(ctx):
        yield from lock.acquire(ctx)
        yield Compute(3_000, RATES)
        yield from lock.release(ctx)

    def program(ctx):
        yield from session.setup(ctx)
        for _ in range(12):
            yield from prof.measure(ctx, "cs", critical(ctx))
            yield from prof.measure(ctx, "work", _body(700))

    result = run_threads(quad_core, program, program, program)
    return result, lock, prof


def _logs(result, lock, prof):
    merged = result.merged_region("cs")
    stats = result.locks["L"]
    return {
        "RegionTruth.exec_cycles": merged.exec_cycles,
        "RegionTruth.wall_cycles": merged.wall_cycles,
        "LockStats.hold_cycles": stats.hold_cycles,
        "LockStats.wait_cycles": stats.wait_cycles,
        "LockObservation.waits": lock.observation.waits,
        "LockObservation.holds": lock.observation.holds,
        "RegionObservation.deltas": prof.observation("cs").deltas,
    }


def test_every_log_is_an_int64_array(measured_run):
    result, lock, prof = measured_run
    assert result.locks["L"].n_contended > 0
    for name, log in _logs(result, lock, prof).items():
        assert isinstance(log, array), name
        assert log.typecode == "q", name
        assert len(log) == 36, name
    for truth in result.region_truths("cs"):
        assert isinstance(truth.exec_cycles, array)
        assert truth.exec_cycles.typecode == "q"


def test_pickle_round_trip_keeps_the_fingerprint(measured_run):
    result = measured_run[0]
    copy = pickle.loads(pickle.dumps(result))
    assert copy.fingerprint() == result.fingerprint()
    assert copy.locks["L"].hold_cycles == result.locks["L"].hold_cycles
    assert copy.locks["L"].hold_cycles.typecode == "q"


def test_a_value_outside_int64_raises():
    log = cycle_log()
    log.append(2**63 - 1)
    log.append(-(2**63))
    with pytest.raises(OverflowError):
        log.append(2**63)
    with pytest.raises(OverflowError):
        log.append(-(2**63) - 1)
    assert log.tolist() == [2**63 - 1, -(2**63)]


def test_lock_state_refuses_a_hold_outside_int64():
    lock = LockState("l")
    lock.take(1, -(2**63), waited=0, contended=False, slept=False)
    with pytest.raises(OverflowError):
        lock.release(1, 2**62)
