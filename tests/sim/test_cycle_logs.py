"""Per-event cycle logs are 64-bit arrays, on both sides of the measurement.

Ground truth (``RegionTruth.exec_cycles``/``wall_cycles``,
``LockStats.hold_cycles``/``wait_cycles``) is unsigned, since a simulated
duration cannot be negative; the tool's view (``LockObservation.waits``/
``holds``, ``RegionObservation.deltas``) is signed. Both store one 8-byte
entry per event instead of one boxed int.
"""

import pickle
from array import array

import pytest

from repro.common.units import cycle_log, truth_log
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
    """Each log with the typecode it must have: "Q" for truth, "q" for
    what the tool measured."""
    merged = result.merged_region("cs")
    stats = result.locks["L"]
    return {
        "RegionTruth.exec_cycles": (merged.exec_cycles, "Q"),
        "RegionTruth.wall_cycles": (merged.wall_cycles, "Q"),
        "LockStats.hold_cycles": (stats.hold_cycles, "Q"),
        "LockStats.wait_cycles": (stats.wait_cycles, "Q"),
        "LockObservation.waits": (lock.observation.waits, "q"),
        "LockObservation.holds": (lock.observation.holds, "q"),
        "RegionObservation.deltas": (prof.observation("cs").deltas, "q"),
    }


def test_every_log_is_an_int64_array(measured_run):
    result, lock, prof = measured_run
    assert result.locks["L"].n_contended > 0
    for name, (log, typecode) in _logs(result, lock, prof).items():
        assert isinstance(log, array), name
        assert log.typecode == typecode, name
        assert log.itemsize == 8, name
        assert len(log) == 36, name
    for truth in result.region_truths("cs"):
        assert isinstance(truth.exec_cycles, array)
        assert truth.exec_cycles.typecode == "Q"


def test_pickle_round_trip_keeps_the_fingerprint(measured_run):
    result = measured_run[0]
    copy = pickle.loads(pickle.dumps(result))
    assert copy.fingerprint() == result.fingerprint()
    assert copy.locks["L"].hold_cycles == result.locks["L"].hold_cycles
    assert copy.locks["L"].hold_cycles.typecode == "Q"


def test_a_value_outside_int64_raises():
    log = cycle_log()
    log.append(2**63 - 1)
    log.append(-(2**63))
    with pytest.raises(OverflowError):
        log.append(2**63)
    with pytest.raises(OverflowError):
        log.append(-(2**63) - 1)
    assert log.tolist() == [2**63 - 1, -(2**63)]


def test_a_negative_truth_value_raises():
    log = truth_log()
    log.append(0)
    log.append(2**64 - 1)
    with pytest.raises(OverflowError):
        log.append(-1)
    with pytest.raises(OverflowError):
        log.append(2**64)
    assert log.tolist() == [0, 2**64 - 1]


def test_lock_state_refuses_a_negative_hold():
    lock = LockState("l")
    lock.take(1, 2**62, waited=0, contended=False, slept=False)
    with pytest.raises(OverflowError):
        lock.release(1, 0)
    with pytest.raises(OverflowError):
        lock.take(2, 0, waited=-1, contended=True, slept=False)


def test_truth_and_measured_logs_do_not_mix():
    with pytest.raises(TypeError):
        truth_log().extend(cycle_log())
