"""Tests of the precise region profiler."""

from repro.core.limit import LimitSession
from repro.core.regions import PreciseRegionProfiler
from repro.hw.events import Event, EventRates
from repro.sim.ops import Compute
from tests.conftest import run_threads

RATES = EventRates.profile(ipc=1.0)


def body(cycles):
    yield Compute(cycles, RATES)


class TestMeasure:
    def test_per_invocation_deltas(self, uniprocessor):
        session = LimitSession([Event.CYCLES])
        prof = PreciseRegionProfiler(session)

        def program(ctx):
            yield from session.setup(ctx)
            for cycles in (500, 1_500, 2_500):
                yield from prof.measure(ctx, "fn", body(cycles))

        run_threads(uniprocessor, program)
        obs = prof.observation("fn")
        assert obs.invocations == 3
        assert len(obs.deltas) == 3
        # deltas include the fixed read overhead; differences are exact
        assert obs.deltas[1] - obs.deltas[0] == 1_000
        assert obs.deltas[2] - obs.deltas[1] == 1_000

    def test_calibrated_estimate_exact(self, uniprocessor):
        session = LimitSession([Event.CYCLES])
        prof = PreciseRegionProfiler(session)

        def program(ctx):
            yield from session.setup(ctx)
            for _ in range(10):
                yield from prof.measure(ctx, "fn", body(1_234))

        run_threads(uniprocessor, program)
        obs = prof.observation("fn")
        costs = uniprocessor.machine.costs
        estimate = obs.total - obs.invocations * costs.limit_delta_overhead
        assert estimate == 12_340

    def test_body_result_passed_through(self, uniprocessor):
        session = LimitSession([Event.CYCLES])
        prof = PreciseRegionProfiler(session)
        got = {}

        def returning_body():
            yield Compute(100, RATES)
            return "value"

        def program(ctx):
            yield from session.setup(ctx)
            got["r"] = yield from prof.measure(ctx, "fn", returning_body())

        run_threads(uniprocessor, program)
        assert got["r"] == "value"

    def test_regions_registered_as_ground_truth(self, uniprocessor):
        session = LimitSession([Event.CYCLES])
        prof = PreciseRegionProfiler(session)

        def program(ctx):
            yield from session.setup(ctx)
            yield from prof.measure(ctx, "fn", body(1_000))

        result = run_threads(uniprocessor, program)
        assert "fn" in result.all_region_names()

    def test_unknown_observation_empty(self):
        prof = PreciseRegionProfiler(LimitSession([Event.CYCLES]))
        obs = prof.observation("never-seen")
        assert obs.invocations == 0
        assert obs.mean == 0.0
