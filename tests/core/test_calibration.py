"""Tests of runtime overhead calibration."""

import pytest

from repro.common.config import SimConfig
from repro.core.calibration import calibrate


@pytest.fixture(scope="module")
def cal():
    return calibrate(n_reads=400)


class TestCalibration:
    def test_measured_matches_cost_model(self, cal):
        costs = SimConfig().machine.costs
        assert cal.limit_read_cycles == pytest.approx(
            costs.limit_read_total, rel=0.02
        )
        assert cal.papi_read_cycles == pytest.approx(
            costs.papi_read_total, rel=0.02
        )
        assert cal.perf_read_cycles == pytest.approx(
            costs.perf_read_total, rel=0.02
        )
        assert cal.rdtsc_cycles == pytest.approx(costs.rdtsc, rel=0.05)

    def test_ratios(self, cal):
        assert 15 < cal.papi_vs_limit < 35
        assert 60 < cal.perf_vs_limit < 150

    def test_destructive_cheaper(self, cal):
        assert cal.destructive_read_cycles < cal.limit_read_cycles

    def test_delta_overheads(self, cal):
        assert cal.limit_delta_overhead == cal.limit_read_cycles
        assert cal.papi_delta_overhead == cal.papi_read_cycles

    def test_respects_custom_machine(self):
        import dataclasses

        from repro.common.config import CostModel, MachineConfig

        slow = dataclasses.replace(CostModel(), rdpmc=100)
        config = SimConfig(machine=MachineConfig(costs=slow))
        cal = calibrate(config, n_reads=200)
        assert cal.limit_read_cycles > 140  # default is 88

    def test_calibrated_subtraction_yields_exact_delta(self, cal):
        """The end-to-end point: subtracting the calibrated overhead from a
        measured delta recovers the true region cost exactly."""
        from repro.core.limit import LimitSession
        from repro.hw.events import Event, EventRates
        from repro.sim.engine import run_program
        from repro.sim.ops import Compute
        from repro.sim.program import ThreadSpec

        session = LimitSession([Event.CYCLES])
        out = {}

        def body():
            yield Compute(12_345, EventRates.profile(ipc=1.0))

        def program(ctx):
            yield from session.setup(ctx)
            start = yield from session.read(ctx, 0)
            yield from body()
            end = yield from session.read(ctx, 0)
            out["delta"] = end - start

        run_program([ThreadSpec("m", program)], SimConfig())
        # the calibration loop picks up a fraction of a cycle of timer-tick
        # amortization (as it would on real hardware); round it away
        assert round(out["delta"] - cal.limit_delta_overhead) == 12_345
