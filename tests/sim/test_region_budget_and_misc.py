"""Region-log budget capping and assorted engine configuration knobs."""

import dataclasses

from repro.common.config import MachineConfig, SimConfig
from repro.hw.events import EventRates
from repro.sim.ops import Compute, RegionBegin, RegionEnd
from repro.sim.program import ThreadSpec
from repro.sim.engine import run_program

RATES = EventRates.profile(ipc=1.0)


def region_loop(n):
    def program(ctx):
        for _ in range(n):
            yield RegionBegin("r")
            yield Compute(100, RATES)
            yield RegionEnd()

    return program


class TestRegionLogBudget:
    def test_counts_exact_beyond_budget(self):
        config = dataclasses.replace(
            SimConfig(machine=MachineConfig(n_cores=1)), region_log_budget=5
        )
        result = run_program([ThreadSpec("t", region_loop(20))], config)
        rt = result.thread_by_name("t").regions["r"]
        assert rt.invocations == 20          # counting never capped
        assert len(rt.exec_cycles) == 5      # logs capped at the budget
        assert len(rt.wall_cycles) == 5

    def test_default_budget_keeps_everything_small(self):
        result = run_program(
            [ThreadSpec("t", region_loop(50))],
            SimConfig(machine=MachineConfig(n_cores=1)),
        )
        rt = result.thread_by_name("t").regions["r"]
        assert len(rt.exec_cycles) == 50

    def test_budget_shared_across_threads(self):
        config = dataclasses.replace(
            SimConfig(machine=MachineConfig(n_cores=2)), region_log_budget=8
        )
        result = run_program(
            [ThreadSpec("a", region_loop(10)), ThreadSpec("b", region_loop(10))],
            config,
        )
        logged = sum(
            len(t.regions["r"].exec_cycles) for t in result.threads.values()
        )
        assert logged == 8

