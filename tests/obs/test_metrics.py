"""Self-telemetry: the run's ``RunResult.metrics`` dict.

``EngineBase._record_metrics`` fills it once per run from totals the run
kept anyway: counters under their own names, the ``sim_cycles`` gauge and
the two speed gauges, and the engine-run and collect wall timers as
``<name>_seconds`` and ``<name>_calls``, in sorted key order.
"""

from repro.common.config import MachineConfig, SimConfig
from repro.hw.events import EventRates
from repro.sim.engine import Engine
from repro.sim.ops import Compute, Syscall
from repro.sim.program import ThreadSpec

RATES = EventRates.profile(ipc=1.0)


def _run():
    def worker(ctx):
        for _ in range(3):
            yield Compute(20_000, RATES)
            yield Syscall("work", (500,))

    engine = Engine(SimConfig(machine=MachineConfig(n_cores=1)))
    return engine, engine.run([ThreadSpec("t", worker)])


class TestSnapshot:
    def test_flat_and_sorted(self):
        _engine, result = _run()
        metrics = result.metrics
        assert list(metrics) == sorted(metrics)
        assert all(isinstance(v, (int, float)) for v in metrics.values())
        assert metrics["sim_events"] > 0
        assert metrics["syscalls"] == 3
        assert metrics["threads"] == 1


class TestGauges:
    def test_set(self):
        engine, result = _run()
        assert result.metrics["sim_cycles"] == result.wall_cycles
        assert result.metrics["sim_events_per_sec"] > 0
        assert result.metrics["sim_cycles_per_sec"] > 0
        # a run that took no measurable wall time reports no speed
        still = engine._record_metrics(0.0, 0.0, result)
        assert still["sim_cycles"] == result.wall_cycles
        assert "sim_events_per_sec" not in still
        assert "sim_cycles_per_sec" not in still


class TestTimers:
    def test_add_seconds(self):
        engine, result = _run()
        assert result.metrics["wall.engine_run_calls"] == 1
        assert result.metrics["wall.collect_calls"] == 1
        metrics = engine._record_metrics(1.5, 0.25, result)
        assert metrics["wall.engine_run_seconds"] == 1.5
        assert metrics["wall.collect_seconds"] == 0.25
        assert metrics["sim_events_per_sec"] == metrics["sim_events"] / 1.5
