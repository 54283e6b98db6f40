"""One piece per ``Engine._step`` call: the main loop is the only place
that chains a core's pieces, so the run's ``sim_events`` metric is exactly
the number of ``_step`` calls."""

from repro.core.limit import LimitSession
from repro.experiments.base import multicore_config
from repro.hw.events import Event
from repro.sim.engine import Engine, run_program
from repro.workloads.base import Instrumentation
from repro.workloads.mysql import MysqlConfig, MysqlWorkload

#: RunResult fingerprint of the program below, recorded before step-piece
#: fusion was removed from ``_step``; removing it must not move it.
FINGERPRINT = (
    "1ffff4b81df31fcda6ec140ee3b63791538b3adc5a06908bd143a7ca39a9a7b2"
)


def _limit_locks():
    """Contended locks with LiMiT reads in the critical sections (E6's
    MySQL shape): lock acquires, futex waits and multi-phase ops."""
    session = LimitSession([Event.CYCLES], count_kernel=True, name="limit")
    instr = Instrumentation(sessions=[session], lock_reader=session)
    config = MysqlConfig(n_workers=4, transactions_per_worker=20)
    return MysqlWorkload(config).build(instr)


def test_sim_events_equal_step_calls(monkeypatch):
    calls = 0
    step = Engine._step

    def counting_step(self, core):
        nonlocal calls
        calls += 1
        step(self, core)

    monkeypatch.setattr(Engine, "_step", counting_step)
    result = run_program(_limit_locks(), multicore_config(n_cores=2, seed=7))
    assert result.locks and result.metrics["sim_events"] > 0
    assert calls == result.metrics["sim_events"]
    assert result.fingerprint() == FINGERPRINT
