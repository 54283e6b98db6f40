"""One interpreter: ``run_program``'s ``lower`` keyword is inert, and the
simulator's import path stays free of numpy."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.limit import LimitSession
from repro.experiments.base import multicore_config
from repro.hw.events import Event
from repro.sim.engine import run_program
from repro.workloads.base import Instrumentation
from repro.workloads.mysql import MysqlConfig, MysqlWorkload


def _limit_locks():
    """A small LiMiT-instrumented lock workload (E6's MySQL shape)."""
    session = LimitSession([Event.CYCLES], count_kernel=True, name="limit")
    instr = Instrumentation(sessions=[session], lock_reader=session)
    config = MysqlConfig(n_workers=4, transactions_per_worker=20)
    return MysqlWorkload(config).build(instr)


def test_lower_keyword_is_ignored():
    config = multicore_config(n_cores=2, seed=7)
    plain = run_program(_limit_locks(), config)
    with_lower = run_program(_limit_locks(), config, lower=_limit_locks)
    with_lower.check_conservation()
    assert with_lower.fingerprint() == plain.fingerprint()


def test_simulator_imports_without_numpy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "import repro.sim.engine, repro.fabric, repro.experiments.runner\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
