"""One interpreter: ``run_program``'s ``lower`` keyword is inert, the
simulator's import path stays free of numpy, and each bench workload's
imports load only the modules that workload uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on this checkout's ``src``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_simulator_imports_without_numpy():
    code = (
        "import sys\n"
        "import repro.sim.engine, repro.fabric, repro.experiments.runner\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr


#: What the engine and each bench workload import at set-up.
ENTRY_POINTS = {
    "engine": ("repro.sim.engine",),
    "service_chain": ("repro.experiments.e20_resilience", "repro.workloads.service"),
    "mysql_locks": ("repro.core.limit", "repro.workloads.mysql"),
    "traffic_streamed": ("repro.workloads.traffic", "repro.obs.export"),
}

#: Modules (with their submodules) that none of those runs uses.
UNUSED = (
    "repro.baselines",
    "repro.analysis",
    "repro.lint",
    "repro.core.calibration",
    "repro.fabric.jobs",
    "multiprocessing",
)

#: Modules that only some runs use: fault plans and windowed observations.
#: The plain engine and the LiMiT lock run use neither.
UNUSED_WITHOUT_FAULTS_OR_WINDOWS = (
    "repro.faults.plan",
    "repro.faults.injector",
    "repro.obs.windows",
    "repro.obs.hist",
)
PLAIN_ENTRY_POINTS = ("engine", "mysql_locks")


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_imports_only_what_it_uses(entry):
    modules = ENTRY_POINTS[entry]
    code = (
        "import json, sys\n"
        f"for name in {modules!r}:\n"
        "    __import__(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    never = UNUSED
    if entry in PLAIN_ENTRY_POINTS:
        never += UNUSED_WITHOUT_FAULTS_OR_WINDOWS
    unused = [
        m for m in loaded if any(m == u or m.startswith(u + ".") for u in never)
    ]
    own = {"repro.workloads.base", *modules}
    siblings = [
        m for m in loaded if m.startswith("repro.workloads.") and m not in own
    ]
    assert unused == [], f"{entry} imports unused modules {unused}"
    assert siblings == [], f"{entry} imports other workloads {siblings}"
