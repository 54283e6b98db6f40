"""The fabric lint gate: fail closed before any dispatch.

Workload factories live at module level so the gate can resolve them by
dotted path exactly as a worker process would.
"""

import pytest

from repro import fabric
from repro.common.config import MachineConfig, PmuConfig, SimConfig
from repro.common.errors import LintError
from repro.core.limit import LimitSession, UnsafeLimitSession
from repro.hw.events import Event
from repro.lint import gate
from repro.sim.ops import Compute
from repro.sim.program import ThreadSpec

from tests.conftest import SIMPLE_RATES

WIDE = SimConfig(
    machine=MachineConfig(n_cores=2, pmu=PmuConfig(wide_counters=True)),
)
HERE = "tests.lint.test_gate"


def _reader(session, n=3):
    def worker(ctx):
        yield from session.setup(ctx)
        for _ in range(n):
            yield Compute(500, SIMPLE_RATES)
            yield from session.read(ctx, 0)

    return worker


def clean_workload():
    return [ThreadSpec("clean", _reader(LimitSession([Event.CYCLES])))]


def unsafe_workload():
    # Unsafe reads with more threads than cores: ML003 at ERROR severity.
    session = UnsafeLimitSession([Event.CYCLES])
    return [ThreadSpec(f"r{i}", _reader(session)) for i in range(4)]


@pytest.fixture(autouse=True)
def _gate_off_after():
    yield
    gate.uninstall()
    gate.drain_reports()


def _job(workload, config=WIDE, label=None):
    return fabric.RunJob(workload=f"{HERE}.{workload}", config=config, label=label)


class TestGateState:
    def test_off_by_default(self):
        assert not gate.active()

    def test_install_uninstall_roundtrip(self):
        gate.install(strict=True, suppress=("ML005",))
        assert gate.active()
        assert gate.state() == ("strict", ("ML005",))
        gate.uninstall()
        assert not gate.active()

    def test_state_restore_ships_to_workers(self):
        gate.install(strict=False)
        mode, suppress = gate.state()
        gate.uninstall()
        gate.restore(mode, suppress)
        assert gate.state() == ("on", ())


class TestCheckJobs:
    def test_clean_batch_passes_and_is_reported(self):
        gate.install(strict=True)
        merged = gate.check_jobs([_job("clean_workload")])
        assert merged.findings == []
        reports = gate.drain_reports()
        assert len(reports) == 1
        assert reports[0]["ok"] and reports[0]["n_jobs"] == 1

    def test_hazardous_batch_raises_before_anything_runs(self):
        gate.install(strict=True)
        with pytest.raises(LintError, match="ML003"):
            gate.check_jobs([_job("unsafe_workload", label="bad-arm")])
        reports = gate.drain_reports()
        assert reports and not reports[0]["ok"]

    def test_error_names_every_bad_job(self):
        gate.install(strict=True)
        jobs = [
            _job("unsafe_workload", label="bad-one"),
            _job("clean_workload", label="fine"),
            _job("unsafe_workload", label="bad-two"),
        ]
        with pytest.raises(LintError) as exc:
            gate.check_jobs(jobs)
        assert "bad-one" in str(exc.value) and "bad-two" in str(exc.value)
        assert "2 of 3" in str(exc.value)

    def test_suppression_lets_a_batch_through(self):
        gate.install(strict=True, suppress=("ML003",))
        merged = gate.check_jobs([_job("unsafe_workload")])
        assert merged.findings == []
        assert merged.suppressed > 0


class TestRunManyIntegration:
    def test_gate_blocks_run_many_before_dispatch(self):
        gate.install(strict=True)
        with pytest.raises(LintError):
            fabric.run_many([_job("unsafe_workload")])

    def test_gated_clean_run_matches_ungated(self):
        """Arming the gate must not perturb results: same fingerprint with
        the gate on and off."""
        job = _job("clean_workload")
        ungated = fabric.run_many([job])
        gate.install(strict=True)
        gated = fabric.run_many([job])
        assert (
            gated[0].result.fingerprint() == ungated[0].result.fingerprint()
        )

    def test_gate_off_means_no_linting(self):
        outcomes = fabric.run_many([_job("unsafe_workload")])
        assert outcomes[0].result is not None
        assert gate.drain_reports() == []
