"""Tests for cores and the machine."""

from repro.common.config import MachineConfig
from repro.hw.machine import Machine


class TestMachine:
    def test_core_count(self):
        m = Machine(MachineConfig(n_cores=6))
        assert len(m.cores) == 6

    def test_core_ids(self):
        m = Machine(MachineConfig(n_cores=3))
        assert [c.core_id for c in m.cores] == [0, 1, 2]

    def test_enable_user_rdpmc_hits_all_cores(self):
        m = Machine(MachineConfig(n_cores=3))
        m.enable_user_rdpmc()
        assert all(c.pmu.user_rdpmc_enabled for c in m.cores)

    def test_max_time(self):
        m = Machine(MachineConfig(n_cores=2))
        m.cores[0].now = 100
        m.cores[1].now = 250
        assert m.max_time() == 250


class TestCore:
    def test_initial_state(self):
        core = Machine(MachineConfig(n_cores=1)).cores[0]
        assert core.now == 0
        assert core.parked
        assert core.current_tid is None
