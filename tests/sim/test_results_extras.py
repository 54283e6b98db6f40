"""Coverage for remaining RunResult / kernel-counter surfaces."""

from repro.common.config import KernelConfig, MachineConfig, SimConfig
from tests.conftest import compute_program, run_threads


class TestKernelCounters:
    def test_steals_surfaced(self):
        config = SimConfig(
            machine=MachineConfig(n_cores=4),
            kernel=KernelConfig(timeslice_cycles=20_000),
            seed=3,
        )
        # 5 equal threads on 4 cores: the 5th queues behind one core's
        # first thread; another core finishes and steals it
        result = run_threads(config, *[compute_program(400_000)] * 5)
        assert result.kernel.n_steals >= 1

    def test_syscall_total(self, uniprocessor):
        from repro.sim.ops import Syscall

        def program(ctx):
            yield Syscall("getpid")
            yield Syscall("work", (100,))

        result = run_threads(uniprocessor, program)
        assert result.kernel.syscall_total() == 2
