"""Soak test: everything at once.

All application models run concurrently on one 8-core machine, with LiMiT
sessions, a sampler and instrumented locks attached — the consolidated-
datacenter scenario. Verifies global invariants hold when every subsystem
interacts with every other.
"""

import pytest

from repro.analysis import classify_result, sync_profile, user_kernel_breakdown
from repro.baselines import SamplingProfiler
from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.core.limit import LimitSession
from repro.hw.events import Event
from repro.sim.engine import run_program
from repro.workloads import (
    ApacheConfig,
    ApacheWorkload,
    FirefoxConfig,
    FirefoxWorkload,
    Instrumentation,
    MemcachedConfig,
    MemcachedWorkload,
    MysqlConfig,
    MysqlWorkload,
    PipelineConfig,
    PipelineWorkload,
)


@pytest.fixture(scope="module")
def soak():
    session = LimitSession([Event.CYCLES], count_kernel=True, name="soak")
    sampler = SamplingProfiler(Event.CYCLES, period=200_000, name="soak-sampler")
    instr = Instrumentation(sessions=[session], lock_reader=session)
    sampler_instr = Instrumentation(sessions=[sampler])

    specs = []
    specs += MysqlWorkload(
        MysqlConfig(n_workers=4, transactions_per_worker=15)
    ).build(instr)
    specs += ApacheWorkload(
        ApacheConfig(n_workers=4, requests_per_worker=15)
    ).build(sampler_instr)
    specs += FirefoxWorkload(FirefoxConfig(events=60)).build()
    specs += MemcachedWorkload(
        MemcachedConfig(n_workers=4, requests_per_worker=30)
    ).build()
    pipeline = PipelineWorkload(PipelineConfig(n_compressors=2, n_blocks=15))
    specs += pipeline.build()

    config = SimConfig(
        machine=MachineConfig(n_cores=8),
        kernel=KernelConfig(timeslice_cycles=200_000),
        seed=31337,
    )
    result = run_program(specs, config)
    return result, session, sampler, instr, pipeline


class TestSoak:
    def test_conservation(self, soak):
        result, *_ = soak
        result.check_conservation()

    def test_all_threads_finished(self, soak):
        result, *_ = soak
        assert len(result.threads) == 4 + 4 + 2 + 4 + 4
        assert all(t.finished_at > 0 for t in result.threads.values())

    def test_limit_reads_exact_under_chaos(self, soak):
        _, session, *_ = soak
        assert session.records
        assert session.max_abs_error() == 0

    def test_sampler_collected(self, soak):
        result, _, sampler, *_ = soak
        assert len(sampler.my_samples(result)) > 0

    def test_lock_observations_complete(self, soak):
        result, _, _, instr, _ = soak
        observations = instr.lock_observations()
        for name, obs in observations.items():
            truth = result.locks[name]
            assert obs.n_acquires == truth.n_acquires

    def test_pipeline_completed(self, soak):
        *_, pipeline = soak
        assert pipeline.output_queue.total_got == 15

    def test_every_app_diagnosable(self, soak):
        result, *_ = soak
        for prefix in ("mysql:", "apache:", "firefox:", "memcached:", "pipeline:"):
            classification = classify_result(result, prefix=prefix)
            assert classification["path"]
            assert 0 <= classification["levels"][0]["share"] <= 1.0

    def test_server_kernel_shares_ordered(self, soak):
        result, *_ = soak
        apache = user_kernel_breakdown(result, "apache:").kernel_fraction
        firefox = user_kernel_breakdown(result, "firefox:").kernel_fraction
        assert apache > firefox

    def test_sync_profile_spans_apps(self, soak):
        result, *_ = soak
        profile = sync_profile(result)
        prefixes = {name.split(":")[0] for name in profile.locks}
        assert {"mysql", "apache", "firefox", "memcached", "queue", "cv"} <= (
            prefixes | {"cv", "queue"}
        )
        assert profile.total_acquires > 100

    def test_deterministic_repeat(self, soak):
        """The whole consolidated run reproduces bit-for-bit."""
        result, *_ = soak
        session2 = LimitSession([Event.CYCLES], count_kernel=True)
        sampler2 = SamplingProfiler(Event.CYCLES, period=200_000)
        instr2 = Instrumentation(sessions=[session2], lock_reader=session2)
        sampler_instr2 = Instrumentation(sessions=[sampler2])
        specs = []
        specs += MysqlWorkload(
            MysqlConfig(n_workers=4, transactions_per_worker=15)
        ).build(instr2)
        specs += ApacheWorkload(
            ApacheConfig(n_workers=4, requests_per_worker=15)
        ).build(sampler_instr2)
        specs += FirefoxWorkload(FirefoxConfig(events=60)).build()
        specs += MemcachedWorkload(
            MemcachedConfig(n_workers=4, requests_per_worker=30)
        ).build()
        specs += PipelineWorkload(
            PipelineConfig(n_compressors=2, n_blocks=15)
        ).build()
        config = SimConfig(
            machine=MachineConfig(n_cores=8),
            kernel=KernelConfig(timeslice_cycles=200_000),
            seed=31337,
        )
        result2 = run_program(specs, config)
        assert result2.wall_cycles == result.wall_cycles
        assert result2.total_cpu_cycles() == result.total_cpu_cycles()
