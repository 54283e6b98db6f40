"""Tests of the memcached and pipeline workload models."""

import pytest

from repro.analysis.reports import user_kernel_breakdown
from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import ConfigError
from repro.sim.engine import run_program
from repro.workloads.memcached import (
    LRU_LOCK,
    MemcachedConfig,
    MemcachedWorkload,
    shard_lock,
)
from repro.workloads.pipeline import PipelineConfig, PipelineWorkload


def run_workload(workload, seed=5, cores=4):
    config = SimConfig(machine=MachineConfig(n_cores=cores), seed=seed)
    result = run_program(workload.build(), config)
    result.check_conservation()
    return result


class TestMemcached:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MemcachedConfig(n_workers=0)
        with pytest.raises(ConfigError):
            MemcachedConfig(n_shards=0)
        with pytest.raises(ConfigError):
            MemcachedConfig(get_fraction=1.5)

    def test_lock_names(self):
        assert shard_lock(2) == "memcached:shard:2"

    def test_requests_counted(self):
        cfg = MemcachedConfig(n_workers=4, requests_per_worker=25)
        result = run_workload(MemcachedWorkload(cfg))
        assert result.merged_region("request").invocations == 100

    def test_get_set_mix(self):
        cfg = MemcachedConfig(
            n_workers=4, requests_per_worker=50, get_fraction=0.8
        )
        result = run_workload(MemcachedWorkload(cfg))
        gets = result.merged_region("get").invocations
        sets = result.merged_region("set").invocations
        assert gets + sets == 200
        assert gets > sets * 2

    def test_kernel_dominated(self):
        """memcached is famously kernel-heavy (network path)."""
        cfg = MemcachedConfig(n_workers=4, requests_per_worker=40)
        result = run_workload(MemcachedWorkload(cfg))
        assert user_kernel_breakdown(result).kernel_fraction > 0.4

    def test_shard_skew(self):
        cfg = MemcachedConfig(
            n_workers=8, requests_per_worker=40, n_shards=8, key_skew=1.2
        )
        result = run_workload(MemcachedWorkload(cfg))
        hot = result.locks.get(shard_lock(0))
        cold = result.locks.get(shard_lock(7))
        assert hot is not None
        assert hot.n_acquires > (cold.n_acquires if cold else 0)

    def test_very_short_critical_sections(self):
        cfg = MemcachedConfig(n_workers=4, requests_per_worker=40)
        result = run_workload(MemcachedWorkload(cfg))
        shard_holds = [
            st.mean_hold
            for name, st in result.locks.items()
            if name.startswith("memcached:shard:") and st.hold_cycles
        ]
        assert all(h < 5_000 for h in shard_holds)  # well under 2.1us

    def test_lru_lock_shared(self):
        cfg = MemcachedConfig(
            n_workers=6, requests_per_worker=40, lru_touch_prob=1.0
        )
        result = run_workload(MemcachedWorkload(cfg))
        assert result.locks[LRU_LOCK].n_acquires == 240


class TestPipeline:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(n_compressors=0)
        with pytest.raises(ConfigError):
            PipelineConfig(n_blocks=0)

    def test_all_blocks_flow_through(self):
        workload = PipelineWorkload(
            PipelineConfig(n_compressors=3, n_blocks=30)
        )
        run_workload(workload)
        assert workload.input_queue.total_put == 30
        assert workload.input_queue.total_got == 30
        assert workload.output_queue.total_put == 30
        assert workload.output_queue.total_got == 30

    def test_queue_bounded(self):
        workload = PipelineWorkload(
            PipelineConfig(n_compressors=2, n_blocks=25, queue_capacity=3)
        )
        run_workload(workload)
        assert workload.input_queue.max_depth <= 3
        assert workload.output_queue.max_depth <= 3

    def test_thread_roles(self):
        specs = PipelineWorkload(PipelineConfig(n_compressors=4)).build()
        names = [s.name for s in specs]
        assert names[0] == "pipeline:reader"
        assert names[-1] == "pipeline:writer"
        assert len([n for n in names if "compress" in n]) == 4

    def test_compressors_scale_throughput(self):
        """More compressors shorten the run until the reader binds."""
        def wall(n):
            workload = PipelineWorkload(
                PipelineConfig(n_compressors=n, n_blocks=24)
            )
            return run_workload(workload, cores=8).wall_cycles

        assert wall(4) < wall(1)

    def test_compress_region_counts(self):
        workload = PipelineWorkload(
            PipelineConfig(n_compressors=2, n_blocks=20)
        )
        result = run_workload(workload)
        assert result.merged_region("compress").invocations == 20
        assert result.merged_region("read").invocations == 20
        assert result.merged_region("write").invocations == 20
