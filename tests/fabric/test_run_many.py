"""run_many: serial, pooled and cache-replayed execution are equivalent.

The engine is deterministic, so the fabric's contract is exact equality:
however a job physically executes, its RunResult fingerprint, its extract
payload and the observability records it leaves behind must be identical.
"""

from pathlib import Path

import pytest

from repro import fabric
from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import ConfigError
from repro.obs import runtime as obs_runtime

BUSY = "repro.workloads.synthetic.BusyWorkload"


def busy_job(seed: int, cycles: int = 60_000, label: str | None = None):
    return fabric.RunJob(
        workload=BUSY,
        config=SimConfig(machine=MachineConfig(n_cores=2), seed=seed),
        kwargs={"n_threads": 3, "cycles_per_thread": cycles},
        label=label,
    )


class TestExecution:
    def test_outcomes_in_submission_order(self):
        jobs = [busy_job(seed) for seed in (5, 6, 7)]
        outcomes = fabric.run_many(jobs, jobs_n=1, cache=None)
        assert [o.job.config.seed for o in outcomes] == [5, 6, 7]
        assert all(not o.cached for o in outcomes)

    def test_serial_and_pool_identical(self):
        jobs = [busy_job(seed) for seed in (1, 2, 3, 4)]
        serial = fabric.run_many(jobs, jobs_n=1, cache=None)
        pooled = fabric.run_many(jobs, jobs_n=4, cache=None)
        assert [o.result.fingerprint() for o in serial] == [
            o.result.fingerprint() for o in pooled
        ]

    def test_records_merged_into_ambient_collector(self):
        jobs = [busy_job(seed) for seed in (1, 2)]
        with obs_runtime.collect(label="outer") as collector:
            fabric.run_many(jobs, jobs_n=2, cache=None)
        assert collector.n_runs == 2
        assert [r.index for r in collector.records] == [0, 1]
        assert [r.seed for r in collector.records] == [1, 2]
        assert collector.sim_cycles > 0

    def test_worker_exception_propagates(self):
        job = fabric.RunJob(
            workload="repro.fabric.jobs.no_such_factory",
            config=SimConfig(seed=0),
        )
        with pytest.raises(ConfigError):
            fabric.run_many([job], jobs_n=1, cache=None)

    def test_extract_payload_ships_back(self):
        # PrecisionTrial has build() + extract(): the extract payload must
        # arrive whether the job runs inline or in a worker.
        trial = "repro.experiments.e03_precision.PrecisionTrial"
        from repro.experiments.base import single_core_config

        jobs = [
            fabric.RunJob(
                workload=trial,
                config=single_core_config(seed=33),
                kwargs={"reps": 3, "arm": "limit", "period": 0},
            )
            for _ in range(2)
        ]
        inline, pooled = (
            fabric.run_many(jobs[:1], jobs_n=1, cache=None)[0],
            fabric.run_many(jobs, jobs_n=2, cache=None)[1],
        )
        assert inline.extra == pooled.extra
        assert inline.extra  # per-region (invocations, total) observations


class TestCacheIntegration:
    def test_replay_is_identical(self, tmp_path: Path):
        cache = fabric.ResultCache(tmp_path, salt="t")
        jobs = [busy_job(seed) for seed in (1, 2)]
        first = fabric.run_many(jobs, jobs_n=1, cache=cache)
        second = fabric.run_many(jobs, jobs_n=1, cache=cache)
        assert all(o.cached for o in second)
        assert [o.result.fingerprint() for o in first] == [
            o.result.fingerprint() for o in second
        ]
        assert cache.stats.as_dict() == {
            "hits": 2, "misses": 2, "stores": 2, "errors": 0, "quarantined": 0,
        }

    def test_kwargs_and_seed_distinguish_entries(self, tmp_path: Path):
        cache = fabric.ResultCache(tmp_path, salt="t")
        fabric.run_many([busy_job(1, cycles=60_000)], jobs_n=1, cache=cache)
        outcomes = fabric.run_many(
            [busy_job(2, cycles=60_000), busy_job(1, cycles=70_000)],
            jobs_n=1,
            cache=cache,
        )
        assert not any(o.cached for o in outcomes)

    def test_trace_capture_bypasses_cache(self, tmp_path: Path):
        cache = fabric.ResultCache(tmp_path, salt="t")
        jobs = [busy_job(1)]
        with obs_runtime.collect(capture_traces=True):
            fabric.run_many(jobs, jobs_n=1, cache=cache)
            fabric.run_many(jobs, jobs_n=1, cache=cache)
        assert cache.stats.as_dict() == {
            "hits": 0, "misses": 0, "stores": 0, "errors": 0, "quarantined": 0,
        }

    def test_traces_ship_back_from_workers(self):
        jobs = [busy_job(seed) for seed in (1, 2)]
        with obs_runtime.collect(capture_traces=True) as collector:
            fabric.run_many(jobs, jobs_n=2, cache=None)
        assert collector.n_runs == 2
        assert all(r.trace for r in collector.records)


class TestConfigure:
    def test_defaults_come_from_configure(self, tmp_path: Path):
        previous = fabric.current()
        prev_jobs, prev_cache = previous.jobs, previous.cache
        try:
            fabric.configure(jobs=2, cache=fabric.ResultCache(tmp_path, salt="t"))
            cfg = fabric.current()
            assert cfg.jobs == 2
            assert cfg.cache is not None and cfg.cache.root == tmp_path
            outcome = fabric.run_one(busy_job(9))
            assert cfg.cache.stats.stores == 1
            assert not outcome.cached
        finally:
            fabric.configure(jobs=prev_jobs, cache=prev_cache)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ConfigError):
            fabric.configure(jobs=0)
