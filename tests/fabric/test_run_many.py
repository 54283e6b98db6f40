"""run_many: serial, pooled and cache-replayed execution are equivalent.

The engine is deterministic, so the fabric's contract is exact equality:
however a job physically executes, its RunResult fingerprint, its extract
payload and the observability records it leaves behind must be identical.
"""

import dataclasses
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
        outcomes = fabric.run_many(jobs)
        assert [o.job.config.seed for o in outcomes] == [5, 6, 7]
        assert all(not o.cached for o in outcomes)

    def test_serial_and_pool_identical(self):
        jobs = [busy_job(seed) for seed in (1, 2, 3, 4)]
        serial = fabric.run_many(jobs)
        with fabric.policy(jobs=4):
            pooled = fabric.run_many(jobs)
        assert [o.result.fingerprint() for o in serial] == [
            o.result.fingerprint() for o in pooled
        ]

    def test_records_merged_into_ambient_collector(self):
        jobs = [busy_job(seed) for seed in (1, 2)]
        with fabric.policy(jobs=2), obs_runtime.collect(
            label="outer"
        ) as collector:
            fabric.run_many(jobs)
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
            fabric.run_many([job])

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
        inline = fabric.run_many(jobs[:1])[0]
        with fabric.policy(jobs=2):
            pooled = fabric.run_many(jobs)[1]
        assert inline.extra == pooled.extra
        assert inline.extra  # per-region (invocations, total) observations


class TestCacheIntegration:
    def test_replay_is_identical(self, tmp_path: Path):
        cache = fabric.ResultCache(tmp_path, salt="t")
        jobs = [busy_job(seed) for seed in (1, 2)]
        with fabric.policy(cache=cache):
            first = fabric.run_many(jobs)
            second = fabric.run_many(jobs)
        assert all(o.cached for o in second)
        assert [o.result.fingerprint() for o in first] == [
            o.result.fingerprint() for o in second
        ]
        assert cache.stats.as_dict() == {
            "hits": 2, "misses": 2, "stores": 2, "errors": 0, "quarantined": 0,
        }

    def test_kwargs_and_seed_distinguish_entries(self, tmp_path: Path):
        cache = fabric.ResultCache(tmp_path, salt="t")
        with fabric.policy(cache=cache):
            fabric.run_many([busy_job(1, cycles=60_000)])
            outcomes = fabric.run_many(
                [busy_job(2, cycles=60_000), busy_job(1, cycles=70_000)]
            )
        assert not any(o.cached for o in outcomes)

    def test_trace_capture_bypasses_cache(self, tmp_path: Path):
        cache = fabric.ResultCache(tmp_path, salt="t")
        jobs = [busy_job(1)]
        with fabric.policy(cache=cache), obs_runtime.collect(
            capture_traces=True
        ):
            fabric.run_many(jobs)
            fabric.run_many(jobs)
        assert cache.stats.as_dict() == {
            "hits": 0, "misses": 0, "stores": 0, "errors": 0, "quarantined": 0,
        }

    def test_traces_ship_back_from_workers(self):
        jobs = [busy_job(seed) for seed in (1, 2)]
        with fabric.policy(jobs=2), obs_runtime.collect(
            capture_traces=True
        ) as collector:
            fabric.run_many(jobs)
        assert collector.n_runs == 2
        assert all(r.trace for r in collector.records)


class TestConfigure:
    """``fabric.policy`` is the one place the execution policy is set: it
    applies for its block, keeps the fields it does not name, validates,
    and restores the old policy on the way out."""

    def test_defaults_come_from_configure(self, tmp_path: Path):
        cache = fabric.ResultCache(tmp_path, salt="t")
        with fabric.policy(jobs=2, cache=cache) as cfg:
            assert cfg.jobs == 2 and cfg.cache is cache
            outcome = fabric.run_one(busy_job(9))
            assert cache.stats.stores == 1
            assert not outcome.cached
        # Out of the block the cache is off again: nothing is looked up.
        fabric.run_one(busy_job(9))
        assert cache.stats.as_dict()["hits"] == 0
        assert cache.stats.stores == 1

    def test_nested_scope_keeps_the_fields_it_does_not_name(
        self, tmp_path: Path
    ):
        cache = fabric.ResultCache(tmp_path, salt="t")
        with fabric.policy(cache=cache, fail_fast=False):
            with fabric.policy(jobs=2) as inner:
                assert inner.cache is cache and not inner.fail_fast
                fabric.run_many([busy_job(3), busy_job(4)])
            assert cache.stats.stores == 2
            with fabric.policy(cache=None) as off:
                assert off.cache is None and not off.fail_fast

    def test_restores_the_old_policy_when_the_block_raises(
        self, tmp_path: Path
    ):
        cache = fabric.ResultCache(tmp_path, salt="t")
        with pytest.raises(RuntimeError):
            with fabric.policy(cache=cache):
                raise RuntimeError("leave the scope early")
        fabric.run_one(busy_job(5))
        assert cache.stats.as_dict()["misses"] == 0

    def test_policy_cannot_be_changed_in_place(self):
        with fabric.policy() as cfg:
            with pytest.raises(dataclasses.FrozenInstanceError):
                cfg.jobs = 4  # type: ignore[misc]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ConfigError):
            with fabric.policy(jobs=0):
                pass

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ConfigError):
            with fabric.policy(timeout=0):
                pass

    def test_rejects_an_unknown_field(self):
        with pytest.raises(TypeError):
            with fabric.policy(retries=3):
                pass
