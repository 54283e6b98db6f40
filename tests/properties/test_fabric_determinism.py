"""Execution-mode invariance of the run fabric.

However a job executes — inline, in a worker pool, or replayed from the
result cache — the simulated outcome must be exactly the one a plain
serial run produces. ``RunResult.fingerprint()`` digests every simulated
quantity, so the property reduces to fingerprint equality across modes,
for multiple experiments' job factories and multiple seeds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fabric
from repro.common.config import MachineConfig, SimConfig
from repro.experiments.base import single_core_config

# Three real experiments' fabric factories, smallest usable parameters.
FACTORIES = [
    (
        "repro.experiments.e02_overhead_density.density_trial",
        {"total": 200_000, "density": 16, "technique": "limit"},
    ),
    (
        "repro.experiments.e03_precision.PrecisionTrial",
        {"reps": 2, "arm": "sample", "period": 50_000},
    ),
    (
        "repro.experiments.e13_multiplexing.LimitTrial",
        {"n_phases": 4, "phase_cycles": 200_000},
    ),
]
SEEDS = [11, 4242]


def _jobs(workload: str, kwargs: dict) -> list[fabric.RunJob]:
    return [
        fabric.RunJob(
            workload=workload,
            config=single_core_config(seed=seed),
            kwargs=kwargs,
        )
        for seed in SEEDS
    ]


@pytest.mark.parametrize("workload,kwargs", FACTORIES)
def test_serial_pool_and_cache_fingerprints_equal(
    workload, kwargs, tmp_path
):
    jobs = _jobs(workload, kwargs)

    serial = fabric.run_many(jobs)
    with fabric.policy(jobs=4):
        pooled = fabric.run_many(jobs)

    cache = fabric.ResultCache(tmp_path, salt="prop")
    with fabric.policy(cache=cache):
        cold = fabric.run_many(jobs)
        warm = fabric.run_many(jobs)
    assert all(o.cached for o in warm)

    reference = [o.result.fingerprint() for o in serial]
    for mode in (pooled, cold, warm):
        assert [o.result.fingerprint() for o in mode] == reference
    # extract payloads (tool-side observations) must match too
    for mode in (pooled, cold, warm):
        assert [o.extra for o in mode] == [o.extra for o in serial]


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_threads=st.integers(min_value=1, max_value=4),
    cycles=st.integers(min_value=1_000, max_value=120_000),
)
def test_pool_replay_matches_serial_for_arbitrary_jobs(
    seed, n_threads, cycles, tmp_path_factory
):
    job = fabric.RunJob(
        workload="repro.workloads.synthetic.BusyWorkload",
        config=SimConfig(machine=MachineConfig(n_cores=2), seed=seed),
        kwargs={"n_threads": n_threads, "cycles_per_thread": cycles},
    )
    twice = [job, job]

    serial = fabric.run_many(twice)
    with fabric.policy(jobs=2):
        pooled = fabric.run_many(twice)

    cache = fabric.ResultCache(
        tmp_path_factory.mktemp("fabric-prop"), salt="prop"
    )
    with fabric.policy(cache=cache):
        fabric.run_many([job])
        replay = fabric.run_one(job)
    assert replay.cached

    reference = serial[0].result.fingerprint()
    assert serial[1].result.fingerprint() == reference
    assert all(o.result.fingerprint() == reference for o in pooled)
    assert replay.result.fingerprint() == reference
