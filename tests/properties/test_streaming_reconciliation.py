"""Streaming <-> batch reconciliation and execution-mode invariance.

The streaming tier's contract, held as properties over real traffic runs:

* windowed counter sums and histogram percentiles equal the batch
  collector's exact totals (``reconcile()`` plus explicit re-derivation
  from the per-window detail);
* serial and ``--jobs 4`` execution produce bit-identical windowed
  summaries and metrics snapshots (histogram merges are exact and
  order-invariant);
* turning streaming observation on changes no simulated result
  (fingerprints are identical with and without a windowed collector).

Three traffic scenarios x two seeds, kept small enough for CI but large
enough that windows are actually evicted (retention pressure is real).
"""

import pytest

from repro import fabric
from repro.experiments.base import multicore_config
from repro.obs import runtime as obs_runtime
from repro.obs.windows import Window, WindowedStats, WindowSpec
from repro.workloads.traffic import LATENCY_STREAM, REQUESTS_COUNTER

SCENARIOS = [
    ("constant", 0.6),
    ("burst", 0.6),
    ("overload", 1.0),
]
SEEDS = [5, 17]

#: Small windows + tiny retention: every scenario must evict windows, so
#: the reconciliation property covers the spilled path, not just the
#: retained fast path.
SPEC = WindowSpec(window_cycles=400_000, retention=3, hist_bits=5)


def _jobs(schedule: str, load: float) -> list[fabric.RunJob]:
    return [
        fabric.RunJob(
            workload="repro.experiments.e19_open_loop.TrafficTrial",
            config=multicore_config(n_cores=4, seed=seed),
            kwargs={"schedule": schedule, "load": load, "quick": True},
            label=f"prop:{schedule}@{load:g}",
        )
        for seed in SEEDS
    ]


def _run_collected(jobs, workers):
    with fabric.policy(jobs=workers), obs_runtime.collect(
        window_spec=SPEC
    ) as collector:
        outcomes = fabric.run_many(jobs)
    return collector, outcomes


@pytest.mark.parametrize("schedule,load", SCENARIOS)
def test_windowed_summaries_reconcile_with_batch_totals(schedule, load):
    collector, outcomes = _run_collected(_jobs(schedule, load), workers=1)
    stream = f"{LATENCY_STREAM}.{schedule}"
    for outcome in outcomes:
        stats: WindowedStats = outcome.records[-1].windows
        assert stats.spec.window_cycles == SPEC.window_cycles
        assert stats.evicted_windows > 0  # retention pressure was real
        assert stats.reconcile()
        # re-derive the batch totals from the windowed detail by hand
        view = Window(-1)
        for index in sorted(stats.windows):
            view.merge(stats.windows[index])
        view.merge(stats.spilled)
        view.merge(stats.late)
        assert view.counters[REQUESTS_COUNTER] == (
            stats.totals.counters[REQUESTS_COUNTER]
        )
        assert view.hists[stream] == stats.totals.hists[stream]
        for p in (50.0, 95.0, 99.0, 99.9):
            assert view.hists[stream].percentile(p) == (
                stats.totals.hists[stream].percentile(p)
            )
    # the scope aggregate reconciles too, and its memory stayed bounded
    assert collector.windows.reconcile()
    audit = collector.windows.memory_audit()
    assert audit["max_retained"] <= audit["retention"]


@pytest.mark.parametrize("schedule,load", SCENARIOS)
def test_serial_and_pooled_summaries_are_bit_identical(schedule, load):
    jobs = _jobs(schedule, load)
    serial_col, serial = _run_collected(jobs, workers=1)
    pooled_col, pooled = _run_collected(jobs, workers=4)

    assert [o.result.fingerprint() for o in serial] == [
        o.result.fingerprint() for o in pooled
    ]
    # bit-identical percentile summaries and counter totals
    assert serial_col.windows_summary() == pooled_col.windows_summary()
    assert serial_col.windows == pooled_col.windows
    # and identical engine telemetry snapshots
    serial_snap = serial_col.metrics_snapshot()
    pooled_snap = pooled_col.metrics_snapshot()
    for snap in (serial_snap, pooled_snap):
        snap.pop("wall_seconds")
        snap.pop("sim_events_per_sec")
    assert serial_snap == pooled_snap


def test_streaming_observation_changes_no_simulated_result():
    jobs = _jobs("constant", 0.85)
    _col, observed = _run_collected(jobs, workers=1)
    plain = fabric.run_many(jobs)  # no collector
    assert [o.result.fingerprint() for o in observed] == [
        o.result.fingerprint() for o in plain
    ]
