"""Windowed stats: bounded retention, exact totals, order-invariant merges."""

import pickle
import random

import pytest

from repro.obs.windows import (
    SPILLED_INDEX,
    Window,
    WindowedStats,
    WindowSpec,
)

SPEC = WindowSpec(window_cycles=1_000, retention=4, hist_bits=5)


def _feed(stats, seed, n=400, span=20_000):
    """Deterministic pseudo-random observation stream."""
    rng = random.Random(seed)
    for _ in range(n):
        at = rng.randrange(0, span)
        stats.observe("lat", rng.randrange(0, 1 << 20), at)
        stats.count("reqs", 1, at=at)
    return stats


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(window_cycles=0)
        with pytest.raises(ValueError):
            WindowSpec(retention=0)

    def test_defaults_are_sane(self):
        spec = WindowSpec()
        assert spec.window_cycles >= 1
        assert spec.retention >= 1


class TestWindow:
    def test_merge_adds_counters_and_hists(self):
        a, b = Window(0), Window(0)
        a.count("x", 2)
        a.hist("s", 5).record(10)
        b.count("x", 3)
        b.count("y", 1)
        b.hist("s", 5).record(99)
        a.merge(b)
        assert a.counters == {"x": 5, "y": 1}
        assert a.hists["s"].n == 2

    def test_dict_roundtrip(self):
        w = Window(7)
        w.count("c", 4)
        w.hist("s", 5).record_many([1, 2, 1 << 20])
        data = w.as_dict(SPEC)
        assert data["start_cycle"] == 7 * SPEC.window_cycles
        assert data["end_cycle"] == 8 * SPEC.window_cycles - 1
        assert Window.from_dict(data) == w


class TestWindowedStats:
    def test_observe_batch_matches_per_sample_calls(self):
        # The batch API is the traffic workload's hot path; it must be
        # bit-identical to per-sample observe + count in the same order,
        # including under eviction and late-arrival pressure.
        rng = random.Random(23)
        samples = [
            (rng.randrange(0, 1 << 20), rng.randrange(0, 50_000))
            for _ in range(600)
        ]
        loop = WindowedStats(SPEC)
        for value, at in samples:
            loop.observe("lat", value, at)
            loop.count("reqs", 1, at=at)
        batched = WindowedStats(SPEC)
        for start in range(0, len(samples), 64):
            batched.observe_batch(
                "lat", samples[start:start + 64], counter="reqs"
            )
        assert batched == loop
        assert batched.late_observations == loop.late_observations
        assert batched.reconcile()

    def test_observe_batch_without_counter(self):
        stats = WindowedStats(SPEC)
        stats.observe_batch("lat", [(10, 0), (20, 1_500)])
        assert stats.totals.hists["lat"].n == 2
        assert stats.totals.counters == {}

    def test_observations_land_in_their_window(self):
        stats = WindowedStats(WindowSpec(window_cycles=100, retention=8))
        stats.observe("s", 5, at=0)
        stats.observe("s", 5, at=99)
        stats.observe("s", 5, at=100)
        assert sorted(stats.windows) == [0, 1]
        assert stats.windows[0].hists["s"].n == 2

    def test_retention_bounds_memory(self):
        stats = _feed(WindowedStats(SPEC), seed=1, n=2_000, span=100_000)
        audit = stats.memory_audit()
        assert audit["retained_windows"] <= SPEC.retention
        assert audit["max_retained"] <= SPEC.retention
        assert stats.evicted_windows > 0
        # memory evidence never scales with observation count
        more = _feed(WindowedStats(SPEC), seed=1, n=20_000, span=100_000)
        assert (
            more.memory_audit()["retained_windows"]
            <= audit["retention"]
        )

    def test_eviction_goes_through_the_sink_in_order(self):
        evicted = []
        stats = WindowedStats(SPEC, on_evict=evicted.append)
        for at in range(0, 20_000, 1_000):  # 20 windows, retention 4
            stats.count("c", 1, at=at)
        indices = [w.index for w in evicted]
        assert indices == sorted(indices)
        assert stats.evicted_windows == len(evicted)
        assert stats.reconcile()

    def test_late_observation_spills_and_stays_exact(self):
        stats = _feed(WindowedStats(SPEC), seed=2, n=1_000, span=50_000)
        assert stats.evict_horizon >= 0
        before = stats.totals.counters["reqs"]
        stats.count("reqs", 1, at=0)  # window 0 is long evicted
        assert stats.late_observations >= 1
        assert stats.totals.counters["reqs"] == before + 1
        assert stats.reconcile()

    def test_reconcile_holds_under_heavy_eviction(self):
        stats = _feed(WindowedStats(SPEC), seed=3, n=5_000, span=200_000)
        assert stats.reconcile()
        summary = stats.summary()
        assert summary["reconciled"] is True
        assert summary["counters"]["reqs"] == 5_000
        assert summary["streams"]["lat"]["count"] == 5_000

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_merge_is_order_invariant(self, seed):
        # A∘B == B∘A for the full state: retained windows, spilled
        # aggregate, exact totals and the evict horizon.
        a1 = _feed(WindowedStats(SPEC), seed=seed, n=800, span=60_000)
        b1 = _feed(WindowedStats(SPEC), seed=seed + 100, n=300, span=9_000)
        a2 = _feed(WindowedStats(SPEC), seed=seed, n=800, span=60_000)
        b2 = _feed(WindowedStats(SPEC), seed=seed + 100, n=300, span=9_000)

        ab = a1.merge(b1)
        ba = b2.merge(a2)
        assert ab == ba
        assert ab.summary() == ba.summary()
        assert ab.reconcile() and ba.reconcile()

    def test_merge_is_associative_on_totals(self):
        parts = [
            _feed(WindowedStats(SPEC), seed=s, n=200, span=30_000)
            for s in range(5)
        ]
        left = WindowedStats(SPEC)
        for p in parts:
            left.merge(p)
        whole = _feed(WindowedStats(SPEC), seed=0, n=200, span=30_000)
        for s in range(1, 5):
            _feed(whole, seed=s, n=200, span=30_000)
        assert left.totals == whole.totals

    def test_merge_rejects_mismatched_window_size(self):
        with pytest.raises(ValueError, match="window sizes"):
            WindowedStats(WindowSpec(window_cycles=100)).merge(
                WindowedStats(WindowSpec(window_cycles=200))
            )

    def test_pickle_drops_the_sink(self):
        stats = WindowedStats(SPEC, on_evict=lambda w: None)
        _feed(stats, seed=4, n=100, span=2_000)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.on_evict is None
        assert clone == stats

    def test_spilled_index_is_reserved(self):
        stats = WindowedStats(SPEC)
        assert stats.spilled.index == SPILLED_INDEX
        stats.count("c", 1, at=0)
        assert all(i >= 0 for i in stats.windows)
