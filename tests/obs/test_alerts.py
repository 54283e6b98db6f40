"""Multi-window SLO burn-rate alerts: specs, burn math, edge cases.

The satellite coverage for the alerting layer: alerts must come out
identical for any accumulation order of the same windows (they are built
from exact, order-invariant histogram merges), must not fire on empty or
sample-free series, and must account — not silently drop — samples that
spilled into retention aggregates where per-window placement is lost.
"""

import pytest

from repro.common.errors import ConfigError
from repro.obs.alerts import SloSpec, evaluate, evaluate_all
from repro.obs.hist import LogHistogram
from repro.obs.windows import SPILLED_INDEX, Window, WindowSpec, WindowedStats

STREAM = "svc.latency.test"


def spec(**overrides) -> SloSpec:
    base = dict(
        name="slo-test",
        stream=STREAM,
        threshold_cycles=100_000,
        objective=0.95,
        fast_windows=1,
        slow_windows=2,
        fast_burn=10.0,
        slow_burn=4.0,
    )
    base.update(overrides)
    return SloSpec(**base)


def make_window(index: int, good: int = 0, bad: int = 0) -> Window:
    """A window with ``good`` samples under and ``bad`` over threshold."""
    w = Window(index)
    h = w.hist(STREAM, bits=5)
    for _ in range(good):
        h.record(10_000)
    for _ in range(bad):
        h.record(900_000)
    return w


class TestSloSpecValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            spec(objective=1.0)
        with pytest.raises(ConfigError):
            spec(objective=0.0)
        with pytest.raises(ConfigError):
            spec(threshold_cycles=0)
        with pytest.raises(ConfigError):
            spec(fast_windows=3, slow_windows=2)
        with pytest.raises(ConfigError):
            spec(fast_burn=0.0)
        with pytest.raises(ConfigError):
            spec(name="")

    def test_as_dict_round_trips_fields(self):
        d = spec().as_dict()
        assert d["objective"] == 0.95
        assert d["stream"] == STREAM


class TestBurnRateEvaluation:
    def test_fires_only_when_both_windows_burn(self):
        # budget = 5%; window 2: 60% bad -> fast burn ~12; window 1 is
        # clean, so the slow (2-window) burn at index 2 is 30%/5% ~ 6.
        windows = [
            make_window(0, good=100),
            make_window(1, good=100),
            make_window(2, good=40, bad=60),
        ]
        report = evaluate(windows, spec(), window_cycles=1_000)
        assert report.firing_windows() == [2]
        event = report.events[0]
        assert event.fast_burn == pytest.approx(12.0)
        assert event.slow_burn == pytest.approx(6.0)
        assert event.window_start == 2_000

    def test_one_window_blip_is_suppressed_by_slow_window(self):
        # The same fast spike diluted by a big clean neighbour: slow burn
        # (2-window) = (50/1050)/0.05 ~ 0.95 < 4.0 -> no page.
        windows = [
            make_window(1, good=1000),
            make_window(2, good=50, bad=50),
        ]
        report = evaluate(windows, spec(), window_cycles=1_000)
        assert report.fired == 0
        assert report.bad == 50 and report.total == 1100

    def test_calm_series_never_fires(self):
        windows = [make_window(i, good=200) for i in range(6)]
        report = evaluate(windows, spec())
        assert report.fired == 0
        assert report.bad == 0

    def test_empty_input_yields_empty_report(self):
        report = evaluate([], spec())
        assert report.fired == 0
        assert report.n_windows == 0
        assert report.total == 0 and report.bad == 0 and report.excluded == 0

    def test_windows_without_the_stream_are_ignored(self):
        w = Window(0)
        w.hist("other.stream", bits=5).record(10)
        report = evaluate([w, make_window(1, good=5)], spec())
        assert report.n_windows == 1
        assert report.total == 5

    def test_gaps_count_as_quiet_windows(self):
        # Index 9 burns alone; index 8 is absent (a genuinely quiet
        # window), contributing zero samples — the fast window still
        # fires because the spike's own burn clears both thresholds.
        windows = [make_window(0, good=100), make_window(9, bad=30, good=10)]
        report = evaluate(windows, spec(), window_cycles=1_000)
        assert 9 in report.firing_windows()


class TestOrderInvariance:
    """Verdicts are exact functions of the merged windows, independent of
    accumulation order — the property that makes serial and --jobs N runs
    agree bit-for-bit."""

    WINDOWS = [
        ("a", 0, 40, 0),
        ("b", 0, 60, 2),
        ("c", 1, 30, 25),
        ("d", 1, 20, 25),
        ("e", 2, 10, 40),
    ]

    def _shards(self):
        return [make_window(i, good=g, bad=b) for _, i, g, b in self.WINDOWS]

    def test_shuffled_window_lists_agree(self):
        forward = evaluate(self._shards(), spec(), window_cycles=1_000)
        backward = evaluate(
            list(reversed(self._shards())), spec(), window_cycles=1_000
        )
        assert forward.firing_windows() == backward.firing_windows()
        assert [e.as_dict() for e in forward.events] == [
            e.as_dict() for e in backward.events
        ]
        assert (forward.total, forward.bad) == (backward.total, backward.bad)

    def test_pre_merged_equals_sharded(self):
        # Merging duplicate-index shards first (what WindowedStats.merge
        # does across fabric jobs) gives the same verdicts as handing the
        # evaluator the shards directly.
        merged: dict[int, Window] = {}
        for w in self._shards():
            merged.setdefault(w.index, Window(w.index)).merge(w)
        a = evaluate(self._shards(), spec(), window_cycles=1_000)
        b = evaluate(list(merged.values()), spec(), window_cycles=1_000)
        assert [e.as_dict() for e in a.events] == [e.as_dict() for e in b.events]

    def test_histogram_count_over_is_merge_order_invariant(self):
        values = [50, 150_000, 99_999, 100_001, 7, 2**40]
        one = LogHistogram(bits=5)
        one.record_many(values)
        left = LogHistogram(bits=5)
        left.record_many(values[:3])
        right = LogHistogram(bits=5)
        right.record_many(values[3:])
        right.merge(left)  # reversed merge direction on purpose
        assert one.count_over(100_000) == right.count_over(100_000)


class TestSpilledAndLateSamples:
    def test_spilled_only_series_is_excluded_not_dropped(self):
        stats = WindowedStats(WindowSpec(window_cycles=1_000, retention=2))
        # Everything lands in windows that then get evicted into the
        # spilled aggregate; per-window placement is gone.
        for i in range(8):
            stats.observe(STREAM, 500_000, at=i * 1_000)
        retained = [stats.windows[i] for i in sorted(stats.windows)]
        series = retained + [stats.spilled, stats.late]
        report = evaluate(series, spec(), window_cycles=1_000)
        assert report.excluded == stats.spilled.hists[STREAM].n
        assert report.excluded > 0
        assert report.total == len(retained)  # only retained windows count

    def test_windowed_stats_source_reports_spill_excluded(self):
        stats = WindowedStats(WindowSpec(window_cycles=1_000, retention=2))
        for i in range(6):
            stats.observe(STREAM, 500_000, at=i * 1_000)
        report = evaluate(stats, spec())
        assert report.window_cycles == 1_000
        assert report.excluded + report.total == 6

    def test_aggregate_pseudo_windows_never_fire(self):
        agg = make_window(SPILLED_INDEX, bad=1_000)
        report = evaluate([agg], spec(), window_cycles=1_000)
        assert report.fired == 0
        assert report.excluded == 1_000


class TestReportsAndTraceEvents:
    def test_evaluate_all_builds_manifest_block(self):
        windows = [make_window(0, good=10, bad=30)]
        block = evaluate_all(
            windows, [spec(), spec(name="other", threshold_cycles=2**40)],
            window_cycles=1_000,
        )
        assert set(block) == {"fired", "slos"}
        assert block["fired"] == 1
        names = [s["spec"]["name"] for s in block["slos"]]
        assert names == ["slo-test", "other"]

    def test_evaluate_all_without_specs_is_none(self):
        assert evaluate_all([make_window(0, good=1)], []) is None
