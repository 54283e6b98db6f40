"""Tests of measurement-accuracy scoring."""

import pytest

from repro.analysis.accuracy import (
    relative_error,
    score_attribution,
    summarize_errors,
)


class TestSummarizeErrors:
    def test_empty(self):
        s = summarize_errors([])
        assert s.n == 0 and s.all_exact

    def test_all_exact(self):
        s = summarize_errors([0, 0, 0])
        assert s.all_exact
        assert s.max_abs == 0

    def test_mixed(self):
        s = summarize_errors([0, 3, -4, 0])
        assert s.n == 4
        assert s.n_wrong == 2
        assert s.max_abs == 4
        assert s.mean_abs == pytest.approx(7 / 4)

    def test_rms(self):
        s = summarize_errors([3, -4])
        assert s.rms == pytest.approx((25 / 2) ** 0.5)


class TestRelativeError:
    def test_basic(self):
        assert relative_error(110, 100) == pytest.approx(0.1)

    def test_zero_truth_zero_estimate(self):
        assert relative_error(0, 0) == 0.0

    def test_zero_truth_nonzero_estimate(self):
        assert relative_error(5, 0) == float("inf")


class TestScoreAttribution:
    def test_perfect(self):
        score = score_attribution({"a": 100.0}, {"a": 100.0})
        assert score.resolution == 1.0
        assert score.mean_relative_error == 0.0

    def test_missed_regions_lower_resolution(self):
        score = score_attribution({"a": 100.0}, {"a": 100.0, "b": 50.0})
        assert score.resolution == 0.5
        assert score.n_resolved == 1

    def test_nothing_resolved(self):
        score = score_attribution({}, {"a": 100.0})
        assert score.resolution == 0.0
        assert score.mean_relative_error == float("inf")

    def test_errors_only_over_resolved(self):
        score = score_attribution(
            {"a": 150.0}, {"a": 100.0, "b": 1_000_000.0}
        )
        assert score.mean_relative_error == pytest.approx(0.5)
        assert score.worst_relative_error == pytest.approx(0.5)
