"""The streaming-overhead check's decision, on synthetic pair ratios: the
verdict is a pure function of the per-pair ratios and the fingerprints,
so no workload runs and no wall time is read here."""

import pytest

from repro import bench
from repro.bench import STREAM_OVERHEAD_MAX, judge

#: one fingerprint per run: both arms of nine pairs
FP = ["abc"] * 18

class TestJudge:
    def test_passes_below_the_cap(self):
        verdict = judge([1.01, 1.02, 1.03, 1.02, 1.04], FP)
        assert verdict.ok
        assert verdict.overhead == pytest.approx(0.02)

    def test_passes_at_the_cap(self):
        verdict = judge([1.0 + STREAM_OVERHEAD_MAX] * 9, FP)
        assert verdict.ok, verdict.failures

    def test_fails_above_the_cap(self):
        verdict = judge([1.0 + STREAM_OVERHEAD_MAX + 1e-6] * 9, FP)
        assert not verdict.ok
        assert "cap" in verdict.failures[0]

    def test_median_decides_not_the_outliers(self):
        # four pairs far over the cap cannot fail a run whose median holds
        ratios = [1.01, 1.02, 1.02, 1.03, 1.04, 1.5, 1.6, 1.7, 1.8]
        assert judge(ratios, FP).ok
        # and four pairs far under it cannot pass one whose median breaks
        ratios = [0.5, 0.6, 0.7, 0.8, 1.06, 1.07, 1.08, 1.09, 1.10]
        assert not judge(ratios, FP).ok

    def test_fails_on_any_fingerprint_mismatch(self):
        verdict = judge([1.0] * 9, FP[:-1] + ["abd"])
        assert not verdict.ok
        assert "fingerprint" in verdict.failures[0]

    def test_reports_both_breaches(self):
        verdict = judge([1.2] * 9, ["a", "b"])
        assert len(verdict.failures) == 2

    def test_spread_is_the_ratio_quartiles(self):
        verdict = judge([1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07], FP)
        assert verdict.q1 == pytest.approx(0.02)
        assert verdict.overhead == pytest.approx(0.04)
        assert verdict.q3 == pytest.approx(0.06)


class TestMain:
    def _fake_run(self, monkeypatch, ratios, fingerprints):
        arm = {"wall_seconds": 0.1, "n_windows": 5, "n_alerts": 0}
        monkeypatch.setattr(
            bench,
            "run_streaming_overhead",
            lambda quick: {
                "requests": 6_000,
                "repeats": len(ratios),
                "streaming_on": arm,
                "streaming_off": arm,
                "ratios": ratios,
                "fingerprints": fingerprints,
            },
        )

    def test_exit_zero_and_prints_median_with_spread(self, monkeypatch, capsys):
        self._fake_run(monkeypatch, [1.01, 1.02, 1.03], FP)
        assert bench.main(["--quick"]) == 0
        out = capsys.readouterr().out
        assert "+2.0% median" in out
        assert "IQR" in out

    def test_exit_nonzero_above_the_cap(self, monkeypatch, capsys):
        self._fake_run(monkeypatch, [1.06, 1.07, 1.08], FP)
        assert bench.main(["--quick"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_exit_nonzero_on_fingerprint_mismatch(self, monkeypatch, capsys):
        self._fake_run(monkeypatch, [1.0, 1.0, 1.0], ["a", "b"])
        assert bench.main([]) == 1
        assert "fingerprint" in capsys.readouterr().out
