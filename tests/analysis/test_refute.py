"""Tests of the assumption refutation engine (judging + sweep)."""

import pytest

from repro.analysis import refute
from repro.analysis.refute import Assumption, GridPoint, judge, sweep
from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.lint.gate import LintError

IPC = {"ipc": "ratio(instructions, cycles)"}
#: five events, one more than the default PMU co-schedules (AN007)
FIVE_EVENT_SHARES = (
    "ratio(llc_misses, cycles) + ratio(l2_misses, cycles) + "
    "ratio(branch_misses, cycles) + ratio(dtlb_misses, cycles)"
)


def grid_point(label, **coords):
    return GridPoint(
        label=label,
        workload="repro.experiments.e21_refutation.ContentionTrial",
        config=SimConfig(),
        coords=coords,
    )


def contention_points():
    """Two real contention-trial runs, at one and two threads."""
    from repro.experiments.base import multicore_config

    return [
        GridPoint(
            label=f"t{n}",
            workload="repro.experiments.e21_refutation.ContentionTrial",
            config=multicore_config(n_cores=2, seed=0),
            kwargs={
                "threads": n,
                "profile": "compute",
                "iterations": 4,
                "randomize": False,
            },
            coords={"threads": n},
        )
        for n in (1, 2)
    ]


def env(cycles, instructions):
    return {"cycles": float(cycles), "instructions": float(instructions)}


def series(*ipcs, axis="threads", **extra):
    points = [
        grid_point(f"p{i}", **{axis: i, **extra}) for i in range(len(ipcs))
    ]
    envs = [env(1_000_000, ipc * 1_000_000) for ipc in ipcs]
    return points, envs


class TestAssumptionValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            Assumption(name="x", claim="", kind="vibes")

    def test_pointwise_needs_predicate(self):
        with pytest.raises(ConfigError):
            Assumption(name="x", claim="", kind=refute.POINTWISE)

    def test_series_kinds_need_subject_and_axis(self):
        with pytest.raises(ConfigError):
            Assumption(
                name="x", claim="", kind=refute.MONOTONE, subject="$ipc"
            )

    def test_direction_and_tolerance_validated(self):
        with pytest.raises(ConfigError):
            Assumption(
                name="x",
                claim="",
                kind=refute.MONOTONE,
                subject="$ipc",
                axis="t",
                direction="sideways",
            )
        with pytest.raises(ConfigError):
            Assumption(
                name="x",
                claim="",
                kind=refute.MONOTONE,
                subject="$ipc",
                axis="t",
                tolerance=-1.0,
            )


class TestPointwise:
    def assumption(self, predicate="$ipc <= 4.0", **kw):
        return Assumption(
            name="bound",
            claim="ipc bounded",
            kind=refute.POINTWISE,
            predicate=predicate,
            subject="$ipc",
            metrics=IPC,
            **kw,
        )

    def test_supported(self):
        points, envs = series(1.0, 2.0, 3.0)
        verdict = judge(self.assumption(), points, envs)
        assert verdict.verdict == refute.SUPPORTED
        assert verdict.observed["holds"] == 3

    def test_refuted_names_the_offending_point(self):
        points, envs = series(1.0, 5.0)
        verdict = judge(self.assumption(), points, envs)
        assert verdict.verdict == refute.REFUTED
        assert verdict.counterexample["point"] == "p1"
        assert verdict.counterexample["subject"] == pytest.approx(5.0)

    def test_inconclusive_when_everywhere_undefined(self):
        points, _ = series(1.0)
        verdict = judge(self.assumption(), points, [{}])
        assert verdict.verdict == refute.INCONCLUSIVE


class TestMonotone:
    def assumption(self, **kw):
        defaults = dict(
            name="ipc-grows",
            claim="ipc grows along the axis",
            kind=refute.MONOTONE,
            subject="$ipc",
            axis="threads",
            metrics=IPC,
        )
        defaults.update(kw)
        return Assumption(**defaults)

    def test_supported_on_a_rising_series(self):
        points, envs = series(1.0, 1.5, 2.0)
        assert judge(self.assumption(), points, envs).verdict == (
            refute.SUPPORTED
        )

    def test_refuted_picks_the_worst_adverse_pair(self):
        points, envs = series(1.0, 0.9, 0.5)
        verdict = judge(self.assumption(), points, envs)
        assert verdict.verdict == refute.REFUTED
        assert verdict.counterexample["from"]["point"] == "p1"
        assert verdict.counterexample["to"]["point"] == "p2"
        assert verdict.observed["worst_slack"] == pytest.approx(0.4)

    def test_refined_inside_tolerance(self):
        points, envs = series(1.0, 0.95, 2.0)
        verdict = judge(self.assumption(tolerance=0.1), points, envs)
        assert verdict.verdict == refute.REFINED
        assert verdict.observed["tightened_tolerance"] == pytest.approx(0.05)

    def test_decreasing_direction_flips_the_sign(self):
        points, envs = series(2.0, 1.0, 0.5)
        verdict = judge(
            self.assumption(direction="decreasing"), points, envs
        )
        assert verdict.verdict == refute.SUPPORTED

    def test_series_split_by_other_coordinates(self):
        # two rising series that would look adverse if conflated
        pa, ea = series(1.0, 2.0, profile="a")
        pb, eb = series(0.2, 0.4, profile="b")
        verdict = judge(self.assumption(), pa + pb, ea + eb)
        assert verdict.verdict == refute.SUPPORTED

    def test_where_scopes_the_claim(self):
        pa, ea = series(1.0, 2.0, profile="a")
        pb, eb = series(2.0, 1.0, profile="b")  # falling: would refute
        verdict = judge(
            self.assumption(where={"profile": "a"}), pa + pb, ea + eb
        )
        assert verdict.verdict == refute.SUPPORTED
        assert verdict.points == 2

    def test_inconclusive_without_comparable_pairs(self):
        points, envs = series(1.0)
        assert judge(self.assumption(), points, envs).verdict == (
            refute.INCONCLUSIVE
        )


class TestInvariant:
    def assumption(self, tolerance=0.0):
        return Assumption(
            name="flat",
            claim="ipc is seed-invariant",
            kind=refute.INVARIANT,
            subject="$ipc",
            axis="seed",
            tolerance=tolerance,
            metrics=IPC,
        )

    def test_supported_on_zero_spread(self):
        points, envs = series(1.5, 1.5, 1.5, axis="seed")
        assert judge(self.assumption(), points, envs).verdict == (
            refute.SUPPORTED
        )

    def test_refuted_reports_the_extremes(self):
        points, envs = series(1.0, 1.6, 1.2, axis="seed")
        verdict = judge(self.assumption(tolerance=0.5), points, envs)
        assert verdict.verdict == refute.REFUTED
        assert verdict.observed["worst_slack"] == pytest.approx(0.6)
        ce = verdict.counterexample
        assert {ce["from"]["point"], ce["to"]["point"]} == {"p0", "p1"}

    def test_refined_tightens_the_tolerance(self):
        points, envs = series(1.0, 1.1, axis="seed")
        verdict = judge(self.assumption(tolerance=0.5), points, envs)
        assert verdict.verdict == refute.REFINED
        assert verdict.observed["tightened_tolerance"] == pytest.approx(0.1)


class TestSweep:
    def test_precheck_rejects_invalid_assumptions(self):
        bad = Assumption(
            name="broken",
            claim="dangling",
            kind=refute.POINTWISE,
            predicate="$nope > 0.0",
        )
        with pytest.raises(LintError):
            refute.precheck([bad])

    def test_sweep_gates_before_dispatch(self):
        bad = Assumption(
            name="broken",
            claim="dangling",
            kind=refute.POINTWISE,
            predicate="$nope > 0.0",
        )
        with pytest.raises(LintError):
            sweep([bad], [grid_point("p0", threads=1)])

    def test_precheck_rejects_warnings_other_than_multiplexing(self):
        tautology = Assumption(
            name="vacuous",
            claim="miss counts are never negative",
            kind=refute.POINTWISE,
            predicate="llc_misses + l2_misses + branch_misses + dtlb_misses"
            " + itlb_misses >= 0.0",
        )
        with pytest.raises(LintError, match="AN009") as caught:
            refute.precheck([tautology])
        assert "AN007" not in str(caught.value)

    def test_sweep_judges_a_five_event_claim_with_the_check_on(self):
        """More events than the PMU co-schedules (AN007) is no hazard for
        a sweep: it judges ground-truth counts, never multiplexed ones."""
        bound = Assumption(
            name="miss_shares",
            claim="the four miss rates sum to at most one per cycle",
            kind=refute.POINTWISE,
            predicate="$misses <= 1.0",
            subject="$misses",
            metrics={"misses": FIVE_EVENT_SHARES},
        )
        result = sweep([bound], contention_points())
        assert result.points == 2
        assert result.verdicts[0].verdict == refute.SUPPORTED

    def test_sweep_runs_the_fabric_and_judges(self):
        points = contention_points()
        bound = Assumption(
            name="bound",
            claim="ipc stays physical",
            kind=refute.POINTWISE,
            predicate="$ipc <= 4.0 and $ipc > 0.0",
            subject="$ipc",
            metrics=IPC,
        )
        result = sweep([bound], points)
        assert result.points == 2
        assert not result.failed_points
        assert result.verdicts[0].verdict == refute.SUPPORTED
        assert "refutation sweep" in refute.verdict_report(result)

    def test_verdicts_serialize(self):
        points, envs = series(1.0, 0.5)
        verdict = judge(
            Assumption(
                name="up",
                claim="rises",
                kind=refute.MONOTONE,
                subject="$ipc",
                axis="threads",
                metrics=IPC,
            ),
            points,
            envs,
        )
        data = verdict.as_dict()
        assert data["verdict"] == refute.REFUTED
        assert data["counterexample"]["from"]["coords"] == {"threads": 0}
