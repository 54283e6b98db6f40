"""Tests of the CPI stack: CPI from the ``$cpi`` declaration, and its
breakdown into retiring and stalled cycles by the top-down tree."""

import pytest

from repro.analysis.expr import env_from_counts, evaluate, parse
from repro.analysis.tree import (
    STANDARD_METRICS,
    classify_counts,
    counts_from_result,
)
from repro.hw.events import Event, EventRates
from repro.sim.ops import Compute, Syscall
from tests.conftest import run_threads

CPI = parse(STANDARD_METRICS["cpi"])


def cpi(counts):
    return evaluate(CPI, env_from_counts(counts))


class TestBuildCpiStack:
    def test_cpi(self):
        counts = {Event.CYCLES: 2_000, Event.INSTRUCTIONS: 1_000}
        assert cpi(counts) == 2.0
        # nothing attributed: every cycle is retiring
        level = classify_counts(counts)["levels"][0]
        assert level["dominant"] == "retiring"
        assert level["share"] == 1.0

    def test_empty_counts(self):
        assert cpi({}) is None
        assert classify_counts({})["path"] == "retiring"

    def test_dominant_component(self):
        cls = classify_counts(
            {
                Event.CYCLES: 100_000,
                Event.INSTRUCTIONS: 10_000,
                Event.STALL_CYCLES: 80_000,
                Event.LLC_MISSES: 400,
                Event.BRANCH_MISSES: 100,
            }
        )
        assert cls["path"] == "stalled"
        assert cls["levels"][0]["share"] == pytest.approx(0.8)

    def test_dominant_base_when_no_misses(self):
        cls = classify_counts({Event.CYCLES: 1_000, Event.INSTRUCTIONS: 900})
        assert cls["path"] == "retiring"


class TestThreadCpiStack:
    def test_from_run(self, uniprocessor):
        # the stalled share is the stall fraction the run measured
        rates = EventRates.profile(ipc=0.5, llc_mpki=20.0, stall_frac=0.6)

        def program(ctx):
            yield Compute(1_000_000, rates)

        result = run_threads(uniprocessor, program)
        user = result.thread_by_name("t0").events_user
        assert cpi(user) == pytest.approx(2.0, rel=0.01)
        assert classify_counts(user)["path"] == "stalled"

    def test_domain_selection(self, uniprocessor):
        def program(ctx):
            yield Compute(10_000, EventRates.profile(ipc=2.0))
            yield Syscall("work", (10_000,))

        result = run_threads(uniprocessor, program)
        t = result.thread_by_name("t0")
        user = t.events_user[Event.CYCLES]
        kernel = t.events_kernel[Event.CYCLES]
        both = counts_from_result(result, "t0")[Event.CYCLES]
        assert user == 10_000
        assert kernel > 10_000
        assert both == user + kernel
        assert cpi(t.events_user) == pytest.approx(0.5)
