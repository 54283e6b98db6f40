"""Every reproduced artifact runs (quick mode) and matches the paper's
qualitative claims. These are the acceptance tests of the reproduction."""

import pytest

from repro.experiments import registry
from repro.experiments import (
    e01_read_cost,
    e02_overhead_density,
    e03_precision,
    e04_atomicity,
    e05_overflow,
    e06_mysql_sync,
    e07_cs_histogram,
    e08_user_kernel,
    e09_firefox,
    e10_profilers,
    e11_enhancements,
    e12_implications,
)


@pytest.fixture(scope="module")
def e1():
    return e01_read_cost.run(quick=True)


@pytest.fixture(scope="module")
def e6():
    return e06_mysql_sync.run(quick=True)


class TestE1ReadCost(object):
    def test_limit_low_tens_of_ns(self, e1):
        assert 20 < e1.metric("limit_ns") < 50

    def test_papi_order_of_magnitude(self, e1):
        assert 10 < e1.metric("papi_vs_limit") < 40

    def test_perf_two_orders(self, e1):
        assert 60 < e1.metric("perf_vs_limit") < 150

    def test_destructive_cheaper(self, e1):
        assert e1.metric("destructive_vs_limit") < 1.0

    def test_render(self, e1):
        text = e1.render()
        assert "[E1]" in text
        assert "ns/read" in text


class TestE2Density:
    def test_ordering_holds(self):
        r = e02_overhead_density.run(quick=True)
        assert (
            r.metric("limit_slowdown_max_density")
            < r.metric("papi_slowdown_max_density")
            < r.metric("perf_slowdown_max_density")
        )

    def test_limit_overhead_small(self):
        r = e02_overhead_density.run(quick=True)
        assert r.metric("limit_slowdown_max_density") < 1.1


class TestE3Precision:
    def test_limit_exact_sampling_not(self):
        r = e03_precision.run(quick=True)
        assert r.metric("limit_worst_err") < 0.01
        assert r.metric("sampler_best_short_err") > 0.5


class TestE4Atomicity:
    def test_safe_exact_unsafe_not(self):
        r = e04_atomicity.run(quick=True)
        assert r.metric("safe_always_exact") == 1.0
        assert r.metric("unsafe_worst_error") > 0
        # error bounded by a timeslice of cycle events
        assert r.metric("unsafe_worst_error") <= 500_000


class TestE5Overflow:
    def test_narrow_counters_cost(self):
        r = e05_overflow.run(quick=True)
        assert r.metric("overhead_at_16bit") > 0.01
        assert r.metric("wide_pmis") == 0
        assert r.metric("pmis_at_min_width") > 0


class TestE6MysqlSync(object):
    def test_papi_perturbs_more(self, e6):
        assert e6.metric("limit_slowdown") < e6.metric("papi_slowdown")

    def test_limit_nearly_transparent(self, e6):
        assert e6.metric("limit_slowdown") < 1.15

    def test_papi_inflates_holds(self, e6):
        assert e6.metric("papi_hold_inflation") > 2.0
        assert e6.metric("limit_hold_inflation") < 2.0

    def test_locks_short_and_frequent(self, e6):
        assert e6.metric("mean_hold_cycles") < 24_000  # < 10us
        assert e6.metric("acquires_per_mcycle") > 10


class TestE7Histograms:
    def test_sections_mostly_short(self):
        r = e07_cs_histogram.run(quick=True)
        assert r.metric("min_short_fraction") > 0.5
        assert r.metric("mysql_short_fraction") > 0.8


class TestE8UserKernel:
    def test_server_kernel_heavy_spec_not(self):
        r = e08_user_kernel.run(quick=True)
        assert r.metric("server_min_kernel_fraction") > 0.15
        assert r.metric("spec_kernel_fraction") < 0.05


class TestE9Firefox:
    def test_only_limit_profiles_cheaply_and_exactly(self):
        r = e09_firefox.run(quick=True)
        assert r.metric("limit_slowdown") < 1.1
        assert r.metric("papi_slowdown") > 1.3
        assert r.metric("limit_mean_rel_err") < 0.01
        assert r.metric("sampler_resolution") < 1.0


class TestE10Profilers:
    def test_limit_most_accurate(self):
        r = e10_profilers.run(quick=True)
        assert r.metric("limit_rel_err") < 0.01
        assert r.metric("limit_rel_err") < r.metric("sampler_rel_err")


class TestE11Enhancements:
    def test_all_three_help(self):
        r = e11_enhancements.run(quick=True)
        assert r.metric("overflow_overhead_removed") > 0
        assert r.metric("narrow_pmis") > r.metric("wide_pmis")
        assert 0.1 < r.metric("destructive_read_saving") < 0.5
        assert r.metric("hw_virt_kernel_saving") > 0.05


class TestE12Implications:
    def test_seven_implications_quantified(self):
        r = e12_implications.run(quick=True)
        assert r.metric("n_implications") == 7.0
        assert r.metric("limit_read_ns") < 50
        assert r.metric("limit_slowdown") < r.metric("papi_slowdown")


class TestRegistry:
    def test_twenty_one_experiments(self):
        assert len(registry.REGISTRY) == 21
        assert [e.exp_id for e in registry.all_experiments()] == [
            f"E{i}" for i in range(1, 22)
        ]

    def test_get_case_insensitive(self):
        assert registry.get("e1").exp_id == "E1"

    def test_get_unknown(self):
        from repro.common.errors import ExperimentError

        with pytest.raises(ExperimentError):
            registry.get("E99")

    def test_entries_have_claims(self):
        for entry in registry.all_experiments():
            assert entry.paper_claim
            assert entry.title


class TestE13Multiplexing:
    def test_mux_aliases_limit_exact(self):
        from repro.experiments import e13_multiplexing

        r = e13_multiplexing.run(quick=True)
        assert r.metric("mux_worst_error") > 0.3
        assert r.metric("limit_max_abs_error") == 0


class TestE14SpinAblation:
    def test_spinning_cuts_futex_traffic(self):
        from repro.experiments import e14_spin_ablation

        r = e14_spin_ablation.run(quick=True)
        assert r.metric("futex_reduction") > 0.3
        assert r.metric("wall_default_spin") <= r.metric("wall_no_spin")


class TestE15Consolidation:
    def test_overcommit_costs_appear(self):
        from repro.experiments import e15_consolidation

        r = e15_consolidation.run(quick=True)
        assert r.metric("one_socket_cross_is_zero") == 1.0
        assert r.metric("overcommit_kernel_cycles") > r.metric(
            "two_socket_kernel_cycles"
        )


class TestE16BehaviorOverTime:
    def test_gc_pauses_detected_cheaply(self):
        from repro.experiments import e16_behavior_over_time

        r = e16_behavior_over_time.run(quick=True)
        assert r.metric("all_reads_exact") == 1.0
        assert r.metric("checkpoint_overhead") < 0.05
        assert r.metric("gc_windows_detected") >= r.metric("true_gc_pauses") * 0.8


class TestE17FaultMatrix:
    def test_no_silent_mismeasurement_under_any_plan(self):
        from repro.experiments import e17_fault_matrix

        r = e17_fault_matrix.run(quick=True)
        assert r.metric("safe_always_exact") == 1.0
        assert r.metric("safe_missed_total") == 0
        assert r.metric("benign_fingerprint_match") == 1.0
        assert r.metric("faults_injected_total") > 0
        # The unprotected arm mismeasures on exactly every injection.
        assert r.metric("unsafe_storm_injected") > 0
        assert r.metric("unsafe_storm_wrong") == r.metric("unsafe_storm_injected")


class TestE19OpenLoop:
    def test_saturation_amplifies_tail_latency(self):
        from repro.experiments import e19_open_loop

        r = e19_open_loop.run(quick=True)
        assert r.metric("windows_reconciled") == 1.0
        assert r.metric("memory_bounded") == 1.0
        assert r.metric("all_reads_exact") == 1.0
        # pushing offered load through the knee inflates p99 dramatically
        assert r.metric("p99_saturation_amplification") > 2.0
        assert r.metric("total_requests") >= 4 * 600 * 7


class TestE20Resilience:
    @pytest.fixture(scope="class")
    def e20(self):
        from repro.experiments import e20_resilience

        return e20_resilience.run(quick=True)

    def test_protection_bounds_the_collapse(self, e20):
        # The same ramp: unprotected p99 collapses, shed/full stay bounded.
        assert e20.metric("p99_collapse_ratio") > 5.0
        assert e20.metric("shed_vs_unprotected_p99") < 0.5
        assert e20.metric("goodput_full") > e20.metric("goodput_unprotected")

    def test_unbudgeted_retries_amplify_the_storm(self, e20):
        assert e20.metric("amplification_budget_off") > (
            1.5 * e20.metric("amplification_budgeted")
        )
        assert e20.metric("retries_budget_off") > (
            2 * e20.metric("retries_budgeted")
        )

    def test_alerts_page_on_overload_windows_only(self, e20):
        assert e20.metric("alerts_unprotected") > 0
        assert e20.metric("alerts_full") == 0
        assert e20.metric("alerts_in_overload_only") == 1.0

    def test_fault_ledger_and_measurement_integrity(self, e20):
        assert e20.metric("faults_injected") > 0
        assert e20.metric("fault_ledger_clean") == 1.0
        assert e20.metric("windows_reconciled") == 1.0
        assert e20.metric("all_reads_exact") == 1.0


class TestE21Refutation:
    @pytest.fixture(scope="class")
    def e21(self):
        from repro.experiments import e21_refutation

        return e21_refutation.run(quick=True)

    def test_every_assumption_is_judged(self, e21):
        from repro.experiments.e21_refutation import declared_assumptions

        assert e21.metric("n_assumptions") == len(declared_assumptions())
        judged = (
            e21.metric("n_refuted")
            + e21.metric("n_supported")
            + e21.metric("n_refined")
        )
        assert judged == e21.metric("n_assumptions")

    def test_the_sweep_refutes_something_real(self, e21):
        # the paper's spin-pollution physics must produce at least one
        # refuted claim, with its counterexample rendered in the blocks
        assert e21.metric("n_refuted") >= 1
        assert any("counterexample" in block for block in e21.blocks)

    def test_not_everything_refutes(self, e21):
        # a sweep that kills every claim is as suspect as one that
        # kills none
        assert e21.metric("n_supported") >= 1

    def test_declared_assumptions_pass_the_static_gate(self):
        from repro.analysis.refute import precheck
        from repro.experiments.e21_refutation import declared_assumptions

        precheck(declared_assumptions())
