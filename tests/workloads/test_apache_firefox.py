"""Tests of the Apache and Firefox workload models."""

import pytest

from repro.analysis.reports import user_kernel_breakdown
from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import ConfigError
from repro.sim.engine import run_program
from repro.workloads.apache import (
    ACCEPT_LOCK,
    ApacheConfig,
    ApacheWorkload,
    LOG_LOCK,
)
from repro.workloads.firefox import (
    DOM_LOCK,
    FirefoxConfig,
    FirefoxWorkload,
    default_function_catalog,
)


def run_workload(workload, seed=5, cores=4):
    config = SimConfig(machine=MachineConfig(n_cores=cores), seed=seed)
    result = run_program(workload.build(), config)
    result.check_conservation()
    return result


class TestApache:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ApacheConfig(n_workers=0)
        with pytest.raises(ConfigError):
            ApacheConfig(requests_per_worker=0)

    def test_kernel_heavy(self):
        result = run_workload(
            ApacheWorkload(ApacheConfig(n_workers=6, requests_per_worker=20))
        )
        assert user_kernel_breakdown(result).kernel_fraction > 0.25

    def test_request_regions(self):
        result = run_workload(
            ApacheWorkload(ApacheConfig(n_workers=3, requests_per_worker=8))
        )
        assert result.merged_region("request").invocations == 24
        assert result.merged_region("parse").invocations == 24
        assert result.merged_region("handler").invocations == 24

    def test_accept_and_log_locks_used(self):
        result = run_workload(
            ApacheWorkload(ApacheConfig(n_workers=4, requests_per_worker=10))
        )
        assert result.locks[ACCEPT_LOCK].n_acquires == 40
        assert result.locks[LOG_LOCK].n_acquires == 40

    def test_accept_serialization_contends(self):
        """The accept mutex wraps a syscall: real contention appears."""
        result = run_workload(
            ApacheWorkload(ApacheConfig(n_workers=8, requests_per_worker=15))
        )
        assert result.locks[ACCEPT_LOCK].n_contended > 0


class TestFirefox:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FirefoxConfig(events=0)
        with pytest.raises(ConfigError):
            FirefoxConfig(catalog=[])

    def test_catalog_shape(self):
        catalog = default_function_catalog(n=10)
        assert len(catalog) == 10
        medians = [f.median_cycles for f in catalog]
        assert medians == sorted(medians)
        assert medians[0] < 2_400  # sub-microsecond functions exist

    def test_function_regions_created(self):
        result = run_workload(FirefoxWorkload(FirefoxConfig(events=80)))
        js_regions = [n for n in result.all_region_names() if n.startswith("js::")]
        assert len(js_regions) > 5

    def test_function_call_counts(self):
        cfg = FirefoxConfig(events=50, functions_per_event=4)
        result = run_workload(FirefoxWorkload(cfg))
        total_calls = sum(
            result.merged_region(n).invocations
            for n in result.all_region_names()
            if n.startswith("js::")
        )
        assert total_calls == 200

    def test_gc_pauses(self):
        cfg = FirefoxConfig(events=120, gc_every_events=30)
        result = run_workload(FirefoxWorkload(cfg))
        assert result.merged_region("gc").invocations == 4

    def test_dom_lock_shared_with_compositor(self):
        result = run_workload(FirefoxWorkload(FirefoxConfig(events=60)))
        dom = result.locks[DOM_LOCK]
        assert dom.n_acquires == 60 + 40  # events + compositor frames

    def test_no_compositor_variant(self):
        cfg = FirefoxConfig(events=20, with_compositor=False)
        specs = FirefoxWorkload(cfg).build()
        assert len(specs) == 1

    def test_event_loop_idles(self):
        """Sleeps make wall time exceed cpu time on the main thread."""
        result = run_workload(FirefoxWorkload(FirefoxConfig(events=100)))
        main = result.thread_by_name("firefox:main")
        assert main.wall_cycles > main.cpu_cycles * 1.05
