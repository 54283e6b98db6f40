"""Tests for configuration dataclasses and the calibrated cost model."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.common.config import (
    CostModel,
    KernelConfig,
    LockConfig,
    MachineConfig,
    PmuConfig,
    SimConfig,
)
import repro
from repro.common import config as config_mod
from repro.common.errors import ConfigError
from repro.common.units import DEFAULT_FREQUENCY


class TestCostModel:
    def test_limit_read_total_matches_paper_scale(self):
        costs = CostModel()
        ns = DEFAULT_FREQUENCY.cycles_to_ns(costs.limit_read_total)
        assert 20 < ns < 60, "LiMiT read must be low tens of ns"

    def test_papi_read_is_order_of_magnitude_slower(self):
        costs = CostModel()
        ratio = costs.papi_read_total / costs.limit_read_total
        assert 10 <= ratio <= 40

    def test_perf_read_is_two_orders_slower(self):
        costs = CostModel()
        ratio = costs.perf_read_total / costs.limit_read_total
        assert 60 <= ratio <= 150

    def test_unsafe_read_cheaper_than_safe(self):
        costs = CostModel()
        assert costs.limit_unsafe_read_total < costs.limit_read_total

    def test_delta_overheads_equal_one_read(self):
        costs = CostModel()
        assert costs.limit_delta_overhead == costs.limit_read_total
        assert costs.papi_delta_overhead == costs.papi_read_total

    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigError):
            CostModel(rdpmc=-1)

    def test_rejects_non_int_costs(self):
        with pytest.raises(ConfigError):
            CostModel(rdtsc=3.5)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CostModel().rdpmc = 10


class TestPmuConfig:
    def test_defaults(self):
        pmu = PmuConfig()
        assert pmu.n_counters == 4
        assert pmu.counter_width == 48
        assert pmu.overflow_threshold == 1 << 48

    def test_wide_counters_override_width(self):
        pmu = PmuConfig(counter_width=32, wide_counters=True)
        assert pmu.effective_width == 64
        assert pmu.overflow_threshold == 1 << 64

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigError):
            PmuConfig(counter_width=4)
        with pytest.raises(ConfigError):
            PmuConfig(counter_width=65)

    def test_rejects_zero_counters(self):
        with pytest.raises(ConfigError):
            PmuConfig(n_counters=0)


class TestMachineConfig:
    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            MachineConfig(n_cores=0)

    def test_default_sane(self):
        m = MachineConfig()
        assert m.n_cores >= 1
        assert m.frequency.hz > 0


class TestKernelConfig:
    def test_rejects_tiny_timeslice(self):
        with pytest.raises(ConfigError):
            KernelConfig(timeslice_cycles=10)

    def test_defaults(self):
        k = KernelConfig()
        assert k.limit_patch is True
        assert k.hw_thread_virtualization is False


class TestLockConfig:
    def test_rejects_negative_spin(self):
        with pytest.raises(ConfigError):
            LockConfig(spin_limit_cycles=-1)


class TestSimConfigBuilders:
    def test_with_kernel(self):
        cfg = SimConfig().with_kernel(timeslice_cycles=123_456)
        assert cfg.kernel.timeslice_cycles == 123_456

    def test_with_pmu(self):
        cfg = SimConfig().with_pmu(counter_width=24, n_counters=2)
        assert cfg.machine.pmu.counter_width == 24
        assert cfg.machine.pmu.n_counters == 2

    def test_builders_compose(self):
        cfg = (
            SimConfig(seed=4)
            .with_kernel(timeslice_cycles=50_000)
            .with_pmu(wide_counters=True)
        )
        assert cfg.seed == 4
        assert cfg.kernel.timeslice_cycles == 50_000
        assert cfg.machine.pmu.wide_counters


def _attributes_read(tree) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_config_field_is_read():
    """An option is only an option if the simulator reads it: every field
    of the run's config classes is read as an attribute somewhere in
    ``src/`` outside ``common/config.py``, or inside one of that module's
    methods or properties that is (``counter_width`` reaches the PMU
    through ``effective_width``). Validation does not count. A field that
    nothing reads changes no result; delete it rather than carry it."""
    root = Path(repro.__file__).parent
    own = Path(config_mod.__file__)
    read = set()
    for path in root.rglob("*.py"):
        if path != own:
            read |= _attributes_read(ast.parse(path.read_text()))
    methods = {
        node.name: _attributes_read(node)
        for node in ast.walk(ast.parse(own.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name != "__post_init__"
    }
    grown = True
    while grown:
        size = len(read)
        for name, attrs in methods.items():
            if name in read:
                read |= attrs
        grown = len(read) > size
    classes = (SimConfig, MachineConfig, PmuConfig, KernelConfig, LockConfig, CostModel)
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in classes
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert unread == []
