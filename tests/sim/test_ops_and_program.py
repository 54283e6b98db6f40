"""Validation tests for ops and thread program plumbing."""

import dataclasses
import pickle
from typing import Any

import pytest

from repro.common.errors import ConfigError
from repro.hw.events import ZERO_RATES
from repro.sim import ops
from repro.sim.ops import Compute, Sleep
from repro.sim.program import ThreadSpec

from tests.conftest import SIMPLE_RATES, run_threads


class TestOpValidation:
    def test_compute_rejects_negative(self):
        with pytest.raises(ConfigError):
            Compute(-1)

    def test_compute_default_rates_empty(self):
        assert len(Compute(10).rates) == 0

    def test_sleep_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            Sleep(0)

    def test_messages_name_the_bad_value(self):
        with pytest.raises(ConfigError, match="compute cycles must be >= 0, got -1"):
            Compute(-1)
        with pytest.raises(ConfigError, match="sleep cycles must be positive, got 0"):
            Sleep(0)

    def test_ops_are_frozen(self):
        op = Compute(10, SIMPLE_RATES)
        with pytest.raises(Exception):
            op.cycles = 20


def _spawned(ctx):
    yield Compute(1, SIMPLE_RATES)


#: One instance of every op class, and a second with different fields where
#: the op has any.
SAMPLES = {
    ops.Compute: ((5, SIMPLE_RATES), (5,)),
    ops.Syscall: (("work", (900,)), ("work",)),
    ops.LockAcquire: (("a",), ("b",)),
    ops.LockRelease: (("a",), ("b",)),
    ops.Rdpmc: ((1,), (2,)),
    ops.RdpmcDestructive: ((1,), (2,)),
    ops.Rdtsc: ((), None),
    ops.PmcReadBegin: ((), None),
    ops.PmcReadEnd: ((), None),
    ops.LoadVAccum: ((1,), (2,)),
    ops.PmcSafeRead: ((1,), (2,)),
    ops.PmcUnsafeRead: ((1,), (2,)),
    ops.RegionBegin: (("a",), ("b",)),
    ops.RegionEnd: ((), None),
    ops.SpawnThread: ((_spawned, "a"), (_spawned, "b")),
    ops.JoinThread: ((1,), (2,)),
    ops.Sleep: ((1,), (2,)),
    ops.YieldCpu: ((), None),
}
OP_CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _dataclass_twin(cls):
    """The frozen dataclass with ``cls``'s fields: the reference for what
    generated methods would give."""
    fields = [(name, Any) for name in cls.__slots__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def test_samples_cover_every_op_class():
    found = {
        value
        for value in vars(ops).values()
        if isinstance(value, type) and issubclass(value, ops.Op)
    }
    assert found - {ops.Op} == set(SAMPLES)


@pytest.mark.parametrize("cls", OP_CLASSES, ids=lambda cls: cls.__name__)
class TestOpValue:
    def test_equality_and_hash_by_type_and_fields(self, cls):
        args, other = SAMPLES[cls]
        op = cls(*args)
        assert op == cls(*args)
        assert hash(op) == hash(cls(*args))
        assert hash(op) == hash(_dataclass_twin(cls)(*args))
        assert op != object()
        if other is not None:
            assert op != cls(*other)

    def test_unequal_to_another_op_type_with_the_same_fields(self, cls):
        args, _ = SAMPLES[cls]
        op = cls(*args)
        for twin in OP_CLASSES:
            if twin is not cls and twin.__slots__ == cls.__slots__:
                assert op != twin(*args)
                assert twin(*args) != op

    def test_repr_matches_a_frozen_dataclass(self, cls):
        args, _ = SAMPLES[cls]
        assert repr(cls(*args)) == repr(_dataclass_twin(cls)(*args))

    def test_frozen(self, cls):
        op = cls(*SAMPLES[cls][0])
        for name in cls.__slots__ + ("extra",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(op, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(op, name)

    def test_pickle_round_trip(self, cls):
        op = cls(*SAMPLES[cls][0])
        copy = pickle.loads(pickle.dumps(op))
        assert type(copy) is cls
        assert copy == op

    def test_init_is_written_in_ops(self, cls):
        code = getattr(cls.__init__, "__code__", None)
        if cls.__slots__:
            assert code is not None
        assert code is None or code.co_filename == ops.__file__


def test_op_repr_names_each_field():
    op = Compute(cycles=5, rates=SIMPLE_RATES)
    assert repr(op) == f"Compute(cycles=5, rates={SIMPLE_RATES!r})"
    assert repr(ops.Rdtsc()) == "Rdtsc()"


def test_read_ops_name_their_protocol():
    assert ops.PmcSafeRead(0).protocol == "safe"
    assert ops.PmcUnsafeRead(0).protocol == "unsafe"
    assert "protocol" not in ops.PmcSafeRead.__slots__


def test_constructor_defaults_and_keywords():
    assert Compute(7) == Compute(cycles=7, rates=ZERO_RATES)
    assert ops.Syscall("work").args == ()
    assert ops.SpawnThread(factory=_spawned, name="t").name == "t"
    with pytest.raises(TypeError):
        ops.Rdtsc(1)


class TestThreadSpec:
    def test_rejects_empty_name(self):
        with pytest.raises(ConfigError):
            ThreadSpec("", lambda ctx: iter(()))

    def test_rejects_non_callable(self):
        with pytest.raises(ConfigError):
            ThreadSpec("x", "not callable")


class TestThreadContext:
    def test_identity_and_rng(self, uniprocessor):
        seen = {}

        def program(ctx):
            seen["name"] = ctx.name
            seen["tid"] = ctx.tid
            seen["rand"] = ctx.rng.random()
            seen["cost"] = ctx.costs.rdpmc
            yield Compute(10, SIMPLE_RATES)

        run_threads(uniprocessor, program)
        assert seen["name"] == "t0"
        assert seen["tid"] >= 1
        assert 0 <= seen["rand"] < 1
        assert seen["cost"] == uniprocessor.machine.costs.rdpmc

    def test_rng_differs_per_thread(self, quad_core):
        draws = {}

        def program(ctx):
            draws[ctx.name] = ctx.rng.random()
            yield Compute(10, SIMPLE_RATES)

        run_threads(quad_core, program, program)
        assert draws["t0"] != draws["t1"]

    def test_rng_stable_across_runs(self, uniprocessor):
        draws = []

        def program(ctx):
            draws.append(ctx.rng.random())
            yield Compute(10, SIMPLE_RATES)

        run_threads(uniprocessor, program)
        run_threads(uniprocessor, program)
        assert draws[0] == draws[1]

    def test_now_advances(self, uniprocessor):
        stamps = []

        def program(ctx):
            stamps.append(ctx.now())
            yield Compute(10_000, SIMPLE_RATES)
            stamps.append(ctx.now())

        run_threads(uniprocessor, program)
        assert stamps[1] - stamps[0] >= 10_000

    def test_scratch_is_per_thread(self, quad_core):
        def writer(ctx):
            ctx.scratch["mine"] = ctx.name
            yield Compute(1_000, SIMPLE_RATES)
            assert ctx.scratch["mine"] == ctx.name

        run_threads(quad_core, writer, writer)
