"""Op dispatch: one ``(begin, advance)`` table keyed by op type.

Op subclasses resolve through the MRO to their base op's handlers (and are
memoized under their own type); anything else a program yields is rejected.
"""

import pytest

from repro.common.errors import SimulationError
from repro.sim import engine as engine_mod
from repro.sim import ops

from tests.conftest import SIMPLE_RATES, run_threads


class TaggedCompute(ops.Compute):
    """A workload-defined Compute that carries no new behaviour."""


class TaggedSyscall(ops.Syscall):
    """A workload-defined Syscall that carries no new behaviour."""


def _program(compute, syscall):
    def program(ctx):
        for i in range(30):
            yield compute(1_000 + 37 * i, SIMPLE_RATES)
            tid = yield syscall("getpid")
            assert tid == ctx.tid
            yield syscall("work", (500,))

    return program


def test_subclasses_run_like_their_base_ops(preemptive):
    base = run_threads(
        preemptive,
        _program(ops.Compute, ops.Syscall),
        _program(ops.Compute, ops.Syscall),
    )
    tagged = run_threads(
        preemptive,
        _program(TaggedCompute, TaggedSyscall),
        _program(TaggedCompute, TaggedSyscall),
    )
    assert tagged.fingerprint() == base.fingerprint()
    table = engine_mod._OP_HANDLERS
    assert table[TaggedCompute] == table[ops.Compute]
    assert table[TaggedSyscall] == table[ops.Syscall]
    # a second run goes through the memoized entries
    again = run_threads(
        preemptive,
        _program(TaggedCompute, TaggedSyscall),
        _program(TaggedCompute, TaggedSyscall),
    )
    assert again.fingerprint() == base.fingerprint()


@pytest.mark.parametrize("value", [42, None, ops.Op()], ids=["int", "none", "bare_op"])
def test_non_op_yield_raises(uniprocessor, value):
    def program(ctx):
        yield ops.Compute(100, SIMPLE_RATES)
        yield value

    with pytest.raises(SimulationError, match="yielded non-op"):
        run_threads(uniprocessor, program)
    assert type(value) not in engine_mod._OP_HANDLERS
