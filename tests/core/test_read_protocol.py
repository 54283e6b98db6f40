"""Tests of the three read protocols at the op-sequence level.

Safe and unsafe reads are a single op each (``PmcSafeRead`` and
``PmcUnsafeRead``, which the engine runs as a micro-op sequence; their
engine-level semantics are covered in tests/sim/test_composite_reads.py);
the destructive read is still a three-op sequence.
"""

from repro.common.config import CostModel
from repro.core.read_protocol import MAX_RESTARTS, destructive_read
from repro.sim.ops import Compute, LoadVAccum, Rdpmc, RdpmcDestructive

COSTS = CostModel()


def drive(gen, responses):
    """Run a protocol generator feeding canned responses; returns
    (ops_seen, return_value)."""
    ops = []
    try:
        op = next(gen)
        while True:
            ops.append(op)
            op = gen.send(responses(op))
    except StopIteration as stop:
        return ops, stop.value


class TestSafeRead:
    def test_restart_valve_exported(self):
        # The engine enforces the restart limit; the protocol module still
        # exports the constant for callers and documentation.
        assert MAX_RESTARTS == 1_000

    def test_composite_total_matches_cost_model(self):
        # The engine charges the composite op exactly the historical
        # op-by-op cost; the cost model's aggregate must agree with the
        # sub-phase costs the engine sums.
        assert (
            COSTS.pmc_call_overhead + COSTS.pmc_read_begin
            + COSTS.pmc_load_accum + COSTS.rdpmc + COSTS.pmc_read_end
            + COSTS.pmc_store_result
            == COSTS.limit_read_total
        )


class TestUnsafeRead:
    def test_composite_total_matches_cost_model(self):
        assert (
            COSTS.pmc_call_overhead + COSTS.pmc_load_accum + COSTS.rdpmc
            + COSTS.pmc_store_result
            == COSTS.limit_unsafe_read_total
        )


class TestDestructiveRead:
    def test_single_instruction(self):
        def responses(op):
            if isinstance(op, RdpmcDestructive):
                return 55
            return None

        ops, value = drive(destructive_read(0, COSTS), responses)
        assert value == 55
        assert sum(isinstance(o, RdpmcDestructive) for o in ops) == 1
        assert not any(isinstance(o, (LoadVAccum, Rdpmc)) for o in ops)
        assert sum(isinstance(o, Compute) for o in ops) == 2
