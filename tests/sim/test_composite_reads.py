"""Engine semantics of the composite PMC read ops.

``LimitSession.read_safe``/``read_unsafe`` yield a single :class:`PmcSafeRead` /
:class:`PmcUnsafeRead`; the engine either commits the whole read in one
piece (the fast path, when provably uninterruptible) or runs a stage
machine with the historical op-by-op piece boundaries. Both must return
``vaccum + hw`` for the slot, restart on interruption (safe reads), and
raise the same faults as the op-by-op protocol did; the equivalence
harness (``tests/test_equivalence.py``) holds the two paths equal.
"""

import dataclasses

import pytest

from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.common.errors import CounterError
from repro.core.limit import LimitSession, UnsafeLimitSession
from repro.hw.events import Event
from repro.sim.engine import Engine
from repro.sim.ops import Compute, PmcSafeRead, PmcUnsafeRead
from repro.sim.program import ThreadSpec

from tests.conftest import SIMPLE_RATES
from tests.equivalence import SOLO_READS as SOLO

CHOPPY = SimConfig(
    machine=MachineConfig(n_cores=1),
    kernel=KernelConfig(timeslice_cycles=5_000),
    seed=2,
)


def _run(config, *factories):
    specs = [ThreadSpec(f"t{i}", f) for i, f in enumerate(factories)]
    return Engine(config).run(specs)


def _reader_factory(session_cls, observed, n_reads=20, gap=2_000):
    """A thread reading slot 0 (CYCLES) after each ``gap``-cycle Compute;
    ``observed["values"]`` gets the values. The session also counts
    INSTRUCTIONS: with 8-bit counters and CYCLES alone, some safe reads
    complete and the restart valve never trips."""
    session = session_cls([Event.CYCLES, Event.INSTRUCTIONS])

    def reader(ctx):
        yield from session.setup(ctx)
        values = []
        for _ in range(n_reads):
            yield Compute(gap, SIMPLE_RATES)
            values.append((yield from session.read(ctx, 0)))
            observed["truth"] = ctx.thread().last_rdpmc_truth
        observed["values"] = values

    return reader


class TestValues:
    @pytest.mark.parametrize("session_cls", [LimitSession, UnsafeLimitSession])
    def test_values_monotonic_and_match_ground_truth(self, session_cls):
        observed = {}
        _run(SOLO, _reader_factory(session_cls, observed))
        values = observed["values"]
        assert values == sorted(values)
        assert values[-1] == observed["truth"]
        assert values[-1] >= 20 * 2_000

    def test_fast_read_completing_in_begin_is_one_piece(self):
        """A fast read finishes inside its begin handler, so the fetch is
        its whole piece: N reads add exactly N sim events to a solo run."""
        n_reads = 20

        def program(with_reads):
            session = LimitSession([Event.CYCLES])

            def reader(ctx):
                yield from session.setup(ctx)
                for _ in range(n_reads):
                    yield Compute(2_000, SIMPLE_RATES)
                    if with_reads:
                        yield from session.read(ctx, 0)

            return reader

        plain = _run(SOLO, program(False)).metrics
        reads = _run(SOLO, program(True)).metrics
        assert reads["fast_reads"] == n_reads
        assert reads["sim_events"] == plain["sim_events"] + n_reads


class TestInterruption:
    def test_preempted_safe_reads_restart(self):
        """A tiny timeslice interrupts reads mid-protocol; the safe read
        must detect it and retry (the paper's restart protocol)."""
        observed = {}

        def noise(ctx):
            yield Compute(300_000, SIMPLE_RATES)

        result = _run(
            CHOPPY,
            _reader_factory(LimitSession, observed, n_reads=400, gap=60),
            noise,
        )
        assert sum(t.read_restarts for t in result.threads.values()) > 0
        values = observed["values"]
        assert values == sorted(values)

    def test_unsafe_reads_never_restart(self):
        observed = {}

        def noise(ctx):
            yield Compute(300_000, SIMPLE_RATES)

        result = _run(
            CHOPPY,
            _reader_factory(UnsafeLimitSession, observed, n_reads=400, gap=60),
            noise,
        )
        assert sum(t.read_restarts for t in result.threads.values()) == 0

    def test_livelocked_read_hits_the_restart_valve(self):
        """An 8-bit counter overflows faster than the read completes, so
        the safe read can never observe a clean window; the engine must
        fail loudly instead of spinning forever."""
        config = dataclasses.replace(
            SOLO,
            machine=MachineConfig(
                n_cores=1,
                pmu=dataclasses.replace(SOLO.machine.pmu, counter_width=8),
            ),
        )
        observed = {}
        with pytest.raises(RuntimeError, match="restarted >"):
            _run(config, _reader_factory(LimitSession, observed))


class TestFaults:
    def test_read_of_bad_slot_raises(self):
        def program(ctx):
            yield Compute(100, SIMPLE_RATES)
            yield PmcSafeRead(3)  # never opened

        with pytest.raises(CounterError):
            _run(SOLO, program)

    def test_unsafe_read_of_bad_slot_raises(self):
        def program(ctx):
            yield Compute(100, SIMPLE_RATES)
            yield PmcUnsafeRead(3)

        with pytest.raises(CounterError):
            _run(SOLO, program)
