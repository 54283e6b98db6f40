"""The static walker: op enumeration without an engine.

The walker's contract is fidelity of *shape*: the per-thread op sequence it
records must be the one the engine would fetch, with slot indices, spawn
tids and protocol results consistent enough that real measurement-library
code (sessions, baselines) walks to completion unmodified.
"""

from repro.common.config import MachineConfig, PmuConfig, SimConfig
from repro.common.rng import RandomStream
from repro.core.limit import LimitSession
from repro.hw.events import Event
from repro.kernel.vpmu import SlotSpec
from repro.lint.walker import walk_program
from repro.sim import ops as op
from repro.sim.program import ThreadContext, ThreadSpec

from tests.conftest import SIMPLE_RATES


def _specs(*factories):
    return [ThreadSpec(f"t{i}", f) for i, f in enumerate(factories)]


#: Every public ThreadContext member, and how a program uses it.
_CONTEXT_USES = {
    "name": lambda ctx: ctx.name,
    "tid": lambda ctx: ctx.tid,
    "now": lambda ctx: ctx.now(),
    "now_of": lambda ctx: ctx.now_of(ctx.thread()),
    "thread": lambda ctx: ctx.thread().last_rdpmc_truth,
    "service_fault": lambda ctx: ctx.service_fault("drop", "front"),
    "service_fault_resolved": lambda ctx: ctx.service_fault_resolved("drop"),
    "costs": lambda ctx: ctx.costs.rdpmc,
    "scratch": lambda ctx: ctx.scratch.setdefault("k", 1),
    "rng": lambda ctx: ctx.rng.random(),
}


def test_walk_reaches_every_context_member():
    """A factory walks with a real ThreadContext over the walker's stub
    engine, so a context member whose engine call the stub lacks surfaces
    here as a walk error rather than in a lint gate."""
    real = ThreadContext("t", 1, RandomStream(0, "t"), engine=None)
    assert {n for n in dir(real) if not n.startswith("_")} == set(_CONTEXT_USES)

    def prog(ctx):
        for use in _CONTEXT_USES.values():
            use(ctx)
            yield op.Compute(10, SIMPLE_RATES)
        assert ctx.now() < ctx.now()

    walk = walk_program(_specs(prog))
    assert walk.threads[0].walk_error == ""
    assert len(walk.threads[0]) == len(_CONTEXT_USES)


class TestWalking:
    def test_enumerates_ops_in_program_order(self):
        def prog(ctx):
            yield op.Compute(100, SIMPLE_RATES)
            yield op.Rdtsc()
            yield op.Syscall("getpid", ())

        walk = walk_program(_specs(prog))
        kinds = [type(o).__name__ for o in walk.threads[0].ops]
        assert kinds == ["Compute", "Rdtsc", "Syscall"]
        assert not walk.threads[0].walk_error

    def test_walks_are_deterministic(self):
        def prog(ctx):
            n = ctx.rng.randint(3, 7)
            for _ in range(n):
                yield op.Compute(10, SIMPLE_RATES)

        a = walk_program(_specs(prog), SimConfig(seed=9))
        b = walk_program(_specs(prog), SimConfig(seed=9))
        assert len(a.threads[0]) == len(b.threads[0])

    def test_slot_allocation_mirrors_vpmu(self):
        got = {}

        def prog(ctx):
            got["a"] = yield op.Syscall("pmc_open", (SlotSpec(Event.CYCLES),))
            got["b"] = yield op.Syscall(
                "pmc_open", (SlotSpec(Event.INSTRUCTIONS),)
            )
            yield op.Syscall("pmc_close", (got["a"],))
            got["c"] = yield op.Syscall("pmc_open", (SlotSpec(Event.LOADS),))

        walk_program(_specs(prog))
        # First-free allocation: slot 0, slot 1, then slot 0 again after
        # the close — exactly VirtualPmu's policy.
        assert (got["a"], got["b"], got["c"]) == (0, 1, 0)

    def test_exhausted_slots_get_fake_indices_not_a_crash(self):
        got = []

        def prog(ctx):
            for ev in (
                Event.CYCLES,
                Event.INSTRUCTIONS,
                Event.LOADS,
                Event.STORES,
                Event.BRANCHES,
            ):
                got.append((yield op.Syscall("pmc_open", (SlotSpec(ev),))))

        config = SimConfig(machine=MachineConfig(pmu=PmuConfig(n_counters=4)))
        walk = walk_program(_specs(prog), config)
        assert not walk.threads[0].walk_error
        assert got[:4] == [0, 1, 2, 3]
        assert got[4] >= 4  # out-of-range: the slot-usage pass flags it

    def test_spawned_threads_are_walked_with_engine_tids(self):
        def child(ctx):
            yield op.Compute(10, SIMPLE_RATES)

        seen = {}

        def parent(ctx):
            seen["tid"] = yield op.SpawnThread(child, "kid")
            yield op.JoinThread(seen["tid"])

        walk = walk_program(_specs(parent))
        assert walk.thread_names() == ["t0", "kid"]
        assert seen["tid"] == walk.threads[1].tid
        assert walk.threads[1].spawned_by == "t0"

    def test_generator_crash_is_captured_not_raised(self):
        def prog(ctx):
            yield op.Compute(10, SIMPLE_RATES)
            raise ValueError("boom")

        walk = walk_program(_specs(prog))
        assert "ValueError: boom" in walk.threads[0].walk_error
        assert walk.threads[0].walk_error_op == 1

    def test_runaway_program_is_truncated(self):
        def prog(ctx):
            while True:
                yield op.Compute(1, SIMPLE_RATES)

        walk = walk_program(_specs(prog), max_ops=50)
        assert walk.threads[0].truncated
        assert len(walk.threads[0]) == 51

    def test_real_session_code_walks_cleanly(self):
        """The walker must drive unmodified measurement-library code: a
        LimitSession's setup + reads complete without a walk error."""
        session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS])

        def prog(ctx):
            yield from session.setup(ctx)
            for _ in range(3):
                yield op.Compute(100, SIMPLE_RATES)
                yield from session.read(ctx, 0)

        walk = walk_program(_specs(prog))
        assert not walk.threads[0].walk_error
        assert any(
            isinstance(o, op.PmcSafeRead) for o in walk.threads[0].ops
        )
