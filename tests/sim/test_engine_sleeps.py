"""Two-piece sleeps: a Sleep's entry, body and block commit in its fetch
piece (``Engine._try_whole_sleep``), and a thread switched in before its
pending kernel exit phase runs that phase in the switch-in piece
(``Engine._try_resumed_exit``). The equivalence harness
(``tests/test_equivalence.py``) holds both equal to the stage machine;
these tests pin when each folds and why it bails."""

import collections

import pytest

from repro.hw.events import KERNEL_RATES, Domain
from repro.sim.engine import Engine, run_program
from repro.sim.ops import Sleep
from tests.equivalence import SOLO, SOLO_14, sleep_at_slice_end, sleeps_at_pmis


def _record_sleep_cases(monkeypatch):
    """Count the states ``_try_whole_sleep`` meets: a PMI due, an entry
    that ends at or past the slice end, and commits."""
    seen = collections.Counter()
    real = Engine._try_whole_sleep

    def recorded(engine, core, thread, ex):
        if core.pmi_due_at is not None:
            seen["pmi_due"] += 1
        elif core.now + engine._costs.syscall_entry >= core.slice_ends_at:
            seen["slice_end"] += 1
        whole = real(engine, core, thread, ex)
        seen["whole" if whole else "staged"] += 1
        return whole

    monkeypatch.setattr(Engine, "_try_whole_sleep", recorded)
    return seen


class TestTwoPieceSleeps:
    def test_pmi_due_at_the_sleep(self, monkeypatch):
        """A lone thread's 14-bit counter, zeroed at each switch-in, wraps
        near the end of some computes, so the next sleep is fetched with
        the PMI still due; others wrap inside the sleep's own kernel path.
        Both take the stage machine, each counted as its bail."""
        seen = _record_sleep_cases(monkeypatch)
        fast = run_program(sleeps_at_pmis().specs, SOLO_14)
        assert fast.kernel.n_pmis > 0
        assert seen["pmi_due"] > 0
        assert seen["staged"] > seen["pmi_due"]
        assert fast.metrics["whole_sleeps"] == seen["whole"] > 0
        bails = fast.metrics
        assert bails["fastpath_bailout.sleep.pmi_due"] == seen["pmi_due"]
        assert bails["fastpath_bailout.sleep.wrap"] > 0
        assert sum(
            n for key, n in bails.items()
            if key.startswith("fastpath_bailout.sleep.")
        ) == seen["staged"]

    @pytest.mark.parametrize("lead", [0, 1, 279, 280, 281, 5_000])
    def test_sleep_at_the_slice_end(self, lead):
        """A lone thread computes up to ``lead`` cycles before its slice
        ends, then sleeps. The fetch piece takes the sleep whole only when
        the entry (280 cycles) ends before the slice does, and bails on
        the slice otherwise; at ``lead`` 0 the tick runs first and the
        sleep starts a fresh slice."""
        entry = SOLO.machine.costs.syscall_entry
        program = sleep_at_slice_end(lead, SOLO.kernel.timeslice_cycles)
        fast = run_program(program.specs, SOLO)
        assert fast.metrics["whole_sleeps"] == int(lead == 0 or lead > entry)
        slice_bails = fast.metrics.get("fastpath_bailout.sleep.slice", 0)
        assert slice_bails == int(0 < lead <= entry)
        assert fast.metrics["resumed_exits"] == 1

    def test_a_yield_exit_keeps_its_own_piece(self):
        """A yield's exit reads the run queue, so a thread switched in
        before it does not run it in the switch-in piece; a sleep's exit
        does."""
        engine = Engine(SOLO)
        core = engine.machine.cores[0]
        def idle(ctx):
            yield from ()

        thread = engine._create_thread(idle, "t0", at=0)
        ex = thread.op_exec
        ex.op = Sleep(1_000)
        # the shared begin sets the slots the exit stage reads
        engine._begin_kernel_path(core, thread, ex, "sleep", 0, None)
        ex.set_phase(
            SOLO.machine.costs.syscall_exit, KERNEL_RATES, Domain.KERNEL, False
        )
        ex.stage = "exit"
        thread.cur = ex
        ex.adv = Engine._adv_yield
        assert not engine._try_resumed_exit(core, thread, ex, 2_400)
        assert thread.cur is ex and core.now == 0
        ex.adv = Engine._adv_syscall
        assert engine._try_resumed_exit(core, thread, ex, 2_400)
        assert thread.cur is None
        assert core.now == 2_400 + SOLO.machine.costs.syscall_exit
        assert engine._resumed_exits == 1
