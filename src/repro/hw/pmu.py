"""The per-core performance monitoring unit.

Holds the programmable counters, the userspace-read-enable bit (the CR4.PCE
analog that the LiMiT kernel patch sets), and the cached accrual plans that
the engine's accounting (``EngineBase._account``) charges counters through.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable

from repro.common.config import PmuConfig
from repro.common.errors import CounterError
from repro.hw.counter import HardwareCounter
from repro.hw.events import Domain, EventRates

#: Module global: cheaper to load than ``Domain.USER`` on the per-piece path.
_USER = Domain.USER

#: One cached accrual-plan entry: ``(rates, plan, frames)`` (see
#: :meth:`Pmu.plan_entry`).
PlanEntry = tuple[
    EventRates,
    tuple[tuple[int, HardwareCounter, int, int], ...],
    dict[int | tuple[int, ...], Any],
]


class Pmu:
    """Performance monitoring unit of one core."""

    def __init__(self, config: PmuConfig) -> None:
        self.config = config
        self.counters = [
            HardwareCounter(config.effective_width) for _ in range(config.n_counters)
        ]
        #: Whether userspace rdpmc is permitted (CR4.PCE). Off on an
        #: unpatched kernel: a user-mode rdpmc then faults.
        self.user_rdpmc_enabled = False
        #: observability hook: called with the counter index when a counter
        #: wraps during accrual. Installed by the engine only when tracing.
        self.on_overflow: Callable[[int], None] | None = None
        #: accrual-plan caches for the *current* counter programming, one per
        #: domain, keyed id(rates). Each entry is ``(rates, plan, frames)``:
        #: the rates object (kept so an id can never be recycled while its
        #: entry is live), the flat accrual plan, and a dict the engine fills
        #: with frame recipes (fixed runs of sub-phases of the one-piece
        #: commits) keyed by their tuple of sub-phase lengths. The frames
        #: die with their entry.
        self._plans_user: dict[int, PlanEntry] = {}
        self._plans_kernel: dict[int, PlanEntry] = {}
        #: per-programming-signature plan sets. Counter virtualization
        #: reprograms the same specs on every context switch; keying the plan
        #: dicts by the signature (each counter's ``selection``) means an
        #: identical reprogramming swaps the same dicts back in, so plan
        #: entries (and the frames on them) survive for the whole run.
        self._plans_sig = self._unprogrammed_sig()
        self._plan_sets: dict[tuple, tuple[dict, dict]] = {
            self._plans_sig: (self._plans_user, self._plans_kernel)
        }
        self._plans_dirty = False
        # The counters reach this PMU through a weak reference: a bound
        # method would put the PMU in a reference cycle with its counters,
        # so a dropped engine's PMUs (and the frames on their plan
        # entries) would wait for the cycle collector.
        pmu = weakref.ref(self)

        def invalidate_plans() -> None:
            owner = pmu()
            if owner is not None:
                owner._plans_dirty = True

        for ctr in self.counters:
            ctr.on_reprogram = invalidate_plans

    def flush_plans(self) -> None:
        """Drop every cached accrual plan and plan set.

        Needed when counter *geometry* changes out from under the signature
        key — the signature only covers (index, event, domains), so a
        mid-run width change (fault injection's shrink_counter) would
        otherwise swap stale-mask plans back in on the next reprogram. The
        frames on the dropped entries, which embed the same masks, go with
        them.
        """
        self._plans_user = {}
        self._plans_kernel = {}
        self._plans_sig = self._unprogrammed_sig()
        self._plan_sets = {self._plans_sig: (self._plans_user, self._plans_kernel)}
        self._plans_dirty = True

    def _unprogrammed_sig(self) -> tuple[None, ...]:
        return (None,) * len(self.counters)

    def _resolve_plans(self) -> None:
        """Swap in the plan dicts matching the current counter programming.

        A switch-out/switch-in pair deprograms and reprograms the same
        specs, so the signature usually comes back unchanged and the plan
        set in use is kept.
        """
        self._plans_dirty = False
        sig = tuple([ctr.selection for ctr in self.counters])
        if sig == self._plans_sig:
            return
        sets = self._plan_sets.get(sig)
        if sets is None:
            sets = self._plan_sets[sig] = ({}, {})
        self._plans_user, self._plans_kernel = sets
        self._plans_sig = sig

    def plan_entry(self, rates: EventRates, domain: Domain) -> PlanEntry:
        """The cached ``(rates, plan, frames)`` entry of a (rates, domain)
        phase under the current counter programming.

        ``plan`` is the flat accrual plan: one ``(index, counter, ppm,
        mask)`` entry per enabled counter that counts in ``domain`` with a
        non-zero rate (CYCLES counters at 1e6 ppm), ``()`` when none does.
        It is computed once per distinct rates object per programming
        signature, so the per-chunk accounting path iterates a short tuple
        instead of re-filtering every counter against every rate. Thread
        and region tallies do not go through the plan: they take the rates'
        packed multiplier (:attr:`EventRates.packed`). ``frames`` starts
        empty; the engine memoizes the frame recipes of its one-piece
        commits there (:func:`repro.sim.base._frame`), keyed by their
        tuple of sub-phase cycles.
        """
        if self._plans_dirty:
            self._resolve_plans()
        cache = self._plans_user if domain is _USER else self._plans_kernel
        entry = cache.get(id(rates))
        if entry is None:
            rate_of = rates.ppm
            plan = tuple(
                (index, ctr, rate_of(ctr.event), ctr.mask)
                for index, ctr in enumerate(self.counters)
                if ctr.counts_in(domain) and rate_of(ctr.event) > 0
            )
            entry = cache[id(rates)] = (rates, plan, {})
        return entry

    def counter(self, index: int) -> HardwareCounter:
        if not 0 <= index < len(self.counters):
            raise CounterError(
                f"counter index {index} out of range (PMU has {len(self.counters)})"
            )
        return self.counters[index]

    def rdpmc(self, index: int, from_user: bool) -> int:
        """Read a counter the way the rdpmc instruction does.

        Raises CounterError (standing in for #GP) if executed from user mode
        without the enable bit — this is exactly what the LiMiT kernel patch
        changes.
        """
        if from_user and not self.user_rdpmc_enabled:
            raise CounterError(
                "userspace rdpmc faulted: kernel has not enabled CR4.PCE "
                "(LiMiT kernel patch not applied?)"
            )
        return self.counter(index).read()

    def pending_overflow_indices(self) -> list[int]:
        """Counters with latched, unserviced overflows."""
        return [i for i, c in enumerate(self.counters) if c.overflow_pending]
