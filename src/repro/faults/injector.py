"""Fault-injection decision engine.

:class:`FaultInjector` owns the *decision* side of fault injection: given a
:class:`~repro.faults.plan.FaultPlan` it answers "does a fault of kind K fire
here?" (:meth:`fire`) and keeps the injected/detected/missed bookkeeping the
manifests report. It deliberately knows nothing about the engine — all state
mutation (forcing a switch-out, re-arming a PMI, narrowing a counter) happens
at the engine's hook points, which consult the injector and then act. ``core``
and ``thread`` arguments are duck-typed: the injector only reads ``core.now``,
``thread.name`` and ``thread.tid``.

Decision determinism: selection depends only on the plan and on simulated
state (cycle counts, match ordinals, a :class:`~repro.common.rng.RandomStream`
seeded from ``plan.seed``), never on tracing, wall time, or host identity.

Detect-vs-miss semantics (the numbers ``fault_summary()`` reports):

* *detected* — the protocol noticed the hazard: a safe read whose restart
  check failed after an injected preemption, or a dropped PMI whose latched
  overflow was later recovered (redelivery or virtualization fold).
* *missed* — the hazard produced (or would produce) a silent mismeasurement:
  an unsafe read preempted mid-sequence, or a safe read that completed
  *without* restarting despite an injected preemption (a protocol bug —
  e17 asserts this count stays zero).
* Timing-only kinds (skid amplification, swap delay/duplication, width
  shrink, forced bailouts, repeated PMIs) count as injected only: they are
  perturbations the protocol must absorb, not hazards it must flag.
"""

from __future__ import annotations

from repro.common.rng import RandomStream
from repro.faults.plan import (
    FORCE_BAILOUT,
    FaultPlan,
    FaultSpec,
    PREEMPT_IN_READ,
    SERVICE_KINDS,
    SHRINK_COUNTER,
)


class FaultInjector:
    """Stateful per-run decision engine for one :class:`FaultPlan`."""

    __slots__ = (
        "plan",
        "_specs",
        "_by_kind",
        "_match_counts",
        "_fired_counts",
        "_rngs",
        "injected",
        "detected",
        "missed",
        "_dropped_pending",
        "_read_hazards",
        "_service_pending",
        "reads_armed",
        "tick_armed",
    )

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._specs = tuple(plan.specs)
        by_kind: dict[str, list[int]] = {}
        for i, spec in enumerate(self._specs):
            by_kind.setdefault(spec.kind, []).append(i)
        self._by_kind = {k: tuple(v) for k, v in by_kind.items()}
        self._match_counts = [0] * len(self._specs)
        self._fired_counts = [0] * len(self._specs)
        self._rngs: dict[int, RandomStream] = {}
        self.injected: dict[str, int] = {}
        self.detected = 0
        self.missed = 0
        # Per-core count of dropped-PMI overflows not yet recovered.
        self._dropped_pending: dict[int, int] = {}
        # tid -> outstanding injected read-preemption awaiting its safe-read
        # restart-check verdict.
        self._read_hazards: dict[int, int] = {}
        # kind -> fired service faults the workload has not yet resolved
        # (absorbed by a policy or flushed to missed at run teardown).
        self._service_pending: dict[str, int] = {}
        # Arming flags the engine checks on its fast paths: whenever read
        # faults are armed the composite-read fast path must bail (so traced
        # and untraced runs take the same stage-machine path), and whenever a
        # tick-triggered fault can still fire macro stepping must bail (macro
        # steps skip _timer_tick); ``fire`` clears it once every
        # shrink_counter spec has spent its max_injections.
        self.reads_armed = any(
            s.kind == PREEMPT_IN_READ
            or (s.kind == FORCE_BAILOUT and s.point in ("", "fast_read"))
            for s in self._specs
        )
        self.tick_armed = self._any_unspent(SHRINK_COUNTER)

    def _any_unspent(self, kind: str) -> bool:
        """Whether some ``kind`` spec has not spent its max_injections."""
        fired = self._fired_counts
        return any(
            self._specs[i].max_injections is None
            or fired[i] < self._specs[i].max_injections
            for i in self._by_kind.get(kind, ())
        )

    # -- the one decision entry point --------------------------------------

    def fire(
        self,
        kind: str,
        core,
        thread=None,
        protocol: str = "",
        point: str = "",
    ) -> FaultSpec | None:
        """Return the spec that fires a ``kind`` fault here, or ``None``.

        Specs are consulted in plan order; filters (window / thread /
        protocol / point) decide whether a spec *matches* at all, and only
        matches advance its occurrence counter. A matching spec then fires
        according to nth / every / max_injections / probability; the first
        spec to fire wins.
        """
        indices = self._by_kind.get(kind)
        if not indices:
            return None
        now = core.now
        name = thread.name if thread is not None else ""
        for i in indices:
            spec = self._specs[i]
            if spec.window is not None and not (
                spec.window[0] <= now < spec.window[1]
            ):
                continue
            if spec.thread and spec.thread != name:
                continue
            # A set selector must match the hook's report; FaultSpec
            # validation guarantees protocol/point are only set on kinds
            # whose hooks supply them, so there is no "caller passed
            # nothing" case to special-case here.
            if spec.protocol and spec.protocol != protocol:
                continue
            if spec.point and spec.point != point:
                continue
            self._match_counts[i] += 1
            n = self._match_counts[i]
            if spec.nth is not None:
                if n != spec.nth:
                    continue
            elif n % spec.every != 0:
                continue
            if (
                spec.max_injections is not None
                and self._fired_counts[i] >= spec.max_injections
            ):
                continue
            if spec.probability < 1.0:
                rng = self._rngs.get(i)
                if rng is None:
                    rng = RandomStream(self.plan.seed, "fault", i, spec.kind)
                    self._rngs[i] = rng
                if not rng.bernoulli(spec.probability):
                    continue
            self._fired_counts[i] += 1
            self.injected[kind] = self.injected.get(kind, 0) + 1
            if kind == SHRINK_COUNTER:
                self.tick_armed = self._any_unspent(kind)
            if kind in SERVICE_KINDS:
                # Service faults open a ledger entry the workload must
                # close (resolve_service_fault) — an unresolved entry at
                # teardown is a miss: the resilience policies never saw it.
                self._service_pending[kind] = (
                    self._service_pending.get(kind, 0) + 1
                )
            return spec
        return None

    # -- detect / miss bookkeeping ------------------------------------------

    def note_read_hazard(self, tid: int, protocol: str) -> None:
        """An injected preemption landed inside a read critical section."""
        if protocol == "safe":
            self._read_hazards[tid] = self._read_hazards.get(tid, 0) + 1
        else:
            # Unsafe reads have no restart check: the mismeasurement is
            # silent by construction.
            self.missed += 1

    def resolve_safe_check(self, tid: int, check_passed: bool) -> None:
        """The safe read's restart check ran for ``tid``.

        ``check_passed`` means the read saw no interruption and completed.
        With an injected preemption outstanding that is a *miss* (the
        protocol failed to notice); a failed check (restart) is a *detect*.
        """
        pending = self._read_hazards.pop(tid, 0)
        if not pending:
            return
        if check_passed:
            self.missed += pending
        else:
            self.detected += pending

    def resolve_service_fault(self, kind: str, absorbed: bool = True) -> None:
        """The workload handled one fired service fault of ``kind``.

        ``absorbed`` means a resilience policy accounted for the fault
        (retry succeeded, request was shed/timed out explicitly, breaker
        short-circuited, outage was served after restart); ``False`` means
        the fault escaped the policies (silent corruption of a response,
        an unhandled error path) and counts as a miss.
        """
        pending = self._service_pending.get(kind, 0)
        if pending <= 0:
            return
        if pending == 1:
            del self._service_pending[kind]
        else:
            self._service_pending[kind] = pending - 1
        if absorbed:
            self.detected += 1
        else:
            self.missed += 1

    def flush_service_pending(self) -> int:
        """Convert every unresolved service fault into a miss (run teardown).

        Returns how many were flushed; E20's full-policy arm asserts zero.
        """
        n = sum(self._service_pending.values())
        if n:
            self.missed += n
            self._service_pending.clear()
        return n

    def note_dropped_pmi(self, core_id: int) -> None:
        self._dropped_pending[core_id] = self._dropped_pending.get(core_id, 0) + 1

    def note_overflow_recovered(self, core_id: int) -> int:
        """Latched overflows were applied on ``core_id``; any outstanding
        dropped PMIs there are now recovered (detected). Returns how many."""
        n = self._dropped_pending.pop(core_id, 0)
        if n:
            self.detected += n
        return n

    # -- reporting ----------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

