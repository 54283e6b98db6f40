"""repro.faults — deterministic fault injection for the PMU/read stack.

See :mod:`repro.faults.plan` for the plan model / DSL,
:mod:`repro.faults.kinds` for the fault kind names and
:mod:`repro.faults.injector` for the decision engine. ``docs/robustness.md``
documents the taxonomy and the detect-vs-miss semantics.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.faults.kinds import (
        ALIGN_SLICE,
        AMPLIFY_SKID,
        DELAY_SWAP,
        DROP_PMI,
        DUP_SWAP,
        FORCE_BAILOUT,
        KINDS,
        PREEMPT_IN_READ,
        REPEAT_PMI,
        SERVICE_KINDS,
        SHRINK_COUNTER,
        TIER_CRASH,
        TIER_ERROR,
        TIER_LATENCY,
    )
    from repro.faults.plan import (
        BAILOUT_POINTS,
        BEFORE_CHECK,
        BETWEEN_LOADS,
        FaultPlan,
        FaultSpec,
        READ_POINTS,
        amplify_skid,
        delay_swap,
        drop_pmi,
        dup_swap,
        force_bailout,
        preempt_in_read,
        repeat_pmi,
        shrink_counter,
        tier_crash,
        tier_error,
        tier_latency,
    )

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "FaultInjector": "injector",
    "ALIGN_SLICE": "kinds",
    "AMPLIFY_SKID": "kinds",
    "BAILOUT_POINTS": "plan",
    "BEFORE_CHECK": "plan",
    "BETWEEN_LOADS": "plan",
    "DELAY_SWAP": "kinds",
    "DROP_PMI": "kinds",
    "DUP_SWAP": "kinds",
    "FORCE_BAILOUT": "kinds",
    "FaultPlan": "plan",
    "FaultSpec": "plan",
    "KINDS": "kinds",
    "PREEMPT_IN_READ": "kinds",
    "READ_POINTS": "plan",
    "REPEAT_PMI": "kinds",
    "SERVICE_KINDS": "kinds",
    "SHRINK_COUNTER": "kinds",
    "TIER_CRASH": "kinds",
    "TIER_ERROR": "kinds",
    "TIER_LATENCY": "kinds",
    "amplify_skid": "plan",
    "delay_swap": "plan",
    "drop_pmi": "plan",
    "dup_swap": "plan",
    "force_bailout": "plan",
    "preempt_in_read": "plan",
    "repeat_pmi": "plan",
    "shrink_counter": "plan",
    "tier_crash": "plan",
    "tier_error": "plan",
    "tier_latency": "plan",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
