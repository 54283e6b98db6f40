"""repro.faults — deterministic fault injection for the PMU/read stack.

See :mod:`repro.faults.plan` for the plan model / DSL and
:mod:`repro.faults.injector` for the decision engine. ``docs/robustness.md``
documents the taxonomy and the detect-vs-miss semantics.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import (
        ALIGN_SLICE,
        AMPLIFY_SKID,
        BAILOUT_POINTS,
        BEFORE_CHECK,
        BETWEEN_LOADS,
        DELAY_SWAP,
        DROP_PMI,
        DUP_SWAP,
        FORCE_BAILOUT,
        FaultPlan,
        FaultSpec,
        KINDS,
        PREEMPT_IN_READ,
        READ_POINTS,
        REPEAT_PMI,
        SERVICE_KINDS,
        SHRINK_COUNTER,
        TIER_CRASH,
        TIER_ERROR,
        TIER_LATENCY,
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
    "ALIGN_SLICE": "plan",
    "AMPLIFY_SKID": "plan",
    "BAILOUT_POINTS": "plan",
    "BEFORE_CHECK": "plan",
    "BETWEEN_LOADS": "plan",
    "DELAY_SWAP": "plan",
    "DROP_PMI": "plan",
    "DUP_SWAP": "plan",
    "FORCE_BAILOUT": "plan",
    "FaultPlan": "plan",
    "FaultSpec": "plan",
    "KINDS": "plan",
    "PREEMPT_IN_READ": "plan",
    "READ_POINTS": "plan",
    "REPEAT_PMI": "plan",
    "SERVICE_KINDS": "plan",
    "SHRINK_COUNTER": "plan",
    "TIER_CRASH": "plan",
    "TIER_ERROR": "plan",
    "TIER_LATENCY": "plan",
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

__all__ = [
    "ALIGN_SLICE",
    "AMPLIFY_SKID",
    "BAILOUT_POINTS",
    "BEFORE_CHECK",
    "BETWEEN_LOADS",
    "DELAY_SWAP",
    "DROP_PMI",
    "DUP_SWAP",
    "FORCE_BAILOUT",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "KINDS",
    "PREEMPT_IN_READ",
    "READ_POINTS",
    "REPEAT_PMI",
    "SERVICE_KINDS",
    "SHRINK_COUNTER",
    "TIER_CRASH",
    "TIER_ERROR",
    "TIER_LATENCY",
    "amplify_skid",
    "delay_swap",
    "drop_pmi",
    "dup_swap",
    "force_bailout",
    "preempt_in_read",
    "repeat_pmi",
    "shrink_counter",
    "tier_crash",
    "tier_error",
    "tier_latency",
]
