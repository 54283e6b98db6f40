"""repro.resilience — deterministic resilience policies for service chains.

Composable, pure-state-machine implementations of the standard overload
defenses — token-bucket admission, queue-depth gates with priority load
shedding, bounded retries with seeded jittered backoff and a global retry
budget, and a count-based circuit breaker with half-open probing. Every
policy is driven exclusively by *simulated* time and seeded randomness, so
runs are bit-reproducible across hosts, process pools and streaming on/off
(the same determinism contract as :mod:`repro.faults`).

:mod:`repro.workloads.service` wires these around a multi-tier request
chain; ``docs/robustness.md`` documents the policy semantics and E20
measures them against the overload schedule.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.resilience.policies import (
        BREAKER_CLOSED,
        BREAKER_HALF_OPEN,
        BREAKER_OPEN,
        AdmissionGate,
        CircuitBreaker,
        RetryBudget,
        RetryPolicy,
        TokenBucket,
    )

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "BREAKER_CLOSED": "policies",
    "BREAKER_HALF_OPEN": "policies",
    "BREAKER_OPEN": "policies",
    "AdmissionGate": "policies",
    "CircuitBreaker": "policies",
    "RetryBudget": "policies",
    "RetryPolicy": "policies",
    "TokenBucket": "policies",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
