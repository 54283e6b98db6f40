"""The fault kind names, apart from the plan model that uses them.

The engine and the service workload name kinds at their hook points; they
import this module, so a run without a fault plan never loads
:mod:`repro.faults.plan` or :mod:`repro.faults.injector`. The plan model
re-exports every name here.
"""

from __future__ import annotations

# -- fault kinds ------------------------------------------------------------
#: Forced preemption inside the read critical section (storms targeting the
#: safe/unsafe read protocols at a chosen vulnerable point).
PREEMPT_IN_READ = "preempt_in_read"
#: An overflow PMI delivery is lost. The hardware latch survives, so the
#: overflow is recovered at redelivery (``arg`` cycles later) or at the next
#: virtualization fold — the safe-read restart check sees it either way.
DROP_PMI = "drop_pmi"
#: A spurious second PMI right after a real one: extra handler cycles and,
#: mid-read, a spurious interruption flag (forcing a harmless restart).
REPEAT_PMI = "repeat_pmi"
#: PMI skid amplification: multiply the overflow-to-interrupt delay by
#: ``arg`` (>= 2), or with ``arg == ALIGN_SLICE`` stretch the skid so the
#: PMI lands on exactly the same cycle as the end of the current timeslice
#: (the PMI-meets-virtualization-swap collision).
AMPLIFY_SKID = "amplify_skid"
#: Delayed virtualization swap: the switch-out save path stalls ``arg``
#: extra kernel cycles while the outgoing thread's counters are still live.
DELAY_SWAP = "delay_swap"
#: Duplicated virtualization swap: the per-counter save path runs twice on
#: switch-out (the second fold must be idempotent — deprogrammed counters
#: read zero — or counts would be double-folded).
DUP_SWAP = "dup_swap"
#: Counter-width reduction mid-run: every hardware counter narrows to
#: ``arg`` bits at the next timer tick inside the trigger window, latching
#: the truncated high bits as overflows (so virtualization recovers them).
SHRINK_COUNTER = "shrink_counter"
#: Force the engine's fast paths (macro stepping / composite reads / spin
#: batching) to bail to their slow paths — fingerprint-invariant by the
#: fast paths' equivalence contract, used to diff fast vs slow under faults.
FORCE_BAILOUT = "force_bailout"

# -- service-level fault kinds (the resilience tier) ------------------------
#: Latency spike: every request served by the targeted tier while the spec
#: fires costs ``arg`` extra service cycles (slow dependency, GC pause, cold
#: cache). The tier's ``point`` selector names the tier ("" = any tier).
TIER_LATENCY = "tier_latency"
#: Error burst: calls *into* the targeted tier fail while the spec fires.
#: The caller sees the failure and must absorb it (retry / shed / breaker);
#: the detect ledger tracks whether it did.
TIER_ERROR = "tier_error"
#: Tier crash + restart: a worker of the targeted tier stops serving for
#: ``arg`` cycles (the outage window), then resumes — upstream queues back
#: up and admission/shedding must absorb the backlog.
TIER_CRASH = "tier_crash"

#: The workload-level (service chain) fault kinds. Unlike the PMU/kernel
#: kinds above they fire at *workload* hook points — the service chain in
#: :mod:`repro.workloads.service` consults the injector via
#: ``ThreadContext.service_fault`` — and their ``point`` field carries the
#: targeted *tier name* instead of a read/bailout point.
SERVICE_KINDS: frozenset[str] = frozenset({TIER_LATENCY, TIER_ERROR, TIER_CRASH})

KINDS: frozenset[str] = (
    frozenset(
        {
            PREEMPT_IN_READ,
            DROP_PMI,
            REPEAT_PMI,
            AMPLIFY_SKID,
            DELAY_SWAP,
            DUP_SWAP,
            SHRINK_COUNTER,
            FORCE_BAILOUT,
        }
    )
    | SERVICE_KINDS
)

#: AMPLIFY_SKID arg sentinel: land the PMI on the current slice boundary.
ALIGN_SLICE = -1
