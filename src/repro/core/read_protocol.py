"""The LiMiT userspace read protocols.

The three counter reads the paper's section on precise counter access
describes, expressed as simulator ops:

* the safe read (:meth:`repro.core.limit.LimitSession.read_safe`, one
  :class:`~repro.sim.ops.PmcSafeRead` op) — the LiMiT read: load the 64-bit
  virtual accumulator from the user-mapped page, ``rdpmc`` the live hardware
  counter, and sum. If the kernel preempted the thread (or delivered a PMI)
  anywhere inside the sequence, the accumulator and hardware value belong to
  different epochs, so the kernel flags the interruption and the sequence
  *restarts*. The result is always exact. The engine runs the micro-op
  sequence, restarts included, inside the one op.

* the unsafe read (:meth:`~repro.core.limit.LimitSession.read_unsafe`, one
  :class:`~repro.sim.ops.PmcUnsafeRead` op) — the same sequence without
  interruption detection. A few cycles cheaper, but a context switch
  between the two loads silently folds the hardware count into the
  accumulator and zeroes the counter, making the sum undercount by up to a
  full timeslice of events. Experiment E4 quantifies this.

* :func:`destructive_read` — the paper's proposed read-and-reset hardware
  instruction (enhancement E11b): a single instruction returns the
  virtualized delta since the previous destructive read; no accumulator
  load, no interruption window.

On a traced run the engine brackets each safe/unsafe read with
``pmc_read_begin``/``pmc_read_end`` events on the trace bus (the end
event's arg records whether the attempt survived without a restart), so
read-protocol behaviour is visible in trace summaries and Perfetto dumps
(see :mod:`repro.obs.trace`).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.common.config import CostModel
from repro.hw.events import LIBRARY_RATES
from repro.sim.ops import (
    BEFORE_CHECK,
    BETWEEN_LOADS,
    MAX_RESTARTS,
    READ_POINTS,
    Compute,
    RdpmcDestructive,
)

# Re-exported so protocol consumers can name the vulnerable points the fault
# injector can preempt (repro.faults targets these by name): BETWEEN_LOADS is
# the window between the accumulator load and the rdpmc, BEFORE_CHECK sits
# between the read-end marker and the restart-check evaluation.
__all__ = [
    "BEFORE_CHECK",
    "BETWEEN_LOADS",
    "MAX_RESTARTS",
    "READ_POINTS",
    "destructive_read",
]


def destructive_read(index: int, costs: CostModel) -> Generator[Any, Any, int]:
    """Read-and-reset: returns the delta since the previous destructive
    read of this slot. Requires no protection (single instruction)."""
    yield Compute(costs.pmc_call_overhead, LIBRARY_RATES)
    value = yield RdpmcDestructive(index)
    yield Compute(costs.pmc_store_result, LIBRARY_RATES)
    return value
