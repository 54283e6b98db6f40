"""The PAPI-like baseline: kernel-mediated precise counter reads.

Mirrors the era's PAPI-C stack: a userspace library call that traps into the
kernel, which collects the virtualized counter values and copies them out.
Precise (the kernel read is atomic) but ~1 us per read — the "heavyweight
kernel interaction" the abstract contrasts LiMiT against.

API-compatible with :class:`repro.core.limit.LimitSession` (setup /
read / read_all / teardown / records), so workloads and instrumented locks
can swap access techniques without changing their code.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.core.limit import LimitSession, _as_spec
from repro.hw.events import Event, LIBRARY_RATES
from repro.kernel.vpmu import SlotSpec
from repro.sim.ops import Compute, Syscall
from repro.sim.program import ThreadContext


def _papi_spec(entry: Event | SlotSpec, count_kernel: bool) -> SlotSpec:
    spec = _as_spec(entry, count_kernel)
    # PAPI counters live behind the kernel: no user-readable mapping.
    return SlotSpec(
        event=spec.event,
        count_user=spec.count_user,
        count_kernel=spec.count_kernel,
        mode="count",
        owner="papi",
        user_readable=False,
    )


class PapiLikeSession(LimitSession):
    """Precise counting via per-read syscalls (PAPI-class cost)."""

    def __init__(
        self,
        events: Iterable[Event | SlotSpec],
        count_kernel: bool = False,
        name: str = "papi",
    ) -> None:
        super().__init__(events, count_kernel=count_kernel, name=name)
        self.specs = [_papi_spec(s, count_kernel) for s in self.specs]

    def read(self, ctx: ThreadContext, i: int = 0) -> Generator[Any, Any, int]:
        """One kernel-mediated read: library dispatch + syscall."""
        idx = self._slot(ctx, i)
        yield Compute(ctx.costs.papi_user_overhead, LIBRARY_RATES)
        values = yield Syscall("papi_read", ((idx,),))
        value = values[0]
        self._record_kernel_read(ctx, idx, i, value)
        return value

    def read_all(self, ctx: ThreadContext) -> Generator[Any, Any, list[int]]:
        """Read every counter in one syscall (amortized, like
        PAPI_read of a full event set)."""
        indices = tuple(self._indices(ctx))
        yield Compute(ctx.costs.papi_user_overhead, LIBRARY_RATES)
        values = yield Syscall("papi_read", (indices,))
        for i, (idx, value) in enumerate(zip(indices, values)):
            self._record_kernel_read(ctx, idx, i, value)
        return list(values)

    # The userspace protocols make no sense against kernel-only slots.
    def read_safe(self, ctx, i=0):
        raise NotImplementedError("PAPI-like sessions read via the kernel")

    def read_unsafe(self, ctx, i=0):
        raise NotImplementedError("PAPI-like sessions read via the kernel")

    def read_destructive(self, ctx, i=0):
        raise NotImplementedError("PAPI-like sessions read via the kernel")

    def _record_kernel_read(
        self, ctx: ThreadContext, idx: int, i: int, value: int
    ) -> None:
        thread = ctx.thread()
        truth = thread.last_kernel_read_truth.get(idx, 0)
        self.records.add(
            ctx.tid,
            ctx.now_of(thread),
            idx,
            self.specs[i].event,
            value,
            truth,
            "papi",
        )
