"""Per-thread virtualized PMU state — the heart of the LiMiT kernel patch.

Each thread owns up to ``n`` *virtual counter slots* (n = physical counters).
While the thread is scheduled, each active slot is backed by the physical
counter with the same index; the kernel:

* on switch-in: programs the physical counter and zeroes it,
* on switch-out: folds the physical value into the slot's 64-bit
  accumulator (``vaccum``) and deprograms the counter,
* on overflow PMI of a counting slot: adds 2^W to the accumulator (the
  hardware value has wrapped and keeps counting).

The user-visible virtual value at any instant while running is therefore
``vaccum[i] + hw[i]`` — which is exactly what the LiMiT userspace read
sequence computes, and why it is only correct if not interrupted between the
two loads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import CounterError
from repro.hw.events import Event


@dataclass(frozen=True)
class SlotSpec:
    """Configuration of one virtual counter slot."""

    event: Event
    count_user: bool = True
    count_kernel: bool = False
    #: 'count' for 64-bit virtualized counting (LiMiT / perf counting mode),
    #: 'sample' for overflow-sampling with a preload period.
    mode: str = "count"
    period: int = 0          #: sampling period in events (mode='sample')
    owner: str = "limit"     #: which facility allocated the slot
    #: whether the slot's accumulator page is mapped user-readable (LiMiT
    #: slots are; perf counting slots require a read() syscall).
    user_readable: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("count", "sample"):
            raise CounterError(f"bad slot mode {self.mode!r}")
        if self.mode == "sample" and self.period <= 0:
            raise CounterError("sampling slots need a positive period")
        if not (self.count_user or self.count_kernel):
            raise CounterError("slot must count at least one domain")


@dataclass
class MuxState:
    """Kernel state of a multiplexed event group on one physical slot.

    Models perf_event's timer-driven rotation: one event of the group is
    live at a time; the others' counts are estimates scaled by
    enabled-time/total-time — the imprecision source LiMiT avoids by
    refusing to multiplex.
    """

    slot: int
    specs: list[SlotSpec]
    truth_base: list[int]
    active: int = 0
    counts: list[int] = None  # type: ignore[assignment]
    enabled_cpu: list[int] = None  # type: ignore[assignment]
    active_since_cpu: int = 0
    total_cpu_base: int = 0
    rotations: int = 0

    def __post_init__(self) -> None:
        if not self.specs:
            raise CounterError("multiplex group needs at least one event")
        if self.counts is None:
            self.counts = [0] * len(self.specs)
        if self.enabled_cpu is None:
            self.enabled_cpu = [0] * len(self.specs)


class VirtualPmu:
    """The virtual counter slots of one thread."""

    def __init__(self, n_slots: int) -> None:
        self.slots: list[SlotSpec | None] = [None] * n_slots
        self.vaccum: list[int] = [0] * n_slots
        #: samples taken per slot (statistics)
        self.sample_counts: list[int] = [0] * n_slots

    def allocate(self, spec: SlotSpec) -> int:
        """Allocate the first free slot; returns its index.

        Raises CounterError when all physical counters are spoken for — the
        model does not multiplex (the paper discusses multiplexing as one of
        the precision problems of existing interfaces, so LiMiT refuses it).
        """
        for i, slot in enumerate(self.slots):
            if slot is None:
                self.slots[i] = spec
                self.vaccum[i] = 0
                self.sample_counts[i] = 0
                return i
        raise CounterError(
            f"no free counter slot (all {len(self.slots)} in use); "
            "the model does not multiplex counters"
        )

    def free(self, index: int) -> None:
        self.spec(index)  # validates
        self.slots[index] = None
        self.vaccum[index] = 0

    def spec(self, index: int) -> SlotSpec:
        if not 0 <= index < len(self.slots):
            raise CounterError(f"bad slot index {index}")
        spec = self.slots[index]
        if spec is None:
            raise CounterError(f"slot {index} is not allocated")
        return spec

    def active_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.slots) if s is not None]

    def read_accumulator(self, index: int) -> int:
        """The user-page accumulator load (LoadVAccum op semantics)."""
        spec = self.spec(index)
        if not spec.user_readable:
            raise CounterError(
                f"slot {index} accumulator is not mapped user-readable "
                f"(owner={spec.owner})"
            )
        return self.vaccum[index]

    def fold(self, index: int, hw_value: int) -> None:
        """Fold a physical counter value into the slot accumulator — the
        switch-out half of virtualization. A fold of a deprogrammed (zeroed)
        counter is a no-op, which is what makes a duplicated swap benign."""
        self.vaccum[index] += hw_value

