"""A single W-bit hardware performance counter."""

from __future__ import annotations

from repro.common.errors import CounterError
from repro.hw.events import Domain, Event


class HardwareCounter:
    """One programmable PMU counter.

    Holds a raw W-bit value that wraps on overflow. Overflows are latched
    (and counted) so the PMI machinery can observe them; the kernel clears
    the latch when it services the interrupt.
    """

    __slots__ = (
        "width",
        "value",
        "event",
        "count_user",
        "count_kernel",
        "selection",
        "overflow_pending",
        "overflow_total",
        "on_reprogram",
        # weak-referenceable, so a test can show a dropped engine's
        # counters are freed
        "__weakref__",
    )

    def __init__(self, width: int) -> None:
        if not (8 <= width <= 64):
            raise CounterError(f"counter width must be in [8, 64], got {width}")
        self.width = width
        self.value = 0
        self.event: Event | None = None
        self.count_user = True
        self.count_kernel = False
        #: ``(event, count_user, count_kernel)`` while programmed, else
        #: None: this counter's part of the PMU's plan key.
        self.selection: tuple[Event, bool, bool] | None = None
        self.overflow_pending = 0   #: overflows latched since last service
        self.overflow_total = 0     #: lifetime overflow count (statistics)
        #: invalidation hook: called whenever the event selection changes so
        #: the owning PMU can drop cached accrual plans.
        self.on_reprogram: "object | None" = None

    @property
    def enabled(self) -> bool:
        """Whether an event is programmed (a programmed counter counts)."""
        return self.event is not None

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def threshold(self) -> int:
        return 1 << self.width

    def program(
        self,
        event: Event,
        count_user: bool = True,
        count_kernel: bool = False,
    ) -> None:
        """Program the event-select for this counter (wrmsr semantics)."""
        if not isinstance(event, Event):
            raise CounterError(f"not an Event: {event!r}")
        if not (count_user or count_kernel):
            raise CounterError("counter must count in at least one domain")
        self.event = event
        self.count_user = count_user
        self.count_kernel = count_kernel
        self.selection = (event, count_user, count_kernel)
        if self.on_reprogram is not None:
            self.on_reprogram()

    def deprogram(self) -> None:
        """Disable and forget the event selection."""
        self.event = None
        self.selection = None
        self.value = 0
        self.overflow_pending = 0
        if self.on_reprogram is not None:
            self.on_reprogram()

    def counts_in(self, domain: Domain) -> bool:
        """Whether this counter accrues events from the given domain."""
        if self.event is None:
            return False
        if domain is Domain.USER:
            return self.count_user
        return self.count_kernel

    def write(self, value: int) -> None:
        """Set the raw counter value (used for sampling preloads and the
        zero-on-context-switch-in done by counter virtualization)."""
        if value < 0 or value > self.mask:
            raise CounterError(
                f"value {value} out of range for {self.width}-bit counter"
            )
        self.value = value

    def read(self) -> int:
        """Current raw W-bit value (rdpmc semantics)."""
        return self.value

    def accrue(self, n: int) -> int:
        """Add ``n`` events; returns how many overflows occurred (usually 0
        or 1 — the engine splits work so multi-wrap is impossible unless the
        event rate exceeds one event per cycle times the counter period)."""
        if n < 0:
            raise CounterError(f"cannot accrue a negative event count: {n}")
        total = self.value + n
        wraps = total >> self.width
        self.value = total & self.mask
        if wraps:
            self.overflow_pending += wraps
            self.overflow_total += wraps
        return wraps

    def clear_overflow(self) -> int:
        """Service latched overflows; returns how many were pending."""
        pending = self.overflow_pending
        self.overflow_pending = 0
        return pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ev = self.event.value if self.event else "-"
        state = "on" if self.enabled else "off"
        return f"<Counter {ev} {state} value={self.value} w={self.width}>"
