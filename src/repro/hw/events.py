"""Hardware event catalog and event-rate descriptions.

Events are the microarchitectural occurrences a PMU counter can be programmed
to count. Workload phases describe how often each event fires via
:class:`EventRates` — integer events-per-million-cycles (ppm), which keeps the
whole accounting pipeline in exact integer arithmetic:

    events(c cycles) = (c_total * ppm) // 1_000_000   (as a running floor)

so splitting a phase at an arbitrary cycle boundary never loses or invents
events.

The engine keeps its event tallies packed: one Python int per tally with a
``LANE``-bit field per :class:`Event` (lane ``Event.index``, CYCLES in lane
0). Each :class:`EventRates` carries a packed multiplier ``packed``, and
:func:`events_at` turns a phase-relative cycle count into the running floor
of every event at once, so a window's events are one multiply-and-mask per
end. The floor by 10^6 is exact by Granlund and Montgomery's division by
invariant integers (PLDI 1994) for every ``cycles * ppm < 2**N``, which the
bounds ``ppm < 2**PPM_BITS`` (checked by ``EventRates``) and ``cycles <
2**CYCLE_BITS`` (checked by ``Compute``, the ``work`` syscall and
``CostModel``) guarantee.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.common.errors import ConfigError
from repro.common.units import per_kilo_instruction


class Event(enum.Enum):
    """Countable hardware events (a Nehalem-flavoured subset)."""

    CYCLES = "cycles"                      #: unhalted core cycles
    INSTRUCTIONS = "instructions"          #: instructions retired
    LLC_REFERENCES = "llc_references"      #: last-level cache accesses
    LLC_MISSES = "llc_misses"              #: last-level cache misses
    L2_MISSES = "l2_misses"
    L1D_MISSES = "l1d_misses"
    BRANCHES = "branches"                  #: branch instructions retired
    BRANCH_MISSES = "branch_misses"        #: mispredicted branches
    DTLB_MISSES = "dtlb_misses"
    ITLB_MISSES = "itlb_misses"
    STORES = "stores"
    LOADS = "loads"
    STALL_CYCLES = "stall_cycles"          #: cycles with no uop issued
    REMOTE_ACCESSES = "remote_accesses"    #: cross-socket memory accesses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event.{self.name}"

    # Members are singletons, so identity hashing is semantically identical
    # to Enum's default name-based hash — but resolves in C. Event objects
    # key the hottest dicts in the engine (per-thread event tallies), where
    # the Python-level default shows up in profiles.
    __hash__ = object.__hash__


# Dense event indices: Event.index is the event's lane in the engine's
# packed tallies (see events_at). CYCLES is index 0 by construction (first
# member), so lane 0 of a tally is its cycle count.
for _i, _e in enumerate(Event):
    _e.index = _i
N_EVENTS = len(Event)
assert Event.CYCLES.index == 0

#: Exactness bounds of the packed event arithmetic: every ppm rate is below
#: ``2**PPM_BITS`` and every cycle count (a phase, a syscall body, a cost)
#: below ``2**CYCLE_BITS``, so every product ``cycles * ppm`` is below
#: ``2**N``. A kernel path's window is a sum of a few costs, but its
#: ``KERNEL_RATES`` stay below ``2**20`` ppm, far inside the bound.
PPM_BITS = 32
CYCLE_BITS = 64
N = PPM_BITS + CYCLE_BITS
#: ``(x * MAGIC) >> SHIFT == x // 10**6`` for every ``0 <= x < 2**N``
#: (Granlund & Montgomery: ``2**20 >= 10**6`` and ``MAGIC * 10**6 - 2**SHIFT
#: <= 2**20``).
SHIFT = N + 20
MAGIC = -(-(1 << SHIFT) // 1_000_000)
#: Bits per event lane: a lane's product ``cycles * ppm * MAGIC`` is below
#: ``2**(2N + 1)``, so no lane carries into the next.
LANE = 2 * N + 1
LANE_MASK = (1 << LANE) - 1
#: The quotient bits of every lane (each lane's bits from SHIFT up).
KEEP = sum((LANE_MASK >> SHIFT << SHIFT) << (LANE * i) for i in range(N_EVENTS))
assert (1 << 20) >= 1_000_000 and MAGIC * 1_000_000 - (1 << SHIFT) <= 1 << 20
assert ((1 << N) - 1) * MAGIC < 1 << LANE
# Each event's lane of a packed tally is ``(tally & e.lane_mask) >>
# e.lane_shift``: masking first keeps the work to the lanes up to e's, where
# shifting first would copy the whole tally.
for _e in Event:
    _e.lane_shift = LANE * _e.index
    _e.lane_mask = LANE_MASK << _e.lane_shift


def events_at(packed: int, cycles: int) -> int:
    """The packed tally of every event's running floor after ``cycles``
    cycles of a phase whose rates have the packed multiplier ``packed``:
    lane ``e.index`` holds ``(cycles * ppm_e) // 1_000_000``, CYCLES lane 0
    holds ``cycles``. A window ``(before, after]`` fires ``events_at(packed,
    after) - events_at(packed, before)``. The engine inlines this on its
    accrual paths.
    """
    return ((cycles * packed) & KEEP) >> SHIFT


def lane(tally: int, event: Event) -> int:
    """The count of ``event`` in a packed tally."""
    return (tally & event.lane_mask) >> event.lane_shift


#: Dimension names used by event units (the base dimensions of the
#: analysis expression language's unit system, see repro.analysis.expr).
UNIT_CYCLES = "cycles"
UNIT_INSTRUCTIONS = "instructions"
UNIT_OCCURRENCES = "occurrences"


@dataclass(frozen=True)
class EventMeta:
    """Static metadata of one countable event.

    This table is the single source of truth the analysis checker
    (:mod:`repro.analysis.check`) validates metric expressions against:
    ``unit`` drives dimension checking (adding cycles to instructions is
    rule AN002), ``schedulable`` drives the multiplexing-hazard rule AN007
    (an expression may not need more simultaneously counted events than
    the PMU has programmable counters; a non-schedulable event could never
    be counted at all on this model).
    """

    unit: str        #: UNIT_CYCLES / UNIT_INSTRUCTIONS / UNIT_OCCURRENCES
    category: str    #: coarse grouping for reports (time/work/cache/...)
    #: whether the event can be programmed on any of the model's
    #: general-purpose counters. True for the whole Nehalem-flavoured
    #: subset (the model has no fixed-function-only events); kept explicit
    #: so a future model with fixed counters only flips table entries.
    schedulable: bool = True


#: The checker's event-metadata table. Every Event member has an entry
#: (asserted below); the attributes are also attached to the members
#: themselves (``Event.CYCLES.unit``) for convenient access.
EVENT_META: dict[Event, EventMeta] = {
    Event.CYCLES: EventMeta(UNIT_CYCLES, "time"),
    Event.INSTRUCTIONS: EventMeta(UNIT_INSTRUCTIONS, "work"),
    Event.LLC_REFERENCES: EventMeta(UNIT_OCCURRENCES, "cache"),
    Event.LLC_MISSES: EventMeta(UNIT_OCCURRENCES, "cache"),
    Event.L2_MISSES: EventMeta(UNIT_OCCURRENCES, "cache"),
    Event.L1D_MISSES: EventMeta(UNIT_OCCURRENCES, "cache"),
    # Branches retire as instructions, so branch/instruction mixes are
    # dimensionally coherent; a *misprediction* is a pipeline occurrence.
    Event.BRANCHES: EventMeta(UNIT_INSTRUCTIONS, "branch"),
    Event.BRANCH_MISSES: EventMeta(UNIT_OCCURRENCES, "branch"),
    Event.DTLB_MISSES: EventMeta(UNIT_OCCURRENCES, "tlb"),
    Event.ITLB_MISSES: EventMeta(UNIT_OCCURRENCES, "tlb"),
    Event.STORES: EventMeta(UNIT_INSTRUCTIONS, "memory"),
    Event.LOADS: EventMeta(UNIT_INSTRUCTIONS, "memory"),
    Event.STALL_CYCLES: EventMeta(UNIT_CYCLES, "pipeline"),
    Event.REMOTE_ACCESSES: EventMeta(UNIT_OCCURRENCES, "numa"),
}
assert set(EVENT_META) == set(Event)
for _e in Event:
    _e.unit = EVENT_META[_e].unit
    _e.category = EVENT_META[_e].category
    _e.schedulable = EVENT_META[_e].schedulable


class Domain(enum.Enum):
    """Privilege domain in which work executes. PMU counters can be
    configured to count in either or both domains (the USR/OS bits of the
    IA32_PERFEVTSEL MSRs)."""

    USER = "user"
    KERNEL = "kernel"

    # Same reasoning as Event.__hash__: members are singletons and key hot
    # plan-cache dicts; identity hashing resolves in C.
    __hash__ = object.__hash__


#: Cycles fire once per cycle by definition; its ppm rate is fixed.
CYCLES_PPM = 1_000_000


class EventRates(Mapping[Event, int]):
    """Immutable mapping of Event -> events-per-million-cycles.

    ``CYCLES`` may not appear: it is implicit (every cycle is a cycle).

    Construct either from raw ppm values or with the architecture-friendly
    :meth:`profile` constructor (IPC + per-kilo-instruction miss rates).
    """

    __slots__ = ("_ppm", "packed")

    def __init__(self, ppm: Mapping[Event, int] | None = None) -> None:
        clean: dict[Event, int] = {}
        for event, rate in (ppm or {}).items():
            if not isinstance(event, Event):
                raise ConfigError(f"event keys must be Event, got {event!r}")
            if event is Event.CYCLES:
                raise ConfigError("CYCLES is implicit and cannot be given a rate")
            if not isinstance(rate, int) or rate < 0:
                raise ConfigError(
                    f"rate for {event} must be a non-negative int ppm, got {rate!r}"
                )
            if rate >> PPM_BITS:
                raise ConfigError(
                    f"rate for {event} must be below 2**{PPM_BITS} ppm, got {rate!r}"
                )
            if rate:
                clean[event] = rate
        self._ppm = clean
        #: the packed multiplier of :func:`events_at`: every event's ppm in
        #: its lane (CYCLES_PPM in lane 0), times MAGIC. Computed once at
        #: construction (EventRates is immutable).
        self.packed = MAGIC * sum(
            [CYCLES_PPM] + [r << e.lane_shift for e, r in clean.items()]
        )

    @classmethod
    def profile(
        cls,
        ipc: float = 1.0,
        llc_mpki: float = 0.0,
        l2_mpki: float = 0.0,
        l1d_mpki: float = 0.0,
        branch_frac: float = 0.0,
        branch_miss_rate: float = 0.0,
        dtlb_mpki: float = 0.0,
        load_frac: float = 0.0,
        store_frac: float = 0.0,
        stall_frac: float = 0.0,
    ) -> "EventRates":
        """Build rates from the units architecture papers use.

        ``*_mpki`` are misses per kilo-instruction; ``branch_frac`` is the
        fraction of instructions that are branches; ``branch_miss_rate`` is
        the misprediction rate among branches; ``stall_frac`` the fraction of
        cycles stalled.
        """
        if ipc <= 0:
            raise ConfigError(f"IPC must be positive, got {ipc}")
        insn_ppm = round(ipc * 1_000_000)
        ppm: dict[Event, int] = {Event.INSTRUCTIONS: insn_ppm}

        def mpki(event: Event, value: float) -> None:
            if value:
                ppm[event] = per_kilo_instruction(value, ipc)

        mpki(Event.LLC_MISSES, llc_mpki)
        mpki(Event.L2_MISSES, l2_mpki)
        mpki(Event.L1D_MISSES, l1d_mpki)
        mpki(Event.DTLB_MISSES, dtlb_mpki)
        if llc_mpki:
            # References ~ 3x misses by default: a crude but stable inclusive
            # hierarchy assumption, enough for CPI-stack shapes.
            ppm[Event.LLC_REFERENCES] = per_kilo_instruction(llc_mpki * 3.0, ipc)
        if branch_frac:
            branches = round(insn_ppm * branch_frac)
            ppm[Event.BRANCHES] = branches
            if branch_miss_rate:
                ppm[Event.BRANCH_MISSES] = round(branches * branch_miss_rate)
        if load_frac:
            ppm[Event.LOADS] = round(insn_ppm * load_frac)
        if store_frac:
            ppm[Event.STORES] = round(insn_ppm * store_frac)
        if stall_frac:
            if not 0 <= stall_frac <= 1:
                raise ConfigError("stall_frac must be in [0,1]")
            ppm[Event.STALL_CYCLES] = round(stall_frac * 1_000_000)
        return cls(ppm)

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, event: Event) -> int:
        return self._ppm[event]

    def __iter__(self) -> Iterator[Event]:
        return iter(self._ppm)

    def __len__(self) -> int:
        return len(self._ppm)

    def items(self):
        """Direct view of the underlying dict.

        Overrides the ``Mapping`` mixin, which materialises an ItemsView
        that re-hashes every key through ``__getitem__``.

        Ordering guarantee: iteration yields ``(event, ppm)`` pairs in the
        insertion order of the mapping given at construction, with
        zero-rate entries dropped (``profile()`` inserts INSTRUCTIONS
        first, then miss/branch/load/store/stall entries in its fixed
        argument order). EventRates is immutable, so this order is stable
        for the lifetime of the object and identical to iteration over the
        mapping itself — fingerprints and cache keys may rely on it.
        """
        return self._ppm.items()

    def ppm(self, event: Event) -> int:
        """Rate for ``event`` in events-per-million-cycles (CYCLES -> 1e6)."""
        if event is Event.CYCLES:
            return CYCLES_PPM
        return self._ppm.get(event, 0)

    def __repr__(self) -> str:
        inner = ", ".join(f"{e.value}={r}" for e, r in sorted(
            self._ppm.items(), key=lambda kv: kv[0].value))
        return f"EventRates({inner})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventRates):
            return NotImplemented
        return self._ppm == other._ppm

    def __hash__(self) -> int:
        return hash(tuple(sorted((e.value, r) for e, r in self._ppm.items())))


#: Rates used for generic kernel-path work (syscall bodies, switches, PMIs).
#: Kernel code is branchy and cache-unfriendly relative to tuned user loops.
KERNEL_RATES = EventRates.profile(
    ipc=0.9,
    llc_mpki=4.0,
    l2_mpki=12.0,
    branch_frac=0.22,
    branch_miss_rate=0.05,
    dtlb_mpki=1.5,
    stall_frac=0.35,
)

#: Rates for userspace spin-wait loops: high IPC, no misses, all branches.
SPIN_RATES = EventRates.profile(ipc=1.8, branch_frac=0.5, branch_miss_rate=0.01)

#: Rates for straight-line measurement-library code (LiMiT/PAPI user parts).
LIBRARY_RATES = EventRates.profile(ipc=1.4, branch_frac=0.12, branch_miss_rate=0.02)

#: Rates of work that fires no event but CYCLES; the default of ``Compute``.
#: One shared object, because the PMU caches accrual plans per rates object.
ZERO_RATES = EventRates()


def events_in(cycles_before: int, cycles_after: int, ppm: int) -> int:
    """Exact number of events fired in ``(cycles_before, cycles_after]`` of a
    phase with rate ``ppm``, using the running-floor rule.

    >>> events_in(0, 1_000_000, 1_500_000)
    1500000
    >>> events_in(10, 20, 500_000)
    5
    """
    if cycles_after < cycles_before:
        raise ValueError("cycles_after must be >= cycles_before")
    return (cycles_after * ppm) // 1_000_000 - (cycles_before * ppm) // 1_000_000


def cycles_until_count(cycles_so_far: int, ppm: int, events_needed: int) -> int | None:
    """Smallest additional cycle count after which ``events_needed`` more
    events will have fired, or None if the rate is zero.

    Exact inverse of :func:`events_in`:

    >>> cycles_until_count(0, 1_000_000, 5)
    5
    >>> cycles_until_count(3, 500_000, 1)
    1
    """
    if events_needed <= 0:
        return 0
    if ppm <= 0:
        return None
    target = (cycles_so_far * ppm) // 1_000_000 + events_needed
    # smallest c_total with (c_total * ppm) // 1e6 >= target
    # <=> c_total * ppm >= target * 1e6  <=> c_total >= ceil(target*1e6/ppm)
    c_total = -((-target * 1_000_000) // ppm)
    return max(0, c_total - cycles_so_far)
