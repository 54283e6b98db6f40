"""The fault-injection plan model: *what* to break, *when*, and *how*.

A :class:`FaultPlan` is a frozen, picklable, deterministically-repr'd value
(it rides inside :class:`~repro.common.config.SimConfig`, so it is part of
the result-cache key) holding an ordered tuple of :class:`FaultSpec`\\ s.
Each spec pairs a *trigger predicate* over simulation state — a cycle
window, a thread name, a read protocol/point, nth-occurrence / every-kth
selection, an optional seeded probability — with one *fault kind* and its
kind-specific ``arg``.

The specs only *describe* faults; all mechanics live in
:mod:`repro.faults.injector` (decision bookkeeping) and the engine's hook
points (state mutation). Determinism contract: given the same plan and the
same simulated execution, the same injections fire at the same simulated
cycles — regardless of tracing, process boundaries or host machine
(probabilistic specs draw from a :class:`~repro.common.rng.RandomStream`
derived from ``plan.seed``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.faults.kinds import (  # noqa: F401 - re-exported
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
from repro.sim.ops import BEFORE_CHECK, BETWEEN_LOADS, READ_POINTS  # noqa: F401

#: Fast paths a FORCE_BAILOUT spec may target via its ``point`` field
#: ("" targets all three).
BAILOUT_POINTS: tuple[str, ...] = ("macro", "fast_read", "spin")


@dataclass(frozen=True)
class FaultSpec:
    """One trigger predicate plus one fault action.

    Selection fields (all optional, AND-ed together):

    * ``window`` — fire only while ``start <= core.now < end``;
    * ``thread`` — fire only for this thread name ("" = any);
    * ``protocol`` — for read faults, "safe" / "unsafe" ("" = both);
    * ``point`` — read vulnerable point or bailout target ("" = default);
    * ``nth`` — fire on exactly the nth matching occurrence (1-based),
      otherwise ``every`` fires on every kth match;
    * ``max_injections`` — stop after this many firings;
    * ``probability`` — seeded coin flip on each otherwise-firing match.
    """

    kind: str
    window: tuple[int, int] | None = None
    thread: str = ""
    protocol: str = ""
    point: str = ""
    nth: int | None = None
    every: int = 1
    max_injections: int | None = None
    probability: float = 1.0
    arg: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; known: {sorted(KINDS)}"
            )
        if self.window is not None:
            start, end = self.window
            if start < 0 or end <= start:
                raise ConfigError(f"bad fault window {self.window!r}")
        if self.every < 1:
            raise ConfigError(f"fault 'every' must be >= 1, got {self.every}")
        if self.nth is not None and self.nth < 1:
            raise ConfigError(f"fault 'nth' must be >= 1, got {self.nth}")
        if self.max_injections is not None and self.max_injections < 1:
            raise ConfigError("fault max_injections must be >= 1")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.protocol not in ("", "safe", "unsafe"):
            raise ConfigError(f"bad fault protocol {self.protocol!r}")
        if self.protocol and self.kind != PREEMPT_IN_READ:
            # Only the read-hazard hook reports a protocol; a protocol
            # selector on any other kind would never match and the spec
            # would be silently inert.
            raise ConfigError(
                f"fault kind {self.kind!r} takes no protocol selector"
            )
        if self.kind == PREEMPT_IN_READ:
            if self.point not in ("",) + READ_POINTS:
                raise ConfigError(
                    f"bad read point {self.point!r}; known: {READ_POINTS}"
                )
        elif self.kind == FORCE_BAILOUT:
            if self.point not in ("",) + BAILOUT_POINTS:
                raise ConfigError(
                    f"bad bailout point {self.point!r}; known: {BAILOUT_POINTS}"
                )
        elif self.kind in SERVICE_KINDS:
            # ``point`` is a tier name here ("" = any tier). Whether the
            # name actually matches a tier in the workload is a *static*
            # question repro.lint answers (ML012); the spec itself only
            # rejects names that could never be tier identifiers.
            if self.point and not self.point.replace("_", "").isalnum():
                raise ConfigError(
                    f"bad tier selector {self.point!r} for {self.kind!r}: "
                    "tier names are alphanumeric/underscore identifiers"
                )
        elif self.point:
            raise ConfigError(f"fault kind {self.kind!r} takes no point")
        if self.kind == SHRINK_COUNTER and not 8 <= self.arg <= 63:
            raise ConfigError(
                f"shrink_counter arg is the new width, must be in [8, 63], "
                f"got {self.arg}"
            )
        if self.kind == AMPLIFY_SKID and self.arg != ALIGN_SLICE and self.arg < 2:
            raise ConfigError(
                "amplify_skid arg must be a multiplier >= 2 or ALIGN_SLICE"
            )
        if self.kind in (DROP_PMI, DELAY_SWAP) and self.arg < 0:
            raise ConfigError(f"{self.kind} arg (cycles) must be >= 0")
        if self.kind in (TIER_LATENCY, TIER_CRASH) and self.arg < 1:
            raise ConfigError(
                f"{self.kind} arg (cycles) must be >= 1, got {self.arg}"
            )
        if self.kind == TIER_ERROR and self.arg != 0:
            raise ConfigError("tier_error takes no arg")
        if (
            self.kind == PREEMPT_IN_READ
            and self.protocol != "unsafe"
            and self.every == 1
            and self.nth is None
            and self.max_injections is None
            and self.probability >= 1.0
        ):
            # Every restart of a safe read re-enters the vulnerable window,
            # so a fire-on-every-occurrence storm preempts the retry too and
            # the read can never complete (it would run into MAX_RESTARTS).
            raise ConfigError(
                "unbounded every-occurrence preemption storm against the "
                "safe read protocol cannot terminate; bound it with "
                "every>=2, nth, max_injections, or probability<1 "
                "(or target protocol='unsafe')"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault specs plus the seed for probabilistic ones."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)


# -- spec builders (the plan DSL used by e17 and docs/robustness.md) --------


def preempt_in_read(
    point: str = BETWEEN_LOADS, protocol: str = "", **sel
) -> FaultSpec:
    """Forced preemption at a read-protocol vulnerable point."""
    return FaultSpec(PREEMPT_IN_READ, point=point, protocol=protocol, **sel)


def drop_pmi(redelivery: int = 2_000, **sel) -> FaultSpec:
    """Lose a PMI delivery; the latched overflow redelivers ``redelivery``
    cycles later (0 = only recovered at the next virtualization fold)."""
    return FaultSpec(DROP_PMI, arg=redelivery, **sel)


def repeat_pmi(**sel) -> FaultSpec:
    """Spuriously repeat a just-serviced PMI."""
    return FaultSpec(REPEAT_PMI, **sel)


def amplify_skid(factor: int = 16, **sel) -> FaultSpec:
    """Multiply PMI skid by ``factor`` (or pass ``ALIGN_SLICE``)."""
    return FaultSpec(AMPLIFY_SKID, arg=factor, **sel)


def delay_swap(cycles: int = 600, **sel) -> FaultSpec:
    """Stall the switch-out save path by ``cycles`` kernel cycles."""
    return FaultSpec(DELAY_SWAP, arg=cycles, **sel)


def dup_swap(**sel) -> FaultSpec:
    """Run the switch-out save path twice."""
    return FaultSpec(DUP_SWAP, **sel)


def shrink_counter(width: int, max_injections: int | None = 1, **sel) -> FaultSpec:
    """Narrow every hardware counter to ``width`` bits (default: once)."""
    return FaultSpec(SHRINK_COUNTER, arg=width, max_injections=max_injections, **sel)


def force_bailout(point: str = "", **sel) -> FaultSpec:
    """Force fast-path bailouts ("" = macro + fast_read + spin)."""
    return FaultSpec(FORCE_BAILOUT, point=point, **sel)


def tier_latency(tier: str = "", extra: int = 50_000, **sel) -> FaultSpec:
    """Latency spike: +``extra`` service cycles per request at ``tier``."""
    return FaultSpec(TIER_LATENCY, point=tier, arg=extra, **sel)


def tier_error(tier: str = "", **sel) -> FaultSpec:
    """Error burst: calls into ``tier`` fail while the spec fires."""
    return FaultSpec(TIER_ERROR, point=tier, **sel)


def tier_crash(tier: str = "", outage: int = 2_000_000, **sel) -> FaultSpec:
    """Crash/restart: a ``tier`` worker stops serving for ``outage`` cycles."""
    return FaultSpec(TIER_CRASH, point=tier, arg=outage, **sel)
