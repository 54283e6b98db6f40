"""Multi-tier service chains with composable resilience policies.

An open-loop request stream flows through a chain of simulated services
(edge -> app -> db by default): every tier is a bounded queue plus a pool
of worker threads, and every hop is governed by the deterministic policy
state machines in :mod:`repro.resilience` — admission control (token
bucket + priority queue-depth gate), per-tier staleness timeouts, bounded
retries under a global retry budget with seeded jittered backoff, and a
count-based circuit breaker with half-open probing. Arms of the E20
policy matrix are just :class:`PolicyConfig` presets over the same chain.

Service-level faults (:data:`repro.faults.plan.TIER_LATENCY` /
``TIER_ERROR`` / ``TIER_CRASH``) target tiers by name through the fault
DSL: tier workers probe :meth:`ThreadContext.service_fault` on the serve
path and resolve every firing back into the injector's detect/miss
ledger, so an E20 run can prove each injected tier fault was absorbed.

Time is measured the LiMiT way, as in :mod:`repro.workloads.traffic`:
each thread derives a wall-clock estimate from safe PMC reads of a
user+kernel CYCLES counter plus its own sleep ledger, disciplined against
``rdtsc`` periodically — and re-anchored after blocking queue waits,
which freeze the counter for a duration the thread cannot know (exactly
the events LiMiT cannot charge to a descheduled thread). End-to-end
latency (generator's scheduled arrival to the last tier's completion
estimate) lands in per-arm windowed latency streams that feed the SLO
burn-rate alerts in :mod:`repro.obs.alerts`.

Thread naming is a contract: generators are ``svc:gen:<i>`` and tier
workers ``svc:<tier>:w<i>`` — lint rule ML012 derives the set of live
tiers from these names to flag fault specs that could never match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError
from repro.core.limit import UnbufferedLimitSession
from repro.faults import kinds as fk
from repro.hw.events import Event, EventRates
from repro.obs import runtime as obs_runtime
from repro.resilience import (
    AdmissionGate,
    CircuitBreaker,
    RetryBudget,
    RetryPolicy,
    TokenBucket,
)
from repro.sim.ops import Compute, Rdtsc, Sleep, Syscall
from repro.sim.program import ThreadContext, ThreadSpec
from repro.sim.sync import BoundedQueue
from repro.workloads.base import Instrumentation, Workload

#: Stream/counter name prefixes (suffixed with the arm label).
LATENCY_STREAM = "svc.latency"
DRIFT_STREAM = "svc.clock_drift"
REQUESTS_COUNTER = "svc.requests"
SHED_COUNTER = "svc.shed"

#: Flush the last tier's sample buffer at least this often (requests).
OBS_FLUSH_EVERY = 64

#: Tier request handling: parse + lookup + format, moderately cache-hungry.
SERVICE_RATES = EventRates.profile(
    ipc=1.2, llc_mpki=3.0, l2_mpki=10.0, branch_frac=0.2,
    branch_miss_rate=0.04, dtlb_mpki=1.0, stall_frac=0.35,
)

#: Shed reasons ``call_tier`` can record (fixed vocabulary for extract()).
SHED_REASONS = ("breaker", "depth", "throttle", "budget", "queue_full")


@dataclass(frozen=True)
class TierConfig:
    """One service tier: a bounded queue feeding a worker pool."""

    name: str
    workers: int = 2
    queue_capacity: int = 64
    service_median_cycles: int = 8_000
    service_sigma: float = 0.4
    kernel_cycles: int = 1_200

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ConfigError(f"tier name must be an identifier: {self.name!r}")
        if self.name == "gen":
            raise ConfigError("tier name 'gen' is reserved for generators")
        if self.workers < 1:
            raise ConfigError("tier needs at least one worker")
        if self.queue_capacity < 1:
            raise ConfigError("tier queue capacity must be >= 1")
        if self.service_median_cycles < 1 or self.kernel_cycles < 0:
            raise ConfigError("tier service costs must be positive")

    @property
    def mean_service_cycles(self) -> float:
        """Expected per-request cost at this tier (lognormal mean + kernel)."""
        return (
            self.service_median_cycles * math.exp(self.service_sigma**2 / 2.0)
            + self.kernel_cycles
        )


def default_tiers(queue_capacity: int = 64) -> tuple[TierConfig, ...]:
    """The canonical edge -> app -> db chain (db is the bottleneck)."""
    return (
        TierConfig("edge", workers=2, queue_capacity=queue_capacity,
                   service_median_cycles=5_000, kernel_cycles=1_000),
        TierConfig("app", workers=2, queue_capacity=queue_capacity,
                   service_median_cycles=7_000, kernel_cycles=1_200),
        TierConfig("db", workers=2, queue_capacity=queue_capacity,
                   service_median_cycles=12_000, kernel_cycles=1_500),
    )


@dataclass(frozen=True)
class PolicyConfig:
    """Which resilience policies guard the chain (one arm of the matrix)."""

    #: token-bucket admission at the edge (rate auto-sized to capacity)
    admission: bool = True
    #: priority queue-depth shedding at every tier
    shedding: bool = True
    #: drop requests already past their deadline at dequeue
    timeouts: bool = True
    #: attempts per tier call (1 = no retries)
    max_attempts: int = 3
    #: global retry budget as % of calls (None = unbounded retries)
    retry_budget_percent: int | None = 10
    #: circuit breakers guarding calls into each tier
    breaker: bool = True
    backoff_cycles: int = 20_000

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.backoff_cycles < 0:
            raise ConfigError("backoff_cycles must be >= 0")

    @classmethod
    def unprotected(cls) -> "PolicyConfig":
        """No policies at all: the arm that collapses under overload."""
        return cls(admission=False, shedding=False, timeouts=False,
                   max_attempts=1, retry_budget_percent=None, breaker=False)

    @classmethod
    def shed_only(cls) -> "PolicyConfig":
        """Depth shedding only (no admission/timeouts/retries/breaker)."""
        return cls(admission=False, shedding=True, timeouts=False,
                   max_attempts=1, retry_budget_percent=None, breaker=False)

    @classmethod
    def full(cls) -> "PolicyConfig":
        """Every policy on: the protected arm."""
        return cls()

    @classmethod
    def budgeted(cls) -> "PolicyConfig":
        """Shedding + budgeted retries, no admission bucket or breaker:
        the control arm for :meth:`budget_off` — identical except the
        retry budget is on, so the storm stays capped."""
        return cls(admission=False, shedding=True, timeouts=True,
                   max_attempts=6, retry_budget_percent=10, breaker=False)

    @classmethod
    def budget_off(cls) -> "PolicyConfig":
        """Shedding + unbudgeted retries: the retry-storm arm. No
        admission bucket (upstream rate limiting is what keeps busy
        signals from ever reaching the retry path — this arm models the
        common deployment where retries are the only 'protection') and
        no retry budget, so every busy signal multiplies offered load
        and the storm sustains itself past the original overload."""
        return cls(admission=False, shedding=True, timeouts=True,
                   max_attempts=6, retry_budget_percent=None, breaker=False)


@dataclass
class ServiceChainConfig:
    """Shape of the multi-tier service-chain workload."""

    tiers: tuple[TierConfig, ...] = field(default_factory=default_tiers)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    #: arm label; suffixes every stream/counter name so policy arms stay
    #: separable inside one merged collector
    label: str = "full"
    n_generators: int = 2
    requests_per_generator: int = 6_000
    #: per-generator mean inter-arrival at rate multiplier 1
    base_interarrival_cycles: int = 24_000
    #: overload schedule: flat at 1.0 for ``calm_cycles``, then a linear
    #: ramp to ``overload_peak`` over ``ramp_cycles``, then held
    calm_cycles: int = 40_000_000
    ramp_cycles: int = 50_000_000
    overload_peak: float = 2.2
    #: end-to-end deadline; completions past it don't count as goodput
    deadline_cycles: int = 240_000
    #: fraction (percent) of requests in the high-priority class 0
    high_priority_pct: int = 20
    #: discipline each thread's PMC clock against rdtsc every N reads
    resync_every: int = 32
    #: seeds the retry policy's jitter stream
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ConfigError("service chain needs at least one tier")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tier names: {names}")
        if not self.label or not self.label.replace("_", "").replace("-", "").isalnum():
            raise ConfigError(f"arm label must be an identifier: {self.label!r}")
        if self.n_generators < 1 or self.requests_per_generator < 1:
            raise ConfigError("need at least one generator and one request")
        if self.base_interarrival_cycles < 1:
            raise ConfigError("base_interarrival_cycles must be >= 1")
        if self.calm_cycles < 0 or self.ramp_cycles < 1:
            raise ConfigError("schedule cycles must be positive")
        if self.overload_peak < 1.0:
            raise ConfigError("overload_peak must be >= 1.0")
        if self.deadline_cycles < 1:
            raise ConfigError("deadline_cycles must be >= 1")
        if not 0 <= self.high_priority_pct <= 100:
            raise ConfigError("high_priority_pct must be in [0, 100]")

    @property
    def n_threads(self) -> int:
        return self.n_generators + sum(t.workers for t in self.tiers)

    def rate_multiplier(self, elapsed: int) -> float:
        """Arrival-rate multiplier at ``elapsed`` cycles since start."""
        if elapsed <= self.calm_cycles:
            return 1.0
        frac = min(1.0, (elapsed - self.calm_cycles) / self.ramp_cycles)
        return 1.0 + (self.overload_peak - 1.0) * frac

    def capacity_per_mcycle(self) -> int:
        """Sustainable chain throughput (requests per Mcycle): the
        bottleneck tier's worker pool divided by its mean service cost."""
        return int(min(
            t.workers * 1_000_000 / t.mean_service_cycles for t in self.tiers
        ))


def quick_chain(config: ServiceChainConfig, requests: int) -> ServiceChainConfig:
    """A copy of ``config`` resized to ``requests`` per generator, with the
    overload schedule shrunk so short runs still traverse calm -> ramp ->
    held-peak (but never below a few collector windows of simulated time,
    so burn-rate alerts keep distinct calm and overload windows)."""
    scale = requests / max(1, config.requests_per_generator)
    return replace(
        config,
        requests_per_generator=requests,
        calm_cycles=max(14_000_000, int(config.calm_cycles * scale)),
        ramp_cycles=max(10_000_000, int(config.ramp_cycles * scale)),
    )


class _PmcClock:
    """A per-thread wall-clock estimate from LiMiT safe counter reads.

    ``now = base + (cycles - c0) + sleep_credit``: exact while the thread
    runs or sleeps for durations it chose itself. Two events break the
    ledger — scheduler wake-up latency (slow drift, folded back in by a
    periodic rdtsc resync) and blocking queue waits (the counter freezes
    for an unknowable duration, so callers :meth:`reanchor` after them).
    Both corrections are recorded on the drift stream, keeping clock
    quality a first-class measurement.
    """

    __slots__ = ("session", "resync_every", "drift_stream",
                 "_c0", "_base", "_credit", "_now", "_reads")

    def __init__(
        self,
        session: UnbufferedLimitSession,
        resync_every: int,
        drift_stream: str,
    ) -> None:
        self.session = session
        self.resync_every = resync_every
        self.drift_stream = drift_stream
        self._c0 = 0
        self._base = 0
        self._credit = 0
        self._now = 0
        self._reads = 0

    def setup(self, ctx: ThreadContext):
        yield from self.session.setup(ctx)
        self._c0 = yield from self.session.read_safe(ctx)
        self._base = yield Rdtsc()
        self._now = self._base

    def now(self) -> int:
        """The last computed estimate (no ops; may be slightly stale)."""
        return self._now

    def sleep(self, ctx: ThreadContext, cycles: int):
        """Sleep with the duration credited to the clock ledger."""
        if cycles > 0:
            yield Sleep(cycles)
            self._credit += cycles

    def read(self, ctx: ThreadContext):
        """Refresh the estimate from one safe PMC read (resyncing against
        rdtsc every ``resync_every`` reads); returns the new estimate."""
        cycles = yield from self.session.read_safe(ctx)
        self._now = self._base + (cycles - self._c0) + self._credit
        self._reads += 1
        if self.resync_every and self._reads % self.resync_every == 0:
            yield from self.reanchor(ctx)
        return self._now

    def reanchor(self, ctx: ThreadContext):
        """Fold accumulated drift back in with one rdtsc (NTP-style)."""
        true_now = yield Rdtsc()
        drift = true_now - self._now
        obs_runtime.observe_latency(
            self.drift_stream, abs(drift), at=max(0, true_now)
        )
        self._base += drift
        self._now = true_now
        return self._now

    def teardown(self, ctx: ThreadContext):
        yield from self.session.teardown(ctx)


class ServiceChainWorkload(Workload):
    """Open-loop traffic through a policy-governed multi-tier chain.

    Builds ``n_generators`` generator threads plus each tier's worker
    pool; intended to run with ``n_threads <= n_cores`` so every thread
    owns a core and its PMC clock is near-exact. Python-side policy and
    counter state is shared across thread closures; every mutation
    happens between yields of programs the engine serializes in
    simulated-time order, so totals are deterministic.
    """

    name = "service_chain"

    def __init__(self, config: ServiceChainConfig | None = None) -> None:
        self.config = config or ServiceChainConfig()
        self.session: UnbufferedLimitSession | None = None
        self.queues: list[BoundedQueue] = []
        #: plain totals for extract(): offered/admitted/completed/goodput,
        #: call/retry counts, and per-tier shed/fault breakdowns
        self.totals: dict[str, int] = {}
        self.tier_totals: dict[str, dict[str, int]] = {}
        self.breakers: dict[str, CircuitBreaker] = {}
        self.budget: RetryBudget | None = None

    # -- instrumented program construction ---------------------------------

    def build(self, instr: Instrumentation | None = None) -> list[ThreadSpec]:
        instr = instr or Instrumentation()
        cfg = self.config
        pol = cfg.policy
        session = UnbufferedLimitSession(
            [Event.CYCLES], count_kernel=True, name="svc-clock"
        )
        self.session = session

        latency_stream = f"{LATENCY_STREAM}.{cfg.label}"
        drift_stream = f"{DRIFT_STREAM}.{cfg.label}"
        requests_counter = f"{REQUESTS_COUNTER}.{cfg.label}"
        shed_counter = f"{SHED_COUNTER}.{cfg.label}"

        tiers = cfg.tiers
        queues = [
            BoundedQueue(f"svc:{t.name}:{cfg.label}", t.queue_capacity)
            for t in tiers
        ]
        self.queues = queues

        totals = {
            "offered": 0, "admitted": 0, "completed": 0, "goodput": 0,
            "calls": 0, "retries": 0,
        }
        self.totals = totals
        tier_totals = {
            t.name: {
                "admitted": 0, "timeout": 0, "errors": 0, "crash_outages": 0,
                "latency_spikes": 0, "retries": 0,
                **{f"shed_{r}": 0 for r in SHED_REASONS},
            }
            for t in tiers
        }
        self.tier_totals = tier_totals

        # Policy state (shared; tier-indexed). The edge token bucket is
        # auto-sized to ~95% of the bottleneck tier's capacity, so under
        # overload the gate holds admitted load just below the knee.
        rate = max(1, cfg.capacity_per_mcycle() * 95 // 100)
        gates: list[AdmissionGate | None] = []
        for i, t in enumerate(tiers):
            bucket = (
                TokenBucket(rate, burst=2 * t.workers * 8)
                if pol.admission and i == 0 else None
            )
            if pol.shedding:
                # Deadline-derived depth gate: admit priority 0 only while
                # the projected queue wait (depth x per-item drain time)
                # fits in half the end-to-end deadline; shed priority 1 a
                # quarter earlier. Tighter than the raw capacity, so the
                # gate trips before dequeue-side timeouts would.
                drain = t.mean_service_cycles / t.workers
                high = max(2, min(
                    t.queue_capacity,
                    int(cfg.deadline_cycles / 2 / drain),
                ))
                thresholds: tuple[int, ...] = (high, max(1, 3 * high // 4))
            else:
                thresholds = ()
            if bucket is None and not thresholds:
                gates.append(None)
            else:
                gates.append(AdmissionGate(bucket, thresholds))
        breakers = {
            t.name: CircuitBreaker(failure_threshold=8,
                                   cooldown_cycles=400_000)
            for t in tiers
        } if pol.breaker else {}
        self.breakers = breakers
        budget = (
            RetryBudget(pol.retry_budget_percent)
            if pol.max_attempts > 1 else None
        )
        self.budget = budget
        retry = RetryPolicy(
            max_attempts=pol.max_attempts,
            backoff_cycles=pol.backoff_cycles,
            seed=cfg.seed,
        )
        # Shutdown cascade bookkeeping: the last generator closes the edge
        # queue; the last worker of tier i to see Closed closes tier i+1.
        live = {"gen": cfg.n_generators}
        live.update({t.name: t.workers for t in tiers})

        def shed(tier_name: str, reason: str, now: int) -> None:
            tier_totals[tier_name][f"shed_{reason}"] += 1
            obs_runtime.count_window(shed_counter, at=max(0, now))

        def call_tier(ctx: ThreadContext, clock: _PmcClock, index: int, req):
            """Caller-side hop into tier ``index``: breaker -> admission ->
            bounded enqueue, with budgeted, jittered retries around the
            *busy* outcomes (depth shed, full queue). Token-bucket
            throttles and breaker short-circuits are terminal — those
            policies exist precisely to say "stop offering load", so
            retrying them would defeat them. Returns True when the
            request was handed off; every drop path is counted."""
            tier = tiers[index]
            q = queues[index]
            t_tot = tier_totals[tier.name]
            breaker = breakers.get(tier.name)
            gate = gates[index]
            if budget is not None:
                budget.note_call()
            attempt = 1
            while True:
                now = clock.now()
                if breaker is not None and not breaker.allow(now):
                    shed(tier.name, "breaker", now)
                    return False
                totals["calls"] += 1
                verdict = "ok"
                if gate is not None:
                    verdict = gate.admit(now, q.depth(), req[1])
                if verdict == "throttle":
                    shed(tier.name, "throttle", now)
                    return False
                full = False
                if verdict == "ok":
                    ok = yield from q.try_put(ctx, req)
                    if ok:
                        t_tot["admitted"] += 1
                        if breaker is not None:
                            breaker.record_success(clock.now())
                        return True
                    full = True
                # Busy (depth gate shed or queue full): retry with backoff
                # if the attempt cap and the global retry budget allow.
                if breaker is not None:
                    breaker.record_failure(clock.now())
                if attempt >= pol.max_attempts:
                    shed(tier.name, "queue_full" if full else "depth", now)
                    return False
                if budget is not None and not budget.allow():
                    shed(tier.name, "budget", now)
                    return False
                t_tot["retries"] += 1
                totals["retries"] += 1
                yield from clock.sleep(ctx, retry.delay(req[0], attempt))
                attempt += 1

        def make_generator(gi: int):
            def generator(ctx: ThreadContext):
                yield from instr.thread_setup(ctx)
                clock = _PmcClock(session, cfg.resync_every, drift_stream)
                yield from clock.setup(ctx)
                rng = ctx.rng
                base = clock.now()
                arrival = base
                mean_ia = cfg.base_interarrival_cycles
                for i in range(cfg.requests_per_generator):
                    multiplier = cfg.rate_multiplier(arrival - base)
                    arrival += rng.exp_cycles(
                        max(1, int(mean_ia / multiplier))
                    )
                    wait = arrival - clock.now()
                    if wait > 0:
                        yield from clock.sleep(ctx, wait)
                    totals["offered"] += 1
                    priority = (
                        0 if rng.bernoulli(cfg.high_priority_pct / 100.0)
                        else 1
                    )
                    rid = gi * cfg.requests_per_generator + i
                    req = (rid, priority, arrival,
                           arrival + cfg.deadline_cycles, 1)
                    if (yield from call_tier(ctx, clock, 0, req)):
                        totals["admitted"] += 1
                    yield from clock.read(ctx)
                    yield from instr.checkpoint(ctx)
                live["gen"] -= 1
                if live["gen"] == 0:
                    yield from queues[0].close(ctx)
                yield from clock.teardown(ctx)
                yield from instr.thread_teardown(ctx)

            return generator

        def make_worker(index: int):
            tier = tiers[index]
            q = queues[index]
            next_index = index + 1 if index + 1 < len(tiers) else None
            last = next_index is None
            t_tot = tier_totals[tier.name]

            def worker(ctx: ThreadContext):
                yield from instr.thread_setup(ctx)
                clock = _PmcClock(session, cfg.resync_every, drift_stream)
                yield from clock.setup(ctx)
                rng = ctx.rng
                samples: list[tuple[int, int]] = []
                while True:
                    idle = q.depth() == 0
                    item = yield from q.get(ctx)
                    if item is BoundedQueue.Closed:
                        break
                    if idle:
                        # The blocking wait froze our counter for a
                        # duration we can't know; re-anchor before using
                        # the clock for deadline or latency math.
                        yield from clock.reanchor(ctx)
                    now = yield from clock.read(ctx)
                    rid, priority, arrival, deadline, generation = item
                    if pol.timeouts and now > deadline:
                        # Stale work: serving it can't meet the SLO, so
                        # shed it here instead of wasting the bottleneck.
                        t_tot["timeout"] += 1
                        obs_runtime.count_window(shed_counter, at=max(0, now))
                        # A timed-out request looks dead to its client,
                        # which re-issues it from the edge — the feedback
                        # loop that makes unbudgeted retry storms
                        # self-sustaining (recycled work keeps the
                        # bottleneck saturated after the spike passes).
                        # The retry budget is what breaks the loop.
                        if (
                            pol.max_attempts > 1
                            and generation < pol.max_attempts
                            and (budget is None or budget.allow())
                        ):
                            t_tot["retries"] += 1
                            totals["retries"] += 1
                            resubmit = (rid, priority, now,
                                        now + cfg.deadline_cycles,
                                        generation + 1)
                            yield from call_tier(ctx, clock, 0, resubmit)
                        yield from instr.checkpoint(ctx)
                        continue
                    spec = ctx.service_fault(fk.TIER_CRASH, tier.name)
                    if spec is not None:
                        # Crash + restart: this worker is gone for the
                        # outage; upstream sees the backlog, not an error.
                        t_tot["crash_outages"] += 1
                        yield from clock.sleep(ctx, int(spec.arg))
                        ctx.service_fault_resolved(fk.TIER_CRASH)
                        now = yield from clock.read(ctx)
                    spec = ctx.service_fault(fk.TIER_ERROR, tier.name)
                    if spec is not None:
                        t_tot["errors"] += 1
                        breaker = breakers.get(tier.name)
                        if breaker is not None:
                            breaker.record_failure(now)
                        ctx.service_fault_resolved(fk.TIER_ERROR)
                        obs_runtime.count_window(shed_counter, at=max(0, now))
                        yield from instr.checkpoint(ctx)
                        continue
                    yield Syscall(
                        "work", (rng.exp_cycles(tier.kernel_cycles),)
                    )
                    yield Compute(
                        rng.lognormal_cycles(
                            tier.service_median_cycles,
                            tier.service_sigma,
                            minimum=500,
                        ),
                        SERVICE_RATES,
                    )
                    spec = ctx.service_fault(fk.TIER_LATENCY, tier.name)
                    if spec is not None:
                        t_tot["latency_spikes"] += 1
                        yield Compute(int(spec.arg), SERVICE_RATES)
                        ctx.service_fault_resolved(fk.TIER_LATENCY)
                    if last:
                        now = yield from clock.read(ctx)
                        latency = max(0, now - arrival)
                        totals["completed"] += 1
                        if now <= deadline:
                            totals["goodput"] += 1
                        samples.append((latency, max(0, now)))
                        if len(samples) >= OBS_FLUSH_EVERY:
                            obs_runtime.observe_batch(
                                latency_stream, samples,
                                counter=requests_counter,
                            )
                            samples.clear()
                    else:
                        yield from call_tier(ctx, clock, next_index, item)
                    yield from instr.checkpoint(ctx)
                live[tier.name] -= 1
                if live[tier.name] == 0 and next_index is not None:
                    yield from queues[next_index].close(ctx)
                if samples:
                    obs_runtime.observe_batch(
                        latency_stream, samples, counter=requests_counter
                    )
                yield from clock.teardown(ctx)
                yield from instr.thread_teardown(ctx)

            return worker

        # Generators first: the lint walker drives threads in spec order
        # with shared Python queue state, so producers must fill (and
        # close) queues before the consumers are walked.
        specs = [
            ThreadSpec(f"svc:gen:{i}", make_generator(i))
            for i in range(cfg.n_generators)
        ]
        for index, tier in enumerate(tiers):
            for w in range(tier.workers):
                specs.append(
                    ThreadSpec(f"svc:{tier.name}:w{w}", make_worker(index))
                )
        return specs

    # -- post-run accounting -------------------------------------------------

    def shed_total(self) -> int:
        """Requests dropped anywhere in the chain, by any policy."""
        return sum(
            sum(tt[f"shed_{r}"] for r in SHED_REASONS)
            + tt["timeout"] + tt["errors"]
            for tt in self.tier_totals.values()
        )

    def summary(self) -> dict:
        """Plain-int accounting for the experiment's extract()."""
        out = dict(self.totals)
        out["tiers"] = {name: dict(tt) for name, tt in self.tier_totals.items()}
        out["breaker_opens"] = sum(b.opens for b in self.breakers.values())
        out["breaker_short_circuits"] = sum(
            b.short_circuits for b in self.breakers.values()
        )
        if self.budget is not None:
            out["retry_budget"] = {
                "calls": self.budget.calls,
                "granted": self.budget.granted,
                "denied": self.budget.denied,
            }
        return out
