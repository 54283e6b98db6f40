"""A generative model of memcached-style key-value serving.

A cloud-era workload in the spirit of the paper's "implications for
computer architects in the cloud era": worker threads serve a GET-heavy
request mix against a sharded hash table with per-shard locks plus a
global LRU-maintenance lock, over a kernel-heavy network path.

Distinguishing shape versus the MySQL model: far shorter critical
sections (hash probe + pointer splice), much higher request rates, and a
single contended maintenance lock that becomes the scaling bottleneck at
high thread counts — a good target for `repro run memcached --diagnose`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.hw.events import EventRates
from repro.sim.ops import Compute, RegionBegin, RegionEnd, Sleep, Syscall
from repro.sim.program import ThreadContext, ThreadSpec
from repro.workloads.base import Instrumentation, Workload

LRU_LOCK = "memcached:lru"


def shard_lock(index: int) -> str:
    return f"memcached:shard:{index}"


#: hash probing: pointer chasing through buckets
PROBE_RATES = EventRates.profile(
    ipc=0.8, llc_mpki=10.0, l2_mpki=25.0, branch_frac=0.15,
    branch_miss_rate=0.03, dtlb_mpki=3.0, load_frac=0.4, stall_frac=0.5,
)

#: protocol parsing / response formatting
PROTO_RATES = EventRates.profile(
    ipc=1.5, llc_mpki=0.5, branch_frac=0.22, branch_miss_rate=0.05,
)


@dataclass
class MemcachedConfig:
    """Tunable shape of the memcached model."""

    n_workers: int = 8
    requests_per_worker: int = 200
    n_shards: int = 8
    get_fraction: float = 0.9          #: GET vs SET mix
    #: kernel cycles for recv/send on the request path
    recv_kernel_cycles: int = 2_200
    send_kernel_cycles: int = 2_000
    #: median cycles holding a shard lock (hash probe / insert)
    shard_cs_median_cycles: int = 350
    #: how often a request touches the LRU maintenance lock
    lru_touch_prob: float = 0.25
    lru_cs_median_cycles: int = 500
    #: probability of waiting for a slow client
    slow_client_prob: float = 0.05
    slow_client_mean_cycles: int = 50_000
    key_skew: float = 0.9              #: zipf skew over shards

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigError("need at least one worker")
        if self.n_shards < 1:
            raise ConfigError("need at least one shard")
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ConfigError("get_fraction must be in [0, 1]")


class MemcachedWorkload(Workload):
    """GET/SET serving over a sharded hash table."""

    name = "memcached"

    def __init__(self, config: MemcachedConfig | None = None) -> None:
        self.config = config or MemcachedConfig()

    def build(self, instr: Instrumentation | None = None) -> list[ThreadSpec]:
        instr = instr or Instrumentation()
        cfg = self.config

        def worker(ctx: ThreadContext):
            yield from instr.thread_setup(ctx)
            rng = ctx.rng
            lru = instr.lock(LRU_LOCK)
            for _ in range(cfg.requests_per_worker):
                yield RegionBegin("request")
                yield Syscall("work", (rng.exp_cycles(cfg.recv_kernel_cycles),))
                if rng.bernoulli(cfg.slow_client_prob):
                    yield Sleep(rng.exp_cycles(cfg.slow_client_mean_cycles))
                yield Compute(rng.exp_cycles(900), PROTO_RATES)  # parse

                shard = rng.zipf_index(cfg.n_shards, cfg.key_skew)
                lock = instr.lock(shard_lock(shard))
                is_get = rng.bernoulli(cfg.get_fraction)
                yield RegionBegin("get" if is_get else "set")
                yield from lock.acquire(ctx)
                cs = rng.lognormal_cycles(
                    cfg.shard_cs_median_cycles, 0.7, minimum=60
                )
                if not is_get:
                    cs += rng.lognormal_cycles(300, 0.5, minimum=40)
                yield Compute(cs, PROBE_RATES)
                yield from lock.release(ctx)
                yield RegionEnd()

                if rng.bernoulli(cfg.lru_touch_prob):
                    yield from lru.acquire(ctx)
                    yield Compute(
                        rng.lognormal_cycles(cfg.lru_cs_median_cycles, 0.6,
                                             minimum=50),
                        PROBE_RATES,
                    )
                    yield from lru.release(ctx)

                yield Compute(rng.exp_cycles(600), PROTO_RATES)  # format
                yield Syscall("work", (rng.exp_cycles(cfg.send_kernel_cycles),))
                yield RegionEnd()  # request
                yield from instr.checkpoint(ctx)
            yield from instr.thread_teardown(ctx)

        return [
            ThreadSpec(f"memcached:worker:{i}", worker)
            for i in range(cfg.n_workers)
        ]
