"""Tests of keyed events and the userspace synchronization primitives."""

import pytest

from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.common.errors import ConfigError, SimulationError
from repro.hw.events import EventRates
from repro.sim.ops import Compute, LockAcquire, LockRelease, Sleep, Syscall
from repro.sim.sync import Barrier, BoundedQueue, CondVar, Semaphore
from tests.conftest import run_threads

RATES = EventRates.profile(ipc=1.0)


def logged(gen, log, who):
    """``yield from gen``, logging each op as it is yielded and as its
    result comes back."""
    value = None
    try:
        while True:
            op = gen.send(value)
            log.append((who, "yield", type(op).__name__))
            value = yield op
            log.append((who, "done", type(op).__name__))
    except StopIteration as stop:
        return stop.value


class TestKeyedEvents:
    def test_wake_before_wait_leaves_credit(self, uniprocessor):
        order = []

        def program(ctx):
            n = yield Syscall("wake_key", ("k", 1))
            order.append(("woke", n))
            yield Syscall("wait_key", ("k",))   # consumes the credit
            order.append(("waited",))

        run_threads(uniprocessor, program)
        assert order == [("woke", 0), ("waited",)]

    def test_wait_blocks_until_wake(self, quad_core):
        order = []

        def waiter(ctx):
            yield Syscall("wait_key", ("k",))
            order.append("woken")

        def waker(ctx):
            yield Compute(100_000, RATES)
            order.append("waking")
            yield Syscall("wake_key", ("k", 1))

        run_threads(quad_core, waiter, waker)
        assert order == ["waking", "woken"]

    def test_broadcast_wakes_all(self, quad_core):
        woken = []

        def waiter(ctx):
            yield Syscall("wait_key", ("k",))
            woken.append(ctx.name)

        def waker(ctx):
            yield Compute(200_000, RATES)
            n = yield Syscall("wake_key", ("k", -1))
            woken.append(f"count={n}")

        run_threads(quad_core, waiter, waiter, waiter, waker)
        assert "count=3" in woken
        assert len([w for w in woken if w.startswith("t")]) == 3

    def test_broadcast_clears_credits(self, uniprocessor):
        def program(ctx):
            yield Syscall("wake_key", ("k", 5))   # 5 credits
            yield Syscall("wake_key", ("k", -1))  # broadcast clears them

        def late_waiter(ctx):
            yield Compute(500_000, RATES)
            yield Syscall("wait_key", ("k",))     # must block forever

        with pytest.raises(SimulationError, match="deadlock"):
            run_threads(uniprocessor, program, late_waiter)

    def test_bad_key_rejected(self, uniprocessor):
        caught = {}

        def program(ctx):
            try:
                yield Syscall("wait_key", ("",))
            except ConfigError as exc:
                caught["exc"] = exc

        run_threads(uniprocessor, program)
        assert "exc" in caught

    def test_fifo_wake_order(self, uniprocessor):
        order = []

        def waiter(ctx):
            yield Syscall("wait_key", ("k",))
            order.append(ctx.name)

        def waker(ctx):
            yield Compute(500_000, RATES)
            yield Syscall("wake_key", ("k", 3))

        # waiters block in start order t0, t1, t2 on the shared core
        run_threads(uniprocessor, waiter, waiter, waiter, waker)
        assert order == ["t0", "t1", "t2"]


class TestSemaphore:
    def test_seed_and_acquire(self, quad_core):
        sem = Semaphore("s", initial=2)
        acquired = []

        def seeder(ctx):
            yield from sem.seed(ctx)

        def worker(ctx):
            yield Compute(50_000, RATES)
            yield from sem.acquire(ctx)
            acquired.append(ctx.name)

        run_threads(quad_core, seeder, worker, worker)
        assert len(acquired) == 2

    def test_blocks_at_zero(self, quad_core):
        sem = Semaphore("s", initial=0)
        order = []

        def waiter(ctx):
            yield from sem.seed(ctx)
            yield from sem.acquire(ctx)
            order.append("acquired")

        def poster(ctx):
            yield Compute(100_000, RATES)
            order.append("posting")
            yield from sem.post(ctx)

        run_threads(quad_core, waiter, poster)
        assert order == ["posting", "acquired"]

    def test_double_seed_rejected(self, uniprocessor):
        sem = Semaphore("s", initial=1)

        def program(ctx):
            yield from sem.seed(ctx)
            yield from sem.seed(ctx)

        with pytest.raises(SimulationError, match="already seeded"):
            run_threads(uniprocessor, program)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Semaphore("s", initial=-1)


class TestCondVar:
    def test_wait_signal(self, quad_core):
        from repro.sim.ops import LockAcquire, LockRelease

        cv = CondVar("cv", lock="m")
        state = {"ready": False}
        order = []

        def waiter(ctx):
            yield LockAcquire("m")
            while not state["ready"]:
                yield from cv.wait(ctx)
            order.append("consumed")
            yield LockRelease("m")

        def signaller(ctx):
            yield Compute(150_000, RATES)
            yield LockAcquire("m")
            state["ready"] = True
            order.append("produced")
            yield from cv.signal(ctx)
            yield LockRelease("m")

        run_threads(quad_core, waiter, signaller)
        assert order == ["produced", "consumed"]

    def test_broadcast_wakes_generation(self, quad_core):
        from repro.sim.ops import LockAcquire, LockRelease

        cv = CondVar("cv", lock="m")
        state = {"go": False}
        woken = []

        def waiter(ctx):
            yield LockAcquire("m")
            while not state["go"]:
                yield from cv.wait(ctx)
            woken.append(ctx.name)
            yield LockRelease("m")

        def broadcaster(ctx):
            yield Compute(300_000, RATES)
            yield LockAcquire("m")
            state["go"] = True
            yield from cv.broadcast(ctx)
            yield LockRelease("m")

        run_threads(quad_core, waiter, waiter, waiter, broadcaster)
        assert len(woken) == 3

    def test_broadcast_between_release_and_wait_key_wakes(self):
        """A broadcast whose code runs after a waiter has yielded its
        LockRelease, but before the waiter resumes to yield its wait_key,
        still wakes that waiter: the wait_key names the generation the
        waiter read under the lock, which is the one the broadcast wakes.

        The timings fit the default costs. The waiter's Sleep puts its
        slice out of step with the broadcaster's. The broadcaster's code
        runs 6 cycles before the waiter resumes, and its slice ends inside
        its wake_key's entry phase, so a timer tick holds its kernel wake
        back until after the waiter's kernel wait. (Broadcasting without
        holding the lock is legal, as in pthreads.)"""
        config = SimConfig(
            machine=MachineConfig(n_cores=2),
            kernel=KernelConfig(timeslice_cycles=5_000),
        )
        cv = CondVar("cv", lock="m")
        log = []

        def waiter(ctx):
            yield Sleep(1_000)
            yield LockAcquire("m")
            yield from logged(cv.wait(ctx), log, "waiter")
            yield LockRelease("m")

        def broadcaster(ctx):
            yield Compute(4_798, RATES)
            log.append(("broadcaster", "broadcast"))
            yield from cv.broadcast(ctx)

        run_threads(config, waiter, broadcaster)
        assert log[:4] == [
            ("waiter", "yield", "LockRelease"),
            ("broadcaster", "broadcast"),
            ("waiter", "done", "LockRelease"),
            ("waiter", "yield", "Syscall"),
        ]
        assert log[4:] == [
            ("waiter", "done", "Syscall"),
            ("waiter", "yield", "LockAcquire"),
            ("waiter", "done", "LockAcquire"),
        ]

    def test_signal_with_no_waiters_is_noop(self, uniprocessor):
        from repro.sim.ops import LockAcquire, LockRelease

        cv = CondVar("cv", lock="m")

        def program(ctx):
            yield LockAcquire("m")
            yield from cv.signal(ctx)
            yield LockRelease("m")

        run_threads(uniprocessor, program)  # must not deadlock or error


class TestBarrier:
    def test_all_arrive_together(self, quad_core):
        barrier = Barrier("b", parties=3)
        after = []

        def worker(delay):
            def program(ctx):
                yield Compute(delay, RATES)
                yield from barrier.arrive(ctx)
                after.append((ctx.name, ctx.now()))

            return program

        run_threads(quad_core, worker(10_000), worker(200_000), worker(50_000))
        times = [t for _, t in after]
        # nobody passes the barrier before the slowest arrival
        assert min(times) >= 200_000

    def test_reusable_generations(self, quad_core):
        barrier = Barrier("b", parties=2)
        generations = []

        def worker(ctx):
            for _ in range(3):
                g = yield from barrier.arrive(ctx)
                generations.append(g)
                yield Compute(1_000, RATES)

        run_threads(quad_core, worker, worker)
        assert sorted(generations) == [0, 0, 1, 1, 2, 2]

    def test_single_party_never_blocks(self, uniprocessor):
        barrier = Barrier("b", parties=1)

        def program(ctx):
            for _ in range(3):
                yield from barrier.arrive(ctx)

        run_threads(uniprocessor, program)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Barrier("b", parties=0)


class TestBoundedQueue:
    def test_producer_consumer_all_items(self, quad_core):
        queue = BoundedQueue("q", capacity=4)
        consumed = []

        def producer(ctx):
            for i in range(20):
                yield Compute(2_000, RATES)
                yield from queue.put(ctx, i)
            yield from queue.close(ctx)

        def consumer(ctx):
            while True:
                item = yield from queue.get(ctx)
                if item is BoundedQueue.Closed:
                    break
                consumed.append(item)
                yield Compute(3_000, RATES)

        run_threads(quad_core, producer, consumer)
        assert sorted(consumed) == list(range(20))
        assert queue.total_put == 20
        assert queue.total_got == 20
        assert queue.max_depth <= 4

    def test_capacity_backpressure(self, quad_core):
        queue = BoundedQueue("q", capacity=2)

        def fast_producer(ctx):
            for i in range(10):
                yield from queue.put(ctx, i)
            yield from queue.close(ctx)

        def slow_consumer(ctx):
            while True:
                item = yield from queue.get(ctx)
                if item is BoundedQueue.Closed:
                    break
                yield Compute(20_000, RATES)

        run_threads(quad_core, fast_producer, slow_consumer)
        assert queue.max_depth <= 2

    def test_multiple_consumers(self, quad_core):
        queue = BoundedQueue("q", capacity=8)
        consumed = []

        def producer(ctx):
            for i in range(30):
                yield from queue.put(ctx, i)
            yield from queue.close(ctx)

        def consumer(ctx):
            while True:
                item = yield from queue.get(ctx)
                if item is BoundedQueue.Closed:
                    break
                consumed.append(item)
                yield Compute(1_000, RATES)

        run_threads(quad_core, producer, consumer, consumer, consumer)
        assert sorted(consumed) == list(range(30))

    def test_put_after_close_raises(self, uniprocessor):
        queue = BoundedQueue("q", capacity=2)

        def program(ctx):
            yield from queue.close(ctx)
            yield from queue.put(ctx, 1)

        with pytest.raises(SimulationError, match="closed queue"):
            run_threads(uniprocessor, program)

    def test_validation(self):
        with pytest.raises(ConfigError):
            BoundedQueue("q", capacity=0)


class TestCachedOps:
    """CondVar and BoundedQueue yield the same op instances on every call
    (within one generation for ops whose key names it). The generators are driven
    outside the engine, with every op returning None."""

    def test_condvar_within_a_generation(self):
        cv = CondVar("cv", lock="m")
        first = list(cv.wait(None))
        second = list(cv.wait(None))
        assert [type(op) for op in first] == [LockRelease, Syscall, LockAcquire]
        assert all(a is b for a, b in zip(first, second))
        (signal,) = list(cv.signal(None))
        assert list(cv.signal(None))[0] is signal
        list(cv.wait(None))  # a waiter for the broadcast to wake
        (broadcast,) = list(cv.broadcast(None))
        assert broadcast == Syscall("wake_key", ("cv:cv:0", -1))
        # a new generation: new keyed syscalls, the same lock ops
        later = list(cv.wait(None))
        assert later[1] == Syscall("wait_key", ("cv:cv:1",))
        assert later[0] is first[0] and later[2] is first[2]

    def test_bounded_queue(self):
        queue = BoundedQueue("q", capacity=4)
        put = list(queue.try_put(None, 1))
        again = list(queue.try_put(None, 2))
        got = list(queue.get(None))
        assert [type(op) for op in put] == [LockAcquire, LockRelease]
        assert all(a is b for a, b in zip(put, again))
        assert all(a is b for a, b in zip(put, got))
