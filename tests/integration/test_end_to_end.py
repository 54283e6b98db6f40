"""End-to-end scenarios exercising the full public API surface together."""

from repro import (
    Compute,
    Event,
    EventRates,
    InstrumentedLock,
    LimitSession,
    PreciseRegionProfiler,
    SimConfig,
    ThreadSpec,
    run_program,
    with_all_enhancements,
)
from repro.analysis import classify_result, sync_profile, user_kernel_breakdown
from repro.baselines import PapiLikeSession, SamplingProfiler
from repro.workloads import (
    ApacheConfig,
    ApacheWorkload,
    Instrumentation,
    MysqlConfig,
    MysqlWorkload,
)


class TestQuickstartScenario:
    """The README quickstart, as a test."""

    def test_measure_a_region(self):
        session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS])
        rates = EventRates.profile(ipc=1.5)
        deltas = {}

        def main(ctx):
            yield from session.setup(ctx)
            start = yield from session.read_all(ctx)
            yield Compute(1_000_000, rates)
            end = yield from session.read_all(ctx)
            deltas["cycles"] = end[0] - start[0]
            deltas["instructions"] = end[1] - start[1]
            yield from session.teardown(ctx)

        result = run_program([ThreadSpec("main", main)], SimConfig())
        result.check_conservation()
        # exact counts, measurement overhead of the enclosed reads included
        assert 1_000_000 <= deltas["cycles"] <= 1_000_400
        assert 1_500_000 <= deltas["instructions"] <= 1_500_600
        assert session.max_abs_error() == 0


class TestFullCaseStudyPipeline:
    def test_mysql_study(self):
        """Instrument MySQL with LiMiT locks, diagnose, profile sync."""
        session = LimitSession([Event.CYCLES], count_kernel=True)
        instr = Instrumentation(sessions=[session], lock_reader=session)
        workload = MysqlWorkload(
            MysqlConfig(n_workers=6, transactions_per_worker=20)
        )
        result = run_program(workload.build(instr), SimConfig(seed=42))
        result.check_conservation()

        profile = sync_profile(result, prefix="mysql:")
        assert profile.total_acquires > 0
        assert profile.hold_fraction < 0.5

        classification = classify_result(result)
        assert classification["path"]

        observations = instr.lock_observations()
        assert "mysql:log" in observations
        assert observations["mysql:log"].n_acquires == 120

    def test_apache_kernel_study(self):
        sampler = SamplingProfiler(Event.CYCLES, period=50_000)
        instr = Instrumentation(sessions=[sampler])
        workload = ApacheWorkload(
            ApacheConfig(n_workers=4, requests_per_worker=20)
        )
        result = run_program(workload.build(instr), SimConfig(seed=43))
        breakdown = user_kernel_breakdown(result)
        assert breakdown.kernel_fraction > 0.2
        assert len(sampler.my_samples(result)) > 0


class TestMixedTechniques:
    def test_limit_and_papi_coexist(self):
        """Two sessions on the same thread using separate counters."""
        limit = LimitSession([Event.CYCLES])
        papi = PapiLikeSession([Event.INSTRUCTIONS])
        values = {}

        def program(ctx):
            yield from limit.setup(ctx)
            yield from papi.setup(ctx)
            yield Compute(100_000, EventRates.profile(ipc=1.0))
            values["limit"] = yield from limit.read(ctx, 0)
            values["papi"] = yield from papi.read(ctx, 0)

        run_program([ThreadSpec("main", program)], SimConfig())
        assert values["limit"] >= 100_000
        assert values["papi"] >= 100_000
        assert limit.max_abs_error() == 0
        assert papi.max_abs_error() == 0

    def test_enhanced_machine_end_to_end(self):
        config = with_all_enhancements(SimConfig(seed=44)).with_pmu(
            wide_counters=True
        )
        session = LimitSession([Event.INSTRUCTIONS])

        def program(ctx):
            yield from session.setup(ctx)
            yield Compute(5_000_000, EventRates.profile(ipc=2.0))
            yield from session.read(ctx, 0)

        result = run_program([ThreadSpec("main", program)], config)
        assert result.kernel.n_pmis == 0
        assert session.max_abs_error() == 0


class TestInstrumentedLockStandalone:
    def test_region_profiler_plus_lock(self):
        session = LimitSession([Event.CYCLES], count_kernel=True)
        prof = PreciseRegionProfiler(session)
        lock = InstrumentedLock("shared", session)

        def body():
            yield Compute(4_000, EventRates.profile(ipc=1.0))

        def worker(ctx):
            yield from session.setup(ctx)
            for _ in range(5):
                yield from lock.acquire(ctx)
                yield from prof.measure(ctx, "cs", body())
                yield from lock.release(ctx)

        result = run_program(
            [ThreadSpec("w0", worker), ThreadSpec("w1", worker)],
            SimConfig(seed=45),
        )
        assert prof.observation("cs").invocations == 10
        assert lock.observation.n_acquires == 10
        assert result.locks["shared"].n_acquires == 10
