"""The crash-tolerant fabric: worker death, hangs, retries, quarantine.

ChaosWorkload (repro.fabric.testing) kills, hangs or fails its worker on
demand; these tests prove the fabric's failure policy end to end: exact
blame (a poison job never takes down innocent jobs in the same sweep),
structured JobFailure outcomes under keep-going, bounded retry for
transient crashes, fail-fast raising, and cache quarantine + graceful
degradation on unwritable cache directories.
"""

from pathlib import Path

import pytest

from repro import fabric
from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import FabricError
from repro.fabric.jobs import job_key

CHAOS = "repro.fabric.testing.ChaosWorkload"


def chaos_job(mode: str, seed: int = 1, **kwargs) -> fabric.RunJob:
    return fabric.RunJob(
        workload=CHAOS,
        config=SimConfig(machine=MachineConfig(n_cores=2), seed=seed),
        kwargs={"mode": mode, **kwargs},
        label=f"chaos:{mode}:{seed}",
    )


class TestCrashAndHangIsolation:
    def test_crash_and_hang_in_one_sweep(self):
        """The acceptance scenario: one sweep containing a healthy job, a
        crasher, a hanger and another healthy job completes the healthy
        work and reports the poison jobs as structured failures."""
        fabric.drain_failures()  # isolate from earlier tests
        jobs = [
            chaos_job("ok", seed=5),
            chaos_job("crash"),
            chaos_job("hang", hang_seconds=60.0),
            chaos_job("ok", seed=6),
        ]
        outcomes = fabric.run_many(
            jobs,
            jobs_n=2,
            cache=None,
            timeout=1.5,
            retries=1,
            backoff=0.0,
            fail_fast=False,
        )
        ok1, crash, hang, ok2 = outcomes
        assert isinstance(ok1, fabric.JobOutcome)
        assert isinstance(ok2, fabric.JobOutcome)
        assert isinstance(crash, fabric.JobFailure)
        assert crash.kind == "crash" and crash.attempts == 2
        assert "exit code" in crash.error
        assert isinstance(hang, fabric.JobFailure)
        assert hang.kind == "timeout" and hang.attempts == 2

        # The healthy jobs are byte-identical to a clean serial run.
        clean = fabric.run_many(
            [jobs[0], jobs[3]], jobs_n=1, cache=None, fail_fast=True
        )
        assert [ok1.result.fingerprint(), ok2.result.fingerprint()] == [
            o.result.fingerprint() for o in clean
        ]

        # Both failures were queued for the runner's manifest.
        drained = fabric.drain_failures()
        assert sorted(f.kind for f in drained) == ["crash", "timeout"]
        assert fabric.drain_failures() == []
        as_dict = crash.as_dict()
        assert as_dict["kind"] == "crash" and as_dict["attempts"] == 2

    def test_timeout_kills_a_hung_job_at_one_worker(self):
        """A timeout needs a process boundary to kill, so even at
        ``jobs_n=1`` the job runs in a worker process and a hang ends as
        a structured timeout instead of running to completion inline."""
        fabric.drain_failures()
        (failure,) = fabric.run_many(
            [chaos_job("hang", hang_seconds=4.0)],
            jobs_n=1,
            cache=None,
            timeout=0.5,
            retries=0,
            fail_fast=False,
        )
        assert isinstance(failure, fabric.JobFailure)
        assert failure.kind == "timeout" and failure.attempts == 1
        assert [f.kind for f in fabric.drain_failures()] == ["timeout"]

    def test_flaky_job_retries_to_success(self, tmp_path: Path):
        marker = tmp_path / "flaky.marker"
        job = chaos_job("flaky", marker=str(marker))
        outcome = fabric.run_many(
            [job],
            jobs_n=2,
            cache=None,
            timeout=30.0,
            retries=1,
            backoff=0.0,
            fail_fast=False,
        )[0]
        assert isinstance(outcome, fabric.JobOutcome)
        assert marker.exists(), "first attempt must have crashed"
        assert fabric.drain_failures() == []

    def test_fail_fast_raises_on_crash(self):
        with pytest.raises(FabricError, match="crash"):
            fabric.run_many(
                [chaos_job("crash")],
                jobs_n=2,
                cache=None,
                timeout=30.0,
                retries=0,
                backoff=0.0,
                fail_fast=True,
            )

    def test_worker_exception_is_structured_not_retried(self):
        fabric.drain_failures()
        outcomes = fabric.run_many(
            [chaos_job("error"), chaos_job("ok", seed=7)],
            jobs_n=2,
            cache=None,
            retries=2,
            backoff=0.0,
            fail_fast=False,
        )
        failure, ok = outcomes
        assert isinstance(failure, fabric.JobFailure)
        assert failure.kind == "error" and failure.attempts == 1
        assert "RuntimeError" in failure.error
        assert isinstance(ok, fabric.JobOutcome)
        fabric.drain_failures()

    def test_inline_keep_going_yields_structured_failure(self):
        fabric.drain_failures()
        outcomes = fabric.run_many(
            [chaos_job("error"), chaos_job("ok", seed=8)],
            jobs_n=1,
            cache=None,
            fail_fast=False,
        )
        assert isinstance(outcomes[0], fabric.JobFailure)
        assert outcomes[0].kind == "error"
        assert isinstance(outcomes[1], fabric.JobOutcome)
        fabric.drain_failures()

    def test_failures_are_never_cached(self, tmp_path: Path):
        fabric.drain_failures()
        cache = fabric.ResultCache(tmp_path, salt="t")
        jobs = [chaos_job("error"), chaos_job("ok", seed=9)]
        fabric.run_many(jobs, jobs_n=1, cache=cache, fail_fast=False)
        assert cache.stats.stores == 1  # only the healthy job
        # Replaying serves the healthy job and re-fails the poison one.
        outcomes = fabric.run_many(jobs, jobs_n=1, cache=cache, fail_fast=False)
        assert isinstance(outcomes[0], fabric.JobFailure)
        assert isinstance(outcomes[1], fabric.JobOutcome) and outcomes[1].cached
        fabric.drain_failures()


class TestBackoffDeterminism:
    """The retry schedule is a pure function of (key, attempt): seeded
    jitter makes reruns (and hosts) agree exactly, while distinct jobs
    in a sweep desynchronize; a per-job timeout caps every delay."""

    def test_identical_across_reruns(self):
        from repro.fabric.jobs import _backoff_delay

        first = [_backoff_delay(0.5, a, key="job:A") for a in range(1, 6)]
        again = [_backoff_delay(0.5, a, key="job:A") for a in range(1, 6)]
        assert first == again

    def test_distinct_jobs_desynchronize(self):
        from repro.fabric.jobs import _backoff_delay

        a = [_backoff_delay(0.5, n, key="job:A") for n in range(1, 4)]
        b = [_backoff_delay(0.5, n, key="job:B") for n in range(1, 4)]
        assert a != b  # different jitter streams

    def test_exponential_envelope_with_bounded_jitter(self):
        from repro.fabric.jobs import _backoff_delay

        for attempt in range(1, 8):
            base = 0.25 * 2 ** (attempt - 1)
            delay = _backoff_delay(0.25, attempt, key="job:C")
            assert base <= delay <= base * 1.25

    def test_cap_bounds_every_attempt(self):
        """With a per-job timeout configured, backoff*growth never
        exceeds the job's own wall budget — late attempts would
        otherwise wait longer than the work they guard."""
        from repro.fabric.jobs import _backoff_delay

        timeout = 2.0
        for attempt in range(1, 12):
            delay = _backoff_delay(1.0, attempt, key="job:D", cap=timeout)
            assert delay <= timeout
        # far into the exponential range the cap is what binds
        assert _backoff_delay(1.0, 11, key="job:D", cap=timeout) == timeout

    def test_zero_backoff_is_immediate(self):
        from repro.fabric.jobs import _backoff_delay

        assert _backoff_delay(0.0, 5, key="job:E") == 0.0


class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_and_resimulated(self, tmp_path: Path):
        cache = fabric.ResultCache(tmp_path, salt="t")
        job = chaos_job("ok", seed=11)
        first = fabric.run_many([job], jobs_n=1, cache=cache)[0]

        key = job_key(cache, job)
        path = cache._path(key)
        path.write_bytes(b"garbage, not a cache entry")

        second = fabric.run_many([job], jobs_n=1, cache=cache)[0]
        assert not second.cached, "corrupt entry must not be served"
        assert second.result.fingerprint() == first.result.fingerprint()
        assert cache.stats.quarantined == 1
        assert (tmp_path / "quarantine" / path.name).exists()
        # The re-store replaced the entry; the next lookup is a clean hit.
        third = fabric.run_many([job], jobs_n=1, cache=cache)[0]
        assert third.cached
        assert third.result.fingerprint() == first.result.fingerprint()

    def test_unwritable_cache_degrades_gracefully(self, tmp_path: Path):
        # A cache rooted at a *file* makes every directory operation fail
        # with OSError regardless of uid — the fabric must still run.
        root = tmp_path / "not-a-dir"
        root.write_text("occupied")
        cache = fabric.ResultCache(root, salt="t")
        outcome = fabric.run_many([chaos_job("ok", seed=12)], jobs_n=1, cache=cache)[0]
        assert isinstance(outcome, fabric.JobOutcome)
        assert cache.stats.stores == 0 and cache.stats.errors >= 1

    def test_unreadable_entry_counts_error_not_crash(self, tmp_path: Path):
        cache = fabric.ResultCache(tmp_path, salt="t")
        key = cache.key("run", "x")
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.mkdir()  # a directory where the entry file should be
        assert cache.get(key) is None
        assert cache.stats.errors == 1 and cache.stats.misses == 1
        assert cache.stats.quarantined == 0
