"""Picklable run jobs and the process-pool execution fabric.

A :class:`RunJob` names everything one engine run needs — a dotted-path
workload factory, its keyword arguments and a :class:`SimConfig` (which
carries the seed). Because the factory is resolved *inside* the executing
process, session/profiler objects the workload creates live and die with
the run; whatever the caller needs back travels as picklable data:

* ``outcome.result`` — the full :class:`~repro.sim.results.RunResult`;
* ``outcome.extra`` — the factory's optional ``extract(result)`` payload
  (use it to ship tool-side observations such as session read records).

:func:`run_many` executes a batch of jobs under the fabric policy, set
for a scope with :func:`policy` — in worker processes when the policy has
``jobs > 1`` or a per-job ``timeout``, inline otherwise — consults the
policy's result cache, and merges every engine run into the ambient
:mod:`repro.obs` collector so manifests stay correct regardless of where
runs physically executed. Simulation is deterministic, so outcomes are
byte-identical across serial, parallel and cache-hit execution (a
property test enforces this).

Worker execution is *fault-isolated*: every pooled job runs in its own
process, so a crashed worker (segfault, ``os._exit``, OOM kill) or a hung
one (per-job ``timeout``) is blamed on exactly the offending job — never
on innocent jobs sharing the sweep. Crashes and timeouts are retried
:data:`RETRIES` times after a jittered exponential backoff from
:data:`BACKOFF` seconds (they may be transient: a busy machine, an OOM
near-miss); deterministic Python exceptions are not retried, because the
simulator is deterministic and would fail identically. Under
``fail_fast=False`` a terminally failed job becomes a structured
:class:`JobFailure` in the outcome list and the sweep continues; under
``fail_fast=True`` (the default) the first terminal failure raises.
"""

from __future__ import annotations

import hashlib
import importlib
import multiprocessing
import time
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from typing import Any

from repro.common.config import SimConfig
from repro.common.errors import ConfigError, FabricError
from repro.fabric.cache import ResultCache
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import EngineRunRecord
from repro.obs.warnings import warn
from repro.sim.results import RunResult

#: How many times a crashed or timed-out job is re-run before it becomes a
#: terminal failure (deterministic exceptions never retry).
RETRIES = 1
#: Base backoff in seconds before a retry; the actual delay is
#: ``BACKOFF * 2**(attempt-1)`` with up to +25% jitter.
BACKOFF = 0.25


@dataclass(frozen=True)
class FabricConfig:
    """Process-local execution policy: pool width, result cache, per-job
    timeout and fail-fast. Set for a scope with :func:`policy`."""

    jobs: int = 1
    cache: ResultCache | None = None
    #: per-job wall-clock budget in seconds; None disables the watchdog.
    #: A budget runs every job in a worker process (``max(1, jobs)`` at a
    #: time), even at ``jobs=1``, so there is a process boundary to kill.
    timeout: float | None = None
    #: True: the first terminal job failure raises FabricError.
    #: False: failures come back as JobFailure and the sweep continues.
    fail_fast: bool = True


_config = FabricConfig()

#: Terminal JobFailures from every run_many in this process since the last
#: drain — the experiment runner reports these in its manifest/exit code.
_session_failures: list["JobFailure"] = []


def drain_failures() -> list["JobFailure"]:
    """Return (and clear) the terminal job failures seen by this process."""
    global _session_failures
    failures, _session_failures = _session_failures, []
    return failures


@contextmanager
def policy(**changes: Any) -> Iterator[FabricConfig]:
    """Run the block under the live policy with ``changes`` applied.

    ``changes`` name :class:`FabricConfig` fields (``jobs``, ``cache``,
    ``timeout``, ``fail_fast``); the ones left out keep their live values.
    The old policy comes back when the block exits, however it exits.
    """
    global _config
    config = replace(_config, **changes)
    if config.jobs < 1:
        raise ConfigError(f"fabric jobs must be >= 1, got {config.jobs}")
    if config.timeout is not None and config.timeout <= 0:
        raise ConfigError(f"fabric timeout must be > 0, got {config.timeout}")
    previous, _config = _config, config
    try:
        yield config
    finally:
        _config = previous


@dataclass
class RunJob:
    """One engine run as a picklable spec.

    ``workload`` is a dotted path to a factory; called with ``kwargs`` it
    returns either a list of :class:`~repro.sim.program.ThreadSpec` or an
    object with ``build() -> specs`` and (optionally) ``extract(result)``
    returning a picklable payload. ``kwargs`` values must have
    deterministic reprs (they are part of the cache key).
    """

    workload: str
    config: SimConfig
    kwargs: dict[str, Any] = field(default_factory=dict)
    label: str | None = None


@dataclass
class JobOutcome:
    """What one executed (or cache-replayed) job produced."""

    job: RunJob
    result: RunResult
    extra: Any
    records: list[EngineRunRecord]
    wall_seconds: float
    cached: bool = False


@dataclass
class JobFailure:
    """A job that terminally failed (after any retries).

    Appears in :func:`run_many`'s outcome list in place of a
    :class:`JobOutcome` when the policy has ``fail_fast=False``;
    ``kind`` is ``"crash"`` (worker process died), ``"timeout"`` (per-job
    wall budget exceeded; the worker was killed) or ``"error"`` (the job
    raised a Python exception).
    """

    job: RunJob
    error: str
    kind: str
    attempts: int
    wall_seconds: float

    def as_dict(self) -> dict[str, Any]:
        """Manifest-friendly summary of this failure."""
        return {
            "workload": self.job.workload,
            "label": self.job.label,
            "seed": self.job.config.seed,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
        }


def resolve(path: str) -> Any:
    """Import ``pkg.module.attr`` and return the attribute."""
    module_name, _, attr = path.rpartition(".")
    if not module_name:
        raise ConfigError(f"not a dotted path: {path!r}")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ConfigError(f"{module_name} has no attribute {attr!r}") from None


def job_key(cache: ResultCache, job: RunJob) -> str:
    return cache.key(
        "run", job.workload, tuple(sorted(job.kwargs.items())), job.config
    )


def execute_job(
    job: RunJob,
    capture_traces: bool = False,
    window_spec: Any | None = None,
) -> JobOutcome:
    """Run one job in the current process (pool workers land here too).

    ``window_spec`` shapes any windowed observations the workload makes
    (propagated from the ambient collector by :func:`run_many`, so serial
    and pooled runs window identically); the stats travel back on the
    outcome's records and merge exactly into the ambient collector.
    """
    from repro.sim.engine import Engine

    factory = resolve(job.workload)
    started = time.perf_counter()
    trial = factory(**job.kwargs)
    specs = trial.build() if hasattr(trial, "build") else trial

    with obs_runtime.collect(
        capture_traces=capture_traces,
        label=job.label or job.workload,
        window_spec=window_spec,
    ) as collector:
        result = Engine(job.config).run(specs)
    extra = trial.extract(result) if hasattr(trial, "extract") else None
    return JobOutcome(
        job=job,
        result=result,
        extra=extra,
        records=collector.records,
        wall_seconds=time.perf_counter() - started,
    )


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _child_entry(
    conn, job: RunJob, capture_traces: bool, window_spec: Any | None = None
) -> None:
    """Worker-process entry: run one job, ship the outcome over the pipe."""
    try:
        payload = ("ok", execute_job(job, capture_traces, window_spec))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        payload = ("error", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(payload)
    except Exception as exc:  # unpicklable outcome: still report something
        try:
            conn.send(("error", f"job outcome not picklable: {exc}"))
        except Exception:
            pass
    conn.close()


@dataclass
class _Attempt:
    """Book-keeping for one job's journey through the pooled scheduler."""

    index: int
    job: RunJob
    attempts: int = 0
    not_before: float = 0.0  #: monotonic time before which we won't respawn


def _backoff_delay(
    backoff: float,
    attempt: int,
    key: str = "",
    cap: float | None = None,
) -> float:
    """Exponential backoff with deterministic +0–25% jitter.

    The jitter fraction is derived by hashing ``(key, attempt)`` — stable
    across reruns and hosts (so retry schedules are reproducible and
    testable), while distinct jobs in a sweep still desynchronize their
    retries. ``cap`` bounds the delay: with a per-job ``timeout``
    configured, no retry ever waits longer than the job's own wall
    budget, so backoff can never dominate the deadline it serves.
    """
    if backoff <= 0:
        return 0.0
    digest = hashlib.sha256(f"{key}\x00{attempt}".encode("utf-8")).digest()
    frac = int.from_bytes(digest[:8], "little") / 2**64
    delay = backoff * (2 ** (attempt - 1)) * (1.0 + 0.25 * frac)
    if cap is not None:
        delay = min(delay, cap)
    return delay


def _stop_worker(proc) -> None:
    proc.terminate()
    proc.join(timeout=5.0)
    if proc.is_alive():  # pragma: no cover - SIGTERM ignored
        proc.kill()
        proc.join(timeout=5.0)


def _run_pooled(
    pending: list[tuple[int, str | None, RunJob]],
    workers: int,
    capture_traces: bool,
    timeout: float | None,
    fail_fast: bool,
    window_spec: Any | None = None,
) -> dict[int, "JobOutcome | JobFailure"]:
    """Run jobs with one process per job, at most ``workers`` at a time.

    One process per job (rather than a shared executor pool) is what makes
    failure *attribution* exact: a dead or hung worker names precisely the
    job it was running, so one poison job can never take down innocent
    jobs sharing the sweep the way a broken ProcessPoolExecutor does.
    """
    ctx = _mp_context()
    queue: deque[_Attempt] = deque(
        _Attempt(index=i, job=job) for i, _key, job in pending
    )
    running: dict[Any, tuple[Any, _Attempt, float, float | None]] = {}
    results: dict[int, JobOutcome | JobFailure] = {}

    def settle(att: _Attempt, kind: str, error: str, wall: float) -> None:
        """A worker attempt crashed or timed out: retry or finalize."""
        if att.attempts <= RETRIES:
            warn(
                f"fabric job {att.job.label or att.job.workload!r} "
                f"{kind} on attempt {att.attempts} ({error}); retrying"
            )
            att.not_before = time.monotonic() + _backoff_delay(
                BACKOFF,
                att.attempts,
                key=att.job.label or att.job.workload,
                cap=timeout,
            )
            queue.append(att)
            return
        failure = JobFailure(
            job=att.job,
            error=error,
            kind=kind,
            attempts=att.attempts,
            wall_seconds=wall,
        )
        results[att.index] = failure
        if fail_fast:
            raise FabricError(
                f"job {att.job.label or att.job.workload!r} {kind} after "
                f"{att.attempts} attempt(s): {error}"
            )

    try:
        while queue or running:
            now = time.monotonic()
            # Spawn eligible queued attempts into free worker slots.
            for _ in range(len(queue)):
                if len(running) >= workers:
                    break
                att = queue.popleft()
                if att.not_before > now:
                    queue.append(att)  # still backing off; rotate
                    continue
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_entry,
                    args=(send_conn, att.job, capture_traces, window_spec),
                    daemon=True,
                )
                att.attempts += 1
                proc.start()
                send_conn.close()
                deadline = None if timeout is None else now + timeout
                running[recv_conn] = (proc, att, now, deadline)
            if not running:
                time.sleep(0.01)  # every queued attempt is backing off
                continue
            # Reap finished workers (message arrived or pipe closed).
            for conn in mp_connection.wait(list(running), timeout=0.05):
                proc, att, started, _deadline = running.pop(conn)
                wall = time.monotonic() - started
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    msg = None  # died without reporting
                conn.close()
                proc.join(timeout=10.0)
                if proc.is_alive():  # pragma: no cover - wedged post-send
                    _stop_worker(proc)
                if msg is None:
                    settle(
                        att,
                        "crash",
                        f"worker process died (exit code {proc.exitcode})",
                        wall,
                    )
                elif msg[0] == "ok":
                    results[att.index] = msg[1]
                else:
                    # A Python exception is deterministic — no retry.
                    failure = JobFailure(
                        job=att.job,
                        error=msg[1],
                        kind="error",
                        attempts=att.attempts,
                        wall_seconds=wall,
                    )
                    results[att.index] = failure
                    if fail_fast:
                        raise FabricError(
                            f"job {att.job.label or att.job.workload!r} "
                            f"raised: {msg[1]}"
                        )
            # Kill workers past their per-job deadline.
            now = time.monotonic()
            for conn, (proc, att, started, deadline) in list(running.items()):
                if deadline is not None and now > deadline:
                    del running[conn]
                    _stop_worker(proc)
                    conn.close()
                    settle(
                        att,
                        "timeout",
                        "exceeded the per-job timeout of "
                        f"{deadline - started:g}s",
                        now - started,
                    )
    finally:
        for conn, (proc, _att, _started, _deadline) in running.items():
            _stop_worker(proc)
            conn.close()
    return results


def run_many(jobs: list[RunJob]) -> list["JobOutcome | JobFailure"]:
    """Execute a batch of jobs; outcomes come back in submission order.

    The pool width, result cache and failure policy come from the live
    :func:`policy`. When the ambient collector captures traces, caching
    is bypassed (trace events are host-side artifacts that must reflect a
    real execution) and traces ship back from the workers.

    With ``fail_fast=False``, a job that terminally fails (worker crash,
    timeout, or exception — after any retries) yields a
    :class:`JobFailure` at its slot instead of aborting the sweep; the
    failure is also queued for :func:`drain_failures`. Failures are never
    cached and contribute no records to the ambient collector.
    """
    config = _config
    collector = obs_runtime.current()
    capture_traces = collector.capture_traces if collector else False
    cache = None if capture_traces else config.cache
    # Inner collectors window observations identically wherever a job
    # physically runs, so serial and pooled summaries stay bit-identical.
    window_spec = collector.window_spec if collector else None

    # Fail-closed static analysis before anything is dispatched *or served
    # from cache*: the lint verdict must not depend on cache state. Raises
    # LintError naming every hazardous job in the batch.
    from repro.lint import gate as lint_gate

    if lint_gate.active():
        lint_gate.check_jobs(jobs)

    outcomes: list[JobOutcome | JobFailure | None] = [None] * len(jobs)
    pending: list[tuple[int, str | None, RunJob]] = []
    if cache is not None:
        for i, job in enumerate(jobs):
            key = job_key(cache, job)
            hit = cache.get(key)
            if hit is not None:
                hit.cached = True
                outcomes[i] = hit
            else:
                pending.append((i, key, job))
    else:
        pending = [(i, None, job) for i, job in enumerate(jobs)]

    # Jobs run one per worker process when parallelism is requested or a
    # timeout needs a process boundary to kill; inline otherwise.
    if pending and (config.jobs > 1 or config.timeout is not None):
        pooled = _run_pooled(
            pending,
            min(config.jobs, len(pending)),
            capture_traces,
            config.timeout,
            config.fail_fast,
            window_spec,
        )
        for i, _key, _job in pending:
            outcomes[i] = pooled[i]
    else:
        for i, _key, job in pending:
            started = time.perf_counter()
            try:
                outcomes[i] = execute_job(job, capture_traces, window_spec)
            except Exception as exc:
                if config.fail_fast:
                    raise
                outcomes[i] = JobFailure(
                    job=job,
                    error=f"{type(exc).__name__}: {exc}",
                    kind="error",
                    attempts=1,
                    wall_seconds=time.perf_counter() - started,
                )

    if cache is not None:
        for i, key, _job in pending:
            outcome = outcomes[i]
            if key is not None and isinstance(outcome, JobOutcome):
                cache.put(key, outcome)

    settled: list[JobOutcome | JobFailure] = []
    for outcome in outcomes:
        if outcome is None:
            raise FabricError("internal error: job outcome slot unfilled")
        if isinstance(outcome, JobFailure):
            _session_failures.append(outcome)
        elif collector is not None:
            collector.merge_records(
                outcome.records, keep_traces=capture_traces
            )
        settled.append(outcome)
    return settled


def run_one(job: RunJob) -> JobOutcome:
    """One job as a batch of one: ``run_many([job])[0]``."""
    return run_many([job])[0]
