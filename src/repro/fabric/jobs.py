"""Picklable run jobs and the process-pool execution fabric.

A :class:`RunJob` names everything one engine run needs — a dotted-path
workload factory, its keyword arguments and a :class:`SimConfig` (which
carries the seed). Because the factory is resolved *inside* the executing
process, session/profiler objects the workload creates live and die with
the run; whatever the caller needs back travels as picklable data:

* ``outcome.result`` — the full :class:`~repro.sim.results.RunResult`;
* ``outcome.extra`` — the factory's optional ``extract(result)`` payload
  (use it to ship tool-side observations such as session read records).

:func:`run_many` executes a batch of jobs — in worker processes when the
fabric is configured with ``jobs > 1``, inline otherwise — consults the
result cache when one is configured, and merges every engine run into the
ambient :mod:`repro.obs` collector so manifests stay correct regardless of
where runs physically executed. Simulation is deterministic, so outcomes
are byte-identical across serial, parallel and cache-hit execution (a
property test enforces this).

Worker execution is *fault-isolated*: every pooled job runs in its own
process, so a crashed worker (segfault, ``os._exit``, OOM kill) or a hung
one (per-job ``timeout``) is blamed on exactly the offending job — never
on innocent jobs sharing the sweep. Crashes and timeouts are retried with
jittered exponential backoff up to ``retries`` times (they may be
transient: a busy machine, an OOM near-miss); deterministic Python
exceptions are not retried, because the simulator is deterministic and
would fail identically. Under ``fail_fast=False`` a terminally failed job
becomes a structured :class:`JobFailure` in the outcome list and the sweep
continues; under ``fail_fast=True`` (the library default, matching the
historical behaviour) the first terminal failure raises.
"""

from __future__ import annotations

import hashlib
import importlib
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any

from repro.common.config import SimConfig
from repro.common.errors import ConfigError, FabricError
from repro.fabric.cache import ResultCache
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import EngineRunRecord
from repro.obs.warnings import warn
from repro.sim.results import RunResult

class _Unset:
    """Sentinel type for "argument omitted" as distinct from an explicit
    ``None``; a real class (not a bare ``object()``) so ``isinstance``
    checks narrow the ``X | None | _Unset`` unions below."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unset>"


_UNSET = _Unset()


@dataclass
class FabricConfig:
    """Process-local execution policy: pool width, result cache, and the
    failure policy (per-job timeout, retry budget, fail-fast)."""

    jobs: int = 1
    cache: ResultCache | None = None
    #: per-job wall-clock budget in seconds for pooled execution; None
    #: disables the watchdog (inline runs are never timed out — there is
    #: no process boundary to kill).
    timeout: float | None = None
    #: how many times a crashed or timed-out job is re-run before it
    #: becomes a terminal failure (deterministic exceptions never retry).
    retries: int = 1
    #: base backoff in seconds before a retry; the actual delay is
    #: ``backoff * 2**(attempt-1)`` with up to +25% jitter.
    backoff: float = 0.25
    #: True: first terminal job failure raises (historical behaviour).
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


def configure(
    jobs: int | None = None,
    cache: "ResultCache | None | _Unset" = _UNSET,
    cache_dir: "str | None | _Unset" = _UNSET,
    salt: str | None = None,
    timeout: "float | None | _Unset" = _UNSET,
    retries: int | None = None,
    backoff: float | None = None,
    fail_fast: bool | None = None,
) -> FabricConfig:
    """Set the process-wide fabric policy; returns the live config.

    ``cache`` takes a ready :class:`ResultCache` (or None to disable);
    ``cache_dir`` builds one at that path. Passing neither leaves the
    current cache untouched. ``timeout``/``retries``/``backoff``/
    ``fail_fast`` set the failure policy (see :class:`FabricConfig`).
    """
    if jobs is not None:
        if jobs < 1:
            raise ConfigError(f"fabric jobs must be >= 1, got {jobs}")
        _config.jobs = jobs
    if not isinstance(cache, _Unset):
        _config.cache = cache
    elif not isinstance(cache_dir, _Unset):
        _config.cache = (
            ResultCache(cache_dir, salt=salt) if cache_dir else None
        )
    if not isinstance(timeout, _Unset):
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"fabric timeout must be > 0, got {timeout}")
        _config.timeout = timeout
    if retries is not None:
        if retries < 0:
            raise ConfigError(f"fabric retries must be >= 0, got {retries}")
        _config.retries = retries
    if backoff is not None:
        if backoff < 0:
            raise ConfigError(f"fabric backoff must be >= 0, got {backoff}")
        _config.backoff = backoff
    if fail_fast is not None:
        _config.fail_fast = fail_fast
    return _config


def current() -> FabricConfig:
    return _config


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
    :class:`JobOutcome` when the fabric runs with ``fail_fast=False``;
    ``kind`` is ``"crash"`` (worker process died), ``"timeout"`` (per-job
    wall budget exceeded; the worker was killed) or ``"error"`` (the job
    raised a Python exception).
    """

    job: RunJob
    error: str
    kind: str
    attempts: int
    wall_seconds: float
    cached: bool = False  #: always False; mirrors JobOutcome for callers

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
    retries: int,
    backoff: float,
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
        if att.attempts <= retries:
            warn(
                f"fabric job {att.job.label or att.job.workload!r} "
                f"{kind} on attempt {att.attempts} ({error}); retrying"
            )
            att.not_before = time.monotonic() + _backoff_delay(
                backoff,
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


def run_many(
    jobs: list[RunJob],
    *,
    jobs_n: int | None = None,
    cache: "ResultCache | None | _Unset" = _UNSET,
    capture_traces: bool | None = None,
    timeout: "float | None | _Unset" = _UNSET,
    retries: int | None = None,
    backoff: float | None = None,
    fail_fast: bool | None = None,
) -> list["JobOutcome | JobFailure"]:
    """Execute a batch of jobs; outcomes come back in submission order.

    Defaults come from :func:`configure`: pool width from ``jobs``, the
    result cache from ``cache``, and the failure policy (``timeout``,
    ``retries``, ``backoff``, ``fail_fast``) from the matching config
    fields. When the ambient collector captures traces, caching is
    bypassed (trace events are host-side artifacts that must reflect a
    real execution) and traces ship back from the workers.

    With ``fail_fast=False``, a job that terminally fails (worker crash,
    timeout, or exception — after any retries) yields a
    :class:`JobFailure` at its slot instead of aborting the sweep; the
    failure is also queued for :func:`drain_failures`. Failures are never
    cached and contribute no records to the ambient collector.
    """
    if jobs_n is None:
        jobs_n = _config.jobs
    if isinstance(cache, _Unset):
        cache = _config.cache
    if isinstance(timeout, _Unset):
        timeout = _config.timeout
    if retries is None:
        retries = _config.retries
    if backoff is None:
        backoff = _config.backoff
    if fail_fast is None:
        fail_fast = _config.fail_fast
    collector = obs_runtime.current()
    if capture_traces is None:
        capture_traces = collector.capture_traces if collector else False
    if capture_traces:
        cache = None
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

    # Pool when parallelism is requested; a single pending job only pays
    # for a worker process when a timeout needs the process boundary.
    use_pool = jobs_n > 1 and (
        len(pending) > 1 or (pending and timeout is not None)
    )
    if use_pool:
        workers = min(jobs_n, len(pending))
        pooled = _run_pooled(
            pending,
            workers,
            capture_traces,
            timeout,
            retries,
            backoff,
            fail_fast,
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
                if fail_fast:
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


def run_one(job: RunJob, **kwargs) -> JobOutcome:
    """Convenience wrapper: ``run_many([job])[0]``."""
    return run_many([job], **kwargs)[0]
