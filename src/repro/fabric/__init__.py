"""repro.fabric: parallel run execution and deterministic result caching.

The fabric turns the evaluation suite's independent (seed, config) runs
into picklable job specs that can execute in a process pool and be replayed
from a content-addressed on-disk cache. Determinism is the contract: a
run's outputs depend only on its inputs and the simulator source, so
serial, parallel and cached execution all produce identical results.

One policy governs execution — pool width, result cache, per-job timeout
and fail-fast — set for a scope with ``with policy(jobs=..., cache=...)``
and restored when the scope exits; every :func:`run_many` in the scope
follows it.

The fabric is also crash-tolerant: pooled jobs run one-per-process with a
per-job timeout and a fixed retry budget, so a crashed or hung worker
yields a structured :class:`JobFailure` (under ``fail_fast=False``)
instead of taking down the sweep, and corrupt cache entries are
quarantined rather than fatal (see :mod:`repro.fabric.cache` and
``docs/robustness.md``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.fabric.cache import CacheStats, ResultCache, code_salt, default_cache_dir
    from repro.fabric.jobs import (
        FabricConfig,
        JobFailure,
        JobOutcome,
        RunJob,
        drain_failures,
        execute_job,
        policy,
        run_many,
        run_one,
    )

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "CacheStats": "cache",
    "ResultCache": "cache",
    "code_salt": "cache",
    "default_cache_dir": "cache",
    "FabricConfig": "jobs",
    "JobFailure": "jobs",
    "JobOutcome": "jobs",
    "RunJob": "jobs",
    "drain_failures": "jobs",
    "execute_job": "jobs",
    "policy": "jobs",
    "run_many": "jobs",
    "run_one": "jobs",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
