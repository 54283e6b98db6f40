"""Generative application models: the paper's case-study workloads."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.apache import ACCEPT_LOCK, ApacheConfig, ApacheWorkload
    from repro.workloads.apache import LOG_LOCK as APACHE_LOG_LOCK
    from repro.workloads.base import (
        COMPUTE_RATES,
        GC_RATES,
        HTTP_PARSE_RATES,
        Instrumentation,
        JS_INTERP_RATES,
        PARSE_RATES,
        ROW_ACCESS_RATES,
        Workload,
    )
    from repro.workloads.firefox import (
        FirefoxConfig,
        FirefoxWorkload,
        JsFunction,
        default_function_catalog,
    )
    from repro.workloads.microbench import (
        DensitySweepWorkload,
        ReadCostMicrobench,
        ReadCostResult,
    )
    from repro.workloads.memcached import (
        LRU_LOCK,
        MemcachedConfig,
        MemcachedWorkload,
        shard_lock,
    )
    from repro.workloads.mysql import MysqlConfig, MysqlWorkload, table_lock
    from repro.workloads.mysql import LOG_LOCK as MYSQL_LOG_LOCK
    from repro.workloads.pipeline import PipelineConfig, PipelineWorkload
    from repro.workloads.spec import (
        KernelSpec,
        SpecKernelWorkload,
        SpecSuiteWorkload,
        kernel_catalog,
    )
    from repro.workloads.streamcluster import StreamclusterConfig, StreamclusterWorkload
    from repro.workloads.synthetic import (
        BusyWorkload,
        ContentionConfig,
        ContentionWorkload,
    )
    from repro.workloads.traffic import TrafficConfig, TrafficWorkload

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "ACCEPT_LOCK": "apache",
    "ApacheConfig": "apache",
    "ApacheWorkload": "apache",
    "APACHE_LOG_LOCK": "apache:LOG_LOCK",
    "COMPUTE_RATES": "base",
    "GC_RATES": "base",
    "HTTP_PARSE_RATES": "base",
    "Instrumentation": "base",
    "JS_INTERP_RATES": "base",
    "PARSE_RATES": "base",
    "ROW_ACCESS_RATES": "base",
    "Workload": "base",
    "FirefoxConfig": "firefox",
    "FirefoxWorkload": "firefox",
    "JsFunction": "firefox",
    "default_function_catalog": "firefox",
    "DensitySweepWorkload": "microbench",
    "ReadCostMicrobench": "microbench",
    "ReadCostResult": "microbench",
    "LRU_LOCK": "memcached",
    "MemcachedConfig": "memcached",
    "MemcachedWorkload": "memcached",
    "shard_lock": "memcached",
    "MYSQL_LOG_LOCK": "mysql:LOG_LOCK",
    "MysqlConfig": "mysql",
    "MysqlWorkload": "mysql",
    "table_lock": "mysql",
    "PipelineConfig": "pipeline",
    "PipelineWorkload": "pipeline",
    "KernelSpec": "spec",
    "SpecKernelWorkload": "spec",
    "SpecSuiteWorkload": "spec",
    "kernel_catalog": "spec",
    "StreamclusterConfig": "streamcluster",
    "StreamclusterWorkload": "streamcluster",
    "BusyWorkload": "synthetic",
    "ContentionConfig": "synthetic",
    "ContentionWorkload": "synthetic",
    "TrafficConfig": "traffic",
    "TrafficWorkload": "traffic",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
