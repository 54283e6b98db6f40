#!/usr/bin/env python
"""Rapid identification of architectural bottlenecks — the paper's title,
as a script.

Measures four SPEC-like kernels and two server workloads with precise
counters and prints, for each, the top-down bottleneck classification
(stalled vs retiring, by the measured stall fraction) under one line of
measured CPI, kernel and lock shares.

Run:  python examples/bottleneck_hunt.py
"""

from repro import SimConfig, run_program
from repro.analysis import bottleneck_report
from repro.workloads import (
    ApacheConfig,
    ApacheWorkload,
    MysqlConfig,
    MysqlWorkload,
    SpecKernelWorkload,
    kernel_catalog,
)

CONFIG = SimConfig(seed=7)


def main() -> None:
    targets = {}
    for name, kernel in kernel_catalog(scale=0.5).items():
        targets[name] = SpecKernelWorkload(kernel)
    targets["mysql"] = MysqlWorkload(
        MysqlConfig(n_workers=8, transactions_per_worker=40)
    )
    targets["apache"] = ApacheWorkload(
        ApacheConfig(n_workers=8, requests_per_worker=40)
    )

    print("architectural bottleneck classifications")
    print("========================================")
    for name, workload in targets.items():
        result = run_program(workload.build(), CONFIG)
        result.check_conservation()
        print()
        print(f"--- {name} ---")
        print(bottleneck_report(result))

    print()
    print(
        "the classifications come from exact per-domain event counts; on real "
        "hardware, collecting\nthese at this granularity is precisely what "
        "LiMiT-class counter access enables."
    )


if __name__ == "__main__":
    main()
