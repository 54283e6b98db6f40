"""Registry of all reproduced evaluation artifacts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ExperimentError
from repro.experiments import (
    e01_read_cost,
    e02_overhead_density,
    e03_precision,
    e04_atomicity,
    e05_overflow,
    e06_mysql_sync,
    e07_cs_histogram,
    e08_user_kernel,
    e09_firefox,
    e10_profilers,
    e11_enhancements,
    e12_implications,
    e13_multiplexing,
    e14_spin_ablation,
    e15_consolidation,
    e16_behavior_over_time,
    e17_fault_matrix,
    e18_lint_validation,
    e19_open_loop,
    e20_resilience,
    e21_refutation,
)
from repro.experiments.base import ExperimentResult


@dataclass(frozen=True)
class ExperimentEntry:
    exp_id: str
    title: str
    paper_claim: str
    run: Callable[..., ExperimentResult]


_MODULES = [
    e01_read_cost,
    e02_overhead_density,
    e03_precision,
    e04_atomicity,
    e05_overflow,
    e06_mysql_sync,
    e07_cs_histogram,
    e08_user_kernel,
    e09_firefox,
    e10_profilers,
    e11_enhancements,
    e12_implications,
    e13_multiplexing,
    e14_spin_ablation,
    e15_consolidation,
    e16_behavior_over_time,
    e17_fault_matrix,
    e18_lint_validation,
    e19_open_loop,
    e20_resilience,
    e21_refutation,
]

REGISTRY: dict[str, ExperimentEntry] = {
    m.EXP_ID: ExperimentEntry(
        exp_id=m.EXP_ID,
        title=m.TITLE,
        paper_claim=m.PAPER_CLAIM,
        run=m.run,
    )
    for m in _MODULES
}


def get(exp_id: str) -> ExperimentEntry:
    entry = REGISTRY.get(exp_id.upper())
    if entry is None:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; available: {sorted(REGISTRY)}"
        )
    return entry


def all_experiments() -> list[ExperimentEntry]:
    return [REGISTRY[k] for k in sorted(REGISTRY, key=_sort_key)]


def _sort_key(exp_id: str) -> int:
    return int(exp_id[1:])
