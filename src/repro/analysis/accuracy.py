"""Measurement-accuracy scoring: tool observations vs ground truth.

Central to experiments E3 (sampling precision) and E4 (read atomicity):
given what a tool reported and what the simulator knows actually happened,
quantify the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class ErrorSummary:
    """Distribution summary of signed measurement errors."""

    n: int
    n_wrong: int              #: measurements with non-zero error
    max_abs: int
    mean_abs: float
    rms: float

    @property
    def all_exact(self) -> bool:
        return self.n_wrong == 0


def summarize_errors(errors: Iterable[int]) -> ErrorSummary:
    errs = list(errors)
    n = len(errs)
    if n == 0:
        return ErrorSummary(n=0, n_wrong=0, max_abs=0, mean_abs=0.0, rms=0.0)
    abs_errs = [abs(e) for e in errs]
    return ErrorSummary(
        n=n,
        n_wrong=sum(1 for e in abs_errs if e),
        max_abs=max(abs_errs),
        mean_abs=sum(abs_errs) / n,
        rms=math.sqrt(sum(e * e for e in errs) / n),
    )


def relative_error(estimate: float, truth: float) -> float:
    """|estimate - truth| / truth; inf when truth == 0 and estimate != 0."""
    if truth == 0:
        return 0.0 if estimate == 0 else float("inf")
    return abs(estimate - truth) / truth


@dataclass(frozen=True)
class AttributionScore:
    """How well a statistical profile matches the true per-region profile."""

    n_regions: int
    n_resolved: int             #: regions the tool attributed anything to
    mean_relative_error: float  #: over resolved regions
    worst_relative_error: float

    @property
    def resolution(self) -> float:
        """Fraction of true regions the tool saw at all."""
        return self.n_resolved / self.n_regions if self.n_regions else 0.0


def score_attribution(
    estimates: dict[str, float], truths: dict[str, float]
) -> AttributionScore:
    """Score per-region estimates against per-region ground truth.

    Regions absent from ``estimates`` count as unresolved; their error does
    not pollute the mean (resolution captures the miss), matching how the
    paper discusses sampling's blindness to short regions.
    """
    n_regions = len(truths)
    rel_errors = []
    n_resolved = 0
    for region, truth in truths.items():
        est = estimates.get(region, 0.0)
        if est > 0:
            n_resolved += 1
            rel_errors.append(relative_error(est, truth))
    return AttributionScore(
        n_regions=n_regions,
        n_resolved=n_resolved,
        mean_relative_error=(
            sum(rel_errors) / len(rel_errors) if rel_errors else float("inf")
        ),
        worst_relative_error=max(rel_errors, default=float("inf")),
    )
