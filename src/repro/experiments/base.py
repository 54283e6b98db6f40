"""Experiment infrastructure: result container and shared helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.config import SimConfig
from repro.common.errors import ExperimentError
from repro.obs import runtime as obs_runtime


@dataclass
class ExperimentResult:
    """Everything one regenerated table/figure produces.

    ``metrics`` holds the headline numbers (used by tests/EXPERIMENTS.md);
    ``blocks`` holds the rendered text tables/series the paper artifact
    corresponds to.
    """

    exp_id: str
    title: str
    paper_claim: str
    blocks: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        header = f"[{self.exp_id}] {self.title}"
        lines = [header, "=" * len(header), f"paper claim: {self.paper_claim}", ""]
        for block in self.blocks:
            lines.append(block)
            lines.append("")
        if self.metrics:
            lines.append("headline metrics:")
            for key, value in self.metrics.items():
                if isinstance(value, float):
                    lines.append(f"  {key} = {value:.4g}")
                else:
                    lines.append(f"  {key} = {value}")
        if self.notes:
            lines.append("")
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def metric(self, key: str) -> float:
        try:
            return self.metrics[key]
        except KeyError:
            raise ExperimentError(
                f"{self.exp_id} has no metric {key!r}; "
                f"available: {sorted(self.metrics)}"
            ) from None


#: Clean outcomes (runner ``EntryOutcome``) of the experiments already run
#: in this invocation, keyed by ``(exp_id, quick)``. The runner's
#: ``run_entries`` fills it and clears it when it returns; :func:`reuse`
#: serves from it.
outcomes: dict[tuple[str, bool], Any] = {}
_reused: list[str] = []


def reuse(module, quick: bool) -> ExperimentResult:
    """``module.run(quick=quick)``, unless this invocation already ran it.

    A hit dispatches nothing: the outcome's engine-run records, alert
    specs and assumption verdicts go into the ambient collector, as a
    re-run would have put them there, and the result carries the
    outcome's headline metrics (no rendered blocks).
    """
    outcome = outcomes.get((module.EXP_ID, quick))
    if outcome is None:
        return module.run(quick=quick)
    collector = obs_runtime.current()
    if collector is not None:
        collector.merge_records(outcome.records)
        for spec in outcome.alert_specs:
            obs_runtime.register_alert_spec(spec)
        obs_runtime.register_assumption_verdicts(outcome.assumption_verdicts)
    _reused.append(module.EXP_ID)
    return ExperimentResult(
        exp_id=module.EXP_ID,
        title=module.TITLE,
        paper_claim=module.PAPER_CLAIM,
        metrics=dict(outcome.result_metrics),
    )


def drain_reused() -> list[str]:
    """Ids :func:`reuse` served since the last drain, in call order."""
    drained = list(_reused)
    _reused.clear()
    return drained


def single_core_config(seed: int = 0, timeslice: int = 1_000_000) -> SimConfig:
    """The standard uniprocessor configuration used by microbenchmarks."""
    from repro.common.config import KernelConfig, MachineConfig

    return SimConfig(
        machine=MachineConfig(n_cores=1),
        kernel=KernelConfig(timeslice_cycles=timeslice),
        seed=seed,
    )


def multicore_config(
    n_cores: int = 4, seed: int = 0, timeslice: int = 1_000_000
) -> SimConfig:
    from repro.common.config import KernelConfig, MachineConfig

    return SimConfig(
        machine=MachineConfig(n_cores=n_cores),
        kernel=KernelConfig(timeslice_cycles=timeslice),
        seed=seed,
    )
