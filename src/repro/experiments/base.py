"""Experiment infrastructure: result container and shared helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import SimConfig
from repro.common.errors import ExperimentError


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
