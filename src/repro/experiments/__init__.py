"""Experiment harness: one module per reproduced table/figure (E1..E18).

See DESIGN.md's per-experiment index for the mapping from paper artifact to
module, and EXPERIMENTS.md for paper-vs-measured results.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.base import ExperimentResult

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "ExperimentResult": "base",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
