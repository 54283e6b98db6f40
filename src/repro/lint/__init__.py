"""Static analysis for the LiMiT reproduction: measurement-hazard linting.

Two front ends share one findings model (:mod:`repro.lint.findings`):

* the **program/config analyzer** (:func:`lint_program`) walks the op DSL
  without executing and runs hazard passes (the ML rules) — unbalanced read
  windows, unsafe reads under reachable preemption, counter-overflow risk,
  reads inside critical sections, cross-thread slot aliasing, slot
  exhaustion, configs that disable the kernel patch their programs need,
  unmatchable fault plans;
* the **repo self-analyzer** (:func:`selfcheck_tree`) runs AST rules (the
  SA rules) over ``src/repro`` itself — nondeterminism in sim paths,
  unregistered trace-event kinds, direct PMU access bypassing the read
  protocol — plus registry-metadata cross-checks (the MR rules).

The fabric gate (:mod:`repro.lint.gate`) applies the program analyzer to
every :class:`~repro.fabric.jobs.RunJob` batch before dispatch, fail-closed
(``runner --lint`` / ``--lint-strict``). ``python -m repro.lint`` runs
everything from the shell. See docs/static-analysis.md for the rule catalog.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.lint.findings import (
        ERROR,
        INFO,
        REPORT_SCHEMA,
        SEVERITIES,
        WARNING,
        Finding,
        LintReport,
    )
    from repro.lint.meta import check_registry
    from repro.lint.rules import analyze_walk, lint_program
    from repro.lint.selfcheck import selfcheck_file, selfcheck_tree
    from repro.lint.walker import (
        DEFAULT_MAX_OPS,
        ProgramWalk,
        ThreadWalk,
        walk_program,
    )

#: Each public name and the submodule that defines it, imported on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    "ERROR": "findings",
    "INFO": "findings",
    "REPORT_SCHEMA": "findings",
    "SEVERITIES": "findings",
    "WARNING": "findings",
    "Finding": "findings",
    "LintReport": "findings",
    "check_registry": "meta",
    "analyze_walk": "rules",
    "lint_program": "rules",
    "selfcheck_file": "selfcheck",
    "selfcheck_tree": "selfcheck",
    "DEFAULT_MAX_OPS": "walker",
    "ProgramWalk": "walker",
    "ThreadWalk": "walker",
    "walk_program": "walker",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
