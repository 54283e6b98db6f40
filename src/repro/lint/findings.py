"""Typed lint findings and the report container.

Every hazard either front end detects — the program/config analyzer walking
the op DSL (:mod:`repro.lint.walker` + :mod:`repro.lint.rules`) or the repo
self-analyzer running AST rules over ``src/repro`` (:mod:`repro.lint.selfcheck`)
— becomes one :class:`Finding`: a rule id, a severity, a span naming where the
hazard lives (thread + op index for program findings, file + line for source
findings), a human message and a concrete fix hint.

Findings aggregate into a :class:`LintReport`, which renders for terminals,
serialises for run manifests (schema ``repro.lint/report/v1``, exported
through :func:`repro.obs.export.write_manifest`) and answers the only
question gates ask: :meth:`LintReport.ok`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

#: Severity ladder. ``error`` findings describe programs/configs/source that
#: will mismeasure, crash, or break determinism; ``warning`` findings describe
#: measurement-quality hazards (observer effects, PMI pressure); ``info``
#: findings are advisory notes (e.g. an unsafe read that happens to be
#: unreachable by any preemption source in this config).
ERROR = "error"
WARNING = "warning"
INFO = "info"

SEVERITIES: tuple[str, ...] = (ERROR, WARNING, INFO)

#: Manifest schema identifier for serialized reports.
REPORT_SCHEMA = "repro.lint/report/v1"


@dataclass(frozen=True)
class Finding:
    """One static-analysis hazard.

    Exactly one of the two span flavours is populated: program findings
    carry ``thread``/``op_index`` (the op ordinal inside that thread's
    walked timeline), source findings carry ``file``/``line``.
    """

    rule: str            #: stable rule id, e.g. "ML003" (see docs/static-analysis.md)
    severity: str        #: one of ERROR / WARNING / INFO
    message: str         #: what is wrong, in one sentence
    fix_hint: str = ""   #: the concrete change that clears the finding
    thread: str = ""     #: program findings: thread name
    op_index: int | None = None  #: program findings: op ordinal in the walk
    file: str = ""       #: source findings: repo-relative path
    line: int = 0        #: source findings: 1-based line number

    def span(self) -> str:
        """Human-readable location of the hazard."""
        if self.file:
            return f"{self.file}:{self.line}"
        if self.thread:
            where = f"op {self.op_index}" if self.op_index is not None else "program"
            return f"thread {self.thread!r} ({where})"
        return "config"

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "span": self.span(),
        }
        if self.fix_hint:
            out["fix_hint"] = self.fix_hint
        if self.thread:
            out["thread"] = self.thread
            if self.op_index is not None:
                out["op_index"] = self.op_index
        if self.file:
            out["file"] = self.file
            out["line"] = self.line
        return out

    def render(self) -> str:
        hint = f"\n    fix: {self.fix_hint}" if self.fix_hint else ""
        return (
            f"{self.severity.upper():<7} {self.rule} {self.span()}: "
            f"{self.message}{hint}"
        )


@dataclass
class LintReport:
    """All findings of one analysis run, plus what was analyzed.

    ``suppressed`` counts findings dropped by rule-id suppression so the
    report is honest about what it is *not* showing.
    """

    findings: list[Finding] = field(default_factory=list)
    checked: dict[str, int] = field(default_factory=dict)  #: unit -> count
    suppressed: int = 0
    #: threads whose static walk hit the op budget (analysis covered only
    #: a prefix of their timeline), and the budget that cut them short
    walk_truncated: int = 0
    walk_max_ops: int = 0

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def merge(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        for unit, n in other.checked.items():
            self.checked[unit] = self.checked.get(unit, 0) + n
        self.suppressed += other.suppressed
        self.walk_truncated += other.walk_truncated
        self.walk_max_ops = max(self.walk_max_ops, other.walk_max_ops)

    def note_checked(self, unit: str, n: int = 1) -> None:
        self.checked[unit] = self.checked.get(unit, 0) + n

    # -- verdicts ----------------------------------------------------------

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def ok(self, strict: bool = False) -> bool:
        """Gate verdict: errors always fail; strict also fails warnings."""
        if self.errors():
            return False
        if strict and self.warnings():
            return False
        return True

    # -- output ------------------------------------------------------------

    def suppress(self, rules: Iterable[str]) -> "LintReport":
        """Return a copy with findings of the given rule ids removed."""
        drop = set(rules)
        kept = [f for f in self.findings if f.rule not in drop]
        out = LintReport(
            findings=kept,
            checked=dict(self.checked),
            suppressed=self.suppressed + (len(self.findings) - len(kept)),
            walk_truncated=self.walk_truncated,
            walk_max_ops=self.walk_max_ops,
        )
        return out

    def summary_line(self) -> str:
        n_err = len(self.errors())
        n_warn = len(self.warnings())
        n_info = len(self.findings) - n_err - n_warn
        units = ", ".join(f"{n} {unit}" for unit, n in sorted(self.checked.items()))
        sup = f", {self.suppressed} suppressed" if self.suppressed else ""
        trunc = ""
        if self.walk_truncated:
            trunc = (
                f" [walk truncated {self.walk_truncated} thread(s) at the "
                f"{self.walk_max_ops}-op budget; hazards past each prefix "
                "unchecked]"
            )
        return (
            f"{n_err} error(s), {n_warn} warning(s), {n_info} info "
            f"[checked {units or 'nothing'}{sup}]{trunc}"
        )

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(self.summary_line())
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        """Manifest block (schema ``repro.lint/report/v1``)."""
        return {
            "schema": REPORT_SCHEMA,
            "findings": [f.as_dict() for f in self.findings],
            "by_rule": self.by_rule(),
            "n_errors": len(self.errors()),
            "n_warnings": len(self.warnings()),
            "checked": dict(self.checked),
            "suppressed": self.suppressed,
            "walk": {
                "truncated_threads": self.walk_truncated,
                "max_ops": self.walk_max_ops,
            },
            "ok": self.ok(),
        }
