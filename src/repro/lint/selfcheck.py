"""Repo self-analyzer: AST rules over ``src/repro`` itself.

The simulator's contract is bit-exact determinism (same config + seed =>
same fingerprint) and a single audited path to the virtual PMU. These rules
keep the *source tree* honest about both, without executing anything:

* SA001 ``wall-clock-in-sim-path`` — nondeterminism sources (``time.time``,
  ``datetime.now``/``utcnow``, module-level unseeded ``random.*``,
  ``uuid.uuid4``, ``os.urandom``) inside determinism-critical packages.
  ``time.perf_counter`` is exempt: it feeds self-telemetry (wall-clock
  metrics) and never simulator state, and :func:`repro.obs` fingerprints
  exclude telemetry. Orchestration layers that legitimately live in
  wall-clock time (``obs``, ``fabric``, ``bench``, ``cli``) are out of
  scope by design.
* SA002 ``unregistered-trace-kind`` — ``*.emit(...)`` with a string-literal
  event kind not registered in :data:`repro.obs.trace.KINDS`. Unregistered
  kinds break manifest consumers and the Perfetto exporter silently.
* SA003 ``direct-pmu-access`` — constructing raw counter-access ops
  (``Rdpmc``, ``RdpmcDestructive``, ``LoadVAccum``, ``PmcUnsafeRead``)
  outside the read-protocol layer (``repro.core``) and the op definitions
  themselves (``repro.sim``). Everything else must go through the session
  classes of :mod:`repro.core` so hazards stay analyzable (and E17's
  injector stays able to exercise them).

Suppression: append ``# lint: allow[SA001]`` (or a comma-separated list,
``# lint: allow[SA001,SA003]``) to the offending line. Suppressions are
counted in the report, never silent.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.lint.findings import ERROR, Finding, LintReport

#: Top-level ``repro.*`` packages whose behaviour must be a pure function of
#: (config, seed). Wall-clock layers — obs (telemetry), fabric (process
#: orchestration), bench, cli, the runner's timing — are intentionally absent.
DETERMINISM_PACKAGES = (
    "sim",
    "core",
    "kernel",
    "hw",
    "faults",
    "common",
    "lint",
)

#: (module, attr) call targets that introduce nondeterminism. ``random``
#: module-level functions draw from the unseeded global Random instance;
#: seeded ``repro.common.rng.RandomStream`` is the sanctioned source.
_NONDET_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
    ("os", "urandom"),
    ("uuid", "uuid4"),
    ("uuid", "uuid1"),
    ("random", "random"),
    ("random", "randint"),
    ("random", "randrange"),
    ("random", "uniform"),
    ("random", "choice"),
    ("random", "choices"),
    ("random", "shuffle"),
    ("random", "sample"),
    ("random", "gauss"),
    ("random", "getrandbits"),
    ("random", "seed"),
}

#: Raw counter-access op constructors only repro.core/repro.sim may call.
_RAW_PMU_OPS = frozenset(
    {"Rdpmc", "RdpmcDestructive", "LoadVAccum", "PmcUnsafeRead"}
)

#: Packages allowed to construct raw PMU ops: the protocol layer and the
#: op/engine definitions.
_PMU_ALLOWED_PACKAGES = ("core", "sim")

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\[([A-Z0-9, ]+)\]")


def _suppressions(source: str) -> dict[int, set[str]]:
    """line number -> rule ids suppressed on that line."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _ALLOW_RE.search(line)
        if m:
            out[lineno] = {r.strip() for r in m.group(1).split(",") if r.strip()}
    return out


def _call_target(node: ast.Call) -> tuple[str, str] | None:
    """Resolve a call to (base, attr): ``time.time()`` -> ("time", "time").

    Handles one extra attribute hop for ``datetime.datetime.now()``.
    """
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    base = func.value
    if isinstance(base, ast.Name):
        return (base.id, attr)
    if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
        # datetime.datetime.now() / datetime.date.today()
        return (base.attr, attr)
    return None


def _package_of(rel_path: Path) -> str:
    """Top-level package of a file under src/repro ('' for repro/x.py)."""
    parts = rel_path.parts
    return parts[0] if len(parts) > 1 else ""


class _SourceVisitor(ast.NodeVisitor):
    def __init__(
        self,
        rel_name: str,
        package: str,
        trace_kinds: frozenset[str],
        suppressed: dict[int, set[str]],
        report: LintReport,
    ) -> None:
        self.rel_name = rel_name
        self.package = package
        self.trace_kinds = trace_kinds
        self.suppressed = suppressed
        self.report = report

    def _add(self, rule: str, line: int, message: str, fix_hint: str) -> None:
        if rule in self.suppressed.get(line, set()):
            self.report.suppressed += 1
            return
        self.report.add(Finding(
            rule=rule,
            severity=ERROR,
            message=message,
            fix_hint=fix_hint,
            file=self.rel_name,
            line=line,
        ))

    def visit_Call(self, node: ast.Call) -> None:
        target = _call_target(node)

        # SA001: nondeterminism in determinism-critical packages.
        if (
            target in _NONDET_CALLS
            and self.package in DETERMINISM_PACKAGES
        ):
            base, attr = target  # type: ignore[misc]
            self._add(
                "SA001",
                node.lineno,
                f"{base}.{attr}() in determinism-critical package "
                f"repro.{self.package}: results must be a pure function of "
                "(config, seed)",
                "use repro.common.rng.RandomStream for randomness and "
                "simulated cycles for time; wall-clock telemetry belongs in "
                "repro.obs (time.perf_counter is exempt)",
            )

        # SA002: string-literal trace kind not registered in obs KINDS.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
            and len(node.args) >= 4
        ):
            kind_arg = node.args[3]
            if (
                isinstance(kind_arg, ast.Constant)
                and isinstance(kind_arg.value, str)
                and kind_arg.value not in self.trace_kinds
            ):
                self._add(
                    "SA002",
                    node.lineno,
                    f"trace emit with unregistered event kind "
                    f"{kind_arg.value!r}: manifest consumers and the "
                    "Perfetto exporter only understand registered kinds",
                    "add the kind to repro.obs.trace.KIND_DESCRIPTIONS "
                    "(or use an existing tr.* constant)",
                )

        # SA003: raw PMU op construction outside the protocol layer.
        ctor = ""
        if isinstance(node.func, ast.Name) and node.func.id in _RAW_PMU_OPS:
            ctor = node.func.id
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _RAW_PMU_OPS
        ):
            ctor = node.func.attr
        if ctor and self.package not in _PMU_ALLOWED_PACKAGES:
            self._add(
                "SA003",
                node.lineno,
                f"direct PMU access: {ctor}(...) constructed outside "
                "repro.core/repro.sim bypasses the audited read protocol",
                "read through a repro.core session class "
                "(LimitSession.read_safe / read_unsafe / read_destructive)",
            )

        self.generic_visit(node)


def _trace_kinds() -> frozenset[str]:
    from repro.obs.trace import KINDS

    return KINDS


def selfcheck_file(
    path: Path, root: Path, trace_kinds: frozenset[str] | None = None
) -> LintReport:
    """Run the SA rules over one source file."""
    report = LintReport()
    rel = path.relative_to(root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(rel))
    except SyntaxError as exc:
        report.add(Finding(
            rule="SA000",
            severity=ERROR,
            message=f"file does not parse: {exc.msg}",
            fix_hint="fix the syntax error",
            file=str(rel),
            line=exc.lineno or 0,
        ))
        return report
    visitor = _SourceVisitor(
        rel_name=str(rel),
        package=_package_of(rel),
        trace_kinds=trace_kinds if trace_kinds is not None else _trace_kinds(),
        suppressed=_suppressions(source),
        report=report,
    )
    visitor.visit(tree)
    report.note_checked("files")
    return report


def selfcheck_tree(root: Path | None = None) -> LintReport:
    """Run the SA rules over every Python file under ``src/repro``.

    ``root`` is the ``repro`` package directory; by default it is located
    from this module's own position in the tree.
    """
    if root is None:
        root = Path(__file__).resolve().parent.parent
    report = LintReport()
    kinds = _trace_kinds()
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        report.merge(selfcheck_file(path, root, trace_kinds=kinds))
    return report
