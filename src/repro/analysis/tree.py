"""TMA-style top-down metric trees: declarative bottleneck classification.

Intel's top-down method (TMA) classifies where a run's cycles went by
walking a *hierarchical* metric tree level by level: at each level the
children partition the parent's cycle share, the dominant child names the
bottleneck at that granularity, and only the dominant subtree is
descended — shallow metrics stay cheap, detail appears only where it
matters. This module brings that discipline to the Nehalem-like model:
the tree is *declared* (node expressions in the :mod:`repro.analysis.expr`
DSL, statically validated by :mod:`repro.analysis.check`), not hard-coded
Python, and it is the package's only bottleneck model: its ``penalty``
weights are the only cycle-attribution weights in the package.

Partition semantics (rule AN006): every non-leaf node has exactly one
*residual* child (``expr=None``) whose value is the parent minus its
siblings, so children always sum to the parent by construction. Sibling
estimates are penalty-weighted miss counts; when latency overlap makes
their raw sum overshoot the measured parent they are rescaled
proportionally (documented attribution, deterministic and
order-independent), and negatives clamp to zero.

Classification of a run produces a level-by-level record plus the
E12-style implication of the dominant path — what an engineer should do
about it — rendered by :func:`implications_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from repro.analysis.expr import Expr, env_from_counts, evaluate, parse
from repro.common.tables import render_table
from repro.hw.events import Event

#: Share below which a dominant child is not worth descending into: the
#: level above already explains the run better than its detail would.
DESCEND_THRESHOLD = 0.05


@dataclass(frozen=True)
class MetricNode:
    """One tree node. ``expr`` is DSL source for this node's share of
    total cycles; ``None`` marks the residual child (parent minus
    siblings). ``implication`` is the E12-style advice when this node
    dominates its level."""

    name: str
    expr: Optional[str]
    doc: str = ""
    implication: str = ""
    children: tuple["MetricNode", ...] = ()


@dataclass(frozen=True)
class MetricTree:
    """A named tree over a machine model, plus helper ``$metrics`` its
    node expressions may reference."""

    name: str
    model: str
    root: MetricNode
    metrics: Mapping[str, str]

    def parsed_metrics(self) -> dict[str, Expr]:
        return {name: parse(src) for name, src in self.metrics.items()}


#: The standard derived-metric set, as checkable DSL declarations
#: (``$``-referenceable from trees and assumptions). Evaluate one with
#: :func:`repro.analysis.expr.evaluate`: a ratio whose denominator is
#: zero or missing is undefined (``None``), never a measured 0.0.
STANDARD_METRICS: dict[str, str] = {
    "ipc": "ratio(instructions, cycles)",
    "cpi": "ratio(cycles, instructions)",
    "stall_fraction": "ratio(stall_cycles, cycles)",
    "llc_mpki": "per_kilo_insn(llc_misses)",
    "l2_mpki": "per_kilo_insn(l2_misses)",
    "branch_miss_rate": "ratio(branch_misses, branches)",
    "llc_miss_ratio": "ratio(llc_misses, llc_references)",
    "kernel_sensitive_mix": "ratio(branches, instructions)",
}


def _nehalem_topdown() -> MetricTree:
    """The shipped top-down tree for the Nehalem-like model.

    Level 1 splits cycles into stalled vs retiring by the measured
    STALL_CYCLES fraction. Level 2 attributes the stalled share across
    miss sources, each count weighted by an approximate Nehalem-class
    cycle penalty (the literal ``penalty`` weights below); what those
    estimates cannot explain stays in the ``other_stall`` residual.
    """
    stalled_children = (
        MetricNode(
            name="memory_bound",
            expr="ratio(penalty(llc_misses, 180.0), cycles)",
            doc="LLC misses served from local DRAM",
            implication="reduce working set or improve locality; consider "
            "software prefetch (LLC miss penalty dominates)",
        ),
        MetricNode(
            name="l2_bound",
            expr="ratio(penalty(l2_misses, 28.0), cycles)",
            doc="L2 misses that hit in the LLC",
            implication="tile/block for the L2; the working set spills one "
            "level, not to memory",
        ),
        MetricNode(
            name="branch_resteer",
            expr="ratio(penalty(branch_misses, 16.0), cycles)",
            doc="pipeline refills after mispredictions",
            implication="straighten hot control flow or hint unpredictable "
            "branches",
        ),
        MetricNode(
            name="tlb_bound",
            expr="ratio(penalty(dtlb_misses + itlb_misses, 30.0), cycles)",
            doc="page walks",
            implication="use huge pages or compact the page working set",
        ),
        MetricNode(
            name="numa_bound",
            expr="ratio(penalty(remote_accesses, 120.0), cycles)",
            doc="cross-socket memory accesses",
            implication="pin threads near their data; remote DRAM costs "
            "~2x local",
        ),
        MetricNode(
            name="other_stall",
            expr=None,
            doc="stalls the penalty model cannot attribute",
            implication="profile dependencies/ports: stalls not explained "
            "by cache, branch, TLB or NUMA events",
        ),
    )
    root = MetricNode(
        name="cycles",
        expr=None,
        doc="all cycles of the run",
        children=(
            MetricNode(
                name="stalled",
                expr="$stall_fraction",
                doc="cycles with no uop issued",
                implication="the machine waits more than it works; descend "
                "into the stall breakdown",
                children=stalled_children,
            ),
            MetricNode(
                name="retiring",
                expr=None,
                doc="cycles issuing useful work",
                implication="the pipeline is busy; wins come from doing "
                "less work (algorithms), not from hiding latency",
            ),
        ),
    )
    return MetricTree(
        name="topdown",
        model="nehalem",
        root=root,
        metrics=dict(STANDARD_METRICS),
    )


_DEFAULT_TREE: MetricTree | None = None


def default_tree() -> MetricTree:
    """The registered tree the runner classifies every run against."""
    global _DEFAULT_TREE
    if _DEFAULT_TREE is None:
        _DEFAULT_TREE = _nehalem_topdown()
    return _DEFAULT_TREE


# -- evaluation --------------------------------------------------------------


def _node_value(
    node: MetricNode,
    env: Mapping[str, float],
    metrics: Mapping[str, Expr],
) -> float:
    assert node.expr is not None
    value = evaluate(parse(node.expr), env, metrics)
    if value is None or isinstance(value, bool):
        return 0.0
    return max(float(value), 0.0)


def _children_shares(
    parent_value: float,
    children: Iterable[MetricNode],
    env: Mapping[str, float],
    metrics: Mapping[str, Expr],
) -> dict[str, float]:
    """Values of one level's children, partitioning ``parent_value``:
    estimates rescale proportionally if they overshoot the parent, and
    the (unique, AN006-checked) residual absorbs the rest."""
    estimated: dict[str, float] = {}
    residual_name: str | None = None
    for child in children:
        if child.expr is None:
            residual_name = child.name
        else:
            estimated[child.name] = _node_value(child, env, metrics)
    total = sum(estimated.values())
    if total > parent_value and total > 0.0:
        scale = parent_value / total
        estimated = {name: v * scale for name, v in estimated.items()}
        total = parent_value
    shares = dict(estimated)
    if residual_name is not None:
        shares[residual_name] = max(parent_value - total, 0.0)
    return shares


def classify_env(
    env: Mapping[str, float], tree: MetricTree | None = None
) -> dict[str, Any]:
    """Walk the tree against one count environment; returns the manifest
    ``classification`` block: the dominant path, per-level shares, and
    the implication of the deepest dominant node."""
    tree = tree or default_tree()
    metrics = tree.parsed_metrics()
    levels: list[dict[str, Any]] = []
    path: list[str] = []
    implication = ""
    node, value = tree.root, 1.0
    while node.children:
        shares = _children_shares(value, node.children, env, metrics)
        dominant = max(
            node.children,
            key=lambda child: (shares[child.name], -_order(node, child)),
        )
        share = shares[dominant.name]
        levels.append(
            {
                "level": len(levels) + 1,
                "within": node.name,
                "dominant": dominant.name,
                "share": share,
                "shares": {k: round(v, 6) for k, v in shares.items()},
            }
        )
        path.append(dominant.name)
        if dominant.implication:
            implication = dominant.implication
        if not dominant.children or share < DESCEND_THRESHOLD:
            break
        node, value = dominant, share
    return {
        "tree": tree.name,
        "model": tree.model,
        "path": "/".join(path),
        "levels": levels,
        "implication": implication,
    }


def _order(parent: MetricNode, child: MetricNode) -> int:
    return parent.children.index(child)


def counts_from_result(result: Any, prefix: str = "") -> dict[Event, int]:
    """Merge one run's ground-truth counts across domains and the threads
    whose name starts with ``prefix`` (empty prefix = whole run)."""
    threads = [t for t in result.threads.values() if t.name.startswith(prefix)]
    if prefix and not threads:
        raise ValueError(f"no threads match prefix {prefix!r}")
    totals: dict[Event, int] = {}
    for thread in threads:
        for domain in (thread.events_user, thread.events_kernel):
            for event, count in domain.items():
                totals[event] = totals.get(event, 0) + count
    return totals


def classify_result(
    result: Any, tree: MetricTree | None = None, prefix: str = ""
) -> dict[str, Any]:
    """Classify the dominant bottleneck of one RunResult, or of the thread
    group whose names start with ``prefix``."""
    return classify_env(env_from_counts(counts_from_result(result, prefix)), tree)


def classify_counts(
    counts: Mapping[Event, int], tree: MetricTree | None = None
) -> dict[str, Any]:
    return classify_env(env_from_counts(counts), tree)


def classify_named_counts(
    counts: Mapping[str, int], tree: MetricTree | None = None
) -> dict[str, Any]:
    """Classify name-keyed count totals (the EngineRunRecord flavour);
    absent model events are true zeros, like :func:`env_from_counts`."""
    env = {e.value: float(counts.get(e.value, 0)) for e in Event}
    return classify_env(env, tree)


def implications_report(classification: Mapping[str, Any]) -> str:
    """Render a classification as the E12-style implications table."""
    rows = []
    for level in classification["levels"]:
        rows.append(
            [
                level["level"],
                level["within"],
                level["dominant"],
                f"{level['share']:.1%}",
            ]
        )
    table = render_table(
        ["level", "within", "dominant", "share"],
        rows,
        title=(
            f"top-down classification ({classification['tree']}, "
            f"{classification['model']} model): "
            f"{classification['path'] or 'n/a'}"
        ),
    )
    if classification.get("implication"):
        table += f"\nimplication: {classification['implication']}"
    return table
