"""The AN checker's soundness contract, property-tested.

An expression the static checker passes must never raise when evaluated
— against *any* count environment, including empty ones, all-zero ones,
and ones missing events entirely. Undefined flows as ``None``, never as
ZeroDivisionError/KeyError (docstring contract of repro.analysis.check).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.check import check_analysis, check_metric_expr
from repro.analysis.expr import evaluate, parse
from repro.analysis.tree import STANDARD_METRICS, default_tree
from repro.experiments.e21_refutation import declared_assumptions
from repro.hw.events import Event

EVENT_NAMES = sorted(e.value for e in Event)

#: Arbitrary count environments: any subset of events, any magnitudes
#: (zeros included — the divisions they break must come back None).
ENVS = st.dictionaries(
    st.sampled_from(EVENT_NAMES),
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    ),
)

_LEAVES = st.one_of(
    st.sampled_from(EVENT_NAMES),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(
        lambda f: format(f, "f")
    ),
)


def _compose(children: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: f"({ab[0]} + {ab[1]})"),
        pair.map(lambda ab: f"({ab[0]} - {ab[1]})"),
        pair.map(lambda ab: f"({ab[0]} * {ab[1]})"),
        pair.map(lambda ab: f"({ab[0]} / {ab[1]})"),
        pair.map(lambda ab: f"ratio({ab[0]}, {ab[1]})"),
        pair.map(lambda ab: f"guard({ab[0]}, {ab[1]})"),
        pair.map(lambda ab: f"min({ab[0]}, {ab[1]})"),
        pair.map(lambda ab: f"max({ab[0]}, {ab[1]})"),
        children.map(lambda a: f"per_kilo_insn({a})"),
        children.map(lambda a: f"-({a})"),
    )


EXPRS = st.recursive(_LEAVES, _compose, max_leaves=12)

def _tree_exprs():
    exprs = []

    def visit(node):
        if node.expr is not None:
            exprs.append(node.expr)
        for child in node.children:
            visit(child)

    visit(default_tree().root)
    return exprs


SHIPPED = list(STANDARD_METRICS.values()) + _tree_exprs()
for _assumption in declared_assumptions():
    if _assumption.predicate:
        SHIPPED.append(_assumption.predicate)
    if _assumption.subject:
        SHIPPED.append(_assumption.subject)

METRICS = {name: parse(src) for name, src in STANDARD_METRICS.items()}


class TestCheckedNeverRaises:
    @given(source=EXPRS, env=ENVS)
    @settings(max_examples=200, deadline=None)
    def test_generated_expressions(self, source, env):
        """Anything the checker passes evaluates to a value or None."""
        report = check_metric_expr(source)
        if any(f.severity == "error" for f in report.findings):
            return  # rejected statically: no runtime claim to test
        value = evaluate(parse(source), env)
        assert value is None or isinstance(value, (float, bool, int))

    @given(env=ENVS)
    @settings(max_examples=100, deadline=None)
    def test_shipped_declarations(self, env):
        """The declarations the repo actually ships never raise either."""
        for source in SHIPPED:
            value = evaluate(parse(source), env, METRICS)
            assert value is None or isinstance(value, (float, bool, int))

    def test_shipped_declarations_pass_the_checker(self):
        report = check_analysis()
        assert report.ok(strict=True), report.render()
