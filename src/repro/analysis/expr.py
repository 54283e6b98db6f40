"""Declarative expression language over hardware event counts.

Metrics, metric-tree nodes and refutable assumptions are written as small
expressions over event names and other metrics instead of ad-hoc Python,
so the static checker (:mod:`repro.analysis.check`) can validate them
against the machine model *before* anything runs:

    ratio(stall_cycles, cycles)                  # a metric
    per_kilo_insn(llc_misses) < 5.0              # a predicate
    $stalled - ratio(stall_cycles, cycles) == 0  # references metric $stalled

Grammar (see docs/analysis.md for the full catalog):

* event names are bare identifiers matching ``Event`` values
  (``cycles``, ``llc_misses``, ...);
* derived-metric references are spelled ``$name`` — the sigil separates
  "unknown event" (rule AN001) from "dangling metric reference" (AN005)
  syntactically instead of by guesswork;
* arithmetic ``+ - * /``, comparisons ``< <= > >= == !=``, boolean
  ``and or not``, parentheses;
* functions: ``ratio(a, b)`` (guarded division: undefined when ``b`` is
  zero), ``per_kilo_insn(x)`` (``1000*x`` per instruction, guarded),
  ``guard(x, default)`` (replaces an undefined value), ``min(a, b)``,
  ``max(a, b)``.

Values are ``float | bool | None``: ``None`` is *undefined* (a division
with a zero denominator, or a metric over counts that were never
collected) and propagates through arithmetic and comparisons; ``guard``
is the only way to stop it. Evaluating an expression the checker passed
never raises against any count vector (property-tested).

The module also carries the unit algebra (dimension vectors over the base
units declared in :data:`repro.hw.events.EVENT_META`) and the interval
arithmetic the checker uses to decide whether a denominator can be zero
or a predicate can ever be true.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Union

from repro.common.errors import ReproError
from repro.hw.events import Event


class ExprError(ReproError):
    """Raised on malformed expression source or invalid evaluation."""

    def __init__(self, message: str, pos: int = 0) -> None:
        super().__init__(message)
        self.pos = pos


#: Evaluation result: a number, a predicate verdict, or undefined.
Value = Union[float, bool, None]

_EVENT_BY_NAME: dict[str, Event] = {e.value: e for e in Event}


# -- units -------------------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    """A dimension vector: sorted (dimension, exponent) pairs, exponents
    never zero. ``Unit(())`` is dimensionless."""

    dims: tuple[tuple[str, int], ...] = ()

    @classmethod
    def base(cls, dim: str) -> "Unit":
        return cls(((dim, 1),))

    def _combine(self, other: "Unit", sign: int) -> "Unit":
        acc = dict(self.dims)
        for dim, exp in other.dims:
            acc[dim] = acc.get(dim, 0) + sign * exp
        return Unit(tuple(sorted((d, e) for d, e in acc.items() if e)))

    def mul(self, other: "Unit") -> "Unit":
        return self._combine(other, 1)

    def div(self, other: "Unit") -> "Unit":
        return self._combine(other, -1)

    @property
    def dimensionless(self) -> bool:
        return not self.dims

    def __str__(self) -> str:
        if not self.dims:
            return "1"
        num = [d if e == 1 else f"{d}^{e}" for d, e in self.dims if e > 0]
        den = [d if e == -1 else f"{d}^{-e}" for d, e in self.dims if e < 0]
        head = "*".join(num) or "1"
        return f"{head}/{'*'.join(den)}" if den else head


DIMENSIONLESS = Unit()


def event_unit(event: Event) -> Unit:
    """The unit of one event count, from the EVENT_META table."""
    return Unit.base(event.unit)


# -- intervals ---------------------------------------------------------------


def _mul_ep(a: float, b: float) -> float:
    # Endpoint product with the interval convention 0 * inf = 0 (an exact
    # zero bound annihilates even an unbounded factor).
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; endpoints may be ±inf."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ExprError(f"empty interval [{self.lo}, {self.hi}]")

    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def mul(self, other: "Interval") -> "Interval":
        products = [
            _mul_ep(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(min(products), max(products))

    def div(self, other: "Interval") -> "Interval":
        """Conservative quotient over the non-zero part of ``other``
        (whether zero *can* occur is tracked separately as undefinedness)."""
        if other.lo < 0.0 < other.hi or other == Interval(0.0, 0.0):
            # Denominator spans zero (or is identically zero): quotients
            # of either sign and any magnitude are possible.
            return Interval(-math.inf, math.inf)
        candidates = []
        for b in (other.lo, other.hi):
            if b == 0.0:
                continue  # excluded point; limit handled by the other bound
            for a in (self.lo, self.hi):
                if math.isinf(a) and math.isinf(b):
                    candidates.append(0.0 if (a > 0) == (b > 0) else 0.0)
                elif math.isinf(b):
                    candidates.append(0.0)
                else:
                    candidates.append(a / b)
        # A denominator bound of 0 means magnitudes are unbounded toward
        # the sign of numerator/denominator; widen to infinity there.
        if other.lo == 0.0 or other.hi == 0.0:
            if self.hi > 0.0:
                candidates.append(math.inf if other.hi > 0.0 else -math.inf)
            if self.lo < 0.0:
                candidates.append(-math.inf if other.hi > 0.0 else math.inf)
        if not candidates:
            return Interval(-math.inf, math.inf)
        return Interval(min(candidates), max(candidates))

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


#: Default static bound of any raw event count: non-negative, unbounded.
COUNT_INTERVAL = Interval(0.0, math.inf)


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    """Base AST node; ``pos`` is the 0-based source offset (findings
    report it as a 1-based column)."""

    pos: int


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class EventRef(Node):
    """A bare identifier: an event of the machine model (``event`` is None
    when the name matches no Event — rule AN001)."""

    name: str
    event: Optional[Event]


@dataclass(frozen=True)
class MetricRef(Node):
    """A ``$name`` reference to another declared metric."""

    name: str


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str  #: one of + - * /
    left: Node
    right: Node


@dataclass(frozen=True)
class Call(Node):
    func: str
    args: tuple[Node, ...]


@dataclass(frozen=True)
class Cmp(Node):
    op: str  #: one of < <= > >= == !=
    left: Node
    right: Node


@dataclass(frozen=True)
class BoolOp(Node):
    op: str  #: "and" | "or"
    left: Node
    right: Node


@dataclass(frozen=True)
class Not(Node):
    operand: Node


#: function name -> arity
FUNCTIONS: dict[str, int] = {
    "ratio": 2,
    "per_kilo_insn": 1,
    "guard": 2,
    "min": 2,
    "max": 2,
}


@dataclass(frozen=True)
class Expr:
    """A parsed expression: source text plus its AST root."""

    source: str
    root: Node

    def __str__(self) -> str:
        return self.source


# -- tokenizer / parser ------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d[\d_]*(\.[\d_]+)?([eE][+-]?\d+)?)
  | (?P<metric>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|[-+*/(),<>])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_KEYWORDS = ("and", "or", "not")


@dataclass(frozen=True)
class _Token:
    kind: str  #: num | metric | name | op | end
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ExprError(
                f"unexpected character {source[pos]!r} at column {pos + 1}",
                pos,
            )
        kind = str(match.lastgroup)
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), match.start()))
        pos = match.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    """Recursive-descent parser for the grammar in the module docstring."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        token = self.tokens[self.i]
        self.i += 1
        return token

    def expect(self, text: str) -> _Token:
        if self.tok.kind == "op" and self.tok.text == text:
            return self.advance()
        raise ExprError(
            f"expected {text!r} at column {self.tok.pos + 1}, "
            f"got {self.tok.text or 'end of input'!r}",
            self.tok.pos,
        )

    def at_op(self, *texts: str) -> bool:
        return self.tok.kind == "op" and self.tok.text in texts

    def at_keyword(self, word: str) -> bool:
        return self.tok.kind == "name" and self.tok.text == word

    def parse(self) -> Node:
        node = self.bool_expr()
        if self.tok.kind != "end":
            raise ExprError(
                f"trailing input at column {self.tok.pos + 1}: "
                f"{self.tok.text!r}",
                self.tok.pos,
            )
        return node

    def bool_expr(self) -> Node:
        node = self.bool_term()
        while self.at_keyword("or"):
            pos = self.advance().pos
            node = BoolOp(pos=pos, op="or", left=node, right=self.bool_term())
        return node

    def bool_term(self) -> Node:
        node = self.bool_factor()
        while self.at_keyword("and"):
            pos = self.advance().pos
            node = BoolOp(pos=pos, op="and", left=node, right=self.bool_factor())
        return node

    def bool_factor(self) -> Node:
        if self.at_keyword("not"):
            pos = self.advance().pos
            return Not(pos=pos, operand=self.bool_factor())
        return self.comparison()

    def comparison(self) -> Node:
        node = self.arith()
        if self.at_op("<", "<=", ">", ">=", "==", "!="):
            token = self.advance()
            node = Cmp(pos=token.pos, op=token.text, left=node, right=self.arith())
        return node

    def arith(self) -> Node:
        node = self.term()
        while self.at_op("+", "-"):
            token = self.advance()
            node = BinOp(
                pos=token.pos, op=token.text, left=node, right=self.term()
            )
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.at_op("*", "/"):
            token = self.advance()
            node = BinOp(
                pos=token.pos, op=token.text, left=node, right=self.factor()
            )
        return node

    def factor(self) -> Node:
        if self.at_op("-"):
            pos = self.advance().pos
            return Neg(pos=pos, operand=self.factor())
        return self.atom()

    def atom(self) -> Node:
        token = self.tok
        if token.kind == "num":
            self.advance()
            return Num(pos=token.pos, value=float(token.text.replace("_", "")))
        if token.kind == "metric":
            self.advance()
            return MetricRef(pos=token.pos, name=token.text[1:])
        if token.kind == "name":
            if token.text in _KEYWORDS:
                raise ExprError(
                    f"unexpected keyword {token.text!r} at column "
                    f"{token.pos + 1}",
                    token.pos,
                )
            self.advance()
            if self.at_op("("):
                self.advance()
                args: list[Node] = []
                if not self.at_op(")"):
                    args.append(self.bool_expr())
                    while self.at_op(","):
                        self.advance()
                        args.append(self.bool_expr())
                self.expect(")")
                return Call(pos=token.pos, func=token.text, args=tuple(args))
            return EventRef(
                pos=token.pos,
                name=token.text,
                event=_EVENT_BY_NAME.get(token.text),
            )
        if self.at_op("("):
            self.advance()
            node = self.bool_expr()
            self.expect(")")
            return node
        raise ExprError(
            f"expected an expression at column {token.pos + 1}, got "
            f"{token.text or 'end of input'!r}",
            token.pos,
        )


def parse(source: str) -> Expr:
    """Parse ``source`` into an :class:`Expr` (raises :class:`ExprError`
    with a position on malformed input)."""
    if not source or not source.strip():
        raise ExprError("empty expression")
    return Expr(source=source, root=_Parser(source).parse())


# -- traversal ---------------------------------------------------------------


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every descendant (pre-order)."""
    yield node
    if isinstance(node, (Neg, Not)):
        yield from walk(node.operand)
    elif isinstance(node, (BinOp, Cmp, BoolOp)):
        yield from walk(node.left)
        yield from walk(node.right)
    elif isinstance(node, Call):
        for arg in node.args:
            yield from walk(arg)


def metric_refs(expr: Expr) -> tuple[str, ...]:
    """Names of the ``$metrics`` this expression references directly,
    in first-appearance order."""
    seen: dict[str, None] = {}
    for node in walk(expr.root):
        if isinstance(node, MetricRef):
            seen.setdefault(node.name)
    return tuple(seen)


def referenced_events(
    expr: Expr, metrics: Mapping[str, Expr] | None = None
) -> frozenset[str]:
    """Every event name the expression needs counted, following metric
    references transitively (cycle-safe: each metric expands once).
    ``per_kilo_insn`` implicitly counts instructions."""
    metrics = metrics or {}
    events: set[str] = set()
    expanded: set[str] = set()
    stack = [expr.root]
    while stack:
        for node in walk(stack.pop()):
            if isinstance(node, EventRef):
                events.add(node.name)
            elif isinstance(node, Call) and node.func == "per_kilo_insn":
                events.add(Event.INSTRUCTIONS.value)
            elif isinstance(node, MetricRef) and node.name not in expanded:
                expanded.add(node.name)
                target = metrics.get(node.name)
                if target is not None:
                    stack.append(target.root)
    return frozenset(events)


# -- evaluation --------------------------------------------------------------


def _num(value: Value) -> Optional[float]:
    """Coerce to float for arithmetic; bool results never feed arithmetic
    on checked expressions, but unchecked evaluation tolerates them as
    0/1 rather than crashing."""
    if value is None:
        return None
    return float(value)


def evaluate(
    expr: Expr,
    env: Mapping[str, float],
    metrics: Mapping[str, Expr] | None = None,
) -> Value:
    """Evaluate against an event-count environment.

    ``env`` maps event names (``Event.value`` strings) to counts; a
    missing name means that event was not collected, which makes any
    expression touching it undefined (``None``) unless a ``guard``
    intervenes. Metric references resolve through ``metrics``; a cycle or
    a dangling reference raises :class:`ExprError` (the checker rejects
    both statically — AN004/AN005).
    """
    metric_map = metrics or {}

    def ref(name: str, active: frozenset[str]) -> Value:
        if name in active:
            raise ExprError(f"cyclic metric reference through ${name}")
        target = metric_map.get(name)
        if target is None:
            raise ExprError(f"dangling metric reference ${name}")
        return ev(target.root, active | {name})

    def ev(node: Node, active: frozenset[str]) -> Value:
        if isinstance(node, Num):
            return node.value
        if isinstance(node, EventRef):
            value = env.get(node.name)
            return None if value is None else float(value)
        if isinstance(node, MetricRef):
            return ref(node.name, active)
        if isinstance(node, Neg):
            operand = _num(ev(node.operand, active))
            return None if operand is None else -operand
        if isinstance(node, Not):
            operand = ev(node.operand, active)
            return None if operand is None else not bool(operand)
        if isinstance(node, BoolOp):
            left, right = ev(node.left, active), ev(node.right, active)
            # Kleene three-valued logic: undefined is "unknown", not false.
            if node.op == "and":
                if left is False or right is False:
                    return False
                if left is None or right is None:
                    return None
                return bool(left) and bool(right)
            if left is True or right is True:
                return True
            if left is None or right is None:
                return None
            return bool(left) or bool(right)
        if isinstance(node, Cmp):
            lhs, rhs = _num(ev(node.left, active)), _num(ev(node.right, active))
            if lhs is None or rhs is None:
                return None
            return _CMP[node.op](lhs, rhs)
        if isinstance(node, BinOp):
            lhs, rhs = _num(ev(node.left, active)), _num(ev(node.right, active))
            if lhs is None or rhs is None:
                return None
            if node.op == "+":
                return lhs + rhs
            if node.op == "-":
                return lhs - rhs
            if node.op == "*":
                return lhs * rhs
            return None if rhs == 0.0 else lhs / rhs
        if isinstance(node, Call):
            return call(node, active)
        raise ExprError(f"unknown AST node {type(node).__name__}")

    def call(node: Call, active: frozenset[str]) -> Value:
        arity = FUNCTIONS.get(node.func)
        if arity is None:
            raise ExprError(f"unknown function {node.func!r}", node.pos)
        if len(node.args) != arity:
            raise ExprError(
                f"{node.func}() takes {arity} argument(s), got "
                f"{len(node.args)}",
                node.pos,
            )
        if node.func == "guard":
            value = ev(node.args[0], active)
            return ev(node.args[1], active) if value is None else value
        values = [_num(ev(arg, active)) for arg in node.args]
        if any(v is None for v in values):
            return None
        nums = [v for v in values if v is not None]
        if node.func == "ratio":
            return None if nums[1] == 0.0 else nums[0] / nums[1]
        if node.func == "per_kilo_insn":
            insn = env.get(Event.INSTRUCTIONS.value)
            if insn is None or float(insn) == 0.0:
                return None
            return 1000.0 * nums[0] / float(insn)
        if node.func == "min":
            return min(nums)
        return max(nums)

    return ev(expr.root, frozenset())


_CMP: dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def env_from_counts(counts: Mapping[Event, int]) -> dict[str, float]:
    """Ground-truth environment from an ``{Event: count}`` mapping: every
    model event is present (absent entries are true zeros — the simulator
    counts exactly, so "not in the mapping" means "never fired")."""
    return {e.value: float(counts.get(e, 0)) for e in Event}
