"""Boolean expression ASTs and their logic-matrix canonical form.

An expression over variables ``x1 .. xn`` canonicalizes to a single
:class:`~stpsweep.stp.LogicMatrix` ``M`` of arity ``n`` such that folding
the variables' Boolean vectors into ``M`` (first variable first)
reproduces the expression's value under every assignment.

:func:`canonical_form` computes ``M`` with the package's simulator: each
variable is an exhaustive packed row over the ``2**n`` assignments, and
each operator applies its logic matrix to its operands' rows with
:func:`~stpsweep.simulate.eval_tt_words`, the evaluator that simulates
every network.  The parser and the evaluation both use explicit stacks,
so an expression may nest deeper than the interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .netlist import _var_row
from .simulate import eval_tt_words
from .stp import MAX_ARITY, LogicMatrix

BoolExpr = Union["Var", "Not", "BinOp", "Lut"]

#: Truth row of each binary operator, in the column order of :mod:`stpsweep.stp`.
_BINARY_OPS = {"and": 0b1000, "or": 0b1110, "xor": 0b0110, "implies": 0b1011, "iff": 0b1001}


@dataclass(frozen=True)
class Var:
    """Variable reference, 1-based index."""

    index: int


@dataclass(frozen=True)
class Not:
    child: "BoolExpr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "BoolExpr"
    right: "BoolExpr"

    def __post_init__(self):
        if self.op not in _BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class Lut:
    """Arbitrary k-input function given by its truth row."""

    row: int
    children: tuple["BoolExpr", ...]

    def __post_init__(self):
        if not 0 <= self.row < (1 << (1 << len(self.children))):
            raise ValueError("truth row does not match child count")


def _children(expr: BoolExpr) -> tuple[BoolExpr, ...]:
    if isinstance(expr, Var):
        return ()
    if isinstance(expr, Not):
        return (expr.child,)
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    return expr.children


def eval_expr(expr: BoolExpr, assignment: Sequence[bool]) -> bool:
    """Evaluate under an assignment; ``assignment[i - 1]`` is ``xi``.

    One assignment at a time, with each operator's own semantics rather
    than a logic matrix, so the tests use it as an oracle for
    :func:`canonical_form`.  Like that function it walks the AST in
    post-order with an explicit stack, so any nesting depth evaluates.
    """
    values: list[bool] = []
    # ``(e, True)`` marks a node whose operands' values are on top of ``values``.
    stack: list[tuple[BoolExpr, bool]] = [(expr, False)]
    while stack:
        e, ready = stack.pop()
        if isinstance(e, Var):
            values.append(bool(assignment[e.index - 1]))
        elif not ready:
            stack.append((e, True))
            stack.extend((c, False) for c in reversed(_children(e)))
        elif isinstance(e, Not):
            values.append(not values.pop())
        elif isinstance(e, BinOp):
            b = values.pop()
            a = values.pop()
            if e.op == "and":
                values.append(a and b)
            elif e.op == "or":
                values.append(a or b)
            elif e.op == "xor":
                values.append(a != b)
            elif e.op == "implies":
                values.append((not a) or b)
            else:
                values.append(a == b)
        else:
            split = len(values) - len(e.children)
            idx = 0
            for value in values[split:]:
                idx = (idx << 1) | value
            del values[split:]
            values.append(bool((e.row >> idx) & 1))
    return values[0]


# ---------------------------------------------------------------------------
# Expression grammar:  iff > implies > or > xor > and > not > atom
# (listed loosest-binding first; "->" is right-associative).


class ExprSyntaxError(ValueError):
    pass


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            yield "op", "<->"
            i += 3
        elif text.startswith("->", i):
            yield "op", "->"
            i += 2
        elif c in "~&|^()":
            yield "op", c
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield "name", text[i:j]
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {c!r} at position {i}")


def scan_names(text: str) -> set[str]:
    """Variable names appearing in an expression string."""
    return {tok for kind, tok in _tokenize(text) if kind == "name"}


#: Binary operator token -> (binding strength, operator name).
_BINARY_TOKENS = {"<->": (1, "iff"), "->": (2, "implies"), "|": (3, "or"),
                  "^": (4, "xor"), "&": (5, "and")}


def _parse(text: str, var_index: dict[str, int]) -> BoolExpr:
    """Operator-precedence parse with explicit stacks.

    ``operands`` holds finished subexpressions and ``pending`` the
    ``~``, ``(`` and binary tokens not yet applied.  A finished operand
    takes the ``~``s in front of it at once, since ``~`` binds tightest.
    """
    # Tokenized up front, so a bad character is reported before any
    # syntax error.
    tokens = list(_tokenize(text))
    operands: list[BoolExpr] = []
    pending: list[str] = []
    open_parens = 0

    def finish(expr: BoolExpr) -> None:
        while pending and pending[-1] == "~":
            pending.pop()
            expr = Not(expr)
        operands.append(expr)

    def reduce(strength: int) -> None:
        """Apply the pending binary operators that bind tighter than
        ``strength``; an equal one too, unless it is the right-associative
        ``->``."""
        while pending and pending[-1] in _BINARY_TOKENS:
            top = pending[-1]
            top_strength, op = _BINARY_TOKENS[top]
            if top_strength < strength or (top_strength == strength and top == "->"):
                return
            pending.pop()
            right = operands.pop()
            operands.append(BinOp(op, operands.pop(), right))

    expect_operand = True
    for kind, tok in tokens:
        if expect_operand:
            if kind == "name":
                finish(Var(var_index[tok]))
                expect_operand = False
            elif tok == "~":
                pending.append(tok)
            elif tok == "(":
                pending.append(tok)
                open_parens += 1
            else:
                raise ExprSyntaxError(f"unexpected token {tok!r}")
        elif tok in _BINARY_TOKENS:
            reduce(_BINARY_TOKENS[tok][0])
            pending.append(tok)
            expect_operand = True
        elif tok == ")" and open_parens:
            reduce(0)
            pending.pop()
            open_parens -= 1
            finish(operands.pop())
        elif open_parens:
            raise ExprSyntaxError(f"expected ')', got {tok!r}")
        else:
            raise ExprSyntaxError(f"trailing input: {tok!r}")
    if expect_operand or open_parens:
        raise ExprSyntaxError("unexpected end of expression")
    reduce(0)
    return operands[0]


def parse_expr(text: str, var_index: dict[str, int] | None = None) -> tuple[BoolExpr, list[str]]:
    """Parse an expression; returns the AST and the ordered variable names.

    Without an explicit ``var_index`` the names are sorted and numbered
    from 1.  Supply a shared map to parse several expressions over one
    variable space.
    """
    if var_index is None:
        names = sorted(scan_names(text))
        var_index = {name: i + 1 for i, name in enumerate(names)}
    else:
        names = sorted(var_index, key=var_index.__getitem__)
    expr = _parse(text, var_index)
    return expr, names


# ---------------------------------------------------------------------------
# Canonical form.


def canonical_form(expr: BoolExpr, n: int) -> LogicMatrix:
    """Canonical logic matrix of ``expr`` over variables ``x1 .. xn``.

    The expression is simulated over all ``2**n`` assignments at once:
    ``xi`` is the exhaustive packed row of input ``i - 1`` (``x1`` most
    significant), ``Not`` complements its operand's row, and a binary
    operator or :class:`Lut` applies its logic matrix to its operands'
    rows with :func:`~stpsweep.simulate.eval_tt_words`.  Bit ``v`` of the
    root's row is the expression's value under assignment ``v``: the top
    row of the canonical matrix.  The AST is walked once, in post-order
    with an explicit stack; a subexpression shared by several parents is
    evaluated once per parent.  Each variable's index is checked, and its
    row built, where the walk first meets it.
    """
    if n < 0 or n > MAX_ARITY:
        raise ValueError(f"variable count {n} outside [0, {MAX_ARITY}]")
    mask = (1 << (1 << n)) - 1
    var_rows: dict[int, int] = {}
    rows: list[int] = []
    # ``(e, True)`` marks a node whose operands' rows are on top of ``rows``.
    stack: list[tuple[BoolExpr, bool]] = [(expr, False)]
    while stack:
        e, ready = stack.pop()
        if isinstance(e, Var):
            if e.index not in var_rows:
                if not 1 <= e.index <= n:
                    raise ValueError(f"variable index outside 1..{n}")
                var_rows[e.index] = _var_row(e.index - 1, n)
            rows.append(var_rows[e.index])
        elif not ready:
            stack.append((e, True))
            stack.extend((c, False) for c in reversed(_children(e)))
        elif isinstance(e, Not):
            rows.append(rows.pop() ^ mask)
        else:
            tt = e.row if isinstance(e, Lut) else _BINARY_OPS[e.op]
            split = len(rows) - len(_children(e))
            operands = rows[split:]
            del rows[split:]
            rows.append(eval_tt_words(tt, operands, mask))
    return LogicMatrix(n, rows[0])
