"""Printing and exact evaluation of expressions.

The companion of :mod:`bsharp.expressions`, loaded by the commands that
print a field or evaluate one exactly; a simulation evaluates the
compiled float field of :func:`bsharp.expressions.compile_float` and never
loads it.

Printing walks the DAG, not the tree it stands for, and it walks the DAG
of all the expressions printed together (the components of one field):
each distinct node's text is built once and reused at every occurrence in
any of them, so :func:`format_expressions` costs time linear in the
distinct nodes of all the expressions plus the length of their texts, and
holds beyond the text it yields only the texts of shared nodes that later
occurrences still await.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import CoefficientError
from .expressions import _MINUS_ONE, _ZERO_BASE, Const, Expression, Power, Prod, Sum, Var


def eval_expression(expr: Expression, values: Sequence) -> object:
    """Evaluate at a point.  Exact when every value is rational (ints and
    ``Fraction``); floating otherwise, where a constant beyond the range of
    a double raises :class:`CoefficientError`, as
    :func:`~bsharp.expressions.compile_float` does.  Division by zero
    raises ``ZeroDivisionError`` either way."""
    exact = all(not isinstance(v, float) for v in values)
    memo: dict[Expression, object] = {}

    def rec(node: Expression):
        out = memo.get(node)
        if out is not None:
            return out
        if isinstance(node, Const):
            out = node.value if exact else _double(node.value)
        elif isinstance(node, Var):
            if node.index >= len(values):
                raise IndexError(
                    f"expression uses variable {node.index} but only "
                    f"{len(values)} values were given"
                )
            out = values[node.index]
        elif isinstance(node, Sum):
            out = rec(node.terms[0])
            for term in node.terms[1:]:
                out = out + rec(term)
        elif isinstance(node, Prod):
            out = rec(node.factors[0])
            for factor in node.factors[1:]:
                out = out * rec(factor)
        else:
            base = rec(node.base)
            if node.exponent < 0 and base == 0:
                raise ZeroDivisionError(_ZERO_BASE)
            out = base ** node.exponent
        memo[node] = out
        return out

    return rec(expr)


def _double(value) -> float:
    """A constant as a float; one beyond the range of a double is refused."""
    try:
        return float(value)
    except OverflowError:
        raise CoefficientError("a constant does not fit a double") from None


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def format_expression(
    expr: Expression, names: Sequence[str], fmt: str = "text"
) -> str:
    """Infix rendering; ``names`` supplies variable names by index.

    Text output uses ``*`` and ``^`` and parses back through the ODE
    expression grammar; LaTeX uses ``\\frac`` for fractional constants.
    This is :func:`format_expressions` of the one expression, so its cost
    is linear in the expression's distinct nodes plus the length of their
    texts.
    """
    [text] = format_expressions((expr,), names, fmt)
    return text


def format_expressions(
    exprs: Sequence[Expression], names: Sequence[str], fmt: str = "text"
) -> Iterator[str]:
    """Yield the rendering of each expression in ``exprs`` in turn, as
    :func:`format_expression` would print it.

    A node prints the same *core* text wherever it occurs; only the
    parentheses around it depend on whether it stands in a sum, a product
    or under a power.  The core of a signed product leaves out its minus
    sign, which the context prints (" - " in a sum), so no product's core
    is copied to drop its sign.  One walk counts how
    often each distinct node of all the expressions is used and lists the
    nodes operands first; then each core is built once, in that order, by
    one join of its operands' cores.  The cost is linear in the number of
    distinct nodes of all the expressions together plus the length of
    their cores.  A core is kept only while a later use, in this
    expression or a later one, still awaits it, so beyond the text it
    yields the generator holds just the shared texts not yet consumed.
    """
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown expression format {fmt!r}")
    latex = fmt == "latex"
    if latex:
        from .coefficients_extra import _rat_latex, latex_name

        number, spell = _rat_latex, latex_name
    else:
        number = spell = str
    sep = " " if latex else "*"
    left, right = ("\\left(", "\\right)") if latex else ("(", ")")

    # the operands of each distinct node, and its uses: one per occurrence
    # among the operands of a distinct parent, plus one per time it is a root
    operands: dict[Expression, tuple] = {}
    uses: dict[Expression, int] = {}
    for expr in exprs:
        uses[expr] = uses.get(expr, 0) + 1
    # the distinct nodes, each after its operands (a DAG has no cycle, so a
    # node met again is finished), walked from each root in turn; ends[i]
    # is where the nodes first reached from root i end
    order: list[Expression] = []
    ends: list[int] = []
    for expr in exprs:
        if expr not in operands:
            operands[expr] = children = _operands(expr)
            stack = [(expr, iter(children))]
            while stack:
                node, rest = stack[-1]
                for child in rest:
                    uses[child] = uses.get(child, 0) + 1
                    if child not in operands:
                        operands[child] = children = _operands(child)
                        stack.append((child, iter(children)))
                        break
                else:
                    stack.pop()
                    order.append(node)
        ends.append(len(order))

    cores: dict[Expression, str] = {}  # of the nodes built, those with uses still due
    # the signed products: the text of one is a minus sign and its core,
    # and the context that prints one adds the sign
    signed: set[Expression] = set()
    start = 0
    for expr, end in zip(exprs, ends):
        for node in order[start:end]:
            children = operands[node]
            parts = [cores[child] for child in children]
            for child in children:
                if uses[child] == 1:
                    del cores[child]
                else:
                    uses[child] -= 1
            kind = type(node)
            if kind is Sum:
                terms = zip(children, parts)
                child, body = next(terms)
                pieces = ["-", body] if child in signed else [body]
                for child, body in terms:
                    if child in signed:
                        pieces += (" - ", body)
                    elif body[0] == "-":  # a negative constant, or a sum led by a negative term
                        pieces += (" - ", body[1:])
                    else:
                        pieces += (" + ", body)
                core = "".join(pieces)
            elif kind is Prod:
                pieces = []
                if len(children) < len(node.factors):  # signed
                    signed.add(node)
                    if node.factors[0] is not _MINUS_ONE:
                        pieces += (number(-node.factors[0].value), sep)
                for part, child in zip(parts, children):
                    if not _needs_paren(child, 1):
                        pieces += (part, sep)
                    elif child in signed:
                        pieces += (left, "-", part, right, sep)
                    else:
                        pieces += (left, part, right, sep)
                pieces.pop()
                core = "".join(pieces)
            elif kind is Power:
                base = parts[0]
                if children[0] in signed:
                    base = f"{left}-{base}{right}"
                elif _needs_paren(children[0], 2):
                    base = f"{left}{base}{right}"
                core = f"{base}^{{{node.exponent}}}" if latex else f"{base}^{node.exponent}"
            elif kind is Const:
                core = number(node.value)
            elif kind is Var:
                index = node.index
                core = f"y{index}" if index >= len(names) else spell(names[index])
            else:  # pragma: no cover
                raise TypeError(f"not an expression: {node!r}")
            cores[node] = core
        start = end
        text = cores[expr]  # a root stands in a sum context: never parenthesized
        if expr in signed:
            text = "-" + text
        if uses[expr] == 1:
            del cores[expr]
        else:
            uses[expr] -= 1
        # while the caller has the text, hold none of the operand texts
        # that the last join read
        core = parts = pieces = body = part = base = None
        yield text


def _signed(node: Prod) -> bool:
    """Whether a product leads with a negative constant.  It prints its
    sign in front and the constant's magnitude (unless 1) in place."""
    first = node.factors[0]
    return isinstance(first, Const) and first.value.numerator < 0


def _operands(node: Expression) -> tuple:
    """The children whose texts a node's text joins (a signed product's
    constant is printed by the product itself)."""
    if isinstance(node, Sum):
        return node.terms
    if isinstance(node, Prod):
        return node.factors[1:] if _signed(node) else node.factors
    if isinstance(node, Power):
        return (node.base,)
    return ()


def _needs_paren(node: Expression, context: int) -> bool:
    """Whether a node's text needs parentheses in a context: 0 a sum term,
    1 a product factor, 2 a power base."""
    if isinstance(node, Const):
        value = node.value
        return (value.numerator < 0 and context >= 1) or (context == 2 and value.denominator != 1)
    if isinstance(node, Prod):
        return context == 2 or (context == 1 and _signed(node))
    if isinstance(node, Sum):
        return context >= 1
    return False

