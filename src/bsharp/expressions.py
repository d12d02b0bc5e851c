"""Interned symbolic expressions for vector fields.

A tiny CAS: constants (exact rationals), numbered variables, n-ary sums and
products, and integer powers (negative powers stand for division).  Every
node is hash-consed — structurally equal expressions are the *same object* —
so equality is ``is``, dictionaries keyed by subexpressions are cheap, and
evaluation/differentiation memoize by identity.  The intern table lives for
the process; at the scale this package works at (vector fields of small ODE
systems differentiated a handful of times) that is the right trade.

Normalization at construction keeps the DAG small and canonical: sums and
products flatten and fold their constants, like terms in a sum collect
(``x + x`` is ``2*x``), repeated factors collect into powers, and zero/one
annihilate/disappear.  Products do *not* expand over sums.  Child order is
deterministic: nodes sort by kind and then by a structural digest, so the
same computation prints the same way in every run.

Printing walks the DAG, not the tree it stands for: each distinct node's
text is built once and reused at every occurrence, so
:func:`format_expression` costs time linear in the distinct nodes plus the
length of the output, and holds beyond its result only the texts of
shared nodes that later occurrences still await.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

# hashlib.blake2b is this built-in one; importing hashlib would also load
# OpenSSL's _hashlib, which nothing here uses
from _blake2 import blake2b

from .coefficients import _rat_latex, is_rational, latex_name
from .errors import CoefficientError

_intern: dict = {}


class Expression:
    """Base class; instances are interned, compare by identity."""

    __slots__ = ("_digest", "_rank")

    def _key(self):
        return (self._rank, self._digest)

    # arithmetic sugar; every route funnels into the normalizing builders
    def __add__(self, other):
        other = _as_expr(other)
        return NotImplemented if other is None else add_all((self, other))

    __radd__ = __add__

    def __neg__(self):
        return mul_all((_MINUS_ONE, self))

    def __sub__(self, other):
        other = _as_expr(other)
        return NotImplemented if other is None else add_all((self, -other))

    def __rsub__(self, other):
        other = _as_expr(other)
        return NotImplemented if other is None else add_all((other, -self))

    def __mul__(self, other):
        other = _as_expr(other)
        return NotImplemented if other is None else mul_all((self, other))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        return power(self, exponent)

    def __truediv__(self, other):
        other = _as_expr(other)
        return NotImplemented if other is None else mul_all((self, power(other, -1)))

    def __rtruediv__(self, other):
        other = _as_expr(other)
        return NotImplemented if other is None else mul_all((other, power(self, -1)))


class Const(Expression):
    __slots__ = ("value",)

    def __repr__(self) -> str:
        return f"Const({self.value})"


class Var(Expression):
    __slots__ = ("index",)

    def __repr__(self) -> str:
        return f"Var({self.index})"


class Sum(Expression):
    __slots__ = ("terms",)

    def __repr__(self) -> str:
        return f"Sum({len(self.terms)} terms)"


class Prod(Expression):
    __slots__ = ("factors",)

    def __repr__(self) -> str:
        return f"Prod({len(self.factors)} factors)"


class Power(Expression):
    __slots__ = ("base", "exponent")

    def __repr__(self) -> str:
        return f"Power(exponent={self.exponent})"


def _digest(payload: bytes) -> bytes:
    return blake2b(payload, digest_size=16).digest()


def _intern_node(key, build):
    node = _intern.get(key)
    if node is None:
        node = build()
        _intern[key] = node
    return node


def const(value) -> Const:
    value = Fraction(value)
    key = ("c", value)

    def build():
        node = Const.__new__(Const)
        node.value = value
        node._rank = 0
        node._digest = _digest(b"c" + str(value).encode())
        return node

    return _intern_node(key, build)


def variable(index: int) -> Var:
    if index < 0:
        raise ValueError("variable index must be non-negative")
    key = ("v", index)

    def build():
        node = Var.__new__(Var)
        node.index = index
        node._rank = 1
        node._digest = _digest(b"v%d" % index)
        return node

    return _intern_node(key, build)


_ZERO = const(0)
_ONE = const(1)
_MINUS_ONE = const(-1)


def _as_expr(value):
    if isinstance(value, Expression):
        return value
    if is_rational(value):
        return const(value)
    return None


def add_all(parts: Sequence[Expression]) -> Expression:
    """Sum with flattening, constant folding, and like-term collection."""
    constant = Fraction(0)
    collected: dict[Expression, Fraction] = {}
    order: list[Expression] = []

    def absorb(part: Expression, scale: Fraction) -> None:
        nonlocal constant
        if isinstance(part, Const):
            constant += scale * part.value
            return
        if isinstance(part, Sum):
            for term in part.terms:
                absorb(term, scale)
            return
        if isinstance(part, Prod) and isinstance(part.factors[0], Const):
            coeff = scale * part.factors[0].value
            rest = part.factors[1:]
            body = rest[0] if len(rest) == 1 else _raw_prod(rest)
        else:
            coeff = scale
            body = part
        if body in collected:
            collected[body] += coeff
        else:
            collected[body] = coeff
            order.append(body)

    for part in parts:
        absorb(part, Fraction(1))

    terms: list[Expression] = []
    for body in order:
        coeff = collected[body]
        if coeff == 0:
            continue
        if coeff == 1:
            terms.append(body)
        elif isinstance(body, Prod):
            terms.append(_raw_prod((const(coeff),) + body.factors))
        else:
            terms.append(_raw_prod((const(coeff), body)))
    terms.sort(key=lambda t: t._key())
    if constant != 0:
        terms.append(const(constant))  # constants read best last: "p - 1"
    if not terms:
        return _ZERO
    if len(terms) == 1:
        return terms[0]
    key = ("s", tuple(terms))

    def build():
        node = Sum.__new__(Sum)
        node.terms = tuple(terms)
        node._rank = 4
        node._digest = _digest(b"s" + b"".join(t._digest for t in terms))
        return node

    return _intern_node(key, build)


def _raw_prod(factors: tuple[Expression, ...]) -> Expression:
    """Intern an already-normalized factor tuple (callers guarantee the
    invariants: no nested Prod, at most one leading Const, sorted rest)."""
    if len(factors) == 1:
        return factors[0]
    key = ("p", factors)

    def build():
        node = Prod.__new__(Prod)
        node.factors = factors
        node._rank = 3
        node._digest = _digest(b"p" + b"".join(f._digest for f in factors))
        return node

    return _intern_node(key, build)


def mul_all(parts: Sequence[Expression]) -> Expression:
    """Product with flattening, folding, and power collection."""
    constant = Fraction(1)
    powers: dict[Expression, int] = {}
    order: list[Expression] = []

    def absorb(part: Expression) -> None:
        nonlocal constant
        if isinstance(part, Const):
            constant *= part.value
            return
        if isinstance(part, Prod):
            for factor in part.factors:
                absorb(factor)
            return
        if isinstance(part, Power):
            base, e = part.base, part.exponent
        else:
            base, e = part, 1
        if base in powers:
            powers[base] += e
        else:
            powers[base] = e
            order.append(base)

    for part in parts:
        absorb(part)
    if constant == 0:
        return _ZERO

    factors: list[Expression] = []
    for base in order:
        e = powers[base]
        if e == 0:
            continue
        factors.append(base if e == 1 else _raw_power(base, e))
    factors.sort(key=lambda f: f._key())
    if constant != 1:
        factors.insert(0, const(constant))
    if not factors:
        return _ONE
    if len(factors) == 1:
        return factors[0]
    return _raw_prod(tuple(factors))


def _raw_power(base: Expression, exponent: int) -> Expression:
    key = ("w", base, exponent)

    def build():
        node = Power.__new__(Power)
        node.base = base
        node.exponent = exponent
        node._rank = 2
        node._digest = _digest(b"w" + base._digest + b"%d" % exponent)
        return node

    return _intern_node(key, build)


def power(base: Expression, exponent: int) -> Expression:
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise CoefficientError("zero raised to a negative power")
        return const(base.value ** exponent)
    if isinstance(base, Power):
        return power(base.base, base.exponent * exponent)
    if isinstance(base, Prod):
        return mul_all([power(f, exponent) for f in base.factors])
    return _raw_power(base, exponent)


# ---------------------------------------------------------------------------
# calculus and evaluation
# ---------------------------------------------------------------------------

_diff_memo: dict[tuple[Expression, int], Expression] = {}


def differentiate(expr: Expression, index: int) -> Expression:
    """Partial derivative with respect to variable ``index``."""
    key = (expr, index)
    out = _diff_memo.get(key)
    if out is not None:
        return out
    if isinstance(expr, Const):
        out = _ZERO
    elif isinstance(expr, Var):
        out = _ONE if expr.index == index else _ZERO
    elif isinstance(expr, Sum):
        out = add_all([differentiate(t, index) for t in expr.terms])
    elif isinstance(expr, Prod):
        pieces = []
        for i, factor in enumerate(expr.factors):
            d = differentiate(factor, index)
            if d is _ZERO:
                continue
            rest = expr.factors[:i] + expr.factors[i + 1:]
            pieces.append(mul_all(rest + (d,)))
        out = add_all(pieces)
    elif isinstance(expr, Power):
        d = differentiate(expr.base, index)
        if d is _ZERO:
            out = _ZERO
        else:
            out = mul_all(
                (const(expr.exponent), power(expr.base, expr.exponent - 1), d)
            )
    else:  # pragma: no cover
        raise TypeError(f"not an expression: {expr!r}")
    _diff_memo[key] = out
    return out


_ZERO_BASE = "zero base with negative exponent"


def eval_expression(expr: Expression, values: Sequence) -> object:
    """Evaluate at a point.  Exact when every value is rational (ints and
    ``Fraction``); floating otherwise.  Division by zero raises
    ``ZeroDivisionError`` either way."""
    exact = all(not isinstance(v, float) for v in values)
    memo: dict[Expression, object] = {}

    def rec(node: Expression):
        out = memo.get(node)
        if out is not None:
            return out
        if isinstance(node, Const):
            out = node.value if exact else float(node.value)
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


#: most operands one generated statement folds; a longer one-line fold
#: nests too deep for ``compile()`` (RecursionError at a few thousand)
_FOLD_WIDTH = 64


def compile_float(
    outputs: Sequence, dimension: int
) -> Callable[[Sequence[float]], list[float]]:
    """Lower the float evaluation of several outputs into one function.

    Each output is an :class:`Expression`, whose value is returned as is,
    or a sequence of (weight, Expression) pairs, returned as the fold
    ``((0.0 + w1*E1) + w2*E2) + ...``.  The generated function unpacks a
    point of ``dimension`` floats into locals and computes every DAG node
    once, in the depth-first order :func:`eval_expression` first reaches
    it; constants and weights become floats once and reach the code
    through its namespace.  Sums and products fold left and a power stays
    ``base ** exponent``, so the results are the floats ``eval_expression``
    gives at a float point, bit for bit, and a failure raises the same
    exception: ``ZeroDivisionError`` for a zero base with a negative
    exponent, ``OverflowError`` from ``**``.  A variable outside
    ``dimension`` raises ``IndexError`` here, not at call time.
    """
    namespace: dict[str, object] = {}
    names: dict[Expression, str] = {}
    body: list[str] = []

    def fold(target: str, operands: list[str], op: str) -> None:
        body.append(f"{target} = {op.join(operands[:_FOLD_WIDTH])}")
        for i in range(_FOLD_WIDTH, len(operands), _FOLD_WIDTH - 1):
            body.append(f"{target} = {op.join([target] + operands[i:i + _FOLD_WIDTH - 1])}")

    def name_of(node: Expression) -> str:
        name = names.get(node)
        if name is not None:
            return name
        if isinstance(node, Const):
            name = f"c{len(namespace)}"
            namespace[name] = float(node.value)
        elif isinstance(node, Var):
            if node.index >= dimension:
                raise IndexError(
                    f"expression uses variable {node.index} but only "
                    f"{dimension} values are given"
                )
            name = f"y{node.index}"
        elif isinstance(node, Sum):
            operands = [name_of(t) for t in node.terms]
            name = f"t{len(names)}"
            fold(name, operands, " + ")
        elif isinstance(node, Prod):
            operands = [name_of(f) for f in node.factors]
            name = f"t{len(names)}"
            fold(name, operands, " * ")
        elif isinstance(node, Power):
            base = name_of(node.base)
            name = f"t{len(names)}"
            if node.exponent < 0:
                body.append(f"if {base} == 0: raise ZeroDivisionError({_ZERO_BASE!r})")
            body.append(f"{name} = {base} ** {node.exponent}")
        else:  # pragma: no cover
            raise TypeError(f"not an expression: {node!r}")
        names[node] = name
        return name

    results: list[str] = []
    for i, output in enumerate(outputs):
        if isinstance(output, Expression):
            results.append(name_of(output))
            continue
        terms = ["0.0"]
        for weight, expr in output:
            w = f"w{len(namespace)}"
            namespace[w] = float(weight)
            terms.append(f"{w} * {name_of(expr)}")
        fold(f"o{i}", terms, " + ")
        results.append(f"o{i}")

    params = ", ".join(f"y{i}" for i in range(dimension))
    source = "\n    ".join(
        ["def field(y):", f"[{params}] = y", *body, f"return [{', '.join(results)}]"]
    )
    exec(compile(source, "<bsharp float field>", "exec"), namespace)
    return namespace["field"]


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def format_expression(
    expr: Expression, names: Sequence[str], fmt: str = "text"
) -> str:
    """Infix rendering; ``names`` supplies variable names by index.

    Text output uses ``*`` and ``^`` and parses back through the ODE
    expression grammar; LaTeX uses ``\\frac`` for fractional constants.

    A node prints the same *core* text wherever it occurs; only the
    parentheses around it depend on whether it stands in a sum, a product
    or under a power.  One pass counts how often each distinct node is
    used, then each core is built once, bottom up, and wrapped at every
    use.  The cost is linear in the number of distinct nodes plus the
    length of the output.  A core is kept only while a later use still
    awaits it, so beyond its result the call holds just the shared texts
    not yet consumed.
    """
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown expression format {fmt!r}")
    latex = fmt == "latex"
    number = _rat_latex if latex else str
    sep = " " if latex else "*"

    # uses of each distinct node: one per occurrence among the operands of a
    # distinct parent, plus one for the root
    uses: dict[Expression, int] = {expr: 1}
    stack = [expr]
    while stack:
        for child in _operands(stack.pop()):
            if child in uses:
                uses[child] += 1
            else:
                uses[child] = 1
                stack.append(child)

    shared: dict[Expression, str] = {}  # cores of nodes with uses still due
    cores: list[str] = []  # operand cores awaiting their parent
    work: list = [(expr, False)]
    while work:
        node, expanded = work.pop()
        if not expanded:
            core = shared.get(node)
            if core is None:
                work.append((node, True))
                work.extend((child, False) for child in reversed(_operands(node)))
                continue
            if uses[node] == 1:
                del shared[node]
            else:
                uses[node] -= 1
            cores.append(core)
            continue
        operands = _operands(node)
        count = len(operands)
        parts = cores[len(cores) - count:]
        del cores[len(cores) - count:]
        if isinstance(node, Const):
            core = number(node.value)
        elif isinstance(node, Var):
            index = node.index
            if index >= len(names):
                core = f"y{index}"
            else:
                core = latex_name(names[index]) if latex else names[index]
        elif isinstance(node, Power):
            base = _paren(parts[0], _needs_paren(operands[0], 2), latex)
            core = f"{base}^{{{node.exponent}}}" if latex else f"{base}^{node.exponent}"
        elif isinstance(node, Prod):
            factors = [
                _paren(part, _needs_paren(f, 1), latex)
                for part, f in zip(parts, operands)
            ]
            if _signed(node):
                magnitude = -node.factors[0].value
                if magnitude != 1:
                    factors.insert(0, number(magnitude))
                core = "-" + sep.join(factors)
            else:
                core = sep.join(factors)
        elif isinstance(node, Sum):
            terms = [parts[0]]
            for body in parts[1:]:
                if body.startswith("-"):
                    terms.append(f" - {body[1:]}")
                else:
                    terms.append(f" + {body}")
            core = "".join(terms)
        else:  # pragma: no cover
            raise TypeError(f"not an expression: {node!r}")
        if uses[node] > 1:
            uses[node] -= 1
            shared[node] = core
        cores.append(core)
    return cores[0]  # the root stands in a sum context: never parenthesized


def _signed(node: Prod) -> bool:
    """Whether a product leads with a negative constant.  It prints its
    sign in front and the constant's magnitude (unless 1) in place."""
    first = node.factors[0]
    return isinstance(first, Const) and first.value < 0


def _operands(node: Expression) -> tuple:
    """The children whose texts a node's core text joins (a signed
    product's constant is printed by the product itself)."""
    if isinstance(node, Sum):
        return node.terms
    if isinstance(node, Prod):
        return node.factors[1:] if _signed(node) else node.factors
    if isinstance(node, Power):
        return (node.base,)
    return ()


def _needs_paren(node: Expression, context: int) -> bool:
    """Whether a node's core text needs parentheses in a context: 0 a sum
    term, 1 a product factor, 2 a power base."""
    if isinstance(node, Const):
        value = node.value
        return (value < 0 and context >= 1) or (context == 2 and value.denominator != 1)
    if isinstance(node, Prod):
        return context == 2 or (context == 1 and _signed(node))
    if isinstance(node, Sum):
        return context >= 1
    return False


def _paren(s: str, needed: bool, latex: bool) -> str:
    if not needed:
        return s
    return f"\\left({s}\\right)" if latex else f"({s})"
