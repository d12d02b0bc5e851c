"""Interned symbolic expressions for vector fields.

A tiny CAS: constants (exact rationals), numbered variables, n-ary sums and
products, and integer powers (negative powers stand for division).  Every
node is hash-consed — structurally equal expressions are the *same object* —
so equality is ``is``, dictionaries keyed by subexpressions are cheap, and
evaluation/differentiation memoize by identity.  Each kind has an intern
table for the process, keyed so that no lookup hashes a ``Fraction``: a
constant by (numerator, denominator), a variable by its index, a sum by its
term tuple, a product by its factor tuple and a power by (base, exponent);
a tuple of nodes hashes by identity.  At the scale this package works at
(vector fields of small ODE systems) keeping them is the right trade.

Normalization at construction keeps the DAG small and canonical: sums and
products flatten and fold their constants, like terms in a sum collect
(``x + x`` is ``2*x``), repeated factors collect into powers, and zero/one
annihilate/disappear.  Products do *not* expand over sums.  Child order is
deterministic: nodes sort by kind and then by a structural digest, so the
same computation prints the same way in every run.

Printing (:func:`~bsharp.expressions_extra.format_expression`) and exact
evaluation (:func:`~bsharp.expressions_extra.eval_expression`) live in
:mod:`bsharp.expressions_extra`, which a simulation, the float path, never
loads; their names are still read from here.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import attrgetter
from typing import Callable, Optional, Sequence

# hashlib.blake2b is this built-in one; importing hashlib would also load
# OpenSSL's _hashlib, which nothing here uses
from _blake2 import blake2b

from . import _forward
from .coefficients import coeff_pow, is_rational
from .errors import CoefficientError

__getattr__ = _forward(globals(), "expressions_extra")

# the intern tables, one per kind, keyed as the module docstring says
_consts, _vars, _sums, _prods, _powers = {}, {}, {}, {}, {}


class Expression:
    """Base class; instances are interned, compare by identity."""

    __slots__ = ("_digest", "_rank")

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


def _new(kind: type, rank: int, payload: bytes) -> Expression:
    node = object.__new__(kind)
    node._rank = rank
    node._digest = _digest(payload)
    return node


#: the order of a normalized node's children: by kind, then by digest
_order = attrgetter("_rank", "_digest")


def const(value) -> Const:
    if type(value) is int:
        key = (value, 1)
    else:
        if type(value) is not Fraction:
            value = Fraction(value)
        key = (value.numerator, value.denominator)
    node = _consts.get(key)
    if node is None:
        value = Fraction(value)
        node = _new(Const, 0, b"c" + str(value).encode())
        node.value = value
        _consts[key] = node
    return node


def variable(index: int) -> Var:
    node = _vars.get(index)
    if node is None:
        if index < 0:
            raise ValueError("variable index must be non-negative")
        node = _new(Var, 1, b"v%d" % index)
        node.index = index
        _vars[index] = node
    return node


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
    scalars: list[Const] = []
    # the terms of each like-term body, in first-seen order; a body is keyed
    # by itself, or by its factor tuple when it is a product
    groups: dict[object, list[Expression]] = {}
    wholes = None  # the S of each c*S in parts or sum parts: a sum part S collects as (1 + c)*S
    for part in parts:
        if wholes is None and type(part) is Sum:
            wholes = {p.factors[1] for q in parts for p in (q.terms if type(q) is Sum else (q,))
                      if type(p) is Prod and len(p.factors) == 2 and type(p.factors[0]) is Const}
        for term in part.terms if type(part) is Sum and part not in wholes else (part,):
            kind = type(term)
            if kind is Const:
                scalars.append(term)
                continue
            if kind is Prod:
                key = term.factors
                if type(key[0]) is Const:
                    key = key[1] if len(key) == 2 else key[1:]
            else:
                key = term
            group = groups.get(key)
            if group is None:
                groups[key] = [term]
            else:
                group.append(term)

    terms: list[Expression] = []
    spread: list[Expression] = []  # sums S whose like terms c*S collect to S
    for key, group in groups.items():
        if len(group) == 1 and type(key) is not Sum:  # a lone term is its own normal form
            terms.append(group[0])
            continue
        coeff = sum(
            t.factors[0].value if type(t) is Prod and type(t.factors[0]) is Const else 1
            for t in group
        )
        if coeff == 0:
            continue
        if coeff == 1 and type(key) is Sum:
            spread.append(key)
            continue
        body = key if type(key) is tuple else (key,)
        terms.append(_raw_prod(body) if coeff == 1 else _raw_prod((const(coeff),) + body))
    if spread:  # a sum holds no sum: S's terms join the collection again
        return add_all([*terms, *scalars, *spread])
    terms.sort(key=_order)
    if scalars:
        constant = scalars[0] if len(scalars) == 1 else const(sum(c.value for c in scalars))
        if constant is not _ZERO:
            terms.append(constant)  # constants read best last: "p - 1"
    return _raw_sum(tuple(terms)) if terms else _ZERO


def _raw_sum(terms: tuple[Expression, ...]) -> Expression:
    """Intern an already-normalized term tuple (no nested Sum, like terms
    collected, sorted, at most one trailing Const)."""
    if len(terms) == 1:
        return terms[0]
    node = _sums.get(terms)
    if node is None:
        node = _new(Sum, 4, b"s" + b"".join([t._digest for t in terms]))
        node.terms = terms
        _sums[terms] = node
    return node


def _raw_prod(factors: tuple[Expression, ...]) -> Expression:
    """Intern an already-normalized factor tuple (callers guarantee the
    invariants: no nested Prod, at most one leading Const, sorted rest)."""
    if len(factors) == 1:
        return factors[0]
    node = _prods.get(factors)
    if node is None:
        node = _new(Prod, 3, b"p" + b"".join([f._digest for f in factors]))
        node.factors = factors
        _prods[factors] = node
    return node


def mul_all(parts: Sequence[Expression]) -> Expression:
    """Product with flattening, folding, and power collection."""
    scalars: list[Const] = []
    powers: dict[Expression, int] = {}  # base -> exponent, in first-seen order
    for part in parts:
        for factor in part.factors if type(part) is Prod else (part,):
            kind = type(factor)
            if kind is Const:
                if factor is _ZERO:
                    return _ZERO
                if factor is not _ONE:
                    scalars.append(factor)
            elif kind is Power:
                base = factor.base
                powers[base] = powers.get(base, 0) + factor.exponent
            else:
                powers[factor] = powers.get(factor, 0) + 1

    factors = [base if e == 1 else _raw_power(base, e) for base, e in powers.items() if e]
    factors.sort(key=_order)
    if scalars:
        constant = scalars[0] if len(scalars) == 1 else const(prod([c.value for c in scalars]))
        if constant is not _ONE:
            factors.insert(0, constant)
    return _raw_prod(tuple(factors)) if factors else _ONE


def _raw_power(base: Expression, exponent: int) -> Expression:
    key = (base, exponent)
    node = _powers.get(key)
    if node is None:
        node = _new(Power, 2, b"w" + base._digest + b"%d" % exponent)
        node.base = base
        node.exponent = exponent
        _powers[key] = node
    return node


def power(base: Expression, exponent: int) -> Expression:
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return const(coeff_pow(base.value, exponent))
    if isinstance(base, Power):
        return power(base.base, base.exponent * exponent)
    if isinstance(base, Prod):
        return mul_all([power(f, exponent) for f in base.factors])
    return _raw_power(base, exponent)


# ---------------------------------------------------------------------------
# calculus and float evaluation
# ---------------------------------------------------------------------------

def differentiate(
    expr: Expression, index: int, memo: Optional[dict] = None
) -> Expression:
    """Partial derivative with respect to variable ``index``.  ``memo`` maps
    (node, index) to derivatives already taken; without one, a fresh dict."""
    if memo is None:
        memo = {}
    key = (expr, index)
    out = memo.get(key)
    if out is not None:
        return out
    if isinstance(expr, Const):
        out = _ZERO
    elif isinstance(expr, Var):
        out = _ONE if expr.index == index else _ZERO
    elif isinstance(expr, Sum):
        out = add_all([differentiate(t, index, memo) for t in expr.terms])
    elif isinstance(expr, Prod):
        pieces = []
        for i, factor in enumerate(expr.factors):
            d = differentiate(factor, index, memo)
            if d is _ZERO:
                continue
            rest = expr.factors[:i] + expr.factors[i + 1:]
            pieces.append(mul_all(rest + (d,)))
        out = add_all(pieces)
    elif isinstance(expr, Power):
        d = differentiate(expr.base, index, memo)
        if d is _ZERO:
            out = _ZERO
        else:
            out = mul_all(
                (const(expr.exponent), power(expr.base, expr.exponent - 1), d)
            )
    else:  # pragma: no cover
        raise TypeError(f"not an expression: {expr!r}")
    memo[key] = out
    return out


_ZERO_BASE = "zero base with negative exponent"


#: most operands one generated statement folds; a longer one-line fold
#: nests too deep for ``compile()`` (RecursionError at a few thousand)
_FOLD_WIDTH = 64


def _fold(target: str, operands: list[str], op: str) -> list[str]:
    """Statements that set ``target`` to the left fold of ``operands``
    under ``op``, at most :data:`_FOLD_WIDTH` operands a statement."""
    lines = [f"{target} = {op.join(operands[:_FOLD_WIDTH])}"]
    for i in range(_FOLD_WIDTH, len(operands), _FOLD_WIDTH - 1):
        lines.append(f"{target} = {op.join([target] + operands[i:i + _FOLD_WIDTH - 1])}")
    return lines


def compile_float(
    outputs: Sequence, dimension: int, labels: Sequence[str] = ()
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
    gives at a float point, bit for bit, and a failure at call time raises
    the same exception: ``ZeroDivisionError`` for a zero base with a
    negative exponent, ``OverflowError`` from ``**``.  Two failures come
    here, when the function is built, and not at call time: a variable
    outside ``dimension`` raises ``IndexError``, and a constant or weight
    beyond the range of a double raises :class:`CoefficientError`, naming
    the output by its label in ``labels`` (by its index when it has none),
    where ``eval_expression`` raises :class:`CoefficientError` when it
    reaches the constant.
    """
    namespace: dict[str, object] = {}
    names: dict[Expression, str] = {}
    body: list[str] = []

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
            body.extend(_fold(name, operands, " + "))
        elif isinstance(node, Prod):
            operands = [name_of(f) for f in node.factors]
            name = f"t{len(names)}"
            body.extend(_fold(name, operands, " * "))
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
        try:
            if isinstance(output, Expression):
                results.append(name_of(output))
                continue
            terms = ["0.0"]
            for weight, expr in output:
                w = f"w{len(namespace)}"
                namespace[w] = float(weight)
                terms.append(f"{w} * {name_of(expr)}")
        except OverflowError:  # float() of a number past the double range
            label = labels[i] if i < len(labels) else i
            raise CoefficientError(
                f"component {label} has a constant that does not fit a double"
            ) from None
        body.extend(_fold(f"o{i}", terms, " + "))
        results.append(f"o{i}")

    params = ", ".join(f"y{i}" for i in range(dimension))
    source = "\n    ".join(
        ["def field(y):", f"[{params}] = y", *body, f"return [{', '.join(results)}]"]
    )
    exec(compile(source, "<bsharp float field>", "exec"), namespace)
    return namespace["field"]
