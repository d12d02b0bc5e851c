"""Autonomous first-order ODE systems and their tree-indexed derivatives.

Systems are written in a small declaration language::

    vars p, q
    param a = 1/2
    p' = (2 - q)*p
    q' = a*(p - 1)*q

``vars`` comes first and fixes component order; ``param`` lines bind exact
rational parameters usable in the right-hand sides; every declared variable
needs exactly one ``name' = expression`` line.  Statements are separated by
newlines or semicolons, ``#`` starts a comment.  Values and right-hand
sides are read by the package's one arithmetic grammar
(:func:`bsharp.coefficients.parse_arithmetic`): a ``param`` value is a
rational as in a tableau entry, and in a right-hand side a name is a
declared variable or parameter.

From a parsed system, :class:`DiffCache` computes the elementary
differential of any rooted tree — the tree-shaped contraction of partial
derivative tensors of the right-hand side against itself — sharing partial
derivatives and subtree results across calls.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Optional

from .coefficients import NAME, coeff_eval, parse_arithmetic, parse_rational
from .errors import ParseError
from .expressions import (
    _ZERO,
    Expression,
    _as_expr,
    add_all,
    const,
    differentiate,
    mul_all,
    variable,
)

if TYPE_CHECKING:
    from .series import TruncatedBSeries
    from .trees import RootedTree

_PARAM_RE = re.compile(rf"param\s+({NAME})\s*=\s*(.+)")
_HEAD_RE = re.compile(rf"({NAME})\s*'\s*=")
_RESERVED = {"vars", "param"}


class ODESystem:
    """An autonomous system y' = f(y) with exact rational parameters.

    Attributes are read-only: ``variables`` (names, in component order),
    ``rhs`` (one expression per component) and ``parameters`` (name to
    value, empty by default).
    """

    __slots__ = ("variables", "rhs", "parameters")

    def __init__(
        self,
        variables: tuple[str, ...],
        rhs: tuple[Expression, ...],
        parameters: Optional[dict[str, Fraction]] = None,
    ):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "parameters", {} if parameters is None else parameters)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: ODESystem is read-only")

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def rhs_text(self) -> tuple[str, ...]:
        from .expressions_extra import format_expressions

        return tuple(format_expressions(self.rhs, self.variables))


def _statements(text: str):
    """Yield (line_number, column_offset, statement) with comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        start = 0
        for piece in line.split(";"):
            stripped = piece.strip()
            if stripped:
                col = start + piece.index(stripped[0])
                yield lineno, col, stripped
            start += len(piece) + 1


def parse_ode(text: str) -> ODESystem:
    """Parse the declaration language into an :class:`ODESystem`."""
    variables: Optional[tuple[str, ...]] = None
    params: dict[str, Fraction] = {}
    equations: dict[str, Expression] = {}
    indices: dict[str, int] = {}

    def value_of(name: str, line: int, column: int) -> Expression:
        if name in indices:
            return variable(indices[name])
        if name in params:
            return const(params[name])
        raise ParseError(f"unknown identifier {name!r}", line=line, column=column)

    for lineno, col, stmt in _statements(text):
        if stmt == "vars" or (stmt.startswith("vars") and stmt[4].isspace()):
            tail = stmt[4:]
            if variables is not None:
                raise ParseError("duplicate vars declaration", line=lineno, column=col + 1)
            if params or equations:
                raise ParseError(
                    "vars must be declared before params and equations",
                    line=lineno,
                    column=col + 1,
                )
            names = [p.strip() for p in tail.split(",")]
            if names == [""]:
                raise ParseError("vars declares no variables", line=lineno, column=col + 1)
            for name in names:
                if not re.fullmatch(NAME, name):
                    raise ParseError(
                        f"bad variable name {name!r}", line=lineno, column=col + 1
                    )
                if name in _RESERVED:
                    raise ParseError(
                        f"{name!r} is a reserved word", line=lineno, column=col + 1
                    )
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable name", line=lineno, column=col + 1)
            variables = tuple(names)
            indices = {name: i for i, name in enumerate(variables)}
            continue

        if variables is None:
            raise ParseError(
                "vars declaration must come first", line=lineno, column=col + 1
            )

        if stmt.startswith("param") and (len(stmt) == 5 or stmt[5].isspace()):
            m = _PARAM_RE.fullmatch(stmt)
            if m is None:
                raise ParseError(
                    "expected: param <name> = <rational>", line=lineno, column=col + 1
                )
            name = m.group(1)
            if name in _RESERVED or name in variables or name in params:
                raise ParseError(
                    f"parameter name {name!r} is taken", line=lineno, column=col + 1
                )
            params[name] = parse_rational(
                m.group(2), line=lineno, col_offset=col + m.start(2)
            )
            continue

        m = _HEAD_RE.match(stmt)
        if m is None:
            raise ParseError(f"bad statement {stmt!r}", line=lineno, column=col + 1)
        name = m.group(1)
        if name not in variables:
            raise ParseError(
                f"equation for undeclared variable {name!r}",
                line=lineno,
                column=col + 1,
            )
        if name in equations:
            raise ParseError(
                f"duplicate equation for {name!r}", line=lineno, column=col + 1
            )
        try:
            equations[name] = _as_expr(parse_arithmetic(
                stmt[m.end():], value_of, line=lineno, col_offset=col + m.end()
            ))
        except ParseError:
            raise
        except ValueError as exc:
            # a constant node's digest hashes its text, which CPython refuses
            # to write for an integer longer than its digit limit
            if "integer string conversion" not in str(exc):
                raise
            raise ParseError(
                f"a number has more than {sys.get_int_max_str_digits()} digits",
                line=lineno,
                column=col + m.end() + 1,
            ) from None

    if variables is None:
        raise ParseError("missing vars declaration")
    missing = [name for name in variables if name not in equations]
    if missing:
        raise ParseError(f"missing equation for {missing[0]!r}")
    return ODESystem(
        variables=variables,
        rhs=tuple(equations[name] for name in variables),
        parameters=params,
    )


class DiffCache:
    """Shared store of partial-derivative tensors and per-tree differentials.

    Mixed partials commute for the expression class at hand, so tensors are
    keyed by *sorted* index tuples; asking for ``(2, 0, 1)`` and ``(0, 1, 2)``
    builds one entry.  A node with m children sums, over index assignments
    (k_1, ..., k_m), the partial by y_{k_1} ... y_{k_m} times the children's
    k_i-th components.  The assignments grow one child at a time, once for
    all components: a prefix carries the components whose partial by its
    indices is nonzero, and is dropped when the child's component is zero or
    no component is left, since every derivative of zero is zero.  Each
    step from sorted indices by one more index is kept on the cache.
    A tree's differential is built from its children's, read by their ids
    in the tree index, and kept by its level sequence, whatever its order:
    the differentials kept outlive a cleared index.
    ``tensor_builds`` and ``tree_builds`` count actual constructions, not
    lookups (``tensor_builds`` thus counts only the tensors reached) — tests
    use them to pin the sharing.
    """

    def __init__(self, system: ODESystem):
        self.system = system
        self._partials: dict[tuple[int, tuple[int, ...]], Expression] = {}
        self._derivatives: dict = {}  # differentiate's memo for this system
        self._steps: dict = {}  # sorted indices -> per next index k, see _grafted
        self._trees: dict[bytes, tuple[Expression, ...]] = {}  # level sequence -> differential
        self.tensor_builds = self.tree_builds = 0

    def partial(self, component: int, indices: tuple[int, ...]) -> Expression:
        """d^m f_component / dy_{i1} ... dy_{im}, indices sorted ascending."""
        indices = tuple(sorted(indices))
        key = (component, indices)
        out = self._partials.get(key)
        if out is None:
            if indices:
                prefix = self.partial(component, indices[:-1])
                out = differentiate(prefix, indices[-1], self._derivatives)
            else:
                out = self.system.rhs[component]
            self.tensor_builds += 1
            self._partials[key] = out
        return out

    def elementary(self, tree: RootedTree) -> tuple[Expression, ...]:
        """The tree's elementary differential, one expression per component."""
        from .splits import _kids
        from .splits_extra import tree_id

        seq = tree._levels
        return self._grafted(seq, _kids[tree_id(seq)])

    def _grafted(self, seq: bytes, kids: tuple[int, ...]) -> tuple[Expression, ...]:
        """The differential of the tree ``seq``, a root over the indexed
        children ``kids`` (in level-sequence order)."""
        out = self._trees.get(seq)
        if out is not None:
            return out
        n = self.system.dimension
        if not kids:
            out = self.system.rhs
        else:
            from .splits import _kids, _seqs

            partials, steps_of = self._partials, self._steps
            child_vals = [self._grafted(_seqs[c], _kids[c]) for c in kids]
            # index assignments grown one child at a time, in lexicographic
            # order: (sorted indices, child factors, components still live)
            branches = [((), [], range(n))]
            for vals in child_vals:
                grown = []
                for indices, factors, live in branches:
                    steps = steps_of.get(indices) or steps_of.setdefault(indices, [None] * n)
                    for k, value in enumerate(vals):
                        if value is _ZERO:
                            continue
                        step = steps[k]
                        if step is None:  # a prefix's live components depend on its indices
                            extended = tuple(sorted(indices + (k,)))
                            step = steps[k] = extended, [
                                j for j in live if self.partial(j, extended) is not _ZERO]
                        if step[1]:
                            grown.append((step[0], factors + [value], step[1]))
                branches = grown
            terms: list[list[Expression]] = [[] for _ in range(n)]
            for indices, factors, live in branches:
                for j in live:
                    terms[j].append(mul_all([partials[j, indices]] + factors))
            out = tuple(map(add_all, terms))
        self.tree_builds += 1
        self._trees[seq] = out
        return out


def elementary_differential(
    system: ODESystem, tree: RootedTree, cache: Optional[DiffCache] = None
) -> tuple[Expression, ...]:
    """One-shot elementary differential; pass a cache to share work."""
    if cache is None:
        cache = DiffCache(system)
    elif cache.system is not system:
        raise ValueError("cache belongs to a different system")
    return cache.elementary(tree)


def series_vector_field(
    series: TruncatedBSeries,
    system: ODESystem,
    cache: Optional[DiffCache] = None,
) -> list[list[tuple[int, Expression]]]:
    """Expand a series over a concrete system into per-component terms.

    For each component j, returns a dense list of ``(degree, expression)``
    pairs for degrees 0..max_order: degree 0 carries ``empty * y_j`` and
    degree d >= 1 collects ``coeff(t)/symmetry(t) * F_j(t)`` over the trees
    of that order (the step size is *not* substituted — callers weight
    degree d by h**d themselves).  Series coefficients are evaluated at the
    system's parameters first; a symbol with no binding raises
    :class:`UnboundSymbolError`.
    """
    from .splits import _sigma, symmetries, walk

    if cache is None:
        cache = DiffCache(system)
    elif cache.system is not system:
        raise ValueError("cache belongs to a different system")

    bindings = {name: Fraction(v) for name, v in system.parameters.items()}
    out: list[list[tuple[int, Expression]]] = [[] for _ in system.variables]

    empty = coeff_eval(series.empty, bindings)
    for j in range(system.dimension):
        zero_deg = mul_all((const(empty), variable(j))) if empty != 0 else const(0)
        out[j].append((0, zero_deg))

    trees = walk(series.max_order)
    symmetries()  # σ of every tree below the top order, which _sigma reads
    for order, group in groupby(trees, itemgetter(0)):
        buckets: list[list[Expression]] = [[] for _ in system.variables]
        for _, seq, kids, _ in group:
            c = coeff_eval(series._coeffs[seq], bindings)
            if not c:
                continue
            weight = const(c / _sigma(kids))
            diff = cache._grafted(seq, kids)
            for j in range(system.dimension):
                buckets[j].append(mul_all((weight, diff[j])))
        for j in range(system.dimension):
            out[j].append((order, add_all(buckets[j])))
    return out
