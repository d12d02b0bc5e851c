"""Truncated B-series and the operations that combine them.

A truncated B-series holds one coefficient per rooted tree up to a maximum
order, plus a coefficient for the empty tree.  Two kinds occur in practice:

* *map-kind* (empty coefficient 1): the Taylor expansion of a one-step map
  such as a Runge-Kutta method, or of the exact time-h flow;
* *flow-kind* (empty coefficient 0): the expansion of h times a vector
  field, e.g. the right-hand side of a modified equation.

Coefficients are exact (rationals or rational functions in named
parameters).  Binary operations require both operands to share the same
``max_order`` — nothing truncates implicitly.

The two structural operations mirror the two ways of splitting a tree:

* :func:`compose` sums over ordered-subtree splits.  ``compose(a, b)`` is
  "apply ``a``'s step first, then ``b``" — the result coefficient of τ is
  Σ over splits of b(kept subtree)·Π a(cut branch), and the empty
  coefficient is ``b``'s.  The inner series ``a`` must be map-kind.
* :func:`substitute` sums over partition splits.  ``substitute(v, u)``
  replaces the vector field that ``u``'s trees are built from by the
  flow-kind series ``v``: the coefficient of τ is Σ over partitions of
  u(skeleton)·Π v(component).

Two triangular solves invert substitution.  :func:`modified_equation_series`
finds the flow-kind ``v`` with substitute(v, exact flow) = method.  It does
not walk the 2**(|τ|-1) partition splits: the exact flow of ``v`` is
exp of the Lie derivative ∂_v, whose action on a tree sums over its
|τ| - 1 single-edge cuts, so the solve is polynomial in the order.
:func:`modifying_integrator_series` finds ``v`` with
substitute(v, method) = exact flow, over the distinct partition splits.

Display convention: a coefficient table is presented as
Σ coeff(τ)/σ(τ) · h^{|τ| − reduce} · F(τ), where σ is the tree symmetry and
``reduce`` is 0 for maps and 1 for vector fields (an h is folded into the
field).  JSON files store raw coefficients, never the σ-divided form.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Mapping, NamedTuple

from .coefficients import (
    Coefficient,
    coeff_add,
    coeff_div,
    coeff_eq,
    coeff_is_zero,
    coeff_mul,
    coeff_parse,
    coeff_pow,
    coeff_print,
    coeff_sub,
)
from .errors import SeriesError, SingularMethodError
from .rationals import rat
from .splits import edge_cut_table, partition_split_table, subtree_split_table
from .trees import EMPTY_TREE, RootedTree, all_trees_up_to, parse_tree, trees_of_order

# Instrumentation: the operations skip whole split terms with a factor that
# is exactly zero.  The counter lets tests verify both that the skip fires
# and (with skip_zero=False) that it never changes results.
_zero_skips = 0


def zero_skip_count() -> int:
    return _zero_skips


def reset_zero_skip_count() -> None:
    global _zero_skips
    _zero_skips = 0


class TruncatedBSeries:
    """Dense table of coefficients for every tree up to ``max_order``.

    ``series[tree]`` looks up a coefficient (``EMPTY_TREE`` gives the empty
    coefficient); iteration over ``trees()``/``items()`` is always in
    (order, level sequence) order.  Instances are immutable.
    """

    __slots__ = ("max_order", "empty", "_coeffs", "_order")

    def __init__(
        self,
        max_order: int,
        empty: Coefficient,
        coefficients: Mapping[RootedTree, Coefficient],
    ):
        if not isinstance(max_order, int) or max_order < 0:
            raise SeriesError(f"max_order must be a non-negative integer, got {max_order!r}")
        expected = tuple(all_trees_up_to(max_order))
        if len(coefficients) != len(expected) or any(t not in coefficients for t in expected):
            raise SeriesError(
                f"coefficient table must cover exactly the {len(expected)} trees "
                f"of order 1..{max_order}"
            )
        self.max_order = max_order
        self.empty = empty
        self._order = expected
        self._coeffs = {t: coefficients[t] for t in expected}

    @classmethod
    def from_function(
        cls, max_order: int, empty: Coefficient, fn: Callable[[RootedTree], Coefficient]
    ) -> "TruncatedBSeries":
        return cls(max_order, empty, {t: fn(t) for t in all_trees_up_to(max_order)})

    @property
    def kind(self) -> str:
        """"map", "flow", or "general", by the empty coefficient."""
        if coeff_eq(self.empty, 1):
            return "map"
        if coeff_is_zero(self.empty):
            return "flow"
        return "general"

    def __getitem__(self, tree) -> Coefficient:
        if tree is EMPTY_TREE:
            return self.empty
        try:
            return self._coeffs[tree]
        except KeyError:
            raise SeriesError(
                f"tree {tree} of order {tree.order} is outside this series "
                f"(max_order {self.max_order})"
            ) from None

    def trees(self) -> Iterator[RootedTree]:
        return iter(self._order)

    def items(self) -> Iterator[tuple[RootedTree, Coefficient]]:
        for t in self._order:
            yield t, self._coeffs[t]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedBSeries):
            return NotImplemented
        return series_eq(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<TruncatedBSeries kind={self.kind} max_order={self.max_order}>"


def _require_same_order(a: TruncatedBSeries, b: TruncatedBSeries, op: str) -> None:
    if a.max_order != b.max_order:
        raise SeriesError(
            f"{op} needs equal truncation orders, got {a.max_order} and {b.max_order} "
            "(truncate explicitly first)"
        )


def series_eq(a: TruncatedBSeries, b: TruncatedBSeries) -> bool:
    _require_same_order(a, b, "series equality")
    if not coeff_eq(a.empty, b.empty):
        return False
    return all(coeff_eq(ca, cb) for (_, ca), (_, cb) in zip(a.items(), b.items()))


def series_sub(a: TruncatedBSeries, b: TruncatedBSeries) -> TruncatedBSeries:
    """Coefficient-wise difference (useful for order-condition residuals)."""
    _require_same_order(a, b, "series subtraction")
    return TruncatedBSeries(
        a.max_order,
        coeff_sub(a.empty, b.empty),
        {t: coeff_sub(ca, b[t]) for t, ca in a.items()},
    )


def truncated(series: TruncatedBSeries, max_order: int) -> TruncatedBSeries:
    """Restriction to a smaller maximum order."""
    if max_order > series.max_order:
        raise SeriesError(
            f"cannot extend a series truncated at {series.max_order} to {max_order}"
        )
    return TruncatedBSeries(
        max_order, series.empty, {t: series[t] for t in all_trees_up_to(max_order)}
    )


def exact_series(max_order: int) -> TruncatedBSeries:
    """Expansion of the exact time-h flow: empty 1, coeff(τ) = 1/γ(τ)."""
    return TruncatedBSeries.from_function(max_order, rat(1), lambda t: rat(1, t.density()))


def identity_series(max_order: int) -> TruncatedBSeries:
    """Expansion of the identity map: empty 1, every tree coefficient 0."""
    return TruncatedBSeries.from_function(max_order, rat(1), lambda t: rat(0))


def scale_step(series: TruncatedBSeries, mu: Coefficient) -> TruncatedBSeries:
    """Replace step h by μ·h: coeff(τ) picks up μ^{|τ|}."""
    return TruncatedBSeries(
        series.max_order,
        series.empty,
        {t: coeff_mul(coeff_pow(mu, t.order), c) for t, c in series.items()},
    )


# The split-table loops look coefficients up by level sequence: the tables'
# trees are other objects than the series' keys, and bytes keys compare
# without a Python-level RootedTree.__eq__.  Zero coefficients are found once
# per tree, not once per row.

def _by_levels(series: TruncatedBSeries) -> dict[bytes, Coefficient]:
    """Coefficients keyed by level sequence, ``empty`` under EMPTY_TREE's."""
    table = {t._levels: c for t, c in series.items()}
    table[EMPTY_TREE._levels] = series.empty
    return table


def _zero_levels(table: Mapping[bytes, Coefficient]) -> set[bytes]:
    return {s for s, c in table.items() if coeff_is_zero(c)}


def compose(
    inner: TruncatedBSeries,
    outer: TruncatedBSeries,
    *,
    normalize_stepsize: bool = False,
    skip_zero: bool = True,
) -> TruncatedBSeries:
    """Series of "inner step, then outer step".

    ``inner`` must be map-kind (its output state feeds ``outer``).  With
    ``normalize_stepsize`` both factors are first rescaled to half steps, so
    composing a method with itself keeps h the full-step width.
    """
    global _zero_skips
    _require_same_order(inner, outer, "composition")
    if not coeff_eq(inner.empty, 1):
        raise SeriesError("composition needs a map-kind inner series (empty coefficient 1)")
    if normalize_stepsize:
        half = rat(1, 2)
        inner = scale_step(inner, half)
        outer = scale_step(outer, half)

    inner_by_levels = _by_levels(inner)
    outer_by_levels = _by_levels(outer)
    zero_outer = _zero_levels(outer_by_levels) if skip_zero else set()
    coeffs: dict[RootedTree, Coefficient] = {}
    for tree in all_trees_up_to(inner.max_order):
        total: Coefficient = rat(0)
        for kept, branches in subtree_split_table(tree):
            if kept._levels in zero_outer:
                _zero_skips += 1
                continue
            term = outer_by_levels[kept._levels]
            for branch in branches:
                term = coeff_mul(term, inner_by_levels[branch._levels])
            total = coeff_add(total, term)
        coeffs[tree] = total
    return TruncatedBSeries(inner.max_order, outer.empty, coeffs)


def substitute(
    flow: TruncatedBSeries,
    outer: TruncatedBSeries,
    *,
    skip_zero: bool = True,
) -> TruncatedBSeries:
    """Feed the flow-kind series ``flow`` in as the vector field of ``outer``.

    coeff(τ) = Σ over partition splits of outer(skeleton) · Π flow(component),
    each distinct split weighted by its multiplicity.  The empty coefficient
    is ``outer``'s.
    """
    global _zero_skips
    _require_same_order(flow, outer, "substitution")
    if not coeff_is_zero(flow.empty):
        raise SeriesError("substitution needs a flow-kind inner series (empty coefficient 0)")

    flow_by_levels = _by_levels(flow)
    outer_by_levels = _by_levels(outer)
    zero_outer = _zero_levels(outer_by_levels) if skip_zero else set()
    coeffs: dict[RootedTree, Coefficient] = {}
    for tree in all_trees_up_to(flow.max_order):
        total: Coefficient = rat(0)
        for skeleton, components, k in partition_split_table(tree):
            if skeleton._levels in zero_outer:
                _zero_skips += 1
                continue
            o = outer_by_levels[skeleton._levels]
            term = o if k == 1 else coeff_mul(o, k)
            for component in components:
                term = coeff_mul(term, flow_by_levels[component._levels])
            total = coeff_add(total, term)
        coeffs[tree] = total
    return TruncatedBSeries(flow.max_order, outer.empty, coeffs)


def modified_equation_series(
    method: TruncatedBSeries, *, skip_zero: bool = True
) -> TruncatedBSeries:
    """Flow-kind series v with substitute(v, exact flow) = method.

    Integrating the modified field h·v to time h reproduces the method's
    step exactly through the truncation order.  The time-h flow of v has
    coefficients Σ_{j≥1} (1/j!)·c_j(τ), where c_1 = v and the Lie
    derivative c_j(τ) = Σ over single-edge cuts of c_{j-1}(trunk)·v(branch)
    (Hairer-Lubich-Wanner, GNI §IX.9).  Every c_j(τ) with j ≥ 2 involves
    only smaller trees, so v(τ) = method(τ) - Σ_{j=2}^{|τ|} c_j(τ)/j! is
    solved tree by tree.  ``skip_zero`` drops cut terms with a zero factor
    instead of multiplying them through; it never changes the result.
    """
    global _zero_skips
    if not coeff_eq(method.empty, 1):
        raise SeriesError("modified equation needs a map-kind method series")
    v: dict[RootedTree, Coefficient] = {}
    # lie[τ][j - 1] = c_j(τ) for j = 1..|τ|; c_j(τ) = 0 whenever j > |τ|
    lie: dict[RootedTree, list[Coefficient]] = {}
    inverse_factorials = [rat(1, math.factorial(j)) for j in range(2, method.max_order + 1)]
    for tree in all_trees_up_to(method.max_order):
        higher: list[Coefficient] = [rat(0)] * (tree.order - 1)  # c_2 .. c_|τ|
        for trunk, branch, k in edge_cut_table(tree):
            w = v[branch]
            if skip_zero and coeff_is_zero(w):
                _zero_skips += 1
                continue
            if k != 1:
                w = coeff_mul(w, k)
            for j, c in enumerate(lie[trunk]):
                if skip_zero and coeff_is_zero(c):
                    _zero_skips += 1
                    continue
                higher[j] = coeff_add(higher[j], coeff_mul(c, w))
        total: Coefficient = method[tree]
        for c, inverse in zip(higher, inverse_factorials):
            total = coeff_sub(total, coeff_mul(c, inverse))
        v[tree] = total
        lie[tree] = [total] + higher
    return TruncatedBSeries(method.max_order, rat(0), v)


def modifying_integrator_series(
    method: TruncatedBSeries, *, skip_zero: bool = True
) -> TruncatedBSeries:
    """Flow-kind series v with substitute(v, method) = exact flow.

    Applying the method to the field h·v integrates the *original* field
    exactly through the truncation order.  Requires method(•) ≠ 0.  Solved
    tree by tree over the distinct partition splits, each term weighted by
    its multiplicity.  ``skip_zero`` drops split terms whose skeleton weight
    (or any component coefficient) is zero — a pure optimization.
    """
    global _zero_skips
    if not coeff_eq(method.empty, 1):
        raise SeriesError("modifying integrator needs a map-kind method series")
    u1: Coefficient = rat(1)
    if method.max_order >= 1:
        u1 = method[RootedTree([0])]
        if coeff_is_zero(u1):
            raise SingularMethodError(
                "method coefficient of the one-node tree is zero; the triangular "
                "solve would divide by it"
            )
    weights = _by_levels(method)
    zero_weights = _zero_levels(weights) if skip_zero else set()
    solved: dict[bytes, Coefficient] = {}
    zero_solved: set[bytes] = set()
    v: dict[RootedTree, Coefficient] = {}
    for tree in all_trees_up_to(method.max_order):
        total: Coefficient = rat(1, tree.density())
        for skeleton, components, k in partition_split_table(tree)[1:]:
            if skeleton._levels in zero_weights:
                _zero_skips += 1
                continue
            term: Coefficient = weights[skeleton._levels]
            if k != 1:
                term = coeff_mul(term, k)
            for component in components:
                if component._levels in zero_solved:
                    _zero_skips += 1
                    break
                term = coeff_mul(term, solved[component._levels])
            else:
                total = coeff_sub(total, term)
        c = v[tree] = solved[tree._levels] = coeff_div(total, u1)
        if skip_zero and coeff_is_zero(c):
            zero_solved.add(tree._levels)
    return TruncatedBSeries(method.max_order, rat(0), v)


def series_order_of_accuracy(series: TruncatedBSeries, max_check: int | None = None) -> int:
    """Largest p ≤ max_check with coeff(τ) = 1/γ(τ) for every |τ| ≤ p.

    Returns 0 as soon as order 1 fails (or the series is not map-kind).
    ``max_check`` defaults to the truncation order and cannot exceed it.
    """
    limit = series.max_order if max_check is None else max_check
    if limit > series.max_order:
        raise SeriesError(
            f"cannot verify order {limit} from a series truncated at {series.max_order}"
        )
    if not coeff_eq(series.empty, 1):
        return 0
    order = 0
    for n in range(1, limit + 1):
        if all(coeff_eq(series[t], rat(1, t.density())) for t in trees_of_order(n)):
            order = n
        else:
            break
    return order


# ---------------------------------------------------------------------------
# display and serialization
# ---------------------------------------------------------------------------


class SeriesTerm(NamedTuple):
    """One displayed term: coefficient already divided by σ(τ), h to the
    power |τ| − reduce_order_by.  ``tree`` is EMPTY_TREE for the constant
    term (which stands for the state y itself)."""

    tree: object
    coefficient: Coefficient
    h_power: int


def display_terms(series: TruncatedBSeries, reduce_order_by: int = 0) -> list[SeriesTerm]:
    """Nonzero display terms, constant term first, then (order, lex)."""
    if reduce_order_by < 0:
        raise SeriesError("reduce_order_by must be non-negative")
    terms: list[SeriesTerm] = []
    if not coeff_is_zero(series.empty):
        if reduce_order_by > 0:
            raise SeriesError(
                "cannot lower the h-grading of a series with a nonzero empty "
                "coefficient (its constant term would get a negative h power)"
            )
        terms.append(SeriesTerm(EMPTY_TREE, series.empty, 0))
    for tree, c in series.items():
        if coeff_is_zero(c):
            continue
        power = tree.order - reduce_order_by
        if power < 0:
            raise SeriesError(
                f"reduce_order_by={reduce_order_by} gives tree {tree} a negative h power"
            )
        terms.append(SeriesTerm(tree, coeff_div(c, tree.symmetry()), power))
    return terms


def format_series(
    series: TruncatedBSeries, fmt: str = "text", reduce_order_by: int = 0
) -> str:
    """Aligned text table or a LaTeX sum, in the display convention."""
    terms = display_terms(series, reduce_order_by)
    if fmt == "text":
        if not terms:
            return "0"
        coeff_strs = [coeff_print(c, "text") for _, c, _ in terms]
        width = max(len(s) for s in coeff_strs)
        lines = []
        for (tree, _, power), cs in zip(terms, coeff_strs):
            what = "y" if tree is EMPTY_TREE else f"F({tree})"
            lines.append(f"{cs:<{width}}  h^{power}  {what}")
        return "\n".join(lines)
    if fmt == "latex":
        if not terms:
            return "0"
        parts = []
        for tree, c, power in terms:
            cs = coeff_print(c, "latex")
            if cs == "1":
                cs = ""
            elif cs == "-1":
                cs = "-"
            h = "" if power == 0 else ("h" if power == 1 else f"h^{{{power}}}")
            what = "y" if tree is EMPTY_TREE else f"F({tree})"
            factors = " ".join(p for p in (h, what) if p)
            if cs == "-":
                body = f"-{factors}"
            elif cs:
                body = f"{cs} {factors}"
            else:
                body = factors
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(f" - {body[1:]}")
            else:
                parts.append(f" + {body}")
        return "".join(parts)
    raise ValueError(f"unknown series format {fmt!r}")


def series_to_json_dict(series: TruncatedBSeries) -> dict:
    """JSON-ready dict; coefficient keys in (order, lex) order."""
    kind = series.kind
    if kind == "general":
        raise SeriesError(
            "only map-kind (empty 1) and flow-kind (empty 0) series serialize to JSON"
        )
    return {
        "kind": kind,
        "max_order": series.max_order,
        "empty": coeff_print(series.empty),
        "coefficients": {str(t): coeff_print(c) for t, c in series.items()},
    }


def series_from_json_dict(data: dict) -> TruncatedBSeries:
    if not isinstance(data, dict):
        raise SeriesError("series JSON must be an object")
    missing = {"kind", "max_order", "empty", "coefficients"} - data.keys()
    if missing:
        raise SeriesError(f"series JSON is missing {sorted(missing)}")
    kind = data["kind"]
    if kind not in ("map", "flow"):
        raise SeriesError(f'series kind must be "map" or "flow", got {kind!r}')
    max_order = data["max_order"]
    if not isinstance(max_order, int):
        raise SeriesError("max_order must be an integer")
    empty = coeff_parse(str(data["empty"]))
    if not coeff_eq(empty, 1 if kind == "map" else 0):
        raise SeriesError(f'empty coefficient {data["empty"]!r} contradicts kind "{kind}"')
    raw = data["coefficients"]
    if not isinstance(raw, dict):
        raise SeriesError("coefficients must be an object keyed by tree notation")
    coeffs: dict[RootedTree, Coefficient] = {}
    for key, value in raw.items():
        tree = parse_tree(key)
        if tree is EMPTY_TREE:
            raise SeriesError("the empty tree belongs in the 'empty' field, not the table")
        if tree in coeffs:
            raise SeriesError(f"duplicate coefficient for tree {tree}")
        coeffs[tree] = coeff_parse(str(value))
    return TruncatedBSeries(max_order, empty, coeffs)
