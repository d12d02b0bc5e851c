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
finds the flow-kind ``v`` with substitute(v, exact flow) = method, over the
|τ| - 1 single-edge cuts of each tree (the exact flow of ``v`` is exp of
the Lie derivative ∂_v), so the solve is polynomial in the order.
:func:`modifying_integrator_series` finds ``v`` with substitute(v, method)
= exact flow, over the distinct partition splits.  No arithmetic loop
lives here: every operation runs in :mod:`bsharp.graded` or
:mod:`bsharp.modifying` (loaded only when it runs) over the scalar domain
(ints, Laurent polynomials or plain coefficients) that
:func:`bsharp.graded._graded_denominator` picks for its operands.
Substitute and the modifying integrator sum grouped partition tables in
one pass, :func:`bsharp.modifying._pass`, whose forest products come from
:func:`_forest_product`: a memo for one call maps each forest key to its
Π, and a new entry peels the highest id off its key for one product.
Compose reads no table: it merges, tree by tree, the subtree splits that
keep the same subtree as they arise.  Level sequences appear only at the
boundary: a series keeps one dict keyed by canonical level sequence,
``b""`` (the empty coefficient) first, then the trees in
``all_trees_up_to`` order.

Display convention: a coefficient table is presented as
Σ coeff(τ)/σ(τ) · h^{|τ| − reduce} · F(τ), where σ is the tree symmetry and
``reduce`` is 0 for maps and 1 for vector fields (an h is folded into the
field).  JSON files store raw coefficients, never the σ-divided form.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Mapping, NamedTuple

from .coefficients import (
    Coefficient, coeff_div, coeff_from_json, coeff_pow, coeff_print, is_rational
)
from .errors import SeriesError, SingularMethodError
from .splits import edge_cut_id_table, split_top, tree_id
from .trees import EMPTY_TREE, RootedTree, all_trees_up_to, count_trees, parse_tree, trees_of_order

# This module's coefficient arithmetic goes through these names and coeff_div
# (the passes add inline), so a caller can rebind them to count operations.
coeff_add, coeff_sub, coeff_mul = operator.add, operator.sub, operator.mul

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

    __slots__ = ("max_order", "_coeffs")

    def __init__(
        self,
        max_order: int,
        empty: Coefficient,
        coefficients: Mapping[RootedTree, Coefficient],
    ):
        _check_max_order(max_order)
        # compare sizes before enumerating, so a large max_order fails fast
        count = sum(map(count_trees, range(1, max_order + 1)))
        expected = tuple(all_trees_up_to(max_order)) if len(coefficients) == count else None
        if expected is None or any(t not in coefficients for t in expected):
            raise SeriesError(
                f"coefficient table must cover exactly the {count} trees "
                f"of order 1..{max_order}"
            )
        self.max_order = max_order
        self._coeffs = {b"": empty, **{t._levels: coefficients[t] for t in expected}}

    @classmethod
    def _from_levels(cls, max_order: int, coeffs: dict[bytes, Coefficient]) -> "TruncatedBSeries":
        """Wrap a dict already in the stored shape, without checking it."""
        self = object.__new__(cls)
        self.max_order = max_order
        self._coeffs = coeffs
        return self

    @classmethod
    def from_function(
        cls, max_order: int, empty: Coefficient, fn: Callable[[RootedTree], Coefficient]
    ) -> "TruncatedBSeries":
        _check_max_order(max_order)
        coeffs = {b"": empty}
        for t in all_trees_up_to(max_order):
            coeffs[t._levels] = fn(t)
        return cls._from_levels(max_order, coeffs)

    @property
    def empty(self) -> Coefficient:
        return self._coeffs[b""]

    @property
    def kind(self) -> str:
        """"map", "flow", or "general", by the empty coefficient."""
        if self.empty == 1:
            return "map"
        if not self.empty:
            return "flow"
        return "general"

    def __getitem__(self, tree) -> Coefficient:
        try:
            return self._coeffs[tree._levels]
        except KeyError:
            raise SeriesError(
                f"tree {tree} of order {tree.order} is outside this series "
                f"(max_order {self.max_order})"
            ) from None

    def trees(self) -> Iterator[RootedTree]:
        return map(RootedTree._wrap, islice(self._coeffs, 1, None))

    def items(self) -> Iterator[tuple[RootedTree, Coefficient]]:
        for seq, c in islice(self._coeffs.items(), 1, None):
            yield RootedTree._wrap(seq), c

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedBSeries):
            return NotImplemented
        return series_eq(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<TruncatedBSeries kind={self.kind} max_order={self.max_order}>"


def _check_max_order(max_order) -> None:
    if not isinstance(max_order, int) or isinstance(max_order, bool) or max_order < 0:
        raise SeriesError(f"max_order must be a non-negative integer, got {max_order!r}")


def _require_same_order(a: TruncatedBSeries, b: TruncatedBSeries, op: str) -> None:
    if a.max_order != b.max_order:
        raise SeriesError(
            f"{op} needs equal truncation orders, got {a.max_order} and {b.max_order} "
            "(truncate explicitly first)"
        )


def series_eq(a: TruncatedBSeries, b: TruncatedBSeries) -> bool:
    _require_same_order(a, b, "series equality")
    return all(ca == cb for ca, cb in zip(a._coeffs.values(), b._coeffs.values()))


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
    return TruncatedBSeries.from_function(
        max_order, Fraction(1), lambda t: Fraction(1, t.density())
    )


def identity_series(max_order: int) -> TruncatedBSeries:
    """Expansion of the identity map: empty 1, every tree coefficient 0."""
    return TruncatedBSeries.from_function(max_order, Fraction(1), lambda t: Fraction(0))


def scale_step(series: TruncatedBSeries, mu: Coefficient) -> TruncatedBSeries:
    """Replace step h by μ·h: coeff(τ) picks up μ^{|τ|}."""
    return TruncatedBSeries(
        series.max_order,
        series.empty,
        {t: coeff_mul(coeff_pow(mu, t.order), c) for t, c in series.items()},
    )


def _tables(max_order: int, table: Callable[[bytes], tuple]) -> list[tuple]:
    """(tree, its id, ``table`` of it) for every tree up to ``max_order``.
    Building the tables indexes every tree their rows name, so lists made
    by :func:`bsharp.splits.by_id` afterwards cover them all."""
    return [(t, tree_id(t._levels), table(t._levels)) for t in all_trees_up_to(max_order)]


_UNSET = object()


def _forest_product(
    products: dict[int, Coefficient | None], factors: list, zero: set[int], forest: int
) -> Coefficient | None:
    """Π factors[id] over the non-empty multiset key ``forest``, memoised in
    ``products`` for one call: a new entry peels off the highest id and
    costs one product.  ``None`` when a factor's id is in ``zero``; such a
    product is never multiplied out."""
    p = products.get(forest, _UNSET)
    if p is _UNSET:
        top, rest = split_top(forest)
        if top in zero:
            p = None
        elif rest:
            p = _forest_product(products, factors, zero, rest)
            if p is not None:
                p = coeff_mul(p, factors[top])
        else:
            p = factors[top]
        products[forest] = p
    return p


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
    ``skip_zero`` drops split terms with a zero factor; it never changes
    the result.
    """
    _require_same_order(inner, outer, "composition")
    if inner.empty != 1:
        raise SeriesError("composition needs a map-kind inner series (empty coefficient 1)")
    if normalize_stepsize:
        half = Fraction(1, 2)
        inner = scale_step(inner, half)
        outer = scale_step(outer, half)
    from . import modifying

    return _counted(modifying.compose(inner, outer, skip_zero))


def substitute(
    flow: TruncatedBSeries,
    outer: TruncatedBSeries,
    *,
    skip_zero: bool = True,
) -> TruncatedBSeries:
    """Feed the flow-kind series ``flow`` in as the vector field of ``outer``.

    coeff(τ) = Σ over partition splits of outer(skeleton) · Π flow(component),
    each distinct split weighted by its multiplicity.  The empty coefficient
    is ``outer``'s.  ``skip_zero`` drops split terms whose skeleton weight
    (or any component coefficient) is zero; it never changes the result.
    """
    _require_same_order(flow, outer, "substitution")
    if flow.empty:
        raise SeriesError("substitution needs a flow-kind inner series (empty coefficient 0)")
    from . import modifying

    return _counted(modifying.substitute(flow, outer, skip_zero))


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
    solved tree by tree, in one :mod:`bsharp.graded` loop for all three
    scalar domains.  ``skip_zero`` drops cut terms with a zero factor
    instead of multiplying them through; it never changes the result.
    """
    if method.empty != 1:
        raise SeriesError("modified equation needs a map-kind method series")
    from . import graded

    tables = _tables(method.max_order, edge_cut_id_table)
    return _counted(graded.modified_equation(method, tables, skip_zero))


def modifying_integrator_series(
    method: TruncatedBSeries, *, skip_zero: bool = True
) -> TruncatedBSeries:
    """Flow-kind series v with substitute(v, method) = exact flow.

    Applying the method to the field h·v integrates the *original* field
    exactly through the truncation order.  Requires method(•) ≠ 0.  Solved
    tree by tree over the distinct partition splits, each term weighted by
    its multiplicity: v(τ) = (1/γ(τ) - Σ k·method(skeleton)·Π v(component))
    / method(•), the sum over every split but the no-edges-removed one, in
    one loop of :mod:`bsharp.modifying` for all three scalar domains.
    ``skip_zero`` drops split terms whose skeleton weight (or any
    component coefficient) is zero — a pure optimization.
    """
    if method.empty != 1:
        raise SeriesError("modifying integrator needs a map-kind method series")
    u1: Coefficient = Fraction(1)
    if method.max_order >= 1:
        u1 = _check_u1(method._coeffs[b"\x00"])
    from .modifying import modifying_integrator

    return _counted(modifying_integrator(method, u1, skip_zero))


def _check_u1(u1: Coefficient) -> Coefficient:
    """u1 = method(•), which the modifying integrator divides by, if nonzero."""
    if not u1:
        raise SingularMethodError(
            "method coefficient of the one-node tree is zero; the triangular "
            "solve would divide by it"
        )
    return u1


def _counted(solved: tuple[TruncatedBSeries, int]) -> TruncatedBSeries:
    """The series of a solve, its zero skips added to the count."""
    global _zero_skips
    series, skips = solved
    _zero_skips += skips
    return series


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
    if series.empty != 1:
        return 0
    order = 0
    for n in range(1, limit + 1):
        if all(series[t] == Fraction(1, t.density()) for t in trees_of_order(n)):
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
    if series.empty:
        if reduce_order_by > 0:
            raise SeriesError(
                "cannot lower the h-grading of a series with a nonzero empty "
                "coefficient (its constant term would get a negative h power)"
            )
        terms.append(SeriesTerm(EMPTY_TREE, series.empty, 0))
    for tree, c in series.items():
        if not c:
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
            if not is_rational(c) and len(c.num) > 1 and not cs.startswith(r"\frac"):
                cs = rf"\left({cs}\right)"  # a sum of terms, grouped as one factor
            elif cs == "1":
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
    if not isinstance(max_order, int) or isinstance(max_order, bool):
        raise SeriesError("max_order must be an integer")
    empty = coeff_from_json(data["empty"], "empty", SeriesError)
    if empty != (1 if kind == "map" else 0):
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
        coeffs[tree] = coeff_from_json(value, f'coefficients["{key}"]', SeriesError)
    return TruncatedBSeries(max_order, empty, coeffs)
