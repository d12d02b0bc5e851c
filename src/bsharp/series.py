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
``modifying_integrator_series`` finds ``v`` with substitute(v, method)
= exact flow, over the distinct partition splits.  No arithmetic loop
lives here: every operation runs in :mod:`bsharp.graded`, whose scalar
domain (ints or Laurent polynomials) :func:`bsharp.graded._graded_denominator`
picks for its operands, or in :mod:`bsharp.series_extra`.

This module holds what the modified equation of a tableau, its field and
a simulation of it run: the series type, the modified equation and JSON
output.  Compose, substitute, the modifying integrator of a series, the
order check, display, text and LaTeX formatting, JSON input and the
small constructors live in :mod:`bsharp.series_extra`, which only the
commands that call one of them load; their names are still read from
here.  Level sequences appear only at the boundary: a series keeps one
dict keyed by canonical level sequence, ``b""`` (the empty coefficient)
first, then the trees in ``all_trees_up_to`` order.

Display convention: a coefficient table is presented as
Σ coeff(τ)/σ(τ) · h^{|τ| − reduce} · F(τ), where σ is the tree symmetry and
``reduce`` is 0 for maps and 1 for vector fields (an h is folded into the
field).  JSON files store raw coefficients, never the σ-divided form.
"""

from __future__ import annotations

import operator
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Mapping

from . import _forward
from .coefficients import Coefficient, coeff_div, coeff_print  # noqa: F401 (coeff_div: see below)
from .errors import SeriesError, SingularMethodError
from .splits import check_size
from .trees import RootedTree, all_trees_up_to, levels_text

__getattr__ = _forward(globals(), "series_extra")

# The coefficient arithmetic of series_extra goes through these names of
# this module and its coeff_div (the passes add inline), so a caller can
# rebind them here to count operations.
coeff_add, coeff_sub, coeff_mul = operator.add, operator.sub, operator.mul

# Instrumentation: the operations skip whole split terms with a factor that
# is exactly zero.  The counter lets tests verify that the skip fires.
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
        from .series_extra import _checked_coefficients

        self.max_order = max_order
        self._coeffs = _checked_coefficients(max_order, empty, coefficients)

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
        from .series_extra import series_eq

        return series_eq(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<TruncatedBSeries kind={self.kind} max_order={self.max_order}>"


def _check_max_order(max_order) -> None:
    if not isinstance(max_order, int) or isinstance(max_order, bool) or max_order < 0:
        raise SeriesError(f"max_order must be a non-negative integer, got {max_order!r}")
    check_size(max_order)


def modified_equation_series(method: TruncatedBSeries) -> TruncatedBSeries:
    """Flow-kind series v with substitute(v, exact flow) = method.

    Integrating the modified field h·v to time h reproduces the method's
    step exactly through the truncation order.  The time-h flow of v has
    coefficients Σ_{j≥1} (1/j!)·c_j(τ), where c_1 = v and the Lie
    derivative c_j(τ) = Σ over single-edge cuts of c_{j-1}(trunk)·v(branch)
    (Hairer-Lubich-Wanner, GNI §IX.9).  Every c_j(τ) with j ≥ 2 involves
    only smaller trees, so v(τ) = method(τ) - Σ_{j=2}^{|τ|} c_j(τ)/j! is
    solved tree by tree, in one :mod:`bsharp.graded` loop for both scalar
    domains, which skips the cut terms with a zero factor.
    """
    if method.empty != 1:
        raise SeriesError("modified equation needs a map-kind method series")
    from .graded import _domain, _modified_equation_ints, _solve

    coeffs, top = method._coeffs, method.max_order
    lift, lower, d, lie, dot = _domain((len(seq), c) for seq, c in coeffs.items() if seq)
    return _solve(partial(_modified_equation_ints, coeffs, top, lift, lower, lie, dot), top, d)


def _check_u1(u1: Coefficient) -> Coefficient:
    """u1 = method(•), which the modifying integrator divides by, if nonzero."""
    if not u1:
        raise SingularMethodError(
            "method coefficient of the one-node tree is zero; the triangular "
            "solve would divide by it"
        )
    return u1


def _counted(max_order: int, coeffs: dict[bytes, Coefficient], skips: int) -> TruncatedBSeries:
    """The series of the stored dict ``coeffs`` that a solve, compose or
    substitute built, its ``skips`` zero skips added to the count."""
    global _zero_skips
    _zero_skips += skips
    return TruncatedBSeries._from_levels(max_order, coeffs)


def _json_form(series: TruncatedBSeries) -> tuple[dict, Iterator[str], list[str]]:
    """The JSON form of ``series`` in parts: its members but the
    coefficients, then the coefficients' keys and their texts, in tree
    order.  The texts are printed here, as printing a coefficient can fail
    (a number past Python's digit limit for int-to-text); the keys, each
    level sequence printed as ``str(tree)`` prints it, cannot fail and are
    printed as they are read."""
    kind = series.kind
    if kind == "general":
        raise SeriesError(
            "only map-kind (empty 1) and flow-kind (empty 0) series serialize to JSON"
        )
    head = {"kind": kind, "max_order": series.max_order, "empty": coeff_print(series.empty)}
    texts = list(map(coeff_print, islice(series._coeffs.values(), 1, None)))
    return head, map(levels_text, islice(series._coeffs, 1, None)), texts


def series_to_json_dict(series: TruncatedBSeries) -> dict:
    """JSON-ready dict; coefficient keys in (order, lex) order."""
    data, keys, texts = _json_form(series)
    data["coefficients"] = dict(zip(keys, texts))
    return data
