"""Triangular B-series solves over graded integers.

When every coefficient of a method series is rational,
:func:`bsharp.series.modified_equation_series` and
:func:`bsharp.series.modifying_integrator_series` run here, over plain
ints: the value of a tree τ is held as an int scaled by λ^|τ|, a *graded*
scale.  A product of the values of trees whose orders add up to |τ| (a Lie
term c_{j-1}(trunk)·v(branch), or Π v(component) over a partition) then
carries exactly λ^|τ|, so products are exact without rescaling, and each
tree's value becomes ``Fraction(value, λ^|τ|)`` once, at the end.  This is
fraction-free elimination (Bareiss, Math. Comp. 22, 1968) applied to the
triangular solves.  Every division is checked by :func:`_exact`; a
remainder means that λ is too small, and :func:`_solve` squares λ and
starts over.  That terminates: every prime of a true denominator divides
the starting λ (see :func:`_initial_scale`), and squaring doubles each
prime's power.

The solves walk the same rows as the ``series.coeff_*`` path, skip the
same zero terms and return their number.  :mod:`bsharp.series` imports
this module only when it solves a rational series.
"""

from __future__ import annotations

import math
import operator
from functools import partial

from .rationals import Rat, rat
from .series import _UNSET, TruncatedBSeries, _forest_product
from .splits import by_id, partition_skeleton_table, tree_id
from .trees import trees_of_order


class _Inexact(ArithmeticError):
    """A scaled division left a remainder: the scale λ is too small."""


def _exact(a: int, b: int) -> int:
    """``a / b``, which must be an int."""
    q, r = divmod(a, b)
    if r:
        raise _Inexact
    return q


def _initial_scale(max_order: int, d: int, divisor: int) -> int:
    """The λ a graded solve starts from: d·lcm(1..N)·divisor².  A true
    denominator has only the primes of d (the input's), those up to N (of
    j! and γ(τ)) and those of ``divisor``, the numerator of the u1 the
    modifying integrator divides by, which the denominator of v(τ) can
    hold up to 2|τ| - 1 times."""
    return d * math.lcm(*range(1, max_order + 1)) * divisor**2


def _solve(solve, max_order: int, d: int, divisor: int = 1) -> tuple[TruncatedBSeries, int]:
    """Run ``solve(λ)``, which gives the coefficients keyed by level
    sequence and the number of zero skips, squaring λ until every division
    is exact."""
    scale = _initial_scale(max_order, d, divisor)
    while True:
        try:
            coeffs, skips = solve(scale)
        except _Inexact:
            scale *= scale
        else:
            return TruncatedBSeries._from_levels(max_order, coeffs), skips


def modified_equation(
    tables, weights: list, max_order: int, d: int, skip_zero: bool
) -> tuple[TruncatedBSeries, int]:
    """The modified equation of the method with coefficients ``weights``
    (by id), d^|τ|·weight an int, and its number of zero skips."""
    return _solve(partial(_modified_equation_ints, tables, weights, skip_zero), max_order, d)


def modifying_integrator(
    coeffs: dict, max_order: int, d: int, u1: Rat, skip_zero: bool
) -> tuple[TruncatedBSeries, int]:
    """The modifying integrator of the method with coefficients ``coeffs``
    (by level sequence), d^|τ|·c(τ) an int and c(•) = ``u1``, and its
    number of zero skips."""
    levels = [
        (n, [(t, tree_id(t._levels)) for t in trees_of_order(n)], partition_skeleton_table(n))
        for n in range(1, max_order + 1)
    ]
    solve = partial(_modifying_integrator_ints, levels, coeffs, max_order, d, u1, skip_zero)
    return _solve(solve, max_order, d, u1.numerator)


def _modified_equation_ints(tables, weights: list, skip_zero: bool, scale: int):
    """The modified equation over ints scaled by λ^|τ|, λ = ``scale``:
    v(τ)·λ^|τ| = a(τ)·λ^|τ| - (Σ_j c_j(τ)·λ^|τ|·|τ|!/j!) / |τ|!."""
    skips = 0
    v: list = [None] * len(weights)
    lie: list = [None] * len(weights)
    coeffs: dict = {b"": rat(0)}
    order = 0
    for tree, i, rows in tables:
        n = len(tree._levels)
        if n != order:
            order, power, whole = n, scale**n, math.factorial(n)
            ratios = [whole // math.factorial(j) for j in range(2, n + 1)]  # n!/j!
        higher = [0] * (n - 1)  # c_2 .. c_n, scaled
        for trunk, branch, k in rows:
            w = v[branch]
            if skip_zero and not w:
                skips += 1
                continue
            w *= k
            for j, c in enumerate(lie[trunk]):
                if skip_zero and not c:
                    skips += 1
                    continue
                higher[j] += c * w
        a = weights[i]
        lies = _exact(sum(map(operator.mul, higher, ratios)), whole)
        v[i] = value = a.numerator * _exact(power, a.denominator) - lies
        lie[i] = [value] + higher
        coeffs[tree._levels] = Rat(value, power)
    return coeffs, skips


def _modifying_integrator_ints(
    levels, coeffs: dict, max_order: int, d: int, u1: Rat, skip_zero: bool, scale: int
):
    """The modifying integrator over ints, one order at a time.  A solved
    value is scaled by λ^|τ| (λ = ``scale``) and every skeleton weight by
    d^N, N = ``max_order``, so a row k·a(skeleton)·Π v(component) of a
    tree τ has the scale d^N·λ^|τ| of the tree's total, which is then
    divided by d^N·u1.  Every component of a tree is of a lower order, so
    the rows of one order are summed skeleton by skeleton, and a zero
    skeleton weight skips all of its rows at once.  Zero terms are skipped
    as :func:`bsharp.series._fold` skips them."""
    skips = 0
    d_top = d**max_order
    heads = by_id({seq: c.numerator * _exact(d_top, c.denominator) for seq, c in coeffs.items()})
    divisor = d_top * u1.numerator  # total / (d^N·u1) = total·u1.denominator / divisor
    solved: list = [None] * len(heads)
    totals = [0] * len(heads)  # minus Σ over the rows of a tree, scaled
    zero_solved: set[int] = set()
    products: dict[int, int | None] = {}
    known = products.get
    product = partial(_forest_product, products, solved, zero_solved)
    out: dict = {b"": rat(0)}
    for n, trees, groups in levels:
        power = scale**n
        one = d_top * power  # 1, scaled
        for head, rows in groups:
            w = heads[head]
            if skip_zero and not w:
                skips += len(rows)
                continue
            for i, forest, k in rows:
                p = known(forest, _UNSET)
                if p is _UNSET:
                    p = product(forest)
                if p is None:
                    skips += 1
                    continue
                totals[i] -= w * k * p
        for tree, i in trees:
            total = _exact(one, tree.density()) + totals[i]
            solved[i] = value = _exact(total * u1.denominator, divisor)
            if skip_zero and not value:
                zero_solved.add(i)
            out[tree._levels] = Rat(value, power)
    return out, skips
