"""The modifying integrator: the flow-kind series v with which a method
applied to the field h·v is the exact flow of the original field.

Two solves, both over the scalar domains of :mod:`bsharp.graded`:

* :func:`modifying_integrator_of_tableau`, for a Runge-Kutta tableau, is
  a stage recursion over single-edge cuts
  (:func:`_modifying_integrator_stages`): each stage whose row of A is
  not zero makes one pass of the Lie kernel :func:`bsharp.graded._lie`
  per tree, which gives both of its Lie series, and no partition table
  is built.  At the top order N each pass
  costs one product per cut (the top-order shortcut,
  :func:`bsharp.graded._top_order`).  It runs over ints and Laurent
  polynomials only.
* :func:`modifying_integrator`, for any map-kind series, solves
  substitute(v, method) = exact flow over the distinct partition splits
  (:func:`_modifying_integrator_ints`), in all three domains.  A tableau
  whose domain is plain coefficients (a denominator that is not a
  monomial, or Σb not rational) takes this solve of its series.

Only the commands that need a modifying integrator load this module:
``modifying-integrator``, ``simulate --modifying-integrator`` and
:func:`bsharp.series.modifying_integrator_series`, each when it runs.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING

from .coefficients import is_rational
from .graded import _domain, _graded_denominator, _lie, _ratios, _solve, _top_order
from .series import (
    _UNSET,
    TruncatedBSeries,
    _check_max_order,
    _check_u1,
    _counted,
    _forest_product,
    _tables,
    modifying_integrator_series,
)
from .splits import by_id, edge_cut_id_table, partition_skeleton_table, tree_id
from .trees import trees_of_order

if TYPE_CHECKING:
    from .tableaux import ButcherTableau


def modifying_integrator(
    method: TruncatedBSeries, u1, skip_zero: bool
) -> tuple[TruncatedBSeries, int]:
    """The modifying integrator of ``method``, whose c(•) is ``u1``, and its
    number of zero skips."""
    max_order = method.max_order
    graded = _graded_denominator(((t.order, c) for t, c in method.items()), u1)
    levels = [
        (n, [(t, tree_id(t._levels)) for t in trees_of_order(n)], partition_skeleton_table(n))
        for n in range(1, max_order + 1)
    ]
    d_top = 1 if graded is None else graded[0] ** max_order
    num, den = (u1.numerator, u1.denominator) if is_rational(u1) else (u1, 1)
    solve = partial(
        _modifying_integrator_ints, levels, method._coeffs, d_top, num, den, *_domain(graded),
        skip_zero,
    )
    return _solve(solve, max_order, graded, num)


def modifying_integrator_of_tableau(
    tab: ButcherTableau, max_order: int, *, skip_zero: bool = True
) -> TruncatedBSeries:
    """The modifying integrator of the Runge-Kutta tableau ``tab``: the
    flow-kind series v, truncated at ``max_order``, with which the method
    applied to the field h·v is the exact flow of the original field.

    Over the int and Laurent domains, v is solved from the stages by
    :func:`_modifying_integrator_stages`, which reads edge-cut tables only.
    When :func:`bsharp.graded._graded_denominator` finds plain coefficients (a
    denominator that is not a monomial, or Σb not rational), it is the
    partition solve :func:`bsharp.series.modifying_integrator_series` of
    the method's series.  Requires Σb ≠ 0.
    """
    _check_max_order(max_order)
    if not max_order:
        return TruncatedBSeries._from_levels(0, {b"": Fraction(0)})
    u1 = sum(tab.b, Fraction(0))
    _check_u1(u1)
    graded = _graded_denominator(((1, x) for row in (tab.b, *tab.A) for x in row), u1)
    if graded is None:
        from .tableaux import rk_series

        return modifying_integrator_series(rk_series(tab, max_order), skip_zero=skip_zero)
    lift, lower, div = _domain(graded)
    d = graded[0]
    A = [[lift(x, d) for x in row] for row in tab.A]
    b = [lift(x, d) for x in tab.b]
    tables = _tables(max_order, edge_cut_id_table)
    num, den = u1.numerator, u1.denominator
    solve = partial(_modifying_integrator_stages, tables, A, b, d, num, den, lower, div, skip_zero)
    return _counted(_solve(solve, max_order, graded, num))


def _modifying_integrator_stages(
    tables, A: list, b: list, d: int, num, den, lower, div, skip_zero: bool, scale: int
):
    """The modifying integrator of the tableau (``A``, ``b``), lifted by d,
    over values scaled by λ^|τ| (λ = ``scale``), one tree at a time.

    The stages of the method applied to h·v are K_i = v∘Y_i with
    Y_i = id + Σ_j a_ij K_j; with w_i = log Y_i, K_i = v + R_i and
    R_i = Σ_{j≥1} L_{w_i}^j v / j!, whose value at τ reads lower orders
    only.  So, with u1 = Σb = ``num``/``den``:

    * v(τ) = (1/γ(τ) - Σ_i b_i R_i(τ)) / u1, as the step Σ_i b_i K_i is
      the exact flow;
    * Y_i(τ) = Σ_j a_ij (v(τ) + R_j(τ)), complete once v(τ) is, for
      implicit tableaux as well;
    * w_i(τ) = Y_i(τ) - Σ_{j≥2} c_j(τ)/j!, with c_1 = w_i and
      c_j = L_{w_i} c_{j-1}, as in :func:`bsharp.graded._modified_equation_ints`.

    A stage whose row of A is zero has w_i = 0 and K_i = v, and costs
    nothing.  For every other stage, the list of a tree θ interleaves the
    iterates of its two Lie series, [L^0 v, c_1, L^1 v, c_2, ...] at θ, so
    one :func:`bsharp.graded._lie` pass gives both; at the top order N no w_i is formed,
    and the list is folded into Σ_j (L^j v)(θ)·N!/(j+1)!.  Every division
    is one, by d·|τ|!·u1 for v and by d·|τ|! for w_i."""
    size = 1 + max(i for _, i, _ in tables)
    top = tables[-1][0].order
    stages = range(len(b))
    active = [i for i in stages if any(A[i])]
    v: list = [None] * size
    w = {i: [None] * size for i in active}
    lists = {i: [None] * size for i in active}
    skips = 0
    out: dict = {b"": Fraction(0)}
    order = 0
    for tree, t, rows in tables:
        n = len(tree._levels)
        if n != order:
            order, power, whole, ratios = n, scale**n, math.factorial(n), _ratios(n)
            one = d * power  # d·1, scaled
            if n == top:
                folds = {i: _top_order(lists[i], ratios, 2) for i in active}
        lie, R = {}, {}  # the iterates, and n!·R_i(τ), of each active stage, scaled
        for i in active:
            if n == top:
                folded, zeros = folds[i]
                (R[i],), skipped = _lie(rows, w[i], folded, 1, skip_zero, zeros)
            else:
                lie[i], skipped = _lie(rows, w[i], lists[i], 2 * n - 2, skip_zero)
                R[i] = sum(map(operator.mul, lie[i][::2], ratios))
            skips += skipped
        total = one * (whole // tree.density()) - sum([b[i] * R[i] for i in active if b[i]], 0)
        v[t] = value = div(total if den == 1 else total * den, d * whole * num)
        out[tree._levels] = lower(value, power)
        if n == top:
            continue
        base = whole * value
        K = [base + R.get(j, 0) for j in stages]  # n!·K_j(τ)
        for i in active:
            Y = sum([a * k for a, k in zip(A[i], K) if a], 0)  # d·n!·Y_i(τ)
            lies = sum(map(operator.mul, lie[i][1::2], ratios[1:]))
            w[i][t] = w_i = div(Y - d * lies, d * whole)
            lists[i][t] = [value, w_i] + lie[i]
    return out, skips


def _modifying_integrator_ints(
    levels, coeffs: dict, d_top: int, num, den, lift, lower, div, skip_zero: bool, scale: int
):
    """The modifying integrator over scaled values, one order at a time.  A
    solved value is scaled by λ^|τ| (λ = ``scale``) and every skeleton
    weight by ``d_top`` = d^N, so a row k·a(skeleton)·Π v(component) of a
    tree τ has the scale d^N·λ^|τ| of the tree's total, which is then
    divided by d^N·u1, u1 = ``num``/``den``.  Every component of a tree is
    of a lower order, so the rows of one order are summed skeleton by
    skeleton, and a zero skeleton weight skips all of its rows at once.
    Zero terms are skipped as :func:`bsharp.series._fold` skips them."""
    skips = 0
    heads = by_id({seq: lift(c, d_top) for seq, c in coeffs.items()})
    divisor = d_top * num  # total / (d^N·u1) = total·den / divisor
    solved: list = [None] * len(heads)
    totals = [0] * len(heads)  # minus Σ over the rows of a tree, scaled
    zero_solved: set[int] = set()
    products: dict = {}
    known = products.get
    product = partial(_forest_product, products, solved, zero_solved)
    out: dict = {b"": Fraction(0)}
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
                totals[i] -= (w if k == 1 else w * k) * p
        for tree, i in trees:
            total = div(one, tree.density()) + totals[i]
            solved[i] = value = div(total if den == 1 else total * den, divisor)
            if skip_zero and not value:
                zero_solved.add(i)
            out[tree._levels] = lower(value, power)
    return out, skips
