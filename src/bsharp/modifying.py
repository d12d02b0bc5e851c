"""The modifying integrator: the flow-kind series v with which a method
applied to the field h·v is the exact flow of the original field; the one
pass over grouped split tables; and composition.

Two solves, both over the scalar domains of :mod:`bsharp.graded`:
:func:`modifying_integrator_of_tableau`, for a Runge-Kutta tableau, is a
stage recursion over single-edge cuts, one pass of the Lie kernel
:func:`bsharp.graded._lie` per tree and stage; :func:`modifying_integrator`,
for any map-kind series, solves substitute(v, method) = exact flow over
the distinct partition splits.

:func:`_pass` is the only code that sums a grouped split table
(head, [(tree id, forest key, k), ...]) into the totals Σ k·head·Π
factor(forest) of its trees: one order at a time in the partition solve,
and in :func:`substitute`.  :func:`compose` reads no table: one recursion
over each tree's children merges the subtree splits that keep the same
subtree as they arise.  Both run over the domain that
:func:`bsharp.graded._graded_denominator` picks for their operands, and
neither divides, so they run once, at λ = d.  The terms of a sum of ints
or Laurent values, and so its printed form, do not depend on the order of
its terms.
Only the commands that run one of these load this module.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from typing import TYPE_CHECKING

from . import graded
from .coefficients import is_rational
from .graded import _domain, _lie, _ratios, _reciprocal, _solve, _top_order, lift_tableau
from .series import (
    _UNSET,
    TruncatedBSeries,
    _check_max_order,
    _check_u1,
    _counted,
    _forest_product,
    _tables,
)
from .splits import _kids, by_id, edge_cut_id_table, partition_skeleton_table, tree_id, with_child
from .trees import trees_of_order

if TYPE_CHECKING:
    from .tableaux import ButcherTableau


def modifying_integrator(
    method: TruncatedBSeries, u1, skip_zero: bool
) -> tuple[TruncatedBSeries, int]:
    """The modifying integrator of ``method``, whose c(•) is ``u1``, and its
    number of zero skips."""
    max_order = method.max_order
    levels = [
        (n, [(t, tree_id(t._levels)) for t in trees_of_order(n)], partition_skeleton_table(n))
        for n in range(1, max_order + 1)
    ]
    lift, lower, d = _domain(((t.order, c) for t, c in method.items()), u1)
    content, inverse = _reciprocal(u1, lift)
    heads = _lifted(method._coeffs, lift, d, max_order)
    solve = partial(
        _modifying_integrator_ints, levels, heads, d**max_order, content, inverse, lower, skip_zero
    )
    return _solve(solve, max_order, d, content)


def modifying_integrator_of_tableau(
    tab: ButcherTableau, max_order: int, *, skip_zero: bool = True
) -> TruncatedBSeries:
    """The modifying integrator of the Runge-Kutta tableau ``tab``: the
    flow-kind series v, truncated at ``max_order``, with which the method
    applied to the field h·v is the exact flow of the original field.

    v is solved from the stages over edge cuts
    (:func:`_modifying_integrator_stages`) and the entries the tableau
    lifted when it was built, or, for a symbolic Σb, lifted again with Σb
    so that the domain holds 1/Σb.  Requires Σb ≠ 0.
    """
    _check_max_order(max_order)
    if not max_order:
        return TruncatedBSeries._from_levels(0, {b"": Fraction(0)})
    u1 = sum(tab.b, Fraction(0))
    _check_u1(u1)
    A, b, lift, lower, d = tab._lifted if is_rational(u1) else lift_tableau(tab.A, tab.b, u1)
    content, inverse = _reciprocal(u1, lift)
    tables = _tables(max_order, edge_cut_id_table)
    solve = partial(
        _modifying_integrator_stages, tables, A, b, d, content, inverse, lower, skip_zero
    )
    return _counted(_solve(solve, max_order, d, content))


def _modifying_integrator_stages(
    tables, A: list, b: list, d: int, content: int, inverse, lower, skip_zero: bool, scale: int
):
    """The modifying integrator of the tableau (``A``, ``b``), lifted by d,
    over values scaled by λ^|τ| (λ = ``scale``), one tree at a time.

    The stages of the method applied to h·v are K_i = v∘Y_i with
    Y_i = id + Σ_j a_ij K_j; with w_i = log Y_i, K_i = v + R_i and
    R_i = Σ_{j≥1} L_{w_i}^j v / j!, whose value at τ reads lower orders
    only.  So, with u1 = Σb = ``content``/``inverse``:

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
                (R[i],), skipped = _lie(rows, w[i], folds[i], 1, skip_zero)
            else:
                lie[i], skipped = _lie(rows, w[i], lists[i], 2 * n - 2, skip_zero)
                R[i] = sum(map(operator.mul, lie[i][::2], ratios))
            skips += skipped
        total = one * (whole // tree.density()) - sum([b[i] * R[i] for i in active if b[i]], 0)
        v[t] = value = graded._exact(
            total if inverse == 1 else total * inverse, d * whole * content
        )
        out[tree._levels] = lower(value, power)
        if n == top:
            continue
        base = whole * value
        K = [base + R.get(j, 0) for j in stages]  # n!·K_j(τ)
        for i in active:
            Y = sum([a * k for a, k in zip(A[i], K) if a], 0)  # d·n!·Y_i(τ)
            lies = sum(map(operator.mul, lie[i][1::2], ratios[1:]))
            w[i][t] = w_i = graded._exact(Y - d * lies, d * whole)
            lists[i][t] = [value, w_i] + lie[i]
    return out, skips


def _modifying_integrator_ints(
    levels, heads: list, d_top: int, content: int, inverse, lower, skip_zero: bool, scale: int
):
    """The modifying integrator over scaled values, one :func:`_pass` per
    order.  A solved value is scaled by λ^|τ| (λ = ``scale``) and each
    skeleton weight, in ``heads``, by ``d_top`` = d^N, so a row of τ has
    the scale d^N·λ^|τ| of its total, 1/γ(τ) less the rows, which is then
    divided by d^N·u1, u1 = ``content``/``inverse``."""
    skips = 0
    divisor = d_top * content  # total / (d^N·u1) = total·inverse / divisor
    solved: list = [None] * len(heads)
    totals = [0] * len(heads)  # Σ over the rows of a tree, scaled
    zero_solved: set[int] = set()
    products: dict = {}
    product = partial(_forest_product, products, solved, zero_solved)
    out: dict = {b"": Fraction(0)}
    for n, trees, groups in levels:
        power = scale**n
        one = d_top * power  # 1, scaled
        skips += _pass(groups, heads, products, product, totals, skip_zero)
        for tree, i in trees:
            total = graded._exact(one, tree.density()) - totals[i]
            solved[i] = value = graded._exact(total if inverse == 1 else total * inverse, divisor)
            if skip_zero and not value:
                zero_solved.add(i)
            out[tree._levels] = lower(value, power)
    return out, skips


def _pass(groups, heads: list, products: dict, product, totals: list, skip_zero: bool) -> int:
    """Add k·heads[head]·Π(forest) to totals[tree id] for every row of the
    grouped split table ``groups``, and give the number of zero skips.
    ``product`` is :func:`bsharp.series._forest_product` bound to the memo
    ``products``.  A zero head skips all of its rows at once, and a forest
    with a zero factor (``product`` gives None) skips its row."""
    skips = 0
    known = products.get
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
            totals[i] += (w if k == 1 else w * k) * p
    return skips


def _lifted(coeffs: dict, lift, d: int, top: int = 0) -> list:
    """The c(τ) of ``coeffs`` lifted by d^``top`` (d^|τ| for 0), by id."""
    trees = islice(coeffs.items(), 1, None)
    return by_id({seq: lift(c, d ** (top or len(seq))) for seq, c in trees})


def _operands(inner: TruncatedBSeries, outer: TruncatedBSeries, top: int, skip_zero: bool):
    """(heads, factors, zero factor ids, lower, d): outer's c(τ) lifted by
    d^``top`` (d^|τ| for 0) and inner's by d^|τ|, in the domain of both."""
    lift, lower, d = _domain((t.order, c) for t, c in chain(inner.items(), outer.items()))
    heads, factors = _lifted(outer._coeffs, lift, d, top), _lifted(inner._coeffs, lift, d)
    zero = {i for i, c in enumerate(factors) if skip_zero and c is not None and not c}
    return heads, factors, zero, lower, d


def compose(
    inner: TruncatedBSeries, outer: TruncatedBSeries, skip_zero: bool
) -> tuple[TruncatedBSeries, int]:
    """:func:`bsharp.series.compose` of ``inner`` then ``outer``, and its
    number of zero skips.  A state maps a kept subtree s to V_s, Σ Π
    inner(cut branch) over the splits that keep s, from {•: 1}; each child
    c is cut (V·inner(c)) or kept in a split k of its own (V·V_c(k), k
    grafted onto s).  compose(τ) = Σ outer(s)·V_s has the scale d^|τ|; the
    empty split outer(∅)·inner(τ) is added after lowering."""
    trees = [(seq, c, tree_id(seq)) for seq, c in islice(inner._coeffs.items(), 1, None)]
    heads, factors, zero, lower, d = _operands(inner, outer, 0, skip_zero)
    top = inner.max_order
    kept: list = [None] * len(heads)  # id -> its (memo growing s by it, V) pairs
    empty, skips = outer.empty, 0
    coeffs = {b"": empty}
    for seq, a, i in trees:
        states: dict = {trees[0][2]: 1}  # the root alone
        for c in _kids[i]:
            f = factors[c]
            cut = f or not skip_zero
            skips += not cut
            out: dict = {}
            get = out.get
            for s, v in states.items():
                if skip_zero and not v:
                    skips += 1
                    continue
                if cut:
                    out[s] = get(s, 0) + v * f
                for grown, w in kept[c]:
                    t = grown[s]
                    out[t] = get(t, 0) + v * w
            states = out
        terms = [heads[s] * v for s, v in states.items() if heads[s] and v or not skip_zero]
        skips += len(states) - len(terms)
        if len(seq) < top:
            kept[i] = [(with_child[s], v) for s, v in states.items() if v or not skip_zero]
        total = lower(sum(terms, 0), d ** len(seq))
        if skip_zero and (not empty or i in zero):
            skips += 1
        else:
            total += empty * a
        coeffs[seq] = total
    return TruncatedBSeries._from_levels(top, coeffs), skips


def substitute(
    flow: TruncatedBSeries, outer: TruncatedBSeries, skip_zero: bool
) -> tuple[TruncatedBSeries, int]:
    """:func:`bsharp.series.substitute` of ``flow`` into ``outer``, and its
    number of zero skips.  Skeleton weights are lifted by d^N and each
    component by d^|component|, so every row of τ has the scale d^N·d^|τ|.
    The row outer(•)·flow(τ), no edge removed, starts the total."""
    top = flow.max_order
    tables = [partition_skeleton_table(n) for n in range(1, top + 1)]  # index every tree
    heads, factors, zero, lower, d = _operands(flow, outer, top, skip_zero)
    node = heads[tree_id(b"\x00")] if top else 0  # outer(•)
    totals, skips = [0] * len(heads), 0
    ids = [(seq, tree_id(seq)) for seq in islice(flow._coeffs, 1, None)]
    for _, i in ids:
        if skip_zero and (not node or i in zero):
            skips += 1
        else:
            totals[i] = node * factors[i]
    products: dict = {}
    product = partial(_forest_product, products, factors, zero)
    skips += sum([_pass(groups, heads, products, product, totals, skip_zero) for groups in tables])
    coeffs = {b"": outer.empty, **{seq: lower(totals[i], d ** (top + len(seq))) for seq, i in ids}}
    return TruncatedBSeries._from_levels(top, coeffs), skips
