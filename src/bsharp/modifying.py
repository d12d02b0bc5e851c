"""The modifying integrator of a Runge-Kutta tableau: the flow-kind series
v with which the method applied to the field h·v is the exact flow of the
original field.

:func:`modifying_integrator_of_tableau` is a stage recursion over
single-edge cuts, one pass of its scalar domain's Lie kernel
(:func:`bsharp.graded._domain`) per tree and stage.  The
modifying integrator of any map-kind series, which solves
substitute(v, method) = exact flow over the distinct partition splits,
is :func:`bsharp.series_extra.modifying_integrator_series`.  Only the
commands that run one of these load this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING

from . import graded
from .graded import _ratios, _reciprocal, _solve, _top_order, lift_tableau
from .series import TruncatedBSeries, _check_max_order, _check_u1
from .splits import _cut_tables, _gamma, _seqs, cut_rows, densities, walk

if TYPE_CHECKING:
    from .tableaux import ButcherTableau


def modifying_integrator_of_tableau(tab: ButcherTableau, max_order: int) -> TruncatedBSeries:
    """The modifying integrator of the Runge-Kutta tableau ``tab``: the
    flow-kind series v, truncated at ``max_order``, with which the method
    applied to the field h·v is the exact flow of the original field.

    v is solved from the stages over edge cuts
    (:func:`_modifying_integrator_stages`) and the entries lifted with Σb,
    so that the domain holds 1/Σb; for a rational Σb that is the domain of
    the tableau's own entries.  Requires Σb ≠ 0.
    """
    _check_max_order(max_order)
    if not max_order:
        return TruncatedBSeries._from_levels(0, {b"": Fraction(0)})
    u1 = _check_u1(sum(tab.b, Fraction(0)))
    A, b, lift, lower, d, lie, dot = lift_tableau(tab.A, tab.b, u1)
    content, inverse = _reciprocal(u1, lift)
    solve = partial(
        _modifying_integrator_stages, max_order, A, b, d, content, inverse, lower, lie, dot
    )
    return _solve(solve, max_order, d, content)


def _modifying_integrator_stages(
    top: int, A: list, b: list, d: int, content: int, inverse, lower, lie, dot, scale: int
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
    one pass of the domain's Lie kernel ``lie`` gives both, and a sum of
    products is one ``dot``; at the top order N no w_i is formed, and the
    list is folded into Σ_j (L^j v)(θ)·N!/(j+1)!.  Every division is one,
    by d·|τ|!·u1 for v and by d·|τ|! for w_i."""
    trees = walk(top)
    densities()  # γ of every tree below the top order, which _gamma reads
    active = [i for i in range(len(b)) if any(A[i])]
    w = {i: [None] * len(_seqs) for i in active}
    lists = {i: [None] * len(_seqs) for i in active}
    skips = 0
    out: dict = {b"": Fraction(0)}
    order = 0
    for n, seq, kids, t in trees:
        if n != order:
            order, power, whole, ratios = n, scale**n, math.factorial(n), _ratios(n)
            one = d * power  # d·1, scaled
            if n == top:
                folds = {i: _top_order(lists[i], ratios, dot, 2) for i in active}
        rows = _cut_tables[t] if n < top else cut_rows(kids)  # the top order is cut as it is read
        iterates = {}  # of each active stage
        R = [0] * len(b)  # n!·R_i(τ) of each stage, scaled
        for i in active:
            if n == top:
                (R[i],), skipped = lie(rows, w[i], folds[i], 1)
            else:
                iterates[i], skipped = lie(rows, w[i], lists[i], 2 * n - 2)
                R[i] = dot(iterates[i][::2], ratios)
            skips += skipped
        total = one * (whole // _gamma(n, kids)) - dot(b, R)
        value = graded._exact(total if inverse == 1 else total * inverse, d * whole * content)
        out[seq] = lower(value, power)
        if n == top:
            continue
        base = whole * value
        K = [base + r for r in R]  # n!·K_j(τ)
        for i in active:
            Y = dot(A[i], K)  # d·n!·Y_i(τ)
            lies = dot(iterates[i][1::2], ratios[1:])
            w[i][t] = w_i = graded._exact(Y - d * lies, d * whole)
            lists[i][t] = [value, w_i] + iterates[i]
    return out, skips
