"""Graded scaling: the one home of the scalar domains of exact weights
and solves.

:func:`bsharp.tableaux.elementary_weight` and the solves,
:func:`bsharp.series.modified_equation_series`,
:func:`bsharp.series.modifying_integrator_series` and
:func:`modifying_integrator_of_tableau`, hold the value of a
tree τ scaled by λ^|τ|, a *graded* scale, in the domain that
:func:`_graded_denominator` picks from (order, coefficient) pairs (a
tableau entry is of order 1, a series' c(τ) of order |τ|): an int when
every coefficient is rational; a :class:`_Laurent` polynomial when every
denominator is a monomial and the u1 = c(•) the modifying integrator
divides by is rational, as for ``rk22(alpha)``; and otherwise a plain
coefficient (``Fraction`` or ``RationalFunction``) at λ = 1.  A product of
the values of trees whose orders add up to |τ| (a stage product, a Lie
term c_{j-1}(trunk)·v(branch), or Π v(component) over a partition)
carries exactly λ^|τ|, so products are exact without rescaling, and each
tree's value becomes a coefficient once, at the end: ``Fraction(value,
λ^|τ|)``, or the :func:`bsharp.coefficients._normalize` form of a Laurent
value over λ^|τ|, which plain arithmetic reaches too, since a monomial
denominator never grows into a sum.  A tableau is lifted once, by the d
of its entries, and its weights never divide.  The solves are
fraction-free elimination (Bareiss, Math. Comp. 22, 1968): on ints and
Laurent values every division is checked by :func:`_exact`; a remainder
means that λ is too small, and :func:`_solve` squares λ and starts over.
That terminates: every prime of a true denominator divides the starting
λ (see :func:`_initial_scale`), and squaring doubles each prime's power.
Plain coefficients divide exactly and never restart.  Every domain skips
the same zero terms, and no loop multiplies by a multiplicity or a
denominator of 1.

The modified equation and the modifying integrator of a tableau share one
Lie kernel over single-edge cuts, :func:`_lie`.  The modified equation is
one pass of it per tree.  The modifying integrator of a tableau is a stage
recursion: each stage whose row of A is not zero makes one pass per tree,
which gives both of its Lie series (see
:func:`_modifying_integrator_stages`), and no partition table is built.
At the top order N each pass costs one product per cut (the top-order
shortcut, :func:`_top_order`).  The stage recursion runs over ints and
Laurent polynomials only; for plain coefficients, and for a series that
does not come from a tableau, the modifying integrator is the partition
solve :func:`modifying_integrator`.  Over plain coefficients an unreduced
rational function prints by its summation order, so there the modified
equation sums the top order without the shortcut, as below it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING

from .coefficients import _normalize, _poly_add, _widen, coeff_div, is_rational
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


class _Inexact(ArithmeticError):
    """A scaled division left a remainder: the scale λ is too small."""


def _exact(a, b: int):
    """``a / b``, which must be an int (or a :class:`_Laurent` of ints)."""
    q, r = divmod(a, b)
    if r:
        raise _Inexact
    return q


class _Laurent:
    """An integer Laurent polynomial over the symbols of one solve: ``terms``
    maps a packed exponent tuple (see :func:`_pack`), negative entries
    allowed, to a nonzero int.  It adds, subtracts and multiplies with an
    int (a constant, which a solve may hold as a value too) or with itself,
    is false without terms, and divides by an int term by term with
    ``divmod``."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other, negate: bool = False):
        if not other:
            return self
        if not self.terms:
            return -other if negate else other
        return _Laurent(_poly_add(self.terms, _terms_of(other), negate))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, negate=True)

    def __rsub__(self, other):  # other, an int, minus self
        if not self.terms:
            return other
        if not other:
            return -self
        return _Laurent(_poly_add(_terms_of(other), self.terms, negate=True))

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if not isinstance(other, _Laurent):
            if other == 1:
                return self
            return _Laurent({e: c * other for e, c in self.terms.items()} if other else {})
        ta, tb = self.terms, other.terms
        if len(ta) < len(tb):
            ta, tb = tb, ta
        if len(tb) == 1:
            ((shift, factor),) = tb.items()
            return _Laurent({e + shift: c * factor for e, c in ta.items()})
        out: dict = {}
        get = out.get
        for eb, cb in tb.items():
            for ea, ca in ta.items():
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        if 0 in out.values():  # a term that cancelled
            out = {e: c for e, c in out.items() if c}
        return _Laurent(out)

    __rmul__ = __mul__

    def __divmod__(self, other: int) -> tuple["_Laurent", "_Laurent"]:
        pairs = [(e, divmod(c, other)) for e, c in self.terms.items()]
        quotient = _Laurent({e: q for e, (q, _) in pairs if q})
        return quotient, _Laurent({e: r for e, (_, r) in pairs if r})


def _terms_of(value) -> dict:
    """The terms of a :class:`_Laurent` or of an int, a constant."""
    return value.terms if isinstance(value, _Laurent) else {0: value}


# A Laurent term's exponent tuple is one int, Σ e_i·2^(32·i), so that the
# product of two terms adds two ints and a term dict hashes ints.  Each e_i
# is a balanced digit, |e_i| < 2^31, and a sum of exponents stays far
# below that, so a packed int has one unpacking and packing is additive.
_DIGIT = 32
_HALF = 1 << (_DIGIT - 1)
_MASK = (1 << _DIGIT) - 1


def _pack(exponents) -> int:
    return sum(e << _DIGIT * i for i, e in enumerate(exponents))


def _unpack(key: int, width: int) -> tuple[int, ...]:
    exponents = []
    for _ in range(width):
        e = ((key + _HALF) & _MASK) - _HALF
        exponents.append(e)
        key = (key - e) >> _DIGIT
    return tuple(exponents)


def _lift_laurent(symbols: tuple[str, ...], c, scale: int):
    """``scale``·c over ``symbols`` for a rational function c with a
    one-term denominator; an int, a constant, for a rational c.  Either
    must be exact."""
    if is_rational(c):
        return c.numerator * _exact(scale, c.denominator)
    (low, den), = _widen(c.symbols, c.den, symbols).items()
    q, shift = _exact(scale, den), _pack(low)
    num = _widen(c.symbols, c.num, symbols)
    return _Laurent({_pack(e) - shift: k * q for e, k in num.items()})


def _lower_laurent(symbols: tuple[str, ...], value, power: int):
    """The coefficient ``value``/``power`` in its normal form."""
    if isinstance(value, int):
        return Fraction(value, power)
    width = len(symbols)
    terms = {_unpack(e, width): c for e, c in value.terms.items()}
    return _normalize(symbols, terms, {(0,) * width: power})


def _plain(value, scale: int):
    """A plain coefficient, lifted or lowered at λ = 1: itself, an empty sum's 0 a Fraction."""
    return value or Fraction(0)


def _graded_denominator(pairs, divisor=1) -> tuple[int, tuple[str, ...]] | None:
    """The scalar domain of the (order n, coefficient c) ``pairs``, in
    ascending order: ``(d, symbols)`` with d^n·c an int or an integer
    Laurent polynomial over the sorted tuple ``symbols`` for every pair,
    found without factoring; None, plain coefficients, when a denominator
    is not a monomial or ``divisor``, which a solve divides by, is not
    rational.  Every prime of every denominator divides d."""
    if not is_rational(divisor):
        return None
    d = order = power = 1
    symbols: set[str] = set()
    for n, c in pairs:
        if is_rational(c):
            den = c.denominator
        elif len(c.den) == 1:
            (den,) = c.den.values()
            symbols.update(c.symbols)
        else:
            return None
        if n != order:
            order = n
            power = d**order
        if power % den:
            d *= den // math.gcd(power, den)  # now den divides d^n
            power = d**order
    return d, tuple(sorted(symbols))


def _domain(graded):
    """``(lift, lower, div)`` for the ``(d, symbols)`` of
    :func:`_graded_denominator`: Laurent polynomials over ``symbols``,
    which are ints when ``symbols`` is empty, divided by :func:`_exact`;
    plain coefficients, lifted and lowered as they are and divided as
    coefficients, for ``graded`` None."""
    if graded is None:
        return _plain, _plain, coeff_div
    symbols = graded[1]
    return partial(_lift_laurent, symbols), partial(_lower_laurent, symbols), _exact


def lift_tableau(A, b) -> tuple:
    """``(d·A, d·b, lower, d)``: the entries of a tableau, each of order 1,
    lifted by d into their domain, in which d^|τ|·Φ(τ) is a value whose
    ``lower(value, d^|τ|)`` is Φ(τ); d = 1 for plain coefficients."""
    graded = _graded_denominator((1, x) for row in (b, *A) for x in row)
    lift, lower, _ = _domain(graded)
    d = 1 if graded is None else graded[0]
    lifted = [tuple(lift(x, d) for x in row) for row in (b, *A)]
    return tuple(lifted[1:]), lifted[0], lower, d


def _initial_scale(max_order: int, d: int, divisor: int) -> int:
    """The λ a graded solve starts from: d·lcm(1..N)·divisor².  A true
    denominator has only the primes of d (the input's), those up to N (of
    j! and γ(τ)) and those of ``divisor``, the numerator of the u1 the
    modifying integrator divides by, which the denominator of v(τ) can
    hold up to 2|τ| - 1 times."""
    return d * math.lcm(*range(1, max_order + 1)) * divisor**2


def _solve(solve, max_order: int, graded, divisor=1) -> tuple[TruncatedBSeries, int]:
    """Run ``solve(λ)``, which gives the coefficients keyed by level
    sequence and the number of zero skips.  λ starts at 1 for plain
    coefficients (``graded`` None) and at :func:`_initial_scale` for the
    ``(d, symbols)`` of a graded domain, and is squared until every
    division is exact."""
    scale = 1 if graded is None else _initial_scale(max_order, graded[0], divisor)
    while True:
        try:
            coeffs, skips = solve(scale)
        except _Inexact:
            scale *= scale
        else:
            return TruncatedBSeries._from_levels(max_order, coeffs), skips


def modified_equation(
    method: TruncatedBSeries, tables, skip_zero: bool
) -> tuple[TruncatedBSeries, int]:
    """The modified equation of ``method`` over its edge-cut ``tables``,
    and its number of zero skips."""
    graded = _graded_denominator((t.order, c) for t, c in method.items())
    weights = by_id(method._coeffs)
    # an unreduced plain sum prints by its summation order, so over plain
    # coefficients the top order is summed term by term, as below it
    top = 0 if graded is None else method.max_order
    solve = partial(_modified_equation_ints, tables, weights, top, *_domain(graded), skip_zero)
    return _solve(solve, method.max_order, graded)


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
    When :func:`_graded_denominator` finds plain coefficients (a
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


# -- the Lie kernel -------------------------------------------------------------
#
# For a flow-kind series w and any series g, the Lie derivative is
# (L_w g)(τ) = Σ over the single-edge cuts (trunk θ, branch β, k) of τ of
# k·g(θ)·w(β), and g∘exp(w) = Σ_j L_w^j g / j! (Murua, "The Hopf algebra
# of rooted trees, free Lie algebras, and Lie series", FoCM 6, 2006).  A
# solve keeps, for each tree θ, the list of the iterates it needs at θ;
# :func:`_lie` gives those of the next tree from the lists of its trunks.
#
# The top-order shortcut: trees of the top order N are never a trunk, and
# a solve needs only one weighted sum of the iterates of such a tree.  So
# before the first of them each list is folded into that sum's share of
# its trunk, by :func:`_top_order`, and a top-order tree costs one product
# per cut.  The zero terms a fold drops are counted as skipped once per cut
# that reads it, as the unfolded pass skips them, so the skip count does
# not depend on the fold.


def _lie(
    rows, branch: list, lists: list, width: int, skip_zero: bool, zeros: list | None = None
) -> tuple[list, int]:
    """Σ over the edge-cut ``rows`` (trunk θ, branch β, k) of
    k·branch[β]·lists[θ][j], for each j < ``width``, and the number of
    zero factors skipped.  ``zeros``, given with folded ``lists``, holds
    the number of zero terms each fold dropped."""
    skips = 0
    higher = [0] * width
    for trunk, b, k in rows:
        w = branch[b]
        if skip_zero and not w:
            skips += 1
            continue
        if k != 1:
            w *= k
        if zeros is not None and skip_zero:
            skips += zeros[trunk]
        for j, c in enumerate(lists[trunk]):
            if skip_zero and not c:
                skips += 1
                continue
            higher[j] += c * w
    return higher, skips


def _top_order(lists: list, weights: list, stride: int = 1) -> tuple[list, list]:
    """The lists of ``lists`` folded for the top order: [Σ_j
    lists[θ][stride·j]·weights[j]] over the nonzero terms, or [] when that
    is zero, and the number of zero terms of each."""
    folded: list = [None] * len(lists)
    zeros = [0] * len(lists)
    for i, c in enumerate(lists):
        if c is not None:
            terms = c[::stride]
            total = sum([t * r for t, r in zip(terms, weights) if t], 0)
            folded[i] = [total] if total else []
            zeros[i] = sum(1 for t in terms if not t)
    return folded, zeros


def _ratios(n: int) -> list[int]:
    """n!/j! for j = 1..n."""
    whole = math.factorial(n)
    return [whole // math.factorial(j) for j in range(1, n + 1)]


def _modified_equation_ints(
    tables, weights: list, top: int, lift, lower, div, skip_zero: bool, scale: int
):
    """The modified equation over values scaled by λ^|τ|, λ = ``scale``:
    v(τ)·λ^|τ| = a(τ)·λ^|τ| - (Σ_{j≥2} c_j(τ)·λ^|τ|·|τ|!/j!) / |τ|!, where
    c_1 = v and c_j = L_v c_{j-1}.  The list of a tree θ is
    [c_1(θ), ..., c_|θ|(θ)], and at the order ``top``, if it is one, its
    fold Σ_j c_j(θ)·N!/(j+1)!."""
    skips = 0
    v: list = [None] * len(weights)
    lie: list = [None] * len(weights)
    coeffs: dict = {b"": Fraction(0)}
    order = 0
    for tree, i, rows in tables:
        n = len(tree._levels)
        if n != order:
            order, power, whole, ratios = n, scale**n, math.factorial(n), _ratios(n)[1:]
            if n == top:
                lie, zeros = _top_order(lie, ratios)
        if n == top:
            (total,), skipped = _lie(rows, v, lie, 1, skip_zero, zeros)
        else:
            higher, skipped = _lie(rows, v, lie, n - 1, skip_zero)
            total = sum(map(operator.mul, higher, ratios))
        skips += skipped
        v[i] = value = lift(weights[i], power) - div(total, whole)
        if n != top:
            lie[i] = [value] + higher
        coeffs[tree._levels] = lower(value, power)
    return coeffs, skips


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
      c_j = L_{w_i} c_{j-1}, as in :func:`_modified_equation_ints`.

    A stage whose row of A is zero has w_i = 0 and K_i = v, and costs
    nothing.  For every other stage, the list of a tree θ interleaves the
    iterates of its two Lie series, [L^0 v, c_1, L^1 v, c_2, ...] at θ, so
    one :func:`_lie` pass gives both; at the top order N no w_i is formed,
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
