"""Graded scaling: the one home of the scalar domains of exact weights
and solves.

:func:`bsharp.tableaux.elementary_weight` and the two solves,
:func:`bsharp.series.modified_equation_series` and
:func:`bsharp.series.modifying_integrator_series`, hold the value of a
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
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial

from .coefficients import _normalize, _poly_add, _poly_mul, _widen, coeff_div, is_rational
from .series import _UNSET, TruncatedBSeries, _forest_product
from .splits import by_id, partition_skeleton_table, tree_id
from .trees import trees_of_order


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
    maps an exponent tuple, negative entries allowed, to a nonzero int.  It
    adds, subtracts and multiplies with an int (a constant, which a solve
    may hold as a value too) or with itself, is false without terms, and
    divides by an int term by term with ``divmod``."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if not other:
            return self
        if not self.terms:
            return other
        if not isinstance(other, _Laurent):  # an int: a constant term
            other = _Laurent({(0,) * len(next(iter(self.terms))): other})
        return _Laurent(_poly_add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return self * -1 + other

    def __mul__(self, other):
        if isinstance(other, _Laurent):
            return _Laurent(_poly_mul(self.terms, other.terms))
        if other == 1:
            return self
        return _Laurent({e: c * other for e, c in self.terms.items()} if other else {})

    __rmul__ = __mul__

    def __divmod__(self, other: int) -> tuple["_Laurent", "_Laurent"]:
        pairs = [(e, divmod(c, other)) for e, c in self.terms.items()]
        quotient = _Laurent({e: q for e, (q, _) in pairs if q})
        return quotient, _Laurent({e: r for e, (_, r) in pairs if r})


def _lift_laurent(symbols: tuple[str, ...], c, scale: int):
    """``scale``·c over ``symbols`` for a rational function c with a
    one-term denominator; an int, a constant, for a rational c.  Either
    must be exact."""
    if is_rational(c):
        return c.numerator * _exact(scale, c.denominator)
    (low, den), = _widen(c.symbols, c.den, symbols).items()
    q = _exact(scale, den)
    num = _widen(c.symbols, c.num, symbols)
    return _Laurent({tuple(map(operator.sub, e, low)): k * q for e, k in num.items()})


def _lower_laurent(symbols: tuple[str, ...], value, power: int):
    """The coefficient ``value``/``power`` in its normal form."""
    if isinstance(value, int):
        return Fraction(value, power)
    return _normalize(symbols, value.terms, {(0,) * len(symbols): power})


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
    solve = partial(_modified_equation_ints, tables, weights, *_domain(graded), skip_zero)
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


def _modified_equation_ints(tables, weights: list, lift, lower, div, skip_zero: bool, scale: int):
    """The modified equation over values scaled by λ^|τ|, λ = ``scale``:
    v(τ)·λ^|τ| = a(τ)·λ^|τ| - (Σ_j c_j(τ)·λ^|τ|·|τ|!/j!) / |τ|!."""
    skips = 0
    v: list = [None] * len(weights)
    lie: list = [None] * len(weights)
    coeffs: dict = {b"": Fraction(0)}
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
            if k != 1:
                w *= k
            for j, c in enumerate(lie[trunk]):
                if skip_zero and not c:
                    skips += 1
                    continue
                higher[j] += c * w
        lies = div(sum(map(operator.mul, higher, ratios)), whole)
        v[i] = value = lift(weights[i], power) - lies
        lie[i] = [value] + higher
        coeffs[tree._levels] = lower(value, power)
    return coeffs, skips


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
