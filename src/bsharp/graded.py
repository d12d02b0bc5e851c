"""Graded scaling: the one home of the scalar domains of exact weights
and solves, the modified equation, and the Lie kernel.

:func:`bsharp.tableaux.elementary_weight`, the solves and the passes,
:func:`bsharp.series.modified_equation_series`, the modifying
integrators, and compose and substitute of :mod:`bsharp.series_extra`, hold
the value of a tree τ scaled by λ^|τ|, a *graded* scale, in the domain that
:func:`_graded_denominator` picks from (order, coefficient) pairs (a
tableau entry is of order 1, a series' c(τ) of order |τ|):

* an int when every coefficient is rational (:func:`_lift_int`, lowered
  by ``Fraction(value, λ^|τ|)``);
* otherwise an integer Laurent polynomial,
  :class:`bsharp.symbolic._Laurent`, over the parameters and one inverse
  symbol for each denominator factor Q that is not a monomial and not a
  product of those already registered (a21 = 1/(1 + beta), or the
  u1 = 1 + beta that the modifying integrator divides by; 1/(1 + beta)^2
  then lifts as the square of the symbol of 1 + beta); its lift and lower
  live with the symbolic layer, which only such a solve loads.

:func:`_domain` gives the (lift, lower, d) of each.  A product of the
values of trees whose orders add up to |τ| (a stage product, a Lie term
c_{j-1}(trunk)·v(branch), or Π v(component) over a partition) carries
exactly λ^|τ|, so products are exact without rescaling, and each tree's
value becomes a coefficient once, at the end: ``Fraction(value,
λ^|τ|)``, or the normal form of a Laurent value over λ^|τ|, with each
1/Q put back.  When every denominator is a monomial that normal form is
the one rational-function arithmetic reaches, since a monomial
denominator never grows into a sum; otherwise it is a numerator over
λ^|τ|·Π Q^K, reduced by no polynomial GCD.  A tableau is lifted once, by
the d of its entries, and its weights never divide.  The solves are
fraction-free elimination (Bareiss, Math. Comp. 22, 1968): every
division is checked by :func:`_exact`; a remainder means that λ is too
small, and :func:`_solve` squares λ and starts over.  That terminates:
every prime of a true denominator divides the starting λ (see
:func:`_initial_scale`), and squaring doubles each prime's power.  Both
domains skip the same zero terms, and no loop multiplies by a
multiplicity or a denominator of 1.

The modified equation, :func:`modified_equation`, is one pass per tree of
the Lie kernel over single-edge cuts, :func:`_lie`, which the stage
recursion of :func:`bsharp.modifying.modifying_integrator_of_tableau`
shares.  At the top order N a pass costs one product per cut (the
top-order shortcut, :func:`_top_order`), in every domain.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial
from itertools import chain

from .coefficients import coeff_div, is_rational
from .series import TruncatedBSeries
from .splits import _cut_tables, _seqs, cut_rows, orders_below, top_order


class _Inexact(ArithmeticError):
    """A scaled division left a remainder: the scale λ is too small."""


def _exact(a, b: int):
    """``a / b``, which must be an int (or a Laurent polynomial of ints)."""
    q, r = divmod(a, b)
    if r:
        raise _Inexact
    return q


def _lift_int(c, scale: int) -> int:
    """``scale``·c for a rational c, which must be an int."""
    return c.numerator * _exact(scale, c.denominator)


def _graded_denominator(pairs, divisor=1) -> tuple[int, tuple[str, ...], tuple[dict, ...]]:
    """The scalar domain of the (order n, coefficient c) ``pairs``, in
    ascending order, and of 1/``divisor``, which a solve multiplies by:
    ``(d, symbols, rests)`` with d^n·c an int or an integer Laurent
    polynomial over the tuple ``symbols`` for every pair, found without
    factoring.  A denominator is content·x^m·Q; every prime of every
    content divides d.  The distinct Q that are not 1 are taken lowest
    degree first, and each is divided by the ``rests`` registered before
    it (:func:`bsharp.symbolic._factors`); what is left, if not 1, joins
    ``rests`` as a term dict over the sorted parameters and has one more
    symbol, ``~k`` for ``rests[k]``, that stands for its reciprocal and
    ends ``symbols``.  So Q and Q^2 share one symbol, of power 1 and 2."""
    d = order = power = 1
    symbols: set[str] = set()
    dens = []  # the coefficients whose denominators are not monomials
    if not is_rational(divisor):  # a content of its numerator stays out of d
        pairs = chain([(0, coeff_div(1, divisor))], pairs)
    for n, c in pairs:
        if is_rational(c):
            den = c.denominator
        else:
            symbols.update(c.symbols)
            den = math.gcd(*c.den.values())  # its content
            if len(c.den) > 1:
                dens.append(c)
        if n != order:
            order = n
            power = d**order
        if n and power % den:
            d *= den // math.gcd(power, den)  # now den divides d^n
            power = d**order
    names = tuple(sorted(symbols))
    rests: list[dict] = []
    if dens:
        from .symbolic import _degree, _factors, _rest, _widen

        found: list[dict] = []
        for rest in (_rest(_widen(c.symbols, c.den, names))[2] for c in dens):
            if rest not in found:
                found.append(rest)
        for rest in sorted(found, key=_degree):
            _, left = _factors(rest, rests)
            if _degree(left):
                rests.append(left)
    return d, names + tuple(f"~{k}" for k in range(len(rests))), tuple(rests)


def _domain(pairs, divisor=1) -> tuple:
    """``(lift, lower, d)`` of the domain :func:`_graded_denominator`
    gives: ints when it has no symbols, and otherwise Laurent polynomials,
    which load the symbolic layer, both divided by :func:`_exact`."""
    d, symbols, rests = _graded_denominator(pairs, divisor)
    if not symbols:
        return _lift_int, Fraction, d
    from .symbolic import _lift_laurent, _lower_laurent

    return (
        partial(_lift_laurent, symbols, rests, _exact), partial(_lower_laurent, symbols, rests), d
    )


def _reciprocal(u1, lift) -> tuple:
    """``(content, inverse)``: 1/``u1`` is ``inverse``/content, with
    ``inverse`` lifted by ``lift`` of a domain made with ``u1`` as its
    divisor, and content the int content of u1's numerator."""
    r = coeff_div(1, u1)
    content = r.denominator if is_rational(r) else math.gcd(*r.den.values())
    return content, lift(r, content)


def lift_tableau(A, b, divisor=1) -> tuple:
    """``(d·A, d·b, lift, lower, d)``: the entries of a tableau, each of
    order 1, lifted by d into their domain (made with ``divisor``), in
    which d^|τ|·Φ(τ) is a value whose ``lower(value, d^|τ|)`` is Φ(τ)."""
    lift, lower, d = _domain(((1, x) for row in (b, *A) for x in row), divisor)
    lifted = [tuple(lift(x, d) for x in row) for row in (b, *A)]
    return tuple(lifted[1:]), lifted[0], lift, lower, d


def _initial_scale(max_order: int, d: int, divisor: int) -> int:
    """The λ a graded solve starts from: d·lcm(1..N)·divisor².  A true
    denominator has only the primes of d (the input's), those up to N (of
    j! and γ(τ)) and those of ``divisor``, the content of the numerator of
    the u1 the modifying integrator divides by, which the denominator of
    v(τ) can hold up to 2|τ| - 1 times."""
    return d * math.lcm(*range(1, max_order + 1)) * divisor**2


def _solve(solve, max_order: int, d: int, divisor: int = 1) -> tuple[TruncatedBSeries, int]:
    """Run ``solve(λ)``, which gives the coefficients keyed by level
    sequence and the number of zero skips.  λ starts at
    :func:`_initial_scale` and is squared until every division is exact."""
    scale = _initial_scale(max_order, d, divisor)
    while True:
        try:
            coeffs, skips = solve(scale)
        except _Inexact:
            scale *= scale
        else:
            return TruncatedBSeries._from_levels(max_order, coeffs), skips


def modified_equation(method: TruncatedBSeries, skip_zero: bool) -> tuple[TruncatedBSeries, int]:
    """The modified equation of ``method`` and its number of zero skips."""
    coeffs, top = method._coeffs, method.max_order
    lift, lower, d = _domain((len(seq), c) for seq, c in coeffs.items() if seq)
    solve = partial(_modified_equation_ints, coeffs, top, lift, lower, skip_zero)
    return _solve(solve, top, d)


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
# per cut, in every scalar domain.


def _lie(rows: dict, branch: list, lists: list, width: int, skip_zero: bool) -> tuple[list, int]:
    """Σ over the edge cuts ``rows``, {(trunk θ, branch β): k}, of
    k·branch[β]·lists[θ][j], for each j < ``width``, and the number of
    zero factors skipped."""
    skips = 0
    higher = [0] * width
    for (trunk, b), k in rows.items():
        w = branch[b]
        if skip_zero and not w:
            skips += 1
            continue
        if k != 1:
            w *= k
        for j, c in enumerate(lists[trunk]):
            if skip_zero and not c:
                skips += 1
                continue
            higher[j] += c * w
    return higher, skips


def _top_order(lists: list, weights: list, stride: int = 1) -> list:
    """Each list of ``lists`` folded for the top order: [Σ_j lists[θ][stride·j]·weights[j]]
    over its nonzero terms, or [] when that is zero."""
    folded: list = [None] * len(lists)
    for i, c in enumerate(lists):
        if c is not None:
            total = sum([t * r for t, r in zip(c[::stride], weights) if t], 0)
            folded[i] = [total] if total else []
    return folded


def _ratios(n: int) -> list[int]:
    """n!/j! for j = 1..n."""
    whole = math.factorial(n)
    return [whole // math.factorial(j) for j in range(1, n + 1)]


def _modified_equation_ints(weights: dict, top: int, lift, lower, skip_zero: bool, scale: int):
    """The modified equation of the coefficients ``weights`` (keyed by
    level sequence) up to order ``top``, over values scaled by λ^|τ|,
    λ = ``scale``: v(τ)·λ^|τ| = a(τ)·λ^|τ| - (Σ_{j≥2} c_j(τ)·λ^|τ|·|τ|!/j!) / |τ|!,
    where c_1 = v and c_j = L_v c_{j-1}.  The list of a tree θ below the
    top order is [c_1(θ), ..., c_|θ|(θ)], and at the top order N its fold
    Σ_j c_j(θ)·N!/(j+1)!; each tree of order N is cut, solved and
    dropped."""
    skips = 0
    coeffs: dict = {b"": Fraction(0)}
    if not top:
        return coeffs, skips
    orders = orders_below(top)
    v: list = [None] * len(_seqs)
    lie: list = [None] * len(_seqs)
    for n, ids in enumerate(orders, 1):
        power, whole, ratios = scale**n, math.factorial(n), _ratios(n)[1:]
        for i in ids:
            higher, skipped = _lie(_cut_tables[i], v, lie, n - 1, skip_zero)
            skips += skipped
            seq = _seqs[i]
            total = sum(map(operator.mul, higher, ratios))
            v[i] = value = lift(weights[seq], power) - _exact(total, whole)
            lie[i] = [value] + higher
            coeffs[seq] = lower(value, power)
    power, whole = scale**top, math.factorial(top)
    lie = _top_order(lie, _ratios(top)[1:])
    for seq, kids in top_order(top):
        (total,), skipped = _lie(cut_rows(kids), v, lie, 1, skip_zero)
        skips += skipped
        coeffs[seq] = lower(lift(weights[seq], power) - _exact(total, whole), power)
    return coeffs, skips
