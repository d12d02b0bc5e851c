"""The operations on whole series that the modified-equation path never runs.

The companion of :mod:`bsharp.series`, loaded only by the commands that
call one of these: :func:`compose`, :func:`substitute` and the modifying
integrator of a series, the order check, display, text and LaTeX
formatting, JSON input and the small constructors.  The split tables of
:mod:`bsharp.splits_extra` and the tree parser are imported by the
functions that read them.  Their coefficient
arithmetic goes through ``coeff_add``, ``coeff_sub``, ``coeff_mul`` and
``coeff_div`` of :mod:`bsharp.series`, read there at each call, so that a
caller can rebind them to count operations.

:func:`_pass` is the only code that sums a grouped split table
(head, [(tree id, forest key, k), ...]) into the totals Σ k·head·Π
factor(forest) of its trees: one order at a time in the modifying
integrator, and in :func:`substitute`.  Its forest products come from
:func:`_forest_product`: a memo for one call maps each forest key to its
Π, and a new entry peels the highest id off its key for one product.
:func:`compose` reads no table: one recursion over each tree's children
merges the subtree splits that keep the same subtree as they arise.  All
three run over the domain that :func:`bsharp.graded._graded_denominator`
picks for their operands.  Compose and substitute never divide, so they
run once, at λ = d.  The terms of a sum of ints or Laurent values, and so
its printed form, do not depend on the order of its terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, islice
from typing import Mapping, NamedTuple

from . import graded
from . import series as series_module
from .coefficients import Coefficient, coeff_from_json, coeff_pow, coeff_print, is_rational
from .errors import SeriesError
from .graded import _domain, _reciprocal, _solve
from .series import TruncatedBSeries, _check_max_order, _check_u1, _counted
from .splits import _kids, _seqs, densities, orders_below, with_child
from .trees import EMPTY_TREE, RootedTree, all_trees_up_to, trees_of_order


def _checked_coefficients(
    max_order: int, empty: Coefficient, coefficients: Mapping[RootedTree, Coefficient]
) -> dict[bytes, Coefficient]:
    """The stored dict of :class:`~bsharp.series.TruncatedBSeries` built
    from ``coefficients``, which must cover exactly the trees up to
    ``max_order``."""
    from .trees_extra import count_trees

    _check_max_order(max_order)
    # compare sizes before enumerating, so a large max_order fails fast
    count = sum(map(count_trees, range(1, max_order + 1)))
    expected = tuple(all_trees_up_to(max_order)) if len(coefficients) == count else None
    if expected is None or any(t not in coefficients for t in expected):
        raise SeriesError(
            f"coefficient table must cover exactly the {count} trees "
            f"of order 1..{max_order}"
        )
    return {b"": empty, **{t._levels: coefficients[t] for t in expected}}


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
    sub = series_module.coeff_sub
    return TruncatedBSeries(
        a.max_order, sub(a.empty, b.empty), {t: sub(ca, b[t]) for t, ca in a.items()}
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
    mul = series_module.coeff_mul
    return TruncatedBSeries(
        series.max_order,
        series.empty,
        {t: mul(coeff_pow(mu, t.order), c) for t, c in series.items()},
    )


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
# compose, substitute and the modifying integrator of a series
# ---------------------------------------------------------------------------

_UNSET = object()


def _forest_product(
    products: dict[int, Coefficient | None], factors: list, zero: set[int], split_top, forest: int
) -> Coefficient | None:
    """Π factors[id] over the non-empty multiset key ``forest``, memoised in
    ``products`` for one call: a new entry peels off the highest id
    (``split_top`` of :mod:`bsharp.splits_extra`) and costs one product.
    ``None`` when a factor's id is in ``zero``; such a product is never
    multiplied out."""
    p = products.get(forest, _UNSET)
    if p is _UNSET:
        top, rest = split_top(forest)
        if top in zero:
            p = None
        elif rest:
            p = _forest_product(products, factors, zero, split_top, rest)
            if p is not None:
                p = series_module.coeff_mul(p, factors[top])
        else:
            p = factors[top]
        products[forest] = p
    return p


def _pass(groups, heads: list, products: dict, product, totals: list, skip_zero: bool) -> int:
    """Add k·heads[head]·Π(forest) to totals[tree id] for every row of the
    grouped split table ``groups``, and give the number of zero skips.
    ``product`` is :func:`_forest_product` bound to the memo ``products``.
    A zero head skips all of its rows at once, and a forest with a zero
    factor (``product`` gives None) skips its row."""
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
    return list(map({seq: lift(c, d ** (top or len(seq))) for seq, c in trees}.get, _seqs))


def _operands(inner: TruncatedBSeries, outer: TruncatedBSeries, top: int, skip_zero: bool):
    """(heads, factors, zero factor ids, lower, d): outer's c(τ) lifted by
    d^``top`` (d^|τ| for 0) and inner's by d^|τ|, in the domain of both."""
    lift, lower, d = _domain((t.order, c) for t, c in chain(inner.items(), outer.items()))
    heads, factors = _lifted(outer._coeffs, lift, d, top), _lifted(inner._coeffs, lift, d)
    zero = {i for i, c in enumerate(factors) if skip_zero and c is not None and not c}
    return heads, factors, zero, lower, d


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

    A state maps a kept subtree s to V_s, Σ Π inner(cut branch) over the
    splits that keep s, from {•: 1}; each child c is cut (V·inner(c)) or
    kept in a split k of its own (V·V_c(k), k grafted onto s).
    compose(τ) = Σ outer(s)·V_s has the scale d^|τ|; the empty split
    outer(∅)·inner(τ) is added after lowering.
    """
    _require_same_order(inner, outer, "composition")
    if inner.empty != 1:
        raise SeriesError("composition needs a map-kind inner series (empty coefficient 1)")
    if normalize_stepsize:
        half = Fraction(1, 2)
        inner = scale_step(inner, half)
        outer = scale_step(outer, half)
    ids = chain.from_iterable(orders_below(inner.max_order + 1))
    trees = [(seq, c, i) for (seq, c), i in zip(islice(inner._coeffs.items(), 1, None), ids)]
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
    return _counted((TruncatedBSeries._from_levels(top, coeffs), skips))


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

    Skeleton weights are lifted by d^N and each component by d^|component|,
    so every row of τ has the scale d^N·d^|τ|.  The row outer(•)·flow(τ),
    no edge removed, starts the total.
    """
    _require_same_order(flow, outer, "substitution")
    if flow.empty:
        raise SeriesError("substitution needs a flow-kind inner series (empty coefficient 0)")
    from .splits_extra import partition_skeleton_table, split_top

    top = flow.max_order
    ids = list(zip(islice(flow._coeffs, 1, None), chain.from_iterable(orders_below(top + 1))))
    tables = [partition_skeleton_table(n) for n in range(1, top + 1)]  # index every tree
    heads, factors, zero, lower, d = _operands(flow, outer, top, skip_zero)
    node = heads[ids[0][1]] if top else 0  # outer(•)
    totals, skips = [0] * len(heads), 0
    for _, i in ids:
        if skip_zero and (not node or i in zero):
            skips += 1
        else:
            totals[i] = node * factors[i]
    products: dict = {}
    product = partial(_forest_product, products, factors, zero, split_top)
    skips += sum([_pass(groups, heads, products, product, totals, skip_zero) for groups in tables])
    coeffs = {b"": outer.empty, **{seq: lower(totals[i], d ** (top + len(seq))) for seq, i in ids}}
    return _counted((TruncatedBSeries._from_levels(top, coeffs), skips))


def modifying_integrator_series(
    method: TruncatedBSeries, *, skip_zero: bool = True
) -> TruncatedBSeries:
    """Flow-kind series v with substitute(v, method) = exact flow.

    Applying the method to the field h·v integrates the *original* field
    exactly through the truncation order.  Requires method(•) ≠ 0.  Solved
    tree by tree over the distinct partition splits, each term weighted by
    its multiplicity: v(τ) = (1/γ(τ) - Σ k·method(skeleton)·Π v(component))
    / method(•), the sum over every split but the no-edges-removed one, in
    one :func:`_pass` per order for both scalar domains.  ``skip_zero``
    drops split terms whose skeleton weight (or any component coefficient)
    is zero — a pure optimization.  The modifying integrator of a tableau,
    :func:`bsharp.modifying.modifying_integrator_of_tableau`, reads no
    partition table.
    """
    if method.empty != 1:
        raise SeriesError("modifying integrator needs a map-kind method series")
    u1: Coefficient = Fraction(1)
    if method.max_order >= 1:
        u1 = _check_u1(method._coeffs[b"\x00"])
    from .splits_extra import partition_skeleton_table, split_top

    max_order = method.max_order
    levels = [
        (n, ids, partition_skeleton_table(n))
        for n, ids in enumerate(orders_below(max_order + 1), 1)
    ]
    lift, lower, d = _domain(((t.order, c) for t, c in method.items()), u1)
    content, inverse = _reciprocal(u1, lift)
    heads = _lifted(method._coeffs, lift, d, max_order)
    solve = partial(
        _modifying_integrator_ints, levels, heads, d**max_order, content, inverse, lower, skip_zero,
        split_top,
    )
    return _counted(_solve(solve, max_order, d, content))


def _modifying_integrator_ints(
    levels, heads: list, d_top: int, content: int, inverse, lower, skip_zero: bool, split_top,
    scale: int,
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
    product = partial(_forest_product, products, solved, zero_solved, split_top)
    gammas = densities()
    out: dict = {b"": Fraction(0)}
    for n, ids, groups in levels:
        power = scale**n
        one = d_top * power  # 1, scaled
        skips += _pass(groups, heads, products, product, totals, skip_zero)
        for i in ids:
            total = graded._exact(one, gammas[i]) - totals[i]
            solved[i] = value = graded._exact(total if inverse == 1 else total * inverse, divisor)
            if skip_zero and not value:
                zero_solved.add(i)
            out[_seqs[i]] = lower(value, power)
    return out, skips


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
    from .splits_extra import symmetries

    ids = chain.from_iterable(orders_below(series.max_order + 1))
    sigmas = symmetries()
    for (tree, c), i in zip(series.items(), ids):
        if not c:
            continue
        power = tree.order - reduce_order_by
        if power < 0:
            raise SeriesError(
                f"reduce_order_by={reduce_order_by} gives tree {tree} a negative h power"
            )
        terms.append(SeriesTerm(tree, series_module.coeff_div(c, sigmas[i]), power))
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


def series_from_json_dict(data: dict) -> TruncatedBSeries:
    from .trees_extra import parse_tree

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
    _check_max_order(max_order)  # before any coefficient is read
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
