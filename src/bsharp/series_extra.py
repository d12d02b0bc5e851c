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
(head, [(tree id, forest, k), ...]) into the totals Σ k·head·Π
factor(forest) of its trees: one order at a time in the modifying
integrator, and in :func:`substitute`.  Its forest products come from
:func:`_forest_product`: a memo for one call maps each forest, the sorted
tuple of its member ids, to its Π, and a new entry peels the highest id
off the forest for one product.
:func:`compose` reads no table: one recursion over each tree's children
merges the subtree splits that keep the same subtree as they arise.  All
three run over the domain that :func:`bsharp.graded._graded_denominator`
picks for their operands.  Compose and substitute never divide, so they
run once, at λ = d.  The terms of a sum of ints or Laurent values, and so
its printed form, do not depend on the order of its terms.  An order
whose partition tables would stand for more than
:data:`MAX_EDGE_SUBSETS` edge subsets is refused before any is built.
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
from .splits import (
    _gamma, _kids, _seqs, _sigma, densities, orders_below, symmetries, walk, with_child,
)
from .trees import RootedTree, all_trees_up_to, tree_counts

#: the most edge subsets, Σ a(n)·2^(n−1) over the orders, that the partition
#: tables of :func:`substitute` and :func:`modifying_integrator_series` may
#: stand for: 63.2 million at order 13 (2.0 GB, 35-37 s), 333 million at 14
MAX_EDGE_SUBSETS = 100_000_000


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
    return TruncatedBSeries._from_levels(
        a.max_order, dict(zip(a._coeffs, map(sub, a._coeffs.values(), b._coeffs.values())))
    )


def truncated(series: TruncatedBSeries, max_order: int) -> TruncatedBSeries:
    """Restriction to a smaller maximum order."""
    _check_max_order(max_order)
    if max_order > series.max_order:
        raise SeriesError(
            f"cannot extend a series truncated at {series.max_order} to {max_order}"
        )
    size = 1 + sum(tree_counts(max_order)[1:])  # the empty tree, then every tree up to max_order
    return TruncatedBSeries._from_levels(max_order, dict(islice(series._coeffs.items(), size)))


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
    trees = islice(series._coeffs.items(), 1, None)
    coeffs = {seq: mul(coeff_pow(mu, len(seq)), c) for seq, c in trees}
    return TruncatedBSeries._from_levels(series.max_order, {b"": series.empty, **coeffs})


def series_order_of_accuracy(series: TruncatedBSeries, max_check: int | None = None) -> int:
    """Largest p ≤ max_check with coeff(τ) = 1/γ(τ) for every |τ| ≤ p.

    Returns 0 as soon as order 1 fails (or the series is not map-kind).
    ``max_check`` defaults to the truncation order and cannot exceed it.
    """
    limit = series.max_order if max_check is None else max_check
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
        raise SeriesError(f"max_check must be a non-negative integer, got {max_check!r}")
    if limit > series.max_order:
        raise SeriesError(
            f"cannot verify order {limit} from a series truncated at {series.max_order}"
        )
    if series.empty != 1:
        return 0
    trees = walk(limit)
    densities()  # γ of every tree below the order checked, which _gamma reads
    for n, seq, kids, _ in trees:
        if series._coeffs[seq] != Fraction(1, _gamma(n, kids)):
            return n - 1
    return limit


# ---------------------------------------------------------------------------
# compose, substitute and the modifying integrator of a series
# ---------------------------------------------------------------------------

_UNSET = object()


def _forest_product(
    products: dict[tuple, Coefficient | None], factors: list, forest: tuple
) -> Coefficient | None:
    """Π factors[id] over the non-empty sorted tuple of ids ``forest``,
    memoised in ``products`` for one call: a new entry peels off the
    highest id, ``forest[-1]``, and costs one product.  ``None`` when a
    factor is zero; such a product is never multiplied out."""
    p = products.get(forest, _UNSET)
    if p is _UNSET:
        top, rest = forest[-1], forest[:-1]
        if not factors[top]:
            p = None
        elif rest:
            p = _forest_product(products, factors, rest)
            if p is not None:
                p = series_module.coeff_mul(p, factors[top])
        else:
            p = factors[top]
        products[forest] = p
    return p


def _pass(groups, heads: list, products: dict, product, totals: list) -> int:
    """Add k·heads[head]·Π(forest) to totals[tree id] for every row of the
    grouped split table ``groups``, and give the number of zero skips.
    ``product`` is :func:`_forest_product` bound to the memo ``products``.
    A zero head skips all of its rows at once, and a forest with a zero
    factor (``product`` gives None) skips its row."""
    skips = 0
    known = products.get
    for head, rows in groups:
        w = heads[head]
        if not w:
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


def _operands(inner: TruncatedBSeries, outer: TruncatedBSeries, top: int):
    """(heads, factors, lower, d): outer's c(τ) lifted by d^``top``
    (d^|τ| for 0) and inner's by d^|τ|, in the domain of both."""
    lift, lower, d, _, _ = _domain((t.order, c) for t, c in chain(inner.items(), outer.items()))
    return _lifted(outer._coeffs, lift, d, top), _lifted(inner._coeffs, lift, d), lower, d


def compose(
    inner: TruncatedBSeries,
    outer: TruncatedBSeries,
    *,
    normalize_stepsize: bool = False,
) -> TruncatedBSeries:
    """Series of "inner step, then outer step".

    ``inner`` must be map-kind (its output state feeds ``outer``).  With
    ``normalize_stepsize`` both factors are first rescaled to half steps, so
    composing a method with itself keeps h the full-step width.
    Split terms with a zero factor are skipped.

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
    heads, factors, lower, d = _operands(inner, outer, 0)
    top = inner.max_order
    kept: list = [None] * len(heads)  # id -> its (memo growing s by it, V) pairs
    empty, skips = outer.empty, 0
    coeffs = {b"": empty}
    for seq, a, i in trees:
        states: dict = {trees[0][2]: 1}  # the root alone
        for c in _kids[i]:
            f = factors[c]
            skips += not f
            out: dict = {}
            get = out.get
            for s, v in states.items():
                if not v:
                    skips += 1
                    continue
                if f:
                    out[s] = get(s, 0) + v * f
                for grown, w in kept[c]:
                    t = grown[s]
                    out[t] = get(t, 0) + v * w
            states = out
        terms = [heads[s] * v for s, v in states.items() if heads[s] and v]
        skips += len(states) - len(terms)
        if len(seq) < top:
            kept[i] = [(with_child[s], v) for s, v in states.items() if v]
        total = lower(sum(terms, 0), d ** len(seq))
        if not (empty and factors[i]):
            skips += 1
        else:
            total += empty * a
        coeffs[seq] = total
    return _counted(top, coeffs, skips)


def _check_partitions(max_order: int, op: str) -> None:
    """Refuse ``op`` at ``max_order`` before any partition table is built,
    if its tables would stand for more than :data:`MAX_EDGE_SUBSETS` edge
    subsets; they take about 32 bytes each."""
    subsets = sum(k << (n - 1) for n, k in enumerate(tree_counts(max_order)[1:], 1))
    if subsets > MAX_EDGE_SUBSETS:
        raise SeriesError(
            f"{op} at order {max_order} is too large: about {subsets:,} edge subsets, "
            f"some {subsets * 32 / 1e9:.1f} GB of partition tables, past the limit of "
            f"{MAX_EDGE_SUBSETS:,} subsets (order 13)"
        )


def substitute(flow: TruncatedBSeries, outer: TruncatedBSeries) -> TruncatedBSeries:
    """Feed the flow-kind series ``flow`` in as the vector field of ``outer``.

    coeff(τ) = Σ over partition splits of outer(skeleton) · Π flow(component),
    each distinct split weighted by its multiplicity.  The empty coefficient
    is ``outer``'s.  Split terms whose skeleton weight (or any component
    coefficient) is zero are skipped.

    Skeleton weights are lifted by d^N and each component by d^|component|,
    so every row of τ has the scale d^N·d^|τ|.  The row outer(•)·flow(τ),
    no edge removed, starts the total.
    """
    _require_same_order(flow, outer, "substitution")
    if flow.empty:
        raise SeriesError("substitution needs a flow-kind inner series (empty coefficient 0)")
    _check_partitions(flow.max_order, "substitution")
    from .splits_extra import partition_skeleton_table

    top = flow.max_order
    ids = list(zip(islice(flow._coeffs, 1, None), chain.from_iterable(orders_below(top + 1))))
    tables = [partition_skeleton_table(n) for n in range(1, top + 1)]  # index every tree
    heads, factors, lower, d = _operands(flow, outer, top)
    node = heads[ids[0][1]] if top else 0  # outer(•)
    totals, skips = [0] * len(heads), 0
    for _, i in ids:
        if not (node and factors[i]):
            skips += 1
        else:
            totals[i] = node * factors[i]
    products: dict = {}
    product = partial(_forest_product, products, factors)
    skips += sum([_pass(groups, heads, products, product, totals) for groups in tables])
    coeffs = {b"": outer.empty, **{seq: lower(totals[i], d ** (top + len(seq))) for seq, i in ids}}
    return _counted(top, coeffs, skips)


def modifying_integrator_series(method: TruncatedBSeries) -> TruncatedBSeries:
    """Flow-kind series v with substitute(v, method) = exact flow.

    Applying the method to the field h·v integrates the *original* field
    exactly through the truncation order.  Requires method(•) ≠ 0.  Solved
    tree by tree over the distinct partition splits, each term weighted by
    its multiplicity: v(τ) = (1/γ(τ) - Σ k·method(skeleton)·Π v(component))
    / method(•), the sum over every split but the no-edges-removed one, in
    one :func:`_pass` per order for both scalar domains; split terms whose
    skeleton weight (or any component coefficient) is zero are skipped.
    The modifying integrator of a tableau,
    :func:`bsharp.modifying.modifying_integrator_of_tableau`, reads no
    partition table.
    """
    if method.empty != 1:
        raise SeriesError("modifying integrator needs a map-kind method series")
    _check_partitions(method.max_order, "the modifying integrator of a series")
    u1: Coefficient = Fraction(1)
    if method.max_order >= 1:
        u1 = _check_u1(method._coeffs[b"\x00"])
    from .splits_extra import partition_skeleton_table

    max_order = method.max_order
    levels = [
        (n, ids, partition_skeleton_table(n))
        for n, ids in enumerate(orders_below(max_order + 1), 1)
    ]
    lift, lower, d, _, _ = _domain(((t.order, c) for t, c in method.items()), u1)
    content, inverse = _reciprocal(u1, lift)
    heads = _lifted(method._coeffs, lift, d, max_order)
    solve = partial(
        _modifying_integrator_ints, levels, heads, d**max_order, content, inverse, lower
    )
    return _solve(solve, max_order, d, content)


def _modifying_integrator_ints(
    levels, heads: list, d_top: int, content: int, inverse, lower, scale: int
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
    products: dict = {}
    product = partial(_forest_product, products, solved)
    gammas = densities()
    out: dict = {b"": Fraction(0)}
    for n, ids, groups in levels:
        power = scale**n
        one = d_top * power  # 1, scaled
        skips += _pass(groups, heads, products, product, totals)
        for i in ids:
            total = graded._exact(one, gammas[i]) - totals[i]
            solved[i] = value = graded._exact(total if inverse == 1 else total * inverse, divisor)
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
        from .trees_extra import EMPTY_TREE

        terms.append(SeriesTerm(EMPTY_TREE, series.empty, 0))
    trees = walk(series.max_order)
    symmetries()  # σ of every tree below the top order, which _sigma reads
    for n, seq, kids, _ in trees:
        c = series._coeffs[seq]
        if not c:
            continue
        tree = RootedTree._wrap(seq)
        power = n - reduce_order_by
        if power < 0:
            raise SeriesError(
                f"reduce_order_by={reduce_order_by} gives tree {tree} a negative h power"
            )
        terms.append(SeriesTerm(tree, series_module.coeff_div(c, _sigma(kids)), power))
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
            what = "y" if tree.is_empty else f"F({tree})"
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
            what = "y" if tree.is_empty else f"F({tree})"
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


def _flow_from_json(data: dict) -> TruncatedBSeries:
    """The flow of a substitution from its JSON form, its ``max_order``
    sized by :func:`_check_partitions` before any coefficient is parsed."""
    order = data.get("max_order") if isinstance(data, dict) else None
    if isinstance(order, int) and not isinstance(order, bool):
        _check_max_order(order)
        _check_partitions(order, "substitution")
    return series_from_json_dict(data)


def series_from_json_dict(data: dict) -> TruncatedBSeries:
    from .trees_extra import EMPTY_TREE, parse_tree

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
