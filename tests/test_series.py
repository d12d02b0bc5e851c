import math
import operator
import random
import warnings
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bsharp.coefficients import coeff_eval, coeff_parse, coeff_print, is_rational
from bsharp.errors import InvalidTreeError, SeriesError, SingularMethodError
from bsharp.series import (
    SeriesTerm,
    TruncatedBSeries,
    compose,
    display_terms,
    exact_series,
    format_series,
    identity_series,
    modified_equation_series,
    modifying_integrator_series,
    reset_zero_skip_count,
    scale_step,
    series_eq,
    series_from_json_dict,
    series_order_of_accuracy,
    series_sub,
    series_to_json_dict,
    substitute,
    truncated,
    zero_skip_count,
)
from bsharp import (
    graded, modifying, series, series_extra, splits, splits_extra, symbolic, tableaux_extra,
)
from bsharp.splits import clear_split_caches, partition_split_table
from bsharp.symbolic import symbol
from bsharp.tableaux import (
    ButcherTableau,
    RowSumWarning,
    builtin_tableau,
    rk_series,
    tableau_from_json_dict,
)
from bsharp.trees import EMPTY_TREE, RootedTree, all_trees_up_to, parse_tree

from oracles import (
    compose_rows,
    elementary_weight_bruteforce,
    levels_to_shape,
    modified_equation_bruteforce,
    modified_equation_rows,
    modifying_integrator_bruteforce,
    modifying_integrator_rows,
    partition_splits_bruteforce,
    subtree_splits_bruteforce,
    substitute_rows,
)
from test_stages import _Counted

T = parse_tree


def random_map_series(max_order, seed):
    rng = random.Random(seed)
    return TruncatedBSeries.from_function(
        max_order, Fraction(1), lambda t: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    )


def random_flow_series(max_order, seed):
    rng = random.Random(seed)
    return TruncatedBSeries.from_function(
        max_order, Fraction(0), lambda t: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    )


# ---------------------------------------------------------------------------
# the container
# ---------------------------------------------------------------------------

def test_series_must_cover_exactly_the_tree_range():
    with pytest.raises(SeriesError, match="cover exactly"):
        TruncatedBSeries(2, Fraction(1), {T("[0]"): Fraction(1)})
    extra = {t: Fraction(1) for t in all_trees_up_to(3)}
    with pytest.raises(SeriesError, match="cover exactly"):
        TruncatedBSeries(2, Fraction(1), extra)
    with pytest.raises(SeriesError):
        TruncatedBSeries(-1, Fraction(1), {})
    with pytest.raises(SeriesError, match="non-negative integer"):
        TruncatedBSeries(True, Fraction(1), {T("[0]"): Fraction(1)})


def test_series_size_is_checked_before_trees_are_enumerated(monkeypatch):
    # a table far too small for its max_order fails on the tree count
    # alone; enumerating the 376,464 trees up to order 16 takes seconds
    def no_enumeration(max_order):
        raise AssertionError("enumerated trees before comparing the table size")

    monkeypatch.setattr(series, "all_trees_up_to", no_enumeration)
    data = {"kind": "map", "max_order": 16, "empty": "1", "coefficients": {"[0]": "1"}}
    with pytest.raises(SeriesError, match="cover exactly the 376464 trees of order 1..16"):
        series_from_json_dict(data)
    # past the size bound the order alone is refused
    with pytest.raises(SeriesError, match="order 17 is too large"):
        series_from_json_dict({**data, "max_order": 17})
    with pytest.raises(InvalidTreeError, match="exceeds the maximum"):
        series_from_json_dict({**data, "max_order": 63})


def test_a_substitution_past_the_edge_subset_bound_is_refused_before_any_table(monkeypatch):
    # two order-14 series stand for 333 million edge subsets, some 10 GB of
    # partition tables; the order alone is refused, before any coefficient
    # is read or any table built
    def no_tables(n):
        raise AssertionError("built a partition table before the size check")

    monkeypatch.setattr(splits_extra, "partition_skeleton_table", no_tables)
    flow = TruncatedBSeries._from_levels(14, {b"": Fraction(0)})
    method = TruncatedBSeries._from_levels(14, {b"": Fraction(1)})
    message = (
        r"at order 14 is too large: about 333,364,411 edge subsets, some 10\.7 GB of "
        r"partition tables, past the limit of 100,000,000 subsets \(order 13\)"
    )
    with pytest.raises(SeriesError, match="substitution " + message):
        substitute(flow, method)
    with pytest.raises(SeriesError, match="the modifying integrator of a series " + message):
        modifying_integrator_series(method)
    # order 13, 63,249,595 subsets, is admitted
    series_extra._check_partitions(13, "substitution")
    assert series_extra.MAX_EDGE_SUBSETS == series.MAX_EDGE_SUBSETS == 100_000_000


def test_kind_classification():
    assert exact_series(2).kind == "map"
    assert identity_series(2).kind == "map"
    assert modified_equation_series(exact_series(2)).kind == "flow"
    general = TruncatedBSeries.from_function(1, Fraction(1, 2), lambda t: Fraction(0))
    assert general.kind == "general"


def test_lookup_and_iteration_order():
    s = exact_series(4)
    assert s[EMPTY_TREE] == Fraction(1)
    assert s[T("[0,1,1]")] == Fraction(1, 3)
    assert list(s.trees()) == list(all_trees_up_to(4))
    with pytest.raises(SeriesError, match="outside this series"):
        s[T("[0,1,2,3,4]")]


def test_every_series_stores_one_level_sequence_dict():
    method = rk_series(builtin_tableau("midpoint"), 4)
    flow = random_flow_series(4, 5)
    keys = [b""] + [t._levels for t in all_trees_up_to(4)]
    assert TruncatedBSeries.__slots__ == ("max_order", "_coeffs")
    for s in (
        method,
        compose(method, method),
        substitute(flow, method),
        modified_equation_series(method),
        modifying_integrator_series(method),
    ):
        assert list(s._coeffs) == keys
        assert s._coeffs[b""] is s.empty


def test_series_equality_needs_matching_orders():
    assert exact_series(3) == exact_series(3)
    assert exact_series(3) != identity_series(3)
    with pytest.raises(SeriesError, match="equal truncation orders"):
        series_eq(exact_series(3), exact_series(4))


def test_truncated_restricts_but_never_extends():
    s = exact_series(5)
    assert truncated(s, 3) == exact_series(3)
    with pytest.raises(SeriesError, match="cannot extend"):
        truncated(s, 6)


def test_series_sub_gives_residuals():
    method = rk_series(builtin_tableau("midpoint"), 3)
    residual = series_sub(method, exact_series(3))
    assert residual[T("[0]")] == 0
    assert residual[T("[0,1]")] == 0
    assert residual[T("[0,1,1]")] == Fraction(1, 4) - Fraction(1, 3)


def test_scale_step_grades_by_order():
    s = random_map_series(4, 5)
    mu = Fraction(3)
    scaled = scale_step(s, mu)
    for tree, c in s.items():
        assert scaled[tree] == c * Fraction(3) ** tree.order


def _assert_stored_alike(got, want):
    # the same stored dict: keys in all_trees_up_to order, equal printed values
    keys = [b""] + [t._levels for t in all_trees_up_to(want.max_order)]
    assert got.max_order == want.max_order
    assert list(got._coeffs) == keys == list(want._coeffs)
    assert list(map(coeff_print, got._coeffs.values())) == list(
        map(coeff_print, want._coeffs.values())
    )


# the two-parameter family of explicit three-stage order-3 methods, in c2 and c3
_FAM3 = tableau_from_json_dict({
    "A": [["0", "0", "0"], ["c2", "0", "0"],
          ["c3 - c3*(c3 - c2)/(c2*(2 - 3*c2))", "c3*(c3 - c2)/(c2*(2 - 3*c2))", "0"]],
    "b": ["1 - (3*c3 - 2)/(6*c2*(c3 - c2)) - (2 - 3*c2)/(6*c3*(c3 - c2))",
          "(3*c3 - 2)/(6*c2*(c3 - c2))", "(2 - 3*c2)/(6*c3*(c3 - c2))"],
    "c": ["0", "c2", "c3"],
})


@pytest.mark.parametrize("tab", [builtin_tableau("midpoint"), builtin_tableau("rk22(alpha)"), _FAM3],
                         ids=["midpoint", "rk22(alpha)", "fam3"])
def test_derived_series_are_what_the_checking_constructor_builds(tab):
    # truncated, scale_step and series_sub build from their sources' stored dicts
    s, x = rk_series(tab, 6), exact_series(6)
    for order in (0, 1, 4, 6):
        want = TruncatedBSeries(order, s.empty, {t: s[t] for t in all_trees_up_to(order)})
        _assert_stored_alike(truncated(s, order), want)
    for mu in (Fraction(-2, 3), symbol("beta")):
        want = TruncatedBSeries(6, s.empty, {t: c * mu**t.order for t, c in s.items()})
        _assert_stored_alike(scale_step(s, mu), want)
    want = TruncatedBSeries(6, s.empty - x.empty, {t: c - x[t] for t, c in s.items()})
    _assert_stored_alike(series_sub(s, x), want)


def test_truncated_refuses_an_order_that_is_not_one():
    s = exact_series(4)
    for order in ("3", 3.0, -1, True):
        with pytest.raises(SeriesError, match="max_order must be a non-negative integer"):
            truncated(s, order)


@pytest.mark.parametrize(
    "tab,bindings,expected",
    [(builtin_tableau("rk22(alpha)"), {"alpha": Fraction(2, 3)}, 2),
     (_FAM3, {"c2": Fraction(1, 2), "c3": Fraction(1)}, 3)],
    ids=["rk22(alpha)", "fam3"],
)
def test_order_checks_the_bound_series_the_checking_constructor_builds(
    monkeypatch, tab, bindings, expected
):
    checked = []

    def order_of(series):
        checked.append(series)
        return series_order_of_accuracy(series)

    monkeypatch.setattr(tableaux_extra, "series_order_of_accuracy", order_of)
    order = tableaux_extra.order_of_accuracy(tab, 5, bindings)
    s = rk_series(tab, 5)
    want = TruncatedBSeries(
        5, coeff_eval(s.empty, bindings), {t: coeff_eval(c, bindings) for t, c in s.items()}
    )
    (got,) = checked
    _assert_stored_alike(got, want)
    assert order == series_order_of_accuracy(want) == expected


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_composition_witness_values():
    e = rk_series(builtin_tableau("euler"), 3)
    x = exact_series(3)
    exact_then_euler = compose(x, e)
    euler_then_exact = compose(e, x)
    bushy, chain = T("[0,1,1]"), T("[0,1,2]")
    # order matters on the bushy tree...
    assert exact_then_euler[bushy] == Fraction(4, 3)
    assert euler_then_exact[bushy] == Fraction(7, 3)
    # ...but happens to agree on the chain
    assert exact_then_euler[chain] == Fraction(2, 3)
    assert euler_then_exact[chain] == Fraction(2, 3)
    # shared low-order values
    for s in (exact_then_euler, euler_then_exact):
        assert s.kind == "map"
        assert s[T("[0]")] == 2
        assert s[T("[0,1]")] == Fraction(3, 2)


def test_composition_identity_laws():
    s = random_map_series(5, 21)
    i = identity_series(5)
    assert compose(i, s) == s
    assert compose(s, i) == s


def test_composition_is_associative():
    family = [rk_series(builtin_tableau(f"rk22({p})"), 6) for p in ("alpha", "2*alpha", "alpha+1")]
    for a, b, c in (
        [random_map_series(5, seed) for seed in (31, 32, 33)],
        [random_map_series(8, seed) for seed in (34, 35, 36)],
        family,
    ):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


@pytest.mark.parametrize("name,order", [("midpoint", 8), ("rk4", 8), ("rk22(alpha)", 6)])
def test_two_half_steps_follow_the_modified_field_at_half_the_step(name, order):
    # the modified field of a at step h/2, flowed for time h: ME(a∘a at
    # h/2)(τ) = 2^(1−|τ|)·ME(a)(τ), which ties compose's recursion to the
    # edge-cut modified equation
    a = rk_series(builtin_tableau(name), order)
    halves = modified_equation_series(compose(a, a, normalize_stepsize=True))
    for tree, c in modified_equation_series(a).items():
        assert halves[tree] == c * Fraction(2, 2**tree.order), tree


def test_compose_and_substitute_match_split_oracles():
    # brute force over node and edge subsets, coefficients looked up by shape
    inner, outer, flow = random_map_series(6, 21), random_map_series(6, 22), random_flow_series(6, 23)
    a, b, v = _by_shape(inner), _by_shape(outer), _by_shape(flow)
    b[None] = outer.empty  # the kept part of the empty split
    composed, substituted = _by_shape(compose(inner, outer)), _by_shape(substitute(flow, outer))
    for tree in all_trees_up_to(6):
        shape = levels_to_shape(tree.levels)
        expected = sum(
            k * b[kept] * math.prod(a[m] for m in forest)
            for (kept, forest), k in subtree_splits_bruteforce(tree.levels).items()
        )
        assert composed[shape] == expected
        expected = sum(
            k * b[skel] * math.prod(v[m] for m in forest)
            for (skel, forest), k in partition_splits_bruteforce(tree.levels).items()
        )
        assert substituted[shape] == expected


def test_composition_requires_map_kind_inner():
    flow = random_flow_series(3, 40)
    with pytest.raises(SeriesError, match="map-kind inner"):
        compose(flow, exact_series(3))
    # a flow-kind *outer* is fine: differencing a method against identity
    assert compose(exact_series(3), flow).kind == "flow"


def test_composition_rejects_mixed_orders():
    with pytest.raises(SeriesError, match="equal truncation orders"):
        compose(exact_series(3), exact_series(4))


def test_normalized_self_composition_is_the_two_half_step_method():
    euler = rk_series(builtin_tableau("euler"), 4)
    two_steps = compose(euler, euler, normalize_stepsize=True)
    combined = tableau_from_json_dict(
        {"A": [["0", "0"], ["1/2", "0"]], "b": ["1/2", "1/2"], "c": ["0", "1/2"]}
    )
    assert two_steps == rk_series(combined, 4)
    # without normalization the composite takes a double-width step
    plain = compose(euler, euler)
    assert plain[T("[0]")] == 2
    assert two_steps[T("[0]")] == 1


def test_composing_halves_of_the_exact_flow_gives_the_exact_flow():
    x = exact_series(6)
    assert compose(x, x, normalize_stepsize=True) == x


# ---------------------------------------------------------------------------
# substitution and its triangular inverses
# ---------------------------------------------------------------------------

def test_substitution_requires_flow_kind_inner():
    with pytest.raises(SeriesError, match="flow-kind inner"):
        substitute(exact_series(3), exact_series(3))


def test_substituting_the_unit_field_changes_nothing():
    # the field series with coefficient 1 on the one-node tree and 0
    # elsewhere is the substitution unit
    unit = TruncatedBSeries.from_function(
        5, Fraction(0), lambda t: Fraction(1) if t.order == 1 else Fraction(0)
    )
    s = random_map_series(5, 50)
    assert substitute(unit, s) == s
    flow = random_flow_series(5, 51)
    assert substitute(unit, flow) == flow
    assert substitute(flow, unit) == flow


def test_substitution_is_associative():
    u = random_flow_series(5, 60)
    v = random_flow_series(5, 61)
    w = random_map_series(5, 62)
    assert substitute(u, substitute(v, w)) == substitute(substitute(u, v), w)


def _unit_field(max_order):
    return TruncatedBSeries.from_function(
        max_order, Fraction(0), lambda t: Fraction(1) if t.order == 1 else Fraction(0)
    )


# the defining identities at order 8, where the partition tables are built
# over tree ids: the modified equation reads edge cuts, the modifying
# integrator of a tableau its stages, and neither reads a partition row

@pytest.mark.parametrize("name", ["midpoint", "rk4", "rk22(alpha)"])
def test_modifying_integrator_and_modified_equation_substitute_to_the_unit(name):
    tab = builtin_tableau(name)
    me = modified_equation_series(rk_series(tab, 8))
    mi = modifying.modifying_integrator_of_tableau(tab, 8)
    assert substitute(mi, me) == _unit_field(8)
    assert substitute(me, mi) == _unit_field(8)


def test_substitution_is_associative_at_order_8():
    u, v = random_flow_series(8, 63), random_flow_series(8, 64)
    w = random_map_series(8, 65)
    assert substitute(u, substitute(v, w)) == substitute(substitute(u, v), w)
    assert substitute(u, substitute(v, _unit_field(8))) == substitute(u, v)


def test_modified_equation_round_trip():
    for seed in range(3):
        method = random_map_series(5, 100 + seed)
        v = modified_equation_series(method)
        assert v.kind == "flow"
        assert substitute(v, exact_series(5)) == method


def test_modifying_integrator_round_trip():
    for name in ("euler", "midpoint", "rk4"):
        method = rk_series(builtin_tableau(name), 5)
        v = modifying_integrator_series(method)
        assert substitute(v, method) == exact_series(5)


def test_modified_equation_of_the_exact_flow_is_the_field():
    v = modified_equation_series(exact_series(5))
    for tree, c in v.items():
        assert c == (Fraction(1) if tree.order == 1 else Fraction(0))


def test_euler_perturbations_have_harmonic_tall_tree_weights():
    # for the one-stage first-order method the chain-tree weights follow the
    # two classical scalar expansions: log(1+x) and exp(x)-1
    v = modified_equation_series(rk_series(builtin_tableau("euler"), 6))
    w = modifying_integrator_series(rk_series(builtin_tableau("euler"), 6))
    for n in range(1, 7):
        chain = T("[" + ",".join(str(i) for i in range(n)) + "]")
        assert v[chain] == Fraction((-1) ** (n + 1), n)
        assert w[chain] == Fraction(1, math.factorial(n))


def _by_shape(series):
    return {levels_to_shape(tree.levels): c for tree, c in series.items()}


def _random_rational_tableau(stages, seed):
    rng = random.Random(seed)
    A = [
        [
            Fraction(rng.randint(-3, 4), rng.randint(1, 4)) if j < i else Fraction(0)
            for j in range(stages)
        ]
        for i in range(stages)
    ]
    b = [Fraction(rng.choice((-1, 0, 1, 2)), rng.randint(1, 3)) for _ in range(stages)]
    return ButcherTableau(A, b, [sum(row, Fraction(0)) for row in A])


@pytest.mark.parametrize(
    "tab",
    [builtin_tableau(name) for name in ("euler", "midpoint", "rk4")]
    + [_random_rational_tableau(stages, seed) for stages, seed in ((2, 1), (3, 2), (4, 3))],
)
def test_modified_equation_matches_partition_oracle(tab):
    method = rk_series(tab, 7)
    expected = modified_equation_bruteforce(_by_shape(method), 7, Fraction(1))
    assert _by_shape(modified_equation_series(method)) == expected


def test_symbolic_modified_equation_matches_partition_oracle():
    method = rk_series(builtin_tableau("rk22(alpha)"), 6)
    expected = modified_equation_bruteforce(_by_shape(method), 6, Fraction(1))
    got = _by_shape(modified_equation_series(method))
    assert got.keys() == expected.keys()
    assert all(got[shape] == expected[shape] for shape in expected)


@pytest.mark.parametrize(
    "tab",
    [builtin_tableau(name) for name in ("euler", "midpoint", "rk4")]
    # seeded tableaux with Σb ≠ 0: the solve divides by method(•) = Σb
    + [_random_rational_tableau(stages, seed) for stages, seed in ((2, 1), (3, 4), (4, 3))],
)
def test_modifying_integrator_matches_partition_oracle(tab):
    method = rk_series(tab, 7)
    expected = modifying_integrator_bruteforce(_by_shape(method), 7, Fraction(1))
    assert _by_shape(modifying_integrator_series(method)) == expected


def test_symbolic_modifying_integrator_matches_partition_oracle():
    method = rk_series(builtin_tableau("rk22(alpha)"), 6)
    expected = modifying_integrator_bruteforce(_by_shape(method), 6, Fraction(1))
    got = _by_shape(modifying_integrator_series(method))
    assert got.keys() == expected.keys()
    assert all(got[shape] == expected[shape] for shape in expected)


# Rational tableaux whose denominators have primes above the order (7, 11
# and 13 against order 5) and whose Σb = method(•) is neither 0 nor 1, so
# the graded integer solves meet primes that only the input brings in and
# divide by a u1 with a numerator.
_entries = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 7, 11, 13, 14, 22, 39))
)


@st.composite
def _rational_tableaux(draw):
    stages = draw(st.integers(1, 3))
    explicit = draw(st.booleans())
    A = [
        [Fraction(0) if explicit and j >= i else draw(_entries) for j in range(stages)]
        for i in range(stages)
    ]
    b = [draw(_entries) for _ in range(stages)]
    assume(sum(b) not in (0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RowSumWarning)
        return ButcherTableau(A, b, [Fraction(0)] * stages)


@given(_rational_tableaux())
@settings(max_examples=30, deadline=None)
def test_integer_solves_match_the_brute_force_on_random_rational_tableaux(tab):
    method = rk_series(tab, 5)
    for tree, c in method.items():
        assert c == elementary_weight_bruteforce(tab.A, tab.b, tree.levels)
    by_shape = _by_shape(method)
    assert _by_shape(modified_equation_series(method)) == (
        modified_equation_bruteforce(by_shape, 5, Fraction(1))
    )
    assert _by_shape(modifying_integrator_series(method)) == (
        modifying_integrator_bruteforce(by_shape, 5, Fraction(1))
    )


def _radical(n):
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            out *= p
            while n % p == 0:
                n //= p
        p += 1
    return out


def _grading(method, divisor=1):
    """The ``(d, symbols, rests)`` of the domain a solve of ``method``
    that divides by ``divisor`` runs over."""
    return graded._graded_denominator(((t.order, c) for t, c in method.items()), divisor)


# With u1 = 7/2, v(•) = 7/2 puts 2^3 into the denominator of v([•]) =
# a([•]) - v(•)^2/2, and the modifying integrator's v([•]) has 7^3 in its
# denominator.  The second tableau is the first with a21 = alpha, so its
# series are Laurent polynomials in alpha.
_RESTART_TABLEAUX = {
    "rational": ButcherTableau(
        [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]],
        [Fraction(3), Fraction(1, 2)],
        [Fraction(0), Fraction(1)],
    ),
    "symbolic": tableau_from_json_dict(
        {"A": [["0", "0"], ["alpha", "0"]], "b": ["3", "1/2"], "c": ["0", "alpha"],
         "symbols": ["alpha"]}
    ),
}


@pytest.mark.parametrize(
    "solve,name",
    [
        (solve, name)
        for name in _RESTART_TABLEAUX
        for solve in (
            modified_equation_series, modifying_integrator_series,
            modifying.modifying_integrator_of_tableau,
        )
    ],
    ids=[
        "modified_equation_series", "modifying_integrator_series",
        "modifying_integrator_of_tableau",
        "modified_equation_series-symbolic", "modifying_integrator_series-symbolic",
        "modifying_integrator_of_tableau-symbolic",
    ],
)
def test_a_too_small_scale_restarts_to_the_same_result(monkeypatch, solve, name):
    # Start from the radical of the derived scale: every prime of every true
    # denominator, each once, so λ^2 holds only 2^2 and 7^2.  The stage
    # recursion of the modifying integrator reads the tableau, not its
    # series, and restarts to the partition solve's result.  Only the pass
    # that finishes books its zero skips.
    tab = _RESTART_TABLEAUX[name]
    if solve is modifying.modifying_integrator_of_tableau:
        solve, method = partial(solve, max_order=5), tab
        assert solve(tab) == modifying_integrator_series(rk_series(tab, 5))
    else:
        method = rk_series(tab, 5)
    reset_zero_skip_count()
    expected = solve(method)
    skips = zero_skip_count()
    start, exact = graded._initial_scale, graded._exact
    remainders = []

    def checked(a, b):
        try:
            return exact(a, b)
        except graded._Inexact:
            remainders.append((a, b))
            raise

    monkeypatch.setattr(graded, "_initial_scale", lambda *args: _radical(start(*args)))
    monkeypatch.setattr(graded, "_exact", checked)
    reset_zero_skip_count()
    got = solve(method)
    assert remainders  # the first scale was too small, and the solve started over
    assert zero_skip_count() == skips
    reset_zero_skip_count()
    assert got == expected
    assert [coeff_print(c) for _, c in got.items()] == [coeff_print(c) for _, c in expected.items()]
    assert all(type(c) is type(expected[t]) for t, c in got.items())
    assert all(type(c) is Fraction for _, c in got.items()) == (name == "rational")


def test_laurent_difference_is_the_sum_with_the_negation():
    # a - b equals a + b·(-1) term for term, down to no terms at all, with
    # an int (a constant) on either side
    def laurent(*terms):
        return symbolic._Laurent({symbolic._pack(e): c for e, c in terms})

    def terms(value):
        if isinstance(value, symbolic._Laurent):
            return value.terms
        return {0: value} if value else {}

    a = laurent(((0, 0), 3), ((1, -1), 2), ((0, 2), -5))
    b = laurent(((1, -1), 2), ((2, 0), 7))
    three = laurent(((0, 0), 3))
    for x, y in [
        (a, b), (b, a), (a, a), (a, 3), (3, a), (a, 0), (0, a), (three, 3), (3, three),
        (laurent(), a), (a, laurent()), (laurent(), 3),
    ]:
        assert terms(x - y) == terms(x + y * -1), (x, y)
    assert terms(a - a) == terms(three - 3) == {}
    expected = (((0, 0), 3), ((0, 2), -5), ((2, 0), -7))
    assert terms(a - b) == {symbolic._pack(e): c for e, c in expected}


def _laurent_terms(value) -> dict:
    """The terms of a Laurent value or of an int, a constant."""
    if isinstance(value, symbolic._Laurent):
        return value.terms
    return {0: value} if value else {}


@st.composite
def _laurent_values(draw, size: int) -> list:
    """``size`` values of a solve over two symbols: ints (zero too) and
    Laurent polynomials of small exponents, some the negation of another,
    so that sums of their products cancel term by term."""
    exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(symbolic._pack)
    laurent = st.dictionaries(exponents, st.integers(-3, 3).filter(bool), max_size=4)
    pool = draw(st.lists(
        st.one_of(st.integers(-3, 3), laurent.map(symbolic._Laurent)), min_size=1, max_size=4
    ))
    pool += [-v for v in pool]
    return draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_laurent_kernels_equal_a_fold_of_the_laurent_operators(data):
    # the Lie kernel and the weighted sum of the Laurent domain against a
    # fold of every term and sum(map(mul, ...)) over the _Laurent
    # operators: the same terms, cancelled ones dropped, and the zero
    # skips of graded._lie
    width = data.draw(st.integers(1, 4))
    branch = data.draw(_laurent_values(4))
    lists = [data.draw(_laurent_values(data.draw(st.integers(0, width)))) for _ in range(3)]
    rows = data.draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 3)), st.integers(1, 3), max_size=8
    ))
    got, skips = symbolic._laurent_lie(rows, branch, lists, width)
    expected = [0] * width
    for (trunk, b), k in rows.items():
        for j, c in enumerate(lists[trunk]):
            expected[j] = expected[j] + c * (branch[b] * k)
    assert [_laurent_terms(v) for v in got] == [_laurent_terms(v) for v in expected]
    assert skips == graded._lie(rows, branch, lists, width)[1]
    values = data.draw(_laurent_values(4))
    weights = data.draw(st.one_of(_laurent_values(4), st.lists(st.integers(-3, 3), max_size=4)))
    assert _laurent_terms(symbolic._laurent_dot(values, weights)) == _laurent_terms(
        sum(map(operator.mul, values, weights))
    )


@st.composite
def _unreduced(draw):
    """A rational function over one or two symbols: a numerator of a few
    terms over an int content, a monomial and one to three factors of two
    or three terms each, multiplied out unreduced; half of the time the
    numerator is multiplied by the first factor too."""
    names = draw(st.sampled_from([("beta",), ("alpha", "beta")]))
    one = (0,) * len(names)

    def polynomial(degree, min_size, max_size):
        exponents = st.tuples(*[st.integers(0, degree)] * len(names))
        terms = st.dictionaries(exponents, st.integers(-5, 5).filter(bool), min_size=min_size,
                                max_size=max_size)
        return symbolic.RationalFunction(names, draw(terms), {one: 1})

    factors = [polynomial(2, 2, 3) for _ in range(draw(st.integers(1, 3)))]
    value = polynomial(3, 1, 4) / draw(st.integers(1, 6)) / polynomial(2, 1, 1)
    for factor in factors:
        value /= factor
    return value * factors[0] if draw(st.booleans()) else value


@given(st.lists(_unreduced(), min_size=1, max_size=3), st.integers(1, 3), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_a_laurent_lift_lowers_back_to_the_coefficient(values, order, scale):
    # each denominator's rest, the factor that is not a monomial, becomes
    # an inverse symbol; lowering substitutes it back
    assert graded._graded_denominator((order, c) for c in values)[2]  # a rest
    lift, lower, d, _, _ = graded._domain((order, c) for c in values)
    scale *= d**order
    lifted = [lift(c, scale) for c in values]
    for c, value in zip(values, lifted):
        text = coeff_print(lower(value, scale))
        assert lower(value, scale) == c
        assert "~" not in text  # no inverse symbol
        assert coeff_parse(text) == c
    forward = lower(sum(lifted, 0), scale)
    assert coeff_print(forward) == coeff_print(lower(sum(reversed(lifted), 0), scale))
    assert forward == sum(values, Fraction(0))


# a two-parameter family of the kind the symbolic benchmark jobs use
_TWO_PARAMETER_FAMILY = tableau_from_json_dict(
    {"A": [["0", "0"], ["3/7*p", "0"]], "b": ["1 - q", "q"], "c": ["0", "3/7*p"],
     "symbols": ["p", "q"]}
)


@pytest.mark.parametrize("solve", [modified_equation_series, modifying_integrator_series])
@pytest.mark.parametrize(
    "tab", [builtin_tableau("rk22(alpha)"), _TWO_PARAMETER_FAMILY],
    ids=["rk22(alpha)", "two-parameter"],
)
def test_laurent_solves_bind_to_the_integer_solves_at_order_9(solve, tab):
    # the symbolic solve over Laurent polynomials, evaluated at a point,
    # against the integer solve of the tableau bound at that point
    method = rk_series(tab, 9)
    assert _grading(method, method[T("[0]")])[1] == tuple(
        sorted(tab.symbols)
    )
    symbolic = solve(method)
    rng = random.Random(9)
    for _ in range(3):
        point = {name: Fraction(rng.randint(1, 9), rng.randint(2, 11)) for name in tab.symbols}
        bound = solve(rk_series(tab.bind(point), 9))
        assert all(coeff_eval(c, point) == bound[t] for t, c in symbolic.items())


def test_modified_equation_builds_no_partition_table():
    # Euler's step is 1 + x on the linear chain trees, so the modified
    # field there is log(1 + x): weight (-1)^(n+1)/n on the n-chain
    clear_split_caches()
    v = modified_equation_series(rk_series(builtin_tableau("euler"), 11))
    for n in range(1, 12):
        assert v[RootedTree(range(n))] == Fraction((-1) ** (n + 1), n)
    assert partition_split_table.cache_info().currsize == 0
    assert not splits_extra._rooted_tables
    # it indexes the trees below its top order for their edge-cut tables,
    # and nothing more: the top order is cut as it is read
    assert len(splits._cut_tables) == len(splits._seqs) == len(list(all_trees_up_to(10)))
    clear_split_caches()
    assert not splits._cut_tables and not splits._seqs


# b = (1, beta): the solve divides by method(•) = 1 + beta, so coefficients
# get denominators that are not monomials and are summed unreduced
_PARTITION_ORACLE_TABLEAUX = {
    "midpoint": builtin_tableau("midpoint"),
    "rk4": builtin_tableau("rk4"),
    "rk22(alpha)": builtin_tableau("rk22(alpha)"),
    "two-parameter": tableau_from_json_dict(
        {"A": [["0", "0", "0"], ["p", "0", "0"], ["0", "q", "0"]],
         "b": ["1/6", "2/3", "1/6"], "c": ["0", "p", "q"], "symbols": ["p", "q"]}
    ),
    "b=(1,beta)": tableau_from_json_dict(
        {"A": [["0", "0"], ["1/2", "0"]], "b": ["1", "beta"], "c": ["0", "1/2"],
         "symbols": ["beta"]}
    ),
}


def _monomial(coeffs) -> bool:
    """Every denominator of ``coeffs`` is a monomial."""
    return all(is_rational(c) or len(c.den) == 1 for c in coeffs)


def _assert_like(got: dict, expected: dict) -> None:
    """``got`` and ``expected``, keyed alike, print alike when every
    denominator of ``expected`` is a monomial, as such a value has one
    normal form; they are equal by ``==`` otherwise, as an unreduced value
    prints by the path that computed it."""
    assert list(got) == list(expected)
    if _monomial(expected.values()):
        assert [coeff_print(c) for c in got.values()] == [
            coeff_print(c) for c in expected.values()
        ]
    else:
        assert got == expected


@pytest.mark.parametrize("name", list(_PARTITION_ORACLE_TABLEAUX))
def test_partition_solves_print_like_the_row_by_row_oracle(name):
    # printed forms, not just equal values, but for b = (1, beta), whose
    # modifying integrator divides by 1 + beta
    method = rk_series(_PARTITION_ORACLE_TABLEAUX[name], 5)
    trees = [t._levels for t in all_trees_up_to(5)]
    v = modifying_integrator_series(method)
    expected = modifying_integrator_rows(method._coeffs, 5, trees)
    assert _monomial(expected.values()) == (name != "b=(1,beta)")
    _assert_like(v._coeffs, expected)
    for flow, outer in ((v, method), (modified_equation_series(method), exact_series(5))):
        _assert_like(
            substitute(flow, outer)._coeffs, substitute_rows(flow._coeffs, outer._coeffs, trees)
        )


# Tableaux whose series have denominators that are not monomials, so the
# modified equation runs over Laurent polynomials with inverse symbols and
# prints unreduced; b = (1, beta) has monomial denominators only.
_NON_MONOMIAL_TABLEAUX = {
    "a21=1/(1+beta)": tableau_from_json_dict(
        {"A": [["0", "0"], ["1/(1 + beta)", "0"]], "b": ["1/2", "1/2"],
         "c": ["0", "1/(1 + beta)"], "symbols": ["beta"]}
    ),
    "1/(p+q)": tableau_from_json_dict(
        {"A": [["0", "0", "0"], ["1/(p + q)", "0", "0"], ["0", "p", "0"]],
         "b": ["1/6", "2/3", "1/6"], "c": ["0", "1/(p + q)", "p"], "symbols": ["p", "q"]}
    ),
}


@pytest.mark.parametrize(
    "tab,order,plain",
    [
        (_PARTITION_ORACLE_TABLEAUX["b=(1,beta)"], 6, False),
        *((tab, 5, True) for tab in _NON_MONOMIAL_TABLEAUX.values()),
    ],
    ids=["b=(1,beta)", *_NON_MONOMIAL_TABLEAUX],
)
def test_modified_equation_prints_like_the_row_by_row_oracle(tab, order, plain):
    # printed forms, not just equal values, when every denominator is a
    # monomial: the one loop sums the Lie terms of a tree as
    # Σ c_j·(n!/j!) / n!, the oracle as Σ c_j·(1/j!), and such a value has
    # one normal form; the other tableaux are compared by value, with the
    # top order folded and unfolded
    method = rk_series(tab, order)
    assert bool(_grading(method)[2]) == plain
    trees = [t._levels for t in all_trees_up_to(order)]
    got = modified_equation_series(method)._coeffs
    _assert_like(got, modified_equation_rows(method._coeffs, order, trees, fold_top=True))
    assert got == modified_equation_rows(method._coeffs, order, trees)


# a21 = 1/(1 + beta)^2 and b2 = beta/(2 + 2*beta): the rest 1 + beta of
# the second denominator divides the first, and the series' denominators
# are powers of it
_SHARED_REST = tableau_from_json_dict(
    {"A": [["0", "0"], ["1/(1 + beta)^2", "0"]], "b": ["1/2", "beta/(2 + 2*beta)"],
     "c": ["0", "1/(1 + beta)^2"], "symbols": ["beta"]}
)


def test_a_power_of_a_denominator_factor_takes_its_inverse_symbol():
    # one inverse symbol, for 1/(1 + beta), whose square lifts 1/(1 + beta)^2;
    # the values are those of plain rational-function arithmetic, and the
    # modified field prints over powers of 1 + beta, where one symbol per
    # distinct denominator printed [0,1] over a degree-5 denominator
    sympy = pytest.importorskip("sympy")
    beta = sympy.Symbol("beta")
    method = rk_series(_SHARED_REST, 4)
    assert _grading(method)[1] == ("beta", "~0")
    assert _SHARED_REST._lifted[2].args[0] == ("beta", "~0")
    trees = [t._levels for t in all_trees_up_to(4)]
    me = modified_equation_series(method)._coeffs
    mi = modifying.modifying_integrator_of_tableau(_SHARED_REST, 4)._coeffs
    rows = modifying_integrator_rows(method._coeffs, 4, trees)
    assert modifying_integrator_series(method)._coeffs == rows
    for got, expected in ((me, modified_equation_rows(method._coeffs, 4, trees)), (mi, rows)):
        assert got == expected
        for c, e in zip(got.values(), expected.values()):
            difference = f"({c}) - ({e})".replace("^", "**")
            assert sympy.cancel(sympy.sympify(difference, locals={"beta": beta})) == 0
    assert coeff_print(me[b"\x00\x01"]) == (
        "(-4*beta^3 - 8*beta^2 - beta - 1)/(8*beta^3 + 24*beta^2 + 24*beta + 8)"
    )


@pytest.mark.parametrize("name", list(_PARTITION_ORACLE_TABLEAUX))
def test_compose_prints_like_the_row_by_row_oracle(name):
    # both argument orders, against a symbolic second factor
    def printed(coeffs):
        return [coeff_print(c) for c in coeffs.values()]

    method = rk_series(_PARTITION_ORACLE_TABLEAUX[name], 5)
    other = rk_series(builtin_tableau("rk22(alpha)"), 5)
    trees = [t._levels for t in all_trees_up_to(5)]
    for inner, outer in ((method, other), (other, method)):
        assert printed(compose(inner, outer)._coeffs) == printed(
            compose_rows(inner._coeffs, outer._coeffs, trees)
        )


@st.composite
def _rational_compose_pairs(draw):
    """(inner, outer) of one order up to 7: rational, zero coefficients
    frequent, the inner map-kind and the outer's empty coefficient 0, 1 or 2."""
    order = draw(st.integers(1, 7))
    trees = list(all_trees_up_to(order))
    coefficient = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))

    def series(empty):
        values = draw(st.lists(coefficient, min_size=len(trees), max_size=len(trees)))
        return TruncatedBSeries(order, empty, dict(zip(trees, values)))

    return series(Fraction(1)), series(draw(st.sampled_from([Fraction(k) for k in (0, 1, 2)])))


@given(_rational_compose_pairs())
@settings(max_examples=60, deadline=None)
def test_compose_prints_like_the_row_by_row_oracle_on_random_series(pair):
    inner, outer = pair
    trees = [t._levels for t in all_trees_up_to(inner.max_order)]
    got = compose(inner, outer)._coeffs
    expected = compose_rows(inner._coeffs, outer._coeffs, trees)
    assert list(got) == list(expected)
    assert [coeff_print(c) for c in got.values()] == [coeff_print(c) for c in expected.values()]


_RANDOM_COEFFICIENT = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))


def _random_series(draw, order: int, empty, node=_RANDOM_COEFFICIENT) -> TruncatedBSeries:
    """A rational series of ``order``, zero coefficients frequent, its
    c(•) drawn from ``node``."""
    trees = list(all_trees_up_to(order))
    values = draw(st.lists(_RANDOM_COEFFICIENT, min_size=len(trees), max_size=len(trees)))
    values[0] = draw(node)
    return TruncatedBSeries(order, empty, dict(zip(trees, values)))


@st.composite
def _rational_substitute_pairs(draw):
    """(flow, outer) of one order up to 6: the flow flow-kind and the
    outer's empty coefficient 0, 1 or 2; zero heads and zero factors
    frequent."""
    order = draw(st.integers(1, 6))
    empty = draw(st.sampled_from([Fraction(k) for k in (0, 1, 2)]))
    return _random_series(draw, order, Fraction(0)), _random_series(draw, order, empty)


@st.composite
def _rational_methods(draw):
    """A map-kind series of an order up to 6 whose c(•), which the
    modifying integrator divides by, is not 0; zero coefficients frequent
    elsewhere."""
    nonzero = st.fractions(-3, 3, max_denominator=4).filter(bool)
    return _random_series(draw, draw(st.integers(1, 6)), Fraction(1), nonzero)


@given(_rational_substitute_pairs())
@settings(max_examples=60, deadline=None)
def test_substitute_prints_like_the_row_by_row_oracle_on_random_series(pair):
    flow, outer = pair
    trees = [t._levels for t in all_trees_up_to(flow.max_order)]
    got = substitute(flow, outer)._coeffs
    expected = substitute_rows(flow._coeffs, outer._coeffs, trees)
    assert list(got) == list(expected)
    assert [coeff_print(c) for c in got.values()] == [coeff_print(c) for c in expected.values()]


@given(_rational_methods())
@settings(max_examples=60, deadline=None)
def test_modifying_integrator_prints_like_the_row_by_row_oracle_on_random_series(method):
    trees = [t._levels for t in all_trees_up_to(method.max_order)]
    got = modifying_integrator_series(method)._coeffs
    expected = modifying_integrator_rows(method._coeffs, method.max_order, trees)
    assert list(got) == list(expected)
    assert [coeff_print(c) for c in got.values()] == [coeff_print(c) for c in expected.values()]


_A21 = tableau_from_json_dict(
    {"A": [["0", "0"], ["1/(1 + beta)", "0"]], "b": ["1/2", "1/2"],
     "c": ["0", "1/(1 + beta)"], "symbols": ["beta"]}
)


@given(
    st.integers(1, 6),
    st.sampled_from(["a21", "midpoint", "rk4", "rk22(alpha)"]),
    st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_compose_with_a_non_monomial_denominator_equals_the_row_by_row_oracle(
    order, partner, a21_first
):
    # plain coefficients: an unreduced sum prints by its summation order,
    # so the values are compared, not the printed forms
    a21 = rk_series(_A21, order)
    other = a21 if partner == "a21" else rk_series(builtin_tableau(partner), order)
    inner, outer = (a21, other) if a21_first else (other, a21)
    trees = [t._levels for t in all_trees_up_to(order)]
    assert compose(inner, outer)._coeffs == compose_rows(
        inner._coeffs, outer._coeffs, trees
    )


def test_order_zero_compose_and_substitute_on_a_cleared_index():
    # no tree up to order 0: only the empty coefficient, and no tree indexed
    clear_split_caches()
    method, flow = exact_series(0), TruncatedBSeries(0, Fraction(0), {})
    assert compose(method, method)._coeffs == {b"": 1}
    assert compose(method, flow, normalize_stepsize=True)._coeffs == {b"": 0}
    assert substitute(flow, method)._coeffs == {b"": 1}
    assert not splits._seqs


@pytest.mark.parametrize("name", ["rk4", "midpoint", "rk22(alpha)"])
def test_compose_and_substitute_pass_multiplies_no_coefficient(monkeypatch, name):
    # the pass runs over ints or Laurent polynomials, never coefficients
    method = rk_series(builtin_tableau(name), 6)
    flow = modified_equation_series(method)
    products, passes, running = [], [], []

    def counted(cls, op):
        fn = getattr(cls, op)

        def wrapper(a, b):
            if running:
                products.append(cls)
            return fn(a, b)
        return wrapper

    def tracked(*args):
        passes.append(args)
        running.append(True)
        try:
            return run_pass(*args)
        finally:
            running.pop()

    for cls in (Fraction, symbolic.RationalFunction):
        for op in ("__mul__", "__rmul__"):
            monkeypatch.setattr(cls, op, counted(cls, op))
    run_pass = series_extra._pass
    monkeypatch.setattr(series_extra, "_pass", tracked)
    compose(method, method)
    substitute(flow, method)
    assert passes and not products


_SYMBOLIC_TABLEAUX = {
    **{name: tab for name, tab in _PARTITION_ORACLE_TABLEAUX.items() if tab.symbols},
    # u1 = Σb = 5/4: the modifying integrator divides by a rational u1 ≠ 1
    "u1=5/4": tableau_from_json_dict(
        {"A": [["0", "0"], ["theta", "0"]], "b": ["1/2", "3/4"], "c": ["0", "theta"],
         "symbols": ["theta"]}
    ),
}


@pytest.mark.parametrize("name", list(_SYMBOLIC_TABLEAUX))
@pytest.mark.parametrize("solve", [modified_equation_series, modifying_integrator_series])
def test_laurent_solves_print_like_the_coefficient_path(solve, name):
    # the weights of rk_series against the brute force, once per tableau,
    # and the solves against the row-by-row oracles, which sum plain
    # coefficients: a monomial denominator stays one, so both reach one
    # normal form.  b = (1, beta)'s modifying integrator divides by the
    # non-monomial 1 + beta and is compared by value, at order 6, as the
    # oracle's unreduced solve takes over 40 s at order 7
    tab = _SYMBOLIC_TABLEAUX[name]
    plain = name == "b=(1,beta)" and solve is modifying_integrator_series
    order = 6 if plain else 7
    method = rk_series(tab, order)
    trees = [t._levels for t in all_trees_up_to(order)]
    if solve is modified_equation_series:
        assert [coeff_print(c) for _, c in method.items()] == [
            coeff_print(elementary_weight_bruteforce(tab.A, tab.b, seq)) for seq in trees
        ]
    oracle = modified_equation_rows if solve is modified_equation_series else (
        modifying_integrator_rows
    )
    expected = oracle(method._coeffs, order, trees)
    assert _monomial(expected.values()) != plain
    _assert_like(solve(method)._coeffs, expected)


@pytest.mark.parametrize("solve", [modified_equation_series, modifying_integrator_series])
def test_laurent_solves_skip_the_zero_terms_of_the_coefficient_path(solve):
    # skips fire, and none of them changes a printed coefficient: every
    # denominator is a monomial, so the row-by-row oracle, which skips
    # nothing, prints alike
    method = rk_series(builtin_tableau("rk22(alpha)"), 7)
    trees = [t._levels for t in all_trees_up_to(7)]
    oracle = modified_equation_rows if solve is modified_equation_series else (
        modifying_integrator_rows
    )
    expected = oracle(method._coeffs, 7, trees)
    assert _monomial(expected.values())
    reset_zero_skip_count()
    got = solve(method)._coeffs
    assert zero_skip_count() > 0
    _assert_like(got, expected)
    reset_zero_skip_count()


@pytest.mark.parametrize(
    "solve,tab",
    [
        (modified_equation_series, builtin_tableau("rk22(1 + beta)")),
        (modifying_integrator_series, _PARTITION_ORACLE_TABLEAUX["b=(1,beta)"]),
    ],
    ids=["modified_equation_series-rk22(1+beta)", "modifying_integrator_series-b=(1,beta)"],
)
def test_plain_solves_skip_zero_terms_without_changing_a_printed_coefficient(solve, tab):
    # both solves hold an inverse symbol: b2 = 1/(2 + 2*beta), and the
    # modifying integrator of b = (1, beta) divides by 1 + beta.  The
    # modified equation of b = (1, beta) has no zero factor to skip, but
    # rk22(1 + beta) is of order 2, so v([0,1]) = 0.  The row-by-row
    # oracle skips nothing; its unreduced sums print in their summation
    # order, so the values are compared
    method = rk_series(tab, 5)
    u1 = method[T("[0]")] if solve is modifying_integrator_series else 1
    assert _grading(method, u1)[2]
    trees = [t._levels for t in all_trees_up_to(5)]
    oracle = modified_equation_rows if solve is modified_equation_series else (
        modifying_integrator_rows
    )
    expected = oracle(method._coeffs, 5, trees)
    assert not _monomial(expected.values())
    reset_zero_skip_count()
    got = solve(method)._coeffs
    assert zero_skip_count() > 0
    _assert_like(got, expected)
    reset_zero_skip_count()


def test_solves_index_trees_in_enumeration_order():
    # from an empty index a solve meets every tree in all_trees_up_to
    # order, so ids are positions in that order
    clear_split_caches()
    modifying_integrator_series(rk_series(builtin_tableau("rk4"), 7))
    assert splits._seqs == [t._levels for t in all_trees_up_to(7)]
    clear_split_caches()


def _count_products(monkeypatch, solve, *args):
    """Number of ``series.coeff_mul`` calls ``solve(*args)`` makes."""
    calls = 0
    mul = series.coeff_mul

    def counting(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(series, "coeff_mul", counting)
    solve(*args)
    return calls


def _count_laurent_products(monkeypatch) -> list:
    """A one-item list that counts, from now on, the products of
    :class:`bsharp.symbolic._Laurent` values that build a new value (a
    product by 1 returns its operand), and the nonzero pairs of values that
    the Laurent domain's kernels multiply term by term, each counted as
    one product, as the operators would take it."""
    count = [0]
    mul = symbolic._Laurent.__mul__
    lie, dot = symbolic._laurent_lie, symbolic._laurent_dot

    def counting(a, b):
        product = mul(a, b)
        count[0] += product is not a
        return product

    def counting_lie(rows, branch, lists, width):
        for (trunk, b), k in rows.items():
            if branch[b]:
                count[0] += (k != 1) + sum(1 for c in lists[trunk] if c)
        return lie(rows, branch, lists, width)

    def counting_dot(values, weights):
        count[0] += sum(1 for v, w in zip(values, weights) if v and w and 1 not in (v, w))
        return dot(values, weights)

    monkeypatch.setattr(symbolic._Laurent, "__mul__", counting)
    monkeypatch.setattr(symbolic._Laurent, "__rmul__", counting)
    monkeypatch.setattr(symbolic, "_laurent_lie", counting_lie)
    monkeypatch.setattr(symbolic, "_laurent_dot", counting_dot)
    return count


def _count_domain_products(monkeypatch, solve, method):
    """Number of products that ``solve(method)`` takes in its scalar
    domain: of ints that start as :class:`test_stages._Counted` ints lifted
    from a rational series, or of Laurent values
    (:func:`_count_laurent_products`)."""
    _Counted.products = 0
    lift = graded._lift_int
    monkeypatch.setattr(graded, "_lift_int", lambda *args: _Counted(lift(*args)))
    count = _count_laurent_products(monkeypatch)
    solve(method)
    return count[0] + _Counted.products


@pytest.mark.parametrize(
    "name,bound", [("midpoint", 2289), ("rk4", 2367), ("rk22(alpha)", 2762)]
)
def test_modifying_integrator_multiplies_each_forest_once(monkeypatch, name, bound):
    # a count of coefficient products, not a time: one product per distinct
    # forest, plus one or two per row, counted on rk22(alpha) in its
    # Laurent domain (products per row of every component took 7,251 and
    # 26,299 for midpoint and rk4); the integer domain of midpoint and rk4
    # multiplies its rows out inline and only its forests through
    # series.coeff_mul
    count = _count_domain_products if name == "rk22(alpha)" else _count_products
    method = rk_series(builtin_tableau(name), 8)
    assert 0 < count(monkeypatch, modifying_integrator_series, method) <= bound


# The graded domains of the modified equation multiply their Lie terms
# inline, so the counts below are of the products of the domain's values.

@pytest.mark.parametrize("name,bound", [("midpoint", 43869), ("rk4", 29268)])
def test_modified_equation_product_count_at_order_10(monkeypatch, name, bound):
    # one product per nonzero (cut, Lie term) pair plus one per factorial
    method = rk_series(builtin_tableau(name), 10)
    count = _count_domain_products(monkeypatch, modified_equation_series, method)
    assert 0 < count <= bound


@pytest.mark.parametrize("name,bound", [("rk22(alpha)", 14422)])
def test_modified_equation_product_count_at_order_9(monkeypatch, name, bound):
    # one product per nonzero (cut, Lie term) pair plus one per factorial
    method = rk_series(builtin_tableau(name), 9)
    count = _count_domain_products(monkeypatch, modified_equation_series, method)
    assert 0 < count <= bound


def test_laurent_modified_equation_product_count_at_order_9(monkeypatch):
    # the Laurent domain's own products, held to the plain domain's bound;
    # a product by 1 returns its operand and builds nothing
    count = _count_laurent_products(monkeypatch)
    method = rk_series(builtin_tableau("rk22(alpha)"), 9)
    assert _count_products(monkeypatch, modified_equation_series, method) == 0
    assert 0 < count[0] <= 14422


@pytest.mark.parametrize(
    "solve,order,skips",
    [(modified_equation_series, 9, None), (modifying_integrator_series, 8, 7356)],
)
def test_rational_solves_skip_the_zero_terms_of_the_coefficient_path(solve, order, skips):
    # the integer domain skips the zero factors of the rows it walks; the
    # modified equation's count depends on the zeros its top-order fold
    # drops and is pinned in test_zero_skip_counts_stay_as_recorded
    method = rk_series(builtin_tableau("midpoint"), order)
    reset_zero_skip_count()
    solve(method)
    counted = zero_skip_count()
    assert counted > 0 and skips in (None, counted)
    reset_zero_skip_count()


@pytest.mark.parametrize("inner,bound", [("midpoint", 5143), ("rk4", 6128)])
def test_compose_multiplies_each_forest_once(monkeypatch, inner, bound):
    # compose(inner, rk4) at order 8, a count of the integer products of
    # its recursion over each tree's children: its values start as counted
    # ints lifted from both series, and every product one of them takes
    # part in is counted; multiplying every branch of every subtree split
    # took 10,693 products in both cases
    a, b = rk_series(builtin_tableau(inner), 8), rk_series(builtin_tableau("rk4"), 8)
    lift = graded._lift_int
    monkeypatch.setattr(graded, "_lift_int", lambda *args: _Counted(lift(*args)))
    _Counted.products = 0
    got = compose(a, b)
    assert 0 < _Counted.products <= bound
    monkeypatch.undo()
    assert got == compose(a, b)


def test_rk22_solves_never_widen_a_term_dict(monkeypatch):
    # every rk22(alpha) coefficient is over the one symbol tuple ("alpha",),
    # so no operation of its solves rewrites a term dict over more symbols
    widened = []
    widen = symbolic._widen

    def recording(symbols, terms, wider):
        if symbols != wider:
            widened.append((symbols, wider))
        return widen(symbols, terms, wider)

    monkeypatch.setattr(symbolic, "_widen", recording)
    symbol("alpha") + symbol("beta")  # the hook sees a widening when there is one
    assert (("alpha",), ("alpha", "beta")) in widened
    widened.clear()
    method = rk_series(builtin_tableau("rk22(alpha)"), 6)
    modified_equation_series(method)
    modifying_integrator_series(method)
    assert widened == []


def test_modified_equation_frozen_second_order_family():
    # the two-stage second-order family: h^2 and h^3 displayed corrections
    v = modified_equation_series(rk_series(builtin_tableau("rk22(alpha)"), 4))
    shown = {
        str(term.tree): (coeff_print(term.coefficient), term.h_power)
        for term in display_terms(v, reduce_order_by=1)
    }
    assert shown == {
        "[0]": ("1", 0),
        "[0,1,2]": ("-1/6", 2),
        "[0,1,1]": ("(-4*alpha + 3)/(24*alpha)", 2),
        "[0,1,2,3]": ("1/8", 3),
        "[0,1,2,2]": ("(2*alpha - 1)/(16*alpha)", 3),
        "[0,1,2,1]": ("(alpha - 1)/(8*alpha)", 3),
        "[0,1,1,1]": ("(2*alpha^2 - 3*alpha + 1)/(48*alpha^2)", 3),
    }


def test_modifying_integrator_needs_nonzero_first_weight():
    with pytest.raises(SingularMethodError):
        modifying_integrator_series(identity_series(3))


def test_perturbation_builders_reject_flow_kind_input():
    flow = random_flow_series(3, 70)
    with pytest.raises(SeriesError):
        modified_equation_series(flow)
    with pytest.raises(SeriesError):
        modifying_integrator_series(flow)


def test_zero_skipping_is_observable_but_harmless():
    # each solve skips zero terms and equals its row-by-row oracle, which
    # multiplies every term out
    method = rk_series(builtin_tableau("midpoint"), 6)
    trees = [t._levels for t in all_trees_up_to(6)]
    reset_zero_skip_count()
    assert modified_equation_series(method)._coeffs == modified_equation_rows(
        method._coeffs, 6, trees
    )
    assert zero_skip_count() > 0
    before = zero_skip_count()
    assert modifying_integrator_series(method)._coeffs == modifying_integrator_rows(
        method._coeffs, 6, trees
    )
    assert zero_skip_count() > before
    # Euler's series is zero on every tree but [0]; the exact flow has no
    # zero, so every skip is of a zero inner factor
    euler, exact = rk_series(builtin_tableau("euler"), 6), exact_series(6)
    before = zero_skip_count()
    assert compose(euler, exact)._coeffs == compose_rows(euler._coeffs, exact._coeffs, trees)
    assert zero_skip_count() > before
    reset_zero_skip_count()
    assert zero_skip_count() == 0


@pytest.mark.parametrize(
    "solve,name,order,skips",
    [
        ("me", "rk22(alpha)", 8, 396),
        ("me", "rk22(alpha)", 9, 1130),
        ("tableau-mi", "rk22(alpha)", 8, 64),
        ("me", "midpoint", 9, 1332),
        ("series-mi", "midpoint", 8, 7356),
        ("compose-exact", "euler", 8, 440),
    ],
)
def test_zero_skip_counts_stay_as_recorded(solve, name, order, skips):
    # the counts series.zero_skip_count() gave when they were recorded:
    # each skip is a term the solve did not multiply out, so a change of
    # the kernels that skips fewer (or more) zeros shows here
    tab = builtin_tableau(name)
    reset_zero_skip_count()
    if solve == "tableau-mi":
        modifying.modifying_integrator_of_tableau(tab, order)
    else:
        method = rk_series(tab, order)
        if solve == "me":
            modified_equation_series(method)
        elif solve == "series-mi":
            modifying_integrator_series(method)
        else:
            compose(method, exact_series(order))
    assert zero_skip_count() == skips
    reset_zero_skip_count()


# ---------------------------------------------------------------------------
# order of accuracy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,order", [("euler", 1), ("midpoint", 2), ("rk4", 4), ("rk22(alpha)", 2)]
)
def test_order_of_accuracy_of_builtins(name, order):
    series = rk_series(builtin_tableau(name), 5)
    assert series_order_of_accuracy(series) == order


def test_order_of_accuracy_edges():
    assert series_order_of_accuracy(exact_series(6)) == 6
    assert series_order_of_accuracy(identity_series(3)) == 0
    assert series_order_of_accuracy(random_flow_series(3, 80)) == 0
    assert series_order_of_accuracy(exact_series(6), 4) == 4
    with pytest.raises(SeriesError, match="cannot verify"):
        series_order_of_accuracy(exact_series(3), 5)


@pytest.mark.parametrize("max_check", [-1, -20, True, False, 2.0, "3"])
def test_order_of_accuracy_refuses_a_max_check_it_cannot_honour(max_check, monkeypatch):
    # refused before any walk starts: no tree of any order is built
    from bsharp import splits

    series = rk_series(builtin_tableau("rk4"), 4)

    def unborn(n):
        raise AssertionError(f"the trees of order {n} were built")

    monkeypatch.setattr(splits, "_born", unborn)
    with pytest.raises(SeriesError, match="max_check must be a non-negative integer"):
        series_order_of_accuracy(series, max_check)
    assert series_order_of_accuracy(series, 0) == 0


# ---------------------------------------------------------------------------
# display
# ---------------------------------------------------------------------------

def test_display_terms_convention():
    s = rk_series(builtin_tableau("midpoint"), 3)
    terms = display_terms(s)
    assert terms[0] == SeriesTerm(EMPTY_TREE, Fraction(1), 0)
    by_tree = {str(t): (c, p) for t, c, p in terms}
    # coefficient of the bushy tree is 1/4; displayed over sigma=2 as 1/8
    assert by_tree["[0,1,1]"] == (Fraction(1, 8), 3)
    # the order-3 chain weight is 0 for this method and is not displayed
    assert "[0,1,2]" not in by_tree


def test_display_terms_reduce_order_validation():
    flow = modified_equation_series(rk_series(builtin_tableau("euler"), 3))
    assert all(t.h_power == t.tree.order - 1 for t in display_terms(flow, 1))
    with pytest.raises(SeriesError, match="negative h power"):
        display_terms(flow, 2)
    with pytest.raises(SeriesError, match="nonzero empty"):
        display_terms(exact_series(3), 1)
    with pytest.raises(SeriesError, match="non-negative"):
        display_terms(flow, -1)


def test_format_series_text_snapshot():
    v = modified_equation_series(rk_series(builtin_tableau("euler"), 3))
    assert format_series(v, "text", 1) == (
        "1     h^0  F([0])\n"
        "-1/2  h^1  F([0,1])\n"
        "1/3   h^2  F([0,1,2])\n"
        "1/12  h^2  F([0,1,1])"
    )


def test_format_series_latex_snapshot():
    v = modified_equation_series(rk_series(builtin_tableau("euler"), 3))
    assert format_series(v, "latex", 1) == (
        r"F([0]) - \frac{1}{2} h F([0,1]) + \frac{1}{3} h^{2} F([0,1,2])"
        r" + \frac{1}{12} h^{2} F([0,1,1])"
    )


@pytest.mark.parametrize(
    "b,order,expected",
    [
        (["1 - beta", "0"], 1, r"y + \left(-\beta + 1\right) h F([0])"),
        (
            ["1", "beta"], 2,
            r"y + \left(\beta + 1\right) h F([0]) + \frac{\beta}{2} h^{2} F([0,1])",
        ),
    ],
    ids=["b=(1-beta,0)", "b=(1,beta)"],
)
def test_format_series_latex_groups_a_sum_coefficient(b, order, expected):
    # a coefficient of two or more terms is one factor of its term
    tab = tableau_from_json_dict(
        {"A": [["0", "0"], ["1/2", "0"]], "b": b, "c": ["0", "1/2"], "symbols": ["beta"]}
    )
    assert format_series(rk_series(tab, order), "latex") == expected


def test_format_series_empty_and_unknown():
    zero = TruncatedBSeries.from_function(2, Fraction(0), lambda t: Fraction(0))
    assert format_series(zero) == "0"
    with pytest.raises(ValueError):
        format_series(exact_series(2), "html")


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_json_round_trip_map_and_flow():
    for s in (
        rk_series(builtin_tableau("rk22(alpha)"), 4),
        modified_equation_series(rk_series(builtin_tableau("midpoint"), 4)),
    ):
        data = series_to_json_dict(s)
        again = series_from_json_dict(data)
        assert again == s
        # keys are written in (order, lex) order
        assert list(data["coefficients"]) == [str(t) for t in all_trees_up_to(4)]


def test_json_rejects_general_kind():
    s = TruncatedBSeries.from_function(1, Fraction(1, 2), lambda t: Fraction(0))
    with pytest.raises(SeriesError, match="map-kind .* and flow-kind"):
        series_to_json_dict(s)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("kind"), "missing"),
        (lambda d: d.update(kind="exact"), "must be"),
        (lambda d: d.update(max_order="2"), "integer"),
        (lambda d: d.update(max_order=True), "max_order must be an integer"),
        (lambda d: d.update(empty="1/2"), "contradicts"),
        (lambda d: d.update(coefficients=[]), "object"),
        (lambda d: d["coefficients"].pop("[0,1]"), "cover exactly"),
        (lambda d: d["coefficients"].update({"∅": "0"}), "empty tree"),
        (lambda d: d["coefficients"].update({"[0,1,2,3]": "0"}), "cover exactly"),
    ],
)
def test_json_error_paths(mutate, fragment):
    data = series_to_json_dict(exact_series(3))
    mutate(data)
    with pytest.raises(SeriesError, match=fragment):
        series_from_json_dict(data)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d["coefficients"].update({"[0,1]": None}),
         r'coefficients\["\[0,1\]"\] must be a coefficient string or an integer, got null'),
        (lambda d: d.update(empty=True), "empty must be .* got true"),
        (lambda d: d["coefficients"].update({"[0]": False}), "got false"),
        (lambda d: d["coefficients"].update({"[0]": 1.0}), "got 1.0"),
        (lambda d: d["coefficients"].update({"[0]": {}}), "got {}"),
    ],
)
def test_json_coefficients_are_strings_or_integers(mutate, fragment):
    # null, true and false once read as the symbols None, True and False
    data = series_to_json_dict(exact_series(3))
    mutate(data)
    with pytest.raises(SeriesError, match=fragment):
        series_from_json_dict(data)


def test_json_reads_integer_coefficients():
    data = series_to_json_dict(exact_series(2))
    data.update(empty=1, coefficients={"[0]": 1, "[0,1]": "1/2"})
    assert series_from_json_dict(data) == exact_series(2)


def test_json_rejects_two_spellings_of_one_tree():
    # [0,1,1,2] canonicalizes to [0,1,2,1], which the table already names
    data = series_to_json_dict(exact_series(4))
    data["coefficients"]["[0,1,1,2]"] = "0"
    with pytest.raises(SeriesError, match="duplicate"):
        series_from_json_dict(data)


def test_json_accepts_symbolic_coefficients():
    data = series_to_json_dict(rk_series(builtin_tableau("rk22(alpha)"), 3))
    assert data["coefficients"]["[0,1,1]"] == "1/(4*alpha)"
    restored = series_from_json_dict(data)
    assert restored[T("[0,1,1]")] == 1 / (4 * symbol("alpha"))
