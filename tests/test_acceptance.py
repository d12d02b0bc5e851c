"""Acceptance suite.

Each test exercises one criterion end to end against independently
constructed expected values — closed forms, brute-force oracles, or
hand-expanded fixtures — and asserts a wall-clock budget where one is
part of the criterion.  conftest.py turns the results into a
per-criterion PASS/FAIL summary at the end of the run.
"""

from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
import math
import random
import time
import warnings

from bsharp import (
    ButcherTableau,
    SimulationPlan,
    TruncatedBSeries,
    builtin_tableau,
    canonicalize,
    coeff_parse,
    compose,
    count_trees,
    display_terms,
    elementary_weight,
    eval_expression,
    exact_series,
    identity_series,
    modified_equation_series,
    modifying_integrator_series,
    parse_ode,
    parse_tree,
    rk_series,
    run_simulation,
    scale_step,
    series_order_of_accuracy,
    series_vector_field,
    substitute,
    trees_of_order,
)
from bsharp.odes import DiffCache
from bsharp.series import reset_zero_skip_count, zero_skip_count
from bsharp.splits import clear_split_caches, ordered_subtrees, partitions
from bsharp.tableaux import RowSumWarning
from bsharp.trees import EMPTY_TREE, all_trees_up_to, clear_tree_caches

from oracles import (
    elementary_weight_bruteforce,
    levels_to_shape,
    modified_equation_rows,
    modifying_integrator_rows,
    shapes_of_order,
)

T = parse_tree

OSCILLATOR = "vars p, q; p' = -q/(p^2 + q^2); q' = p/(p^2 + q^2)"
PREDATOR_PREY = "vars p, q; p' = (2 - q)*p; q' = (p - 1)*q"


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"ran {elapsed:.2f}s against a {seconds:g}s budget"


def random_rational_tableau(stages, seed):
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-3, 6), rng.randint(1, 4))

    A = [[entry() for _ in range(stages)] for _ in range(stages)]
    b = [entry() for _ in range(stages)]
    c = [sum(row[1:], start=row[0]) for row in A]
    return ButcherTableau(A, b, c)


def flow_value(rows, point, h):
    """Evaluate per-degree field rows at an exact point; degree d carries
    the step weight h**(d-1), the grading of a perturbed right-hand side."""
    out = []
    for comp in rows:
        acc = Fraction(0)
        for degree, expr in comp:
            if degree == 0:
                continue
            acc += Fraction(eval_expression(expr, point)) * h ** (degree - 1)
        out.append(acc)
    return tuple(out)


def positive_point(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 7))


# ---------------------------------------------------------------------------
# 1. the classic property table for the eight smallest tree shapes
# ---------------------------------------------------------------------------

PROPERTY_ROWS = [
    # levels, order, symmetry, density
    ((0,), 1, 1, 1),
    ((0, 1), 2, 1, 2),
    ((0, 1, 1), 3, 2, 3),
    ((0, 1, 2), 3, 1, 6),
    ((0, 1, 1, 1), 4, 6, 4),
    ((0, 1, 2, 1), 4, 1, 8),
    ((0, 1, 2, 2), 4, 2, 12),
    ((0, 1, 2, 3), 4, 1, 24),
]


def test_criterion_01_tree_properties_and_weights():
    with budget(1.0):
        tab = random_rational_tableau(3, seed=2026)
        for levels, order, symmetry, density in PROPERTY_ROWS:
            tree = canonicalize(levels)
            assert tree.levels == levels  # the listed sequences are canonical
            assert (tree.order, tree.symmetry(), tree.density()) == (
                order,
                symmetry,
                density,
            )
            expected = elementary_weight_bruteforce(tab.A, tab.b, tree.levels)
            assert elementary_weight(tab, tree) == expected


# ---------------------------------------------------------------------------
# 2. enumeration: counts through order 9, full listings through order 4
# ---------------------------------------------------------------------------

def test_criterion_02_counts_and_listings():
    with budget(5.0):
        assert [count_trees(n) for n in range(1, 10)] == [1, 1, 2, 4, 9, 20, 48, 115, 286]
        for n in range(1, 10):
            generated = list(trees_of_order(n))
            assert len(generated) == count_trees(n)
            # not just the right count: the same set of shapes as the
            # multiset-of-subtrees recursion
            assert {levels_to_shape(t.levels) for t in generated} == set(shapes_of_order(n))
        listings = {
            1: {"[0]"},
            2: {"[0,1]"},
            3: {"[0,1,1]", "[0,1,2]"},
            4: {"[0,1,1,1]", "[0,1,2,2]", "[0,1,2,1]", "[0,1,2,3]"},
        }
        for n, texts in listings.items():
            assert set(trees_of_order(n)) == {T(s) for s in texts}


# ---------------------------------------------------------------------------
# 3. both split families of [0,1,2,1,2], as multisets
# ---------------------------------------------------------------------------

# all 16 partition splits, as (forest, skeleton, multiplicity)
PARTITION_TABLE = [
    (["[0,1,2,1,2]"], "[0]", 1),
    (["[0,1]", "[0,1,2]"], "[0,1]", 2),
    (["[0]", "[0,1,2,1]"], "[0,1]", 2),
    (["[0]", "[0,1]", "[0,1]"], "[0,1,1]", 3),
    (["[0]", "[0]", "[0,1,1]"], "[0,1,1]", 1),
    (["[0]", "[0]", "[0,1,2]"], "[0,1,2]", 2),
    (["[0]", "[0]", "[0]", "[0,1]"], "[0,1,2,1]", 4),
    (["[0]", "[0]", "[0]", "[0]", "[0]"], "[0,1,2,1,2]", 1),
]

# all 10 ordered-subtree splits, as (kept root part, forest, multiplicity)
SUBTREE_TABLE = [
    ("[0]", ["[0,1]", "[0,1]"], 1),
    ("[0,1]", ["[0]", "[0,1]"], 2),
    ("[0,1,1]", ["[0]", "[0]"], 1),
    ("[0,1,2]", ["[0,1]"], 2),
    ("[0,1,2,1]", ["[0]"], 2),
    ("[0,1,2,1,2]", [], 1),
    (None, ["[0,1,2,1,2]"], 1),
]


def test_criterion_03_split_multisets():
    with budget(1.0):
        tree = T("[0,1,2,1,2]")

        got = Counter((s.skeleton, tuple(s.forest)) for s in partitions(tree))
        want = Counter()
        for forest, skeleton, multiplicity in PARTITION_TABLE:
            key = (T(skeleton), tuple(sorted(T(f) for f in forest)))
            want[key] += multiplicity
        assert got == want
        assert sum(got.values()) == 16

        got = Counter(
            (None if s.subtree.is_empty else s.subtree, tuple(s.forest))
            for s in ordered_subtrees(tree)
        )
        want = Counter()
        for kept, forest, multiplicity in SUBTREE_TABLE:
            key = (
                None if kept is None else T(kept),
                tuple(sorted(T(f) for f in forest)),
            )
            want[key] += multiplicity
        assert got == want
        assert sum(got.values()) == 10


# ---------------------------------------------------------------------------
# 4. the one-parameter two-stage family: only bushy trees survive
# ---------------------------------------------------------------------------

TWO_STAGE_DISPLAY = [
    ("[0]", "1", 1),
    ("[0,1]", "1/2", 2),
    ("[0,1,1]", "1/(8*alpha)", 3),
    ("[0,1,1,1]", "1/(48*alpha^2)", 4),
    ("[0,1,1,1,1]", "1/(384*alpha^3)", 5),
]


def test_criterion_04_two_stage_family_series():
    with budget(1.0):
        series = rk_series(builtin_tableau("rk22(alpha)"), 5)
        assert series.kind == "map"
        terms = {t.tree: t for t in display_terms(series)}
        assert terms[EMPTY_TREE].coefficient == 1
        # exactly the five listed terms are nonzero
        assert len(terms) == len(TWO_STAGE_DISPLAY) + 1
        for text, value, power in TWO_STAGE_DISPLAY:
            term = terms[T(text)]
            assert term.coefficient == coeff_parse(value)
            assert term.h_power == power


# ---------------------------------------------------------------------------
# 5. composing two family members with halved steps
# ---------------------------------------------------------------------------

def test_criterion_05_composition_of_half_steps():
    with budget(1.0):
        inner = rk_series(builtin_tableau("rk22(alpha1)"), 3)
        outer = rk_series(builtin_tableau("rk22(alpha2)"), 3)
        composite = compose(inner, outer, normalize_stepsize=True)
        disp = {t.tree: t.coefficient for t in display_terms(composite)}
        assert disp[T("[0]")] == 1
        assert disp[T("[0,1]")] == coeff_parse("1/2")
        assert disp[T("[0,1,2]")] == coeff_parse("1/8")
        assert disp[T("[0,1,1]")] == coeff_parse("1/8 + 1/(64*alpha1) + 1/(64*alpha2)")
        # the chain coefficient 1/8 differs from the exact flow's 1/6 no
        # matter how the parameters are chosen, so the order stays two
        assert series_order_of_accuracy(composite) == 2


# ---------------------------------------------------------------------------
# 6. perturbed field reproducing the two-stage family, through h^3
# ---------------------------------------------------------------------------

TWO_STAGE_MODIFIED = [
    ("[0]", "1", 0),
    ("[0,1,1]", "(-4*alpha + 3)/(24*alpha)", 2),
    ("[0,1,2]", "-1/6", 2),
    ("[0,1,1,1]", "(2*alpha^2 - 3*alpha + 1)/(48*alpha^2)", 3),
    ("[0,1,2,1]", "(alpha - 1)/(8*alpha)", 3),
    ("[0,1,2,2]", "(2*alpha - 1)/(16*alpha)", 3),
    ("[0,1,2,3]", "1/8", 3),
]


def test_criterion_06_two_stage_modified_equation():
    with budget(1.0):
        series = modified_equation_series(rk_series(builtin_tableau("rk22(alpha)"), 4))
        terms = display_terms(series, reduce_order_by=1)
        assert len(terms) == 7
        by_tree = {t.tree: t for t in terms}
        for text, value, power in TWO_STAGE_MODIFIED:
            term = by_tree[T(text)]
            assert term.coefficient == coeff_parse(value)
            assert term.h_power == power


# ---------------------------------------------------------------------------
# 7. Euler on the predator-prey system: first-order perturbed field
# ---------------------------------------------------------------------------

def test_criterion_07_euler_predator_prey_modified_equation():
    with budget(1.0):
        system = parse_ode(PREDATOR_PREY)
        series = modified_equation_series(rk_series(builtin_tableau("euler"), 2))
        rows = series_vector_field(series, system)
        rng = random.Random(7)
        for _ in range(5):
            p = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            h = Fraction(rng.randint(1, 9), rng.randint(1, 7))
            # the hand-expanded first-order correction of the field
            want_p = p * (h * (q * (p - 1) - (q - 2) ** 2) - 2 * q + 4) / 2
            want_q = q * (h * (p * (q - 2) - (p - 1) ** 2) + 2 * p - 2) / 2
            assert flow_value(rows, (p, q), h) == (want_p, want_q)


# ---------------------------------------------------------------------------
# 8. midpoint on the nonlinear oscillator: f times an even series in
#    z = h/(p^2+q^2)
# ---------------------------------------------------------------------------

def test_criterion_08_midpoint_oscillator_modified_equation():
    with budget(60.0):
        system = parse_ode(OSCILLATOR)
        series = modified_equation_series(rk_series(builtin_tableau("midpoint"), 9))
        rows = series_vector_field(series, system, DiffCache(system))
        scale = [
            Fraction(1),
            Fraction(0),
            Fraction(-1, 12),
            Fraction(0),
            Fraction(1, 80),
            Fraction(0),
            Fraction(-1, 448),
            Fraction(0),
            Fraction(1, 2304),
        ]
        rng = random.Random(8)
        for _ in range(5):
            p, q, h = positive_point(rng), positive_point(rng), positive_point(rng)
            s = p * p + q * q
            z = h / s
            factor = sum(scale[k] * z**k for k in range(9))
            want = (-q / s * factor, p / s * factor)
            assert flow_value(rows, (p, q), h) == want


# ---------------------------------------------------------------------------
# 9. midpoint on the nonlinear oscillator, the other direction: the
#    perturbed field fed *to* the method is no longer parallel to f
# ---------------------------------------------------------------------------

def test_criterion_09_midpoint_oscillator_modifying_integrator():
    with budget(120.0):
        system = parse_ode(OSCILLATOR)
        series = modifying_integrator_series(rk_series(builtin_tableau("midpoint"), 8))
        rows = series_vector_field(series, system, DiffCache(system))
        rng = random.Random(9)
        for _ in range(5):
            p, q, h = positive_point(rng), positive_point(rng), positive_point(rng)
            s = p * p + q * q
            z = h / s
            f = (-q / s, p / s)

            # through degree 5 the field is f scaled by an even polynomial
            low_factor = 1 + z**2 / 12 + z**4 / 20
            low = tuple(
                sum(
                    (
                        Fraction(eval_expression(expr, (p, q))) * h ** (d - 1)
                        for d, expr in comp
                        if 1 <= d <= 5
                    ),
                    start=Fraction(0),
                )
                for comp in rows
            )
            assert low == (f[0] * low_factor, f[1] * low_factor)

            # degrees 6..8 extend the scaling and add a radial component
            factor = low_factor + Fraction(127, 2016) * z**6
            radial = h**5 / (48 * s**6) + 31 * h**7 / (640 * s**8)
            want = (f[0] * factor + p * radial, f[1] * factor + q * radial)
            assert flow_value(rows, (p, q), h) == want


# ---------------------------------------------------------------------------
# 10. sixteen of the twenty order-6 coefficients are nonzero, yet their
#     combined h^5 field term vanishes on the oscillator
# ---------------------------------------------------------------------------

def test_criterion_10_fifth_power_cancellation():
    with budget(30.0):
        system = parse_ode(OSCILLATOR)
        series = modified_equation_series(rk_series(builtin_tableau("midpoint"), 6))
        order6 = list(trees_of_order(6))
        assert len(order6) == 20
        nonzero = [t for t in order6 if series[t]]
        assert len(nonzero) == 16
        rows = series_vector_field(series, system, DiffCache(system))
        rng = random.Random(10)
        for _ in range(5):
            point = (positive_point(rng), positive_point(rng))
            for comp in rows:
                degree, expr = comp[6]
                assert degree == 6
                assert Fraction(eval_expression(expr, point)) == 0


# ---------------------------------------------------------------------------
# 11. the two solve/substitute round trips, plus unit and group laws
# ---------------------------------------------------------------------------

def test_criterion_11_round_trips_and_group_laws():
    with budget(60.0):
        e6 = exact_series(6)
        ident = identity_series(6)
        unit = TruncatedBSeries.from_function(
            6, Fraction(0), lambda t: Fraction(1) if t.order == 1 else Fraction(0)
        )

        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            rng = random.Random(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RowSumWarning)
                tab = random_rational_tableau(rng.randint(1, 4), seed * 31)
            if sum(tab.b, start=Fraction(0)) == 0:
                # the modifying construction divides by the single-node
                # coefficient; reroll the rare degenerate draw
                continue
            u = rk_series(tab, 6)
            assert substitute(modified_equation_series(u), e6) == u
            assert substitute(modifying_integrator_series(u), u) == e6
            assert substitute(unit, u) == u
            assert compose(ident, u) == u
            assert compose(u, ident) == u
            checked += 1

        # the unit absorbs on the right as well
        v = modified_equation_series(rk_series(builtin_tableau("rk4"), 6))
        assert substitute(v, unit) == v

        # unequal splits of the exact flow compose back to the exact flow
        for a in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
            assert compose(scale_step(e6, a), scale_step(e6, 1 - a)) == e6


# ---------------------------------------------------------------------------
# 12. scalar linear ODE: closed-form coefficient oracles for Euler
# ---------------------------------------------------------------------------

def test_criterion_12_scalar_linear_oracles():
    euler6 = rk_series(builtin_tableau("euler"), 6)
    modified = modified_equation_series(euler6)
    modifying = modifying_integrator_series(euler6)

    # x^n coefficient of log(1+x), and x^(n-1) coefficient of (e^x - 1)/x
    log_series = {n: Fraction((-1) ** (n + 1), n) for n in range(1, 7)}
    exp_shifted = {n: Fraction(1, math.factorial(n)) for n in range(1, 7)}

    for n in range(1, 7):
        tall = T("[" + ",".join(str(k) for k in range(n)) + "]")
        assert modified[tall] == log_series[n]
        assert modifying[tall] == exp_shifted[n]

    # every branching tree differentiates to zero on a linear field, so
    # each degree slot of the expanded field collapses to the tall-tree
    # coefficient times lam^n
    system = parse_ode("vars y; param lam = 3/7; y' = lam*y")
    lam = Fraction(3, 7)
    rows_modified = series_vector_field(modified, system)
    rows_modifying = series_vector_field(modifying, system)
    for n in range(1, 7):
        degree, expr = rows_modified[0][n]
        assert degree == n
        assert Fraction(eval_expression(expr, (Fraction(1),))) == log_series[n] * lam**n
        degree, expr = rows_modifying[0][n]
        assert Fraction(eval_expression(expr, (Fraction(1),))) == exp_shifted[n] * lam**n


# ---------------------------------------------------------------------------
# 13. long simulations stay on the circle and follow the closed form
# ---------------------------------------------------------------------------

def test_criterion_13_energy_conservation():
    with budget(5.0):
        system = parse_ode(OSCILLATOR)
        mid = builtin_tableau("midpoint")
        for h in (0.1, 0.5, 1.0):
            plan = SimulationPlan(
                tableau=mid,
                system=system,
                step=h,
                t_max=1000 * h,
                initial=(1.0, 0.0),
            )
            rows = run_simulation(plan)
            assert len(rows) == 1001
            theta = math.acos((1 - h * h / 4) / (1 + h * h / 4))
            for n, (_, (p, q)) in enumerate(rows):
                assert abs(math.hypot(p, q) - 1.0) <= 1e-12
                assert abs(p - math.cos(n * theta)) <= 1e-10
                assert abs(q - math.sin(n * theta)) <= 1e-10


# ---------------------------------------------------------------------------
# 14. runtime: order-9 coefficient work finishes quickly even from cold
#     caches, and the modifying direction is not much slower than the
#     modified one
# ---------------------------------------------------------------------------

def test_criterion_14_order_nine_runtime():
    clear_split_caches()
    clear_tree_caches()
    mid = builtin_tableau("midpoint")

    start = time.perf_counter()
    series9 = rk_series(mid, 9)
    modified = modified_equation_series(series9)
    total = sum((c for _, c in modified.items()), start=Fraction(0))
    cold = time.perf_counter() - start
    assert total == Fraction(19063, 26880)
    assert cold < 5.0, f"cold run took {cold:.2f}s"

    def best_of(fn, repeats=3):
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    warm_modified = best_of(lambda: modified_equation_series(series9))
    warm_modifying = best_of(lambda: modifying_integrator_series(series9))
    assert warm_modifying <= 3 * warm_modified, (
        f"modifying {warm_modifying:.3f}s vs modified {warm_modified:.3f}s"
    )


# ---------------------------------------------------------------------------
# 15. the zero-skeleton shortcut changes nothing observable
# ---------------------------------------------------------------------------

def test_criterion_15_zero_skeleton_skip_invisible():
    # the solves skip zero terms; the row-by-row oracles, which share no
    # kernel with them, multiply every term out, zero factors too
    mid8 = rk_series(builtin_tableau("midpoint"), 8)
    mid9 = rk_series(builtin_tableau("midpoint"), 9)

    reset_zero_skip_count()
    fast_modified = modified_equation_series(mid9)
    fast_modifying = modifying_integrator_series(mid8)
    assert zero_skip_count() > 0  # the shortcut actually fires here
    reset_zero_skip_count()

    def trees(order):
        return [t._levels for t in all_trees_up_to(order)]

    assert fast_modified._coeffs == modified_equation_rows(mid9._coeffs, 9, trees(9))
    assert fast_modifying._coeffs == modifying_integrator_rows(mid8._coeffs, 8, trees(8))
