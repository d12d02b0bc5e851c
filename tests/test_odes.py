import gc
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from bsharp import expressions_extra
from bsharp.errors import ParseError, UnboundSymbolError
from bsharp.expressions import (
    Const,
    Prod,
    add_all,
    const,
    eval_expression,
    format_expression,
    mul_all,
    power,
    variable,
)
from bsharp.expressions_extra import format_expressions
from bsharp.odes import DiffCache, elementary_differential, parse_ode, series_vector_field
from bsharp.series import modified_equation_series
from bsharp.tableaux import builtin_tableau, rk_series
from bsharp.splits import clear_split_caches
from bsharp.trees import all_trees_up_to, parse_tree, trees_of_order

from oracles import (
    DiffCacheByLevels,
    DiffCacheProductExpansion,
    elementary_differential_bruteforce,
    format_expression_tree_walk,
    symmetry_by_levels,
)

LV = "vars p, q\np' = (2 - q)*p\nq' = (p - 1)*q\n"
OSC = "vars p, q\np' = -q/(p^2 + q^2)\nq' = p/(p^2 + q^2)\n"
# the cubic systems of the benchmark's field workload, in dimensions 3 and 4
CUBIC3 = "vars a, b, c; a' = 1/2*b - 1/3*a*c*b; b' = -1/2*c + 1/3*b*a; c' = 1/2*a - 1/3*c*b"
CUBIC4 = (
    "vars a, b, c, d; a' = 1/2*b - 1/3*a*c*b; b' = -1/2*c + 1/3*b*d; "
    "c' = 1/2*d - 1/3*c*a; d' = -1/2*a + 1/3*d*b"
)
# a zero component, and components whose partials vanish at different depths
SPARSE = "vars p, q, r; p' = 0; q' = p*q; r' = q^2 - r"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_basic_system():
    sys = parse_ode(LV)
    assert sys.variables == ("p", "q")
    assert sys.dimension == 2
    assert sys.parameters == {}
    assert sys.rhs_text() == ("p*(-q + 2)", "q*(p - 1)")


def test_parse_semicolons_comments_params():
    text = (
        "# two-species model\n"
        "vars p, q  # declaration\n"
        "param a = 3/4; param b = 2^2\n"
        "p' = a*p; q' = -b*q\n"
    )
    sys = parse_ode(text)
    assert sys.parameters == {"a": Fraction(3, 4), "b": Fraction(4)}
    assert sys.rhs_text() == ("3/4*p", "-4*q")


def test_params_substitute_into_equations():
    sys = parse_ode("vars y\nparam lam = -2/3\ny' = lam*y\n")
    assert eval_expression(sys.rhs[0], (Fraction(3),)) == Fraction(-2)


@pytest.mark.parametrize(
    "text,fragment,line,column",
    [
        ("p' = q", "vars declaration must come first", 1, 1),
        ("vars p\np' = 1; p' = 2", "duplicate equation", 2, 9),
        ("vars p\np' = r", "unknown identifier 'r'", 2, 6),
        ("vars p, q\np' = q\nx' = 1", "undeclared variable 'x'", 3, 1),
        ("vars p, p\np' = 1", "duplicate variable", 1, 1),
        ("vars p\nparam p = 1\np' = 1", "name 'p' is taken", 2, 1),
        ("vars param\nparam' = 1", "reserved word", 1, 1),
        ("vars p\nparam a = 1/0\np' = a", "division by zero", 2, 12),
        ("vars p\np' = p^p", "exponent must be an integer", 2, 8),
        ("vars p\np' = (1 + ", "expected", 2, 10),
    ],
)
def test_parse_errors_are_positioned(text, fragment, line, column):
    with pytest.raises(ParseError) as exc_info:
        parse_ode(text)
    err = exc_info.value
    assert fragment in str(err)
    assert err.line == line
    assert err.column == column


def test_parse_requires_every_equation():
    with pytest.raises(ParseError, match="missing equation for 'q'"):
        parse_ode("vars p, q\np' = q\n")
    with pytest.raises(ParseError, match="missing vars"):
        parse_ode("# nothing here\n")


def test_variable_named_varsx_is_fine():
    sys = parse_ode("vars varsx\nvarsx' = varsx\n")
    assert sys.variables == ("varsx",)


# ---------------------------------------------------------------------------
# elementary differentials
# ---------------------------------------------------------------------------

def _random_points(seed, count, dim):
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(dim))
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "source,max_order,seed", [(LV, 5, 11), (OSC, 4, 12)]
)
def test_elementary_differentials_match_bruteforce(source, max_order, seed):
    system = parse_ode(source)
    cache = DiffCache(system)
    points = _random_points(seed, 5, system.dimension)
    for tree in all_trees_up_to(max_order):
        ours = cache.elementary(tree)
        ref = elementary_differential_bruteforce(system, tree.levels)
        for j in range(system.dimension):
            for pt in points:
                assert eval_expression(ours[j], pt) == eval_expression(ref[j], pt)


@pytest.mark.parametrize("source", [LV, OSC])
def test_first_derivative_tree_matches_finite_differences(source):
    system = parse_ode(source)
    cache = DiffCache(system)
    y = (0.7, 1.3)
    f = [eval_expression(r, y) for r in system.rhs]
    delta = 1e-5

    def rhs_at(t):
        shifted = tuple(y[j] + t * f[j] for j in range(2))
        return [eval_expression(r, shifted) for r in system.rhs]

    plus, minus = rhs_at(delta), rhs_at(-delta)
    chain = cache.elementary(parse_tree("[0,1]"))
    bush = cache.elementary(parse_tree("[0,1,1]"))
    center = rhs_at(0.0)
    for j in range(2):
        fd1 = (plus[j] - minus[j]) / (2 * delta)
        assert eval_expression(chain[j], y) == pytest.approx(fd1, abs=1e-6)
        fd2 = (plus[j] - 2 * center[j] + minus[j]) / delta**2
        assert eval_expression(bush[j], y) == pytest.approx(fd2, rel=1e-4, abs=1e-4)


@pytest.mark.parametrize("source", [LV, OSC, CUBIC3, CUBIC4])
def test_elementary_matches_the_product_expansion(source):
    # zero-prefix pruning leaves out only terms that are zero, so every
    # differential is the very node the full n^m expansion interns
    system = parse_ode(source)
    cache, oracle = DiffCache(system), DiffCacheProductExpansion(system)
    for tree in all_trees_up_to(6):
        ours, ref = cache.elementary(tree), oracle.elementary(tree)
        assert all(a is b for a, b in zip(ours, ref, strict=True))


# the differentials built from their children's ids against the
# level-sequence recursion they replaced: the same interned nodes, and the
# same builds

@pytest.mark.parametrize(
    "source", [LV, OSC, CUBIC3, CUBIC4, SPARSE], ids=["lv", "osc", "cubic3", "cubic4", "sparse"]
)
def test_differentials_by_id_are_the_level_sequence_dag(source):
    system = parse_ode(source)
    cache, oracle = DiffCache(system), DiffCacheByLevels(system)
    for tree in all_trees_up_to(8):
        ours, ref = cache.elementary(tree), oracle.elementary(tree)
        assert all(a is b for a, b in zip(ours, ref, strict=True)), tree
    assert (cache.tree_builds, cache.tensor_builds) == (oracle.tree_builds, oracle.tensor_builds)


@pytest.mark.parametrize("source", [LV, OSC, CUBIC3, SPARSE], ids=["lv", "osc", "cubic3", "sparse"])
def test_a_field_by_id_is_the_level_sequence_field(source):
    # its top order is built from the children's ids alone, unindexed
    system = parse_ode(source)
    flow = modified_equation_series(rk_series(builtin_tableau("midpoint"), 8))
    cache, oracle = DiffCache(system), DiffCacheByLevels(system)
    field = series_vector_field(flow, system, cache)
    for order in range(1, 9):
        weighted = [
            (const(flow[t] / symmetry_by_levels(t._levels)), oracle.elementary(t))
            for t in trees_of_order(order) if flow[t]
        ]
        for j, component in enumerate(field):
            degree, sum_j = component[order]
            assert degree == order
            assert sum_j is add_all([mul_all((w, f[j])) for w, f in weighted])
    assert (cache.tree_builds, cache.tensor_builds) == (oracle.tree_builds, oracle.tensor_builds)


@pytest.mark.parametrize("source", [LV, OSC, CUBIC3], ids=["lv", "osc", "cubic3"])
def test_differentials_by_id_match_the_bruteforce_at_a_rational_point(source):
    system = parse_ode(source)
    cache = DiffCache(system)
    point = [Fraction(3, 7), Fraction(-5, 4), Fraction(2, 9)][: system.dimension]
    for tree in all_trees_up_to(6):
        ours = cache.elementary(tree)
        ref = elementary_differential_bruteforce(system, tree.levels)
        assert [eval_expression(e, point) for e in ours] == [
            eval_expression(e, point) for e in ref
        ], tree


def test_a_cache_outlives_a_cleared_index():
    # a cleared index gives its ids to other trees; the cache keeps what it
    # built by level sequence, so the same trees cost no new builds
    system = parse_ode(LV)
    cache, oracle = DiffCache(system), DiffCacheByLevels(system)
    first = list(all_trees_up_to(5))
    for tree in first:
        cache.elementary(tree)
    builds = cache.tree_builds
    clear_split_caches()
    for tree in reversed(first):
        assert all(a is b for a, b in zip(cache.elementary(tree), oracle.elementary(tree)))
    assert cache.tree_builds == builds
    # the field of an order-5 series reads the order-5 differentials kept
    clear_split_caches()
    flow = modified_equation_series(rk_series(builtin_tableau("midpoint"), 5))
    field = series_vector_field(flow, system, cache)
    assert cache.tree_builds == builds
    fresh = series_vector_field(flow, system, DiffCache(system))
    assert all(a is b for ours, ref in zip(field, fresh, strict=True)
               for (_, a), (_, b) in zip(ours, ref, strict=True))


def test_elementary_builds_only_the_tensors_it_reaches():
    # the order-8 midpoint modified field of the 4-dim cubic system; the
    # full n^m expansion builds 840 partial-derivative tensors for it
    system = parse_ode(CUBIC4)
    cache = DiffCache(system)
    flow = modified_equation_series(rk_series(builtin_tableau("midpoint"), 8))
    series_vector_field(flow, system, cache)
    assert cache.tree_builds == 191
    assert cache.tensor_builds == 82


def test_diff_cache_counters_and_reuse():
    system = parse_ode(LV)
    cache = DiffCache(system)
    first = cache.partial(0, (1, 0))
    builds = cache.tensor_builds
    assert cache.partial(0, (0, 1)) is first  # index order is immaterial
    assert cache.tensor_builds == builds

    cache.elementary(parse_tree("[0,1,2]"))
    trees = cache.tree_builds
    cache.elementary(parse_tree("[0,1,2]"))
    assert cache.tree_builds == trees


def test_a_field_reads_the_top_order_differentials_a_cache_holds():
    # every order-6 differential, and through them every one below, is
    # built once; the order-6 field then builds none of them again
    system = parse_ode(LV)
    cache = DiffCache(system)
    for tree in trees_of_order(6):
        cache.elementary(tree)
    assert cache.tree_builds == 37
    flow = modified_equation_series(rk_series(builtin_tableau("midpoint"), 6))
    field = series_vector_field(flow, system, cache)
    assert cache.tree_builds == 37
    fresh = series_vector_field(flow, system, DiffCache(system))
    assert all(a is b for ours, ref in zip(field, fresh, strict=True)
               for (_, a), (_, b) in zip(ours, ref, strict=True))


def test_one_shot_helper_checks_cache_ownership():
    lv, osc = parse_ode(LV), parse_ode(OSC)
    cache = DiffCache(lv)
    tree = parse_tree("[0,1]")
    assert elementary_differential(lv, tree, cache) == cache.elementary(tree)
    with pytest.raises(ValueError):
        elementary_differential(osc, tree, cache)


# ---------------------------------------------------------------------------
# expanding a series over a system
# ---------------------------------------------------------------------------

def test_linear_system_collapses_to_log_series():
    # for y' = lam*y every order-n elementary differential is lam^n * y, so
    # the order-n slot of the perturbed euler field must carry the x^n/n
    # alternating harmonic weight
    system = parse_ode("vars y\nparam lam = 3/7\ny' = lam*y\n")
    series = modified_equation_series(rk_series(builtin_tableau("euler"), 6))
    terms = series_vector_field(series, system)[0]
    lam = Fraction(3, 7)
    for degree, expr in terms:
        value = eval_expression(expr, (Fraction(1),))
        if degree == 0:
            assert value == 0
        else:
            assert value == Fraction((-1) ** (degree + 1)) * lam**degree / degree


def test_map_series_gets_identity_part():
    system = parse_ode("vars y\ny' = y\n")
    series = rk_series(builtin_tableau("euler"), 2)
    terms = series_vector_field(series, system)[0]
    assert eval_expression(terms[0][1], (Fraction(5),)) == Fraction(5)  # empty-tree slot
    assert eval_expression(terms[1][1], (Fraction(5),)) == Fraction(5)
    assert eval_expression(terms[2][1], (Fraction(5),)) == 0


def test_unbound_tableau_symbol_is_an_error():
    system = parse_ode("vars y\ny' = y\n")
    series = rk_series(builtin_tableau("rk22(alpha)"), 3)
    with pytest.raises(UnboundSymbolError):
        series_vector_field(series, system)


def test_series_field_rejects_foreign_cache():
    system = parse_ode(LV)
    series = rk_series(builtin_tableau("euler"), 3)
    with pytest.raises(ValueError):
        series_vector_field(series, system, DiffCache(parse_ode(OSC)))


# ---------------------------------------------------------------------------
# printing modified fields
# ---------------------------------------------------------------------------

def step_fields(source, order):
    """The midpoint modified field of order ``order``, with the step as one
    more variable, as ``modified-equation --ode-text`` prints it."""
    system = parse_ode(source)
    flow = modified_equation_series(rk_series(builtin_tableau("midpoint"), order))
    h = variable(system.dimension)
    fields = [
        add_all([mul_all((power(h, degree - 1), expr)) for degree, expr in component if degree])
        for component in series_vector_field(flow, system)
    ]
    return system.variables + ("h",), fields


@pytest.mark.parametrize("source", [OSC, CUBIC3, CUBIC4, LV])
@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_field_printing_matches_the_tree_walk(source, fmt):
    # each component alone, and the whole field printed together
    names, fields = step_fields(source, 6)
    walked = [format_expression_tree_walk(field, names, fmt) for field in fields]
    assert [format_expression(field, names, fmt) for field in fields] == walked
    assert list(format_expressions(fields, names, fmt)) == walked


@pytest.mark.parametrize("source", [LV, OSC, CUBIC3, CUBIC4])
def test_printed_fields_read_back_to_the_same_nodes(source):
    names, fields = step_fields(source, 6)
    text = f"vars {', '.join(names)}\n" + "".join(
        f"{name}' = {format_expression(field, names)}\n" for name, field in zip(names, fields)
    ) + "h' = 0\n"
    parsed = parse_ode(text)
    assert all(a is b for a, b in zip(parsed.rhs, fields))


def _reachable(root):
    seen, stack = {root}, [root]
    while stack:
        node = stack.pop()
        for child in getattr(node, "terms", ()) + getattr(node, "factors", ()) + (
            (node.base,) if hasattr(node, "base") else ()
        ):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def _edge_roots():
    p, q = variable(0), variable(1)
    half = const(Fraction(1, 2))
    inner = add_all((mul_all((const(Fraction(-1, 3)), p, q)), mul_all((half, q))))
    outer = add_all((mul_all((power(inner, 2), p)), mul_all((const(-2), inner, q)), half))
    assert inner in _reachable(outer) and half in _reachable(outer)
    return {
        "same-root-twice": [inner, inner, outer, inner],
        "root-inside-a-later-root": [inner, outer],
        "root-inside-an-earlier-root": [outer, inner],
        "const-and-var-roots": [half, q, outer, const(Fraction(-5, 7)), p, half],
        "empty": [],
    }


@pytest.mark.parametrize("case", list(_edge_roots()))
@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_expressions_printed_together_match_the_tree_walk(case, fmt):
    names = ("p", "q")
    exprs = _edge_roots()[case]
    assert list(format_expressions(exprs, names, fmt)) == [
        format_expression_tree_walk(expr, names, fmt) for expr in exprs
    ]


def test_order8_cubic_field_keeps_its_dag():
    # the distinct nodes of the order-8 midpoint field of CUBIC4, which a
    # traced perfbench field_text job reads as expressions.dag_nodes; a
    # builder that normalizes differently builds a different DAG
    names, fields = step_fields(CUBIC4, 8)
    assert len(set().union(*map(_reachable, fields))) == 2164


def test_field_printing_formats_each_constant_once(monkeypatch):
    names, fields = step_fields(CUBIC4, 6)
    calls = 0
    text = Fraction.__str__

    def counted(value):
        nonlocal calls
        calls += 1
        return text(value)

    monkeypatch.setattr(Fraction, "__str__", counted)
    # the components share constants, and each is formatted once for all
    nodes = set().union(*map(_reachable, fields))
    constants = sum(isinstance(node, Const) for node in nodes)
    signed = sum(
        isinstance(node, Prod) and isinstance(node.factors[0], Const)
        and node.factors[0].value < 0
        for node in nodes
    )
    calls = 0
    list(format_expressions(fields, names))
    assert 0 < calls <= constants + signed


def test_field_printing_keeps_nothing_but_its_result():
    # with the collector off, a reference cycle (closures that call each
    # other) would keep the call's working dicts alive after it returns
    names, fields = step_fields(OSC, 5)
    field = fields[0]
    format_expression(field, names)  # warm: imports, caches
    own = [tracemalloc.Filter(True, expressions_extra.__file__)]
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(own)
        start, _ = tracemalloc.get_traced_memory()
        text = format_expression(field, names)
        _, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot().filter_traces(own)
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak - start > 2 * sys.getsizeof(text)  # the call did hold working memory
    kept = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert kept == sys.getsizeof(text)


def test_printing_a_field_together_keeps_nothing_but_its_texts():
    # once the generator is exhausted, neither it nor its working dicts
    # (counts, operands, shared texts) hold anything
    names, fields = step_fields(OSC, 5)
    list(format_expressions(fields, names))  # warm: imports, caches
    own = [tracemalloc.Filter(True, expressions_extra.__file__)]
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(own)
        start, _ = tracemalloc.get_traced_memory()
        printer = format_expressions(fields, names)
        texts = list(printer)
        _, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot().filter_traces(own)
    finally:
        tracemalloc.stop()
        gc.enable()
    sizes = sum(map(sys.getsizeof, texts))
    assert len(texts) == len(fields)
    assert peak - start > sizes  # the generator did hold working memory
    kept = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert kept == sizes


def test_printing_together_drops_each_shared_text_after_its_last_use():
    # the components share subexpressions, whose texts wait for the later
    # components; after the last text none is left
    names, fields = step_fields(CUBIC4, 6)
    printer = format_expressions(fields, names)
    held = []
    for _ in fields:
        next(printer)
        held.append(len(printer.gi_frame.f_locals["cores"]))
    assert held[0] > 0 and held[-1] == 0
    assert next(printer, None) is None
