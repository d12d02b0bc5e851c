import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsharp import expressions
from bsharp.errors import CoefficientError
from bsharp.expressions import (
    Const,
    Expression,
    Power,
    Prod,
    Sum,
    Var,
    add_all,
    compile_float,
    const,
    differentiate,
    eval_expression,
    format_expression,
    mul_all,
    power,
    variable,
)

from oracles import (
    add_all_by_absorbing,
    const_by_fraction,
    format_expression_tree_walk,
    mul_all_by_absorbing,
)

P, Q = variable(0), variable(1)
NAMES = ("p", "q")


def fmt(expr, fmt="text"):
    return format_expression(expr, NAMES, fmt)


# ---------------------------------------------------------------------------
# construction and interning
# ---------------------------------------------------------------------------

@given(st.binary(max_size=200))
def test_node_digests_are_hashlibs_blake2b(payload):
    # the digest comes from the private built-in _blake2 module, which
    # hashlib.blake2b is; it is part of every node's sort key, so a build
    # where the two differ would reorder the terms of printed fields
    assert expressions._digest(payload) == hashlib.blake2b(payload, digest_size=16).digest()


def test_nodes_are_interned():
    assert variable(0) is P
    assert const(1) is const(Fraction(1))
    assert add_all([P, Q]) is add_all([Q, P])
    assert mul_all([P, Q]) is mul_all([Q, P])
    assert power(P, 3) is power(P, 3)


def test_like_terms_collect():
    assert fmt(add_all([P, P])) == "2*p"
    assert add_all([P, mul_all([const(-1), P])]) is const(0)
    assert add_all([const(2), const(3)]) is const(5)
    assert add_all([]) is const(0)
    assert add_all([P]) is P


def test_powers_collect():
    assert mul_all([P, P]) is power(P, 2)
    assert mul_all([P, power(P, -1)]) is const(1)
    assert mul_all([const(0), P, Q]) is const(0)
    assert mul_all([]) is const(1)
    assert power(P, 1) is P
    assert power(P, 0) is const(1)


def test_power_folds_and_distributes():
    assert power(const(3), 2) is const(9)
    assert power(power(P, 2), 3) is power(P, 6)
    assert power(mul_all([const(2), P, Q]), 2) is mul_all(
        [const(4), power(P, 2), power(Q, 2)]
    )
    with pytest.raises(CoefficientError):
        power(const(0), -1)


@given(st.one_of(
    st.integers(-(10**40), 10**40),
    st.fractions(),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
    st.fractions().map(str),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
))
def test_constants_intern_by_their_fraction(value):
    # a constant is keyed by (numerator, denominator); the node must be the
    # one its Fraction names, with the value and digest it always had
    node = const(value)
    fraction, digest = const_by_fraction(value)
    assert type(node.value) is Fraction and node.value == fraction
    assert node._digest == digest
    assert const(fraction) is node
    assert const(Fraction(fraction.numerator * 3, fraction.denominator * 3)) is node


# like terms 2*S - S of a sum S collect to S itself: a sum that holds a sum
_NESTED = add_all([
    mul_all([const(2), add_all([P, Q])]), variable(2), mul_all([const(-1), add_all([P, Q])]),
])

_SHAPE_LEAVES = [
    P, Q, variable(2), const(0), const(1), const(-1), const(3),
    const(Fraction(-3, 2)), const(Fraction(1, 3)), power(P, -1), power(Q, 2),
    mul_all([const(-1), P]), mul_all([const(Fraction(2, 5)), P, Q]), add_all([P, const(1)]),
    _NESTED,
]


@st.composite
def operand_lists(draw):
    """Operands drawn from a pool that grows by the builders' own results:
    nested sums and products, negative exponents, negative and fractional
    constants.  Half of the list may come back negated or inverted, so sums
    cancel to 0 and products to 1."""
    pool = list(_SHAPE_LEAVES)
    for _ in range(draw(st.integers(0, 8))):
        picks = draw(st.lists(st.sampled_from(pool), max_size=4))
        kind = draw(st.sampled_from(["add", "mul", "pow"]))
        if kind == "add":
            pool.append(add_all(picks))
        elif kind == "mul":
            pool.append(mul_all(picks))
        else:
            try:
                pool.append(power(add_all(picks), draw(st.sampled_from([-2, -1, 2, 3]))))
            except CoefficientError:  # a zero base with a negative exponent
                pass
    operands = draw(st.lists(st.sampled_from(pool), max_size=6))
    mirror = draw(st.sampled_from(["none", "negate", "invert"]))
    if mirror == "negate":
        operands += [mul_all([const(-1), op]) for op in operands[::2]]
    elif mirror == "invert":
        operands += [power(op, -1) for op in operands[::2] if op is not const(0)]
    return operands


@given(operand_lists())
def test_builders_return_the_nodes_absorption_gives(operands):
    assert add_all(operands) is add_all_by_absorbing(operands)
    assert mul_all(operands) is mul_all_by_absorbing(operands)


def test_a_sum_held_by_a_sum_flattens_when_summed_again():
    # like terms c*S that collect to S leave S's terms, not S, in the sum
    assert _NESTED is add_all([P, Q, variable(2)])
    assert add_all([_NESTED]) is add_all([P, Q, variable(2)]) is add_all_by_absorbing([_NESTED])
    assert add_all([_NESTED, -P]) is add_all([Q, variable(2)])
    assert add_all([const(1), _NESTED, _NESTED]) is add_all_by_absorbing([const(1), _NESTED, _NESTED])


def test_like_sum_terms_that_collect_to_one_join_the_sum_term_by_term():
    # with S = x + y, 2*S - S + z is the node x + y + z: no sum inside a
    # sum, so a product of it cancels against one of x + y + z
    x, y, z, w = (variable(i) for i in range(4))
    s = add_all([x, y])
    flat = add_all([x, y, z])
    nested = add_all([mul_all([const(2), s]), mul_all([const(-1), s]), z])
    assert nested is flat
    assert add_all([mul_all([nested, w]), -mul_all([flat, w])]) is const(0)
    # the like terms of S feed back into the collection and meet x
    assert add_all([mul_all([const(2), s]), mul_all([const(-1), s]), mul_all([const(-1), x])]) is y


def test_a_sum_collects_with_a_constant_multiple_of_itself():
    # with T = x + y + z, T stays whole beside c*T, so the two collect as (1 + c)*T
    x, y, z = (variable(i) for i in range(3))
    t = add_all([x, y, z])
    assert t - t is const(0) is add_all([t, -t]) is add_all_by_absorbing([t, -t])
    assert t + 2 * t is mul_all([const(3), t]) is add_all_by_absorbing([t, 2 * t])
    assert format_expression(t + 2 * t, ("x", "y", "z")) == "3*(z + y + x)"
    # c*T beside T and one of T's terms: T collects, the term stays apart
    assert add_all([t, -t, x]) is x
    assert add_all([t, mul_all([const(-2), t])]) is mul_all([const(-1), t])


def test_a_sum_collects_with_a_multiple_of_it_inside_another_sum():
    # with T = x + y + z and U = w + 2*T, T + U is w + 3*T: the 2*T inside U
    # keeps T whole, as a part 2*T would
    x, y, z, w = (variable(i) for i in range(4))
    t = add_all([x, y, z])
    u = add_all([w, mul_all([const(2), t])])
    want = add_all([w, mul_all([const(3), t])])
    assert add_all([t, u]) is want is add_all([u, t]) is add_all_by_absorbing([t, u])
    assert format_expression(want, ("x", "y", "z", "w")) == "w + 3*(z + y + x)"
    assert add_all([t, u, mul_all([const(-1), u])]) is t


def test_a_sum_kept_whole_by_a_term_of_a_kept_sum_is_spread_again():
    # T is kept whole by the 2*T inside U, and U by the part c*U beside it,
    # so T's only term is T itself: a sum holds no sum, so T is spread
    x, y, z, w, v = (variable(i) for i in range(5))
    t = add_all([x, y, z])
    u = add_all([w, mul_all([const(2), t])])
    parts = [t, u, mul_all([const(-1), u]), v]
    assert add_all(parts) is add_all([x, y, z, v]) is add_all_by_absorbing(parts)
    parts = [t, u, mul_all([const(5), u])]
    want = add_all([x, y, z, mul_all([const(6), u])])
    assert add_all(parts) is want is add_all_by_absorbing(parts)
    assert not any(type(term) is Sum for term in want.terms)


def test_builders_cancel_to_zero_and_one():
    s = add_all([P, power(Q, -2), const(Fraction(-1, 2))])
    for x in (P, power(Q, -2), mul_all([const(Fraction(-2, 3)), P, power(Q, -1)])):
        negated = [x, mul_all([const(-1), x])]
        assert add_all(negated) is const(0) is add_all_by_absorbing(negated)
    # products do not expand over sums: a sum cancels term by term
    negated = [s] + [mul_all([const(-1), t]) for t in s.terms]
    assert add_all(negated) is const(0) is add_all_by_absorbing(negated)
    for x in (P, s, mul_all([const(Fraction(-2, 3)), P, power(Q, -1)])):
        inverted = [x, power(x, -1)]
        assert mul_all(inverted) is const(1) is mul_all_by_absorbing(inverted)


def test_node_kinds():
    assert isinstance(const(2), Const)
    assert isinstance(P, Var)
    assert isinstance(add_all([P, const(1)]), Sum)
    assert isinstance(mul_all([const(2), P]), Prod)
    assert isinstance(power(add_all([P, Q]), -1), Power)
    with pytest.raises(ValueError):
        variable(-1)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_derivative_basics():
    assert differentiate(const(5), 0) is const(0)
    assert differentiate(P, 0) is const(1)
    assert differentiate(P, 1) is const(0)
    assert differentiate(add_all([P, Q]), 0) is const(1)
    assert differentiate(mul_all([const(3), P]), 0) is const(3)


def test_product_rule():
    expr = mul_all([P, Q])
    assert differentiate(expr, 0) is Q
    assert differentiate(expr, 1) is P
    sq = mul_all([P, P, Q])
    assert fmt(differentiate(sq, 0)) == "2*q*p"


def test_power_and_chain_rule():
    s = add_all([power(P, 2), power(Q, 2)])
    inv = power(s, -1)
    d = differentiate(inv, 0)
    assert d is mul_all([const(-2), P, power(s, -2)])
    assert differentiate(power(P, 3), 0) is mul_all([const(3), power(P, 2)])


def test_derivative_memo_belongs_to_the_caller():
    s = power(add_all([power(P, 2), Q]), -2)
    memo = {}
    d = differentiate(s, 0, memo)
    assert memo[s, 0] is d and len(memo) > 1
    assert differentiate(s, 0) is d  # a call without a memo starts a fresh one
    assert differentiate(s, 0, memo) is d


def test_derivatives_commute():
    s = power(add_all([power(P, 2), Q]), -2)
    assert differentiate(differentiate(s, 0), 1) is differentiate(
        differentiate(s, 1), 0
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_is_exact_on_rationals():
    s = add_all([power(P, 2), power(Q, 2)])
    d = differentiate(power(s, -1), 0)
    out = eval_expression(d, (Fraction(1), Fraction(2)))
    assert out == Fraction(-2, 25)


def test_eval_floats_give_floats():
    assert eval_expression(add_all([P, Q]), (0.5, 2.0)) == 2.5
    assert isinstance(eval_expression(P, (0.5, 1)), float)


def test_eval_errors():
    with pytest.raises(ZeroDivisionError):
        eval_expression(power(P, -1), (Fraction(0),))
    with pytest.raises(IndexError):
        eval_expression(Q, (Fraction(1),))


# ---------------------------------------------------------------------------
# compiled float evaluation
# ---------------------------------------------------------------------------

def interpreted(outputs, y):
    """What compile_float promises, output by output through eval_expression."""
    out = []
    for output in outputs:
        if isinstance(output, Expression):
            out.append(eval_expression(output, y))
            continue
        acc = 0.0
        for w, e in output:
            acc += w * eval_expression(e, y)
        out.append(acc)
    return out


def outcome(fn, y):
    """repr of every float (so -0.0 and nan compare), or the exception."""
    try:
        return [repr(v) for v in fn(y)]
    except ArithmeticError as exc:
        return type(exc), str(exc)


def test_compiled_wide_sum_and_product_fold_left():
    # a one-line fold of thousands of operands would overflow compile()'s
    # recursion; the points make other fold orders round otherwise
    n = 5000
    xs = [variable(i) for i in range(n)]
    wide_sum = add_all(xs)
    wide_prod = mul_all(xs)
    assert isinstance(wide_sum, Sum) and len(wide_sum.terms) == n
    assert isinstance(wide_prod, Prod) and len(wide_prod.factors) == n
    f = compile_float([wide_sum, wide_prod], n)
    # in term order 2^53, -2^53, 1, ...: a 1 added to 2^53 is lost
    sum_point = [0.0] * n
    for i, term in enumerate(wide_sum.terms):
        sum_point[term.index] = (2.0**53, -(2.0**53), 1.0)[i % 3]
    rng = random.Random(5)
    prod_point = [1.0 + rng.uniform(-1e-3, 1e-3) for _ in range(n)]
    for y in (sum_point, prod_point):
        assert outcome(f, y) == outcome(lambda y: interpreted([wide_sum, wide_prod], y), y)


def test_compiled_keeps_signed_zeros():
    neg = mul_all([const(-1), P])
    f = compile_float([neg, [(1.0, neg)]], 2)
    # a bare output stays -0.0; a graded one is 0.0 + 1.0*(-0.0) = 0.0
    assert [repr(v) for v in f([0.0, 1.0])] == ["-0.0", "0.0"]
    outputs = [neg, [(1.0, neg)]]
    assert outcome(f, [0.0, 1.0]) == outcome(lambda y: interpreted(outputs, y), [0.0, 1.0])


def test_compiled_failures_match_the_interpreter():
    inverse = power(add_all([power(P, 2), power(Q, 2)]), -1)
    f = compile_float([mul_all([Q, inverse])], 2)
    with pytest.raises(ZeroDivisionError, match="^zero base with negative exponent$"):
        f([0.0, -0.0])
    assert f([0.0, 2.0]) == [0.5]
    cube = compile_float([power(P, 3)], 1)
    with pytest.raises(OverflowError):
        cube([1e200])
    assert outcome(cube, [1e200]) == outcome(lambda y: [eval_expression(power(P, 3), y)], [1e200])
    # an out-of-range variable fails when the field is built, not when called
    with pytest.raises(IndexError, match="variable 1"):
        compile_float([add_all([P, Q])], 1)


@pytest.mark.parametrize("value", [10**400, Fraction(-(10**401), 3)], ids=["int", "fraction"])
def test_a_constant_past_the_double_range_is_refused_by_both(value):
    # compile_float refuses it when the field is built, the interpreter
    # when it reaches it at a float point; at a rational point it is exact
    big = mul_all([const(value), P])
    with pytest.raises(CoefficientError, match="component p has a constant"):
        compile_float([big], 1, ["p"])
    with pytest.raises(CoefficientError, match="does not fit a double"):
        eval_expression(big, [1.0])
    assert eval_expression(big, [Fraction(1)]) == value


def test_compiled_outputs_and_empty_components():
    f = compile_float([const(Fraction(1, 3)), [], P, [(2.0, const(Fraction(1, 3))), (0.5, P)]], 1)
    assert f([4.0]) == [1 / 3, 0.0, 4.0, (0.0 + 2.0 * (1 / 3)) + 0.5 * 4.0]


_LEAVES = [P, Q, variable(2), const(2), const(Fraction(-1, 3)), const(Fraction(7, 5))]


@st.composite
def dags(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(_LEAVES))
    kind = draw(st.sampled_from(["add", "mul", "pow"]))
    if kind == "pow":
        base = draw(dags(depth - 1))
        try:
            return power(base, draw(st.integers(-3, 3)))
        except CoefficientError:  # a constant zero base with a negative exponent
            return base
    parts = draw(st.lists(dags(depth - 1), min_size=1, max_size=4))
    return add_all(parts) if kind == "add" else mul_all(parts)


_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0, 1e-170, 1e160, -7e200])


@given(
    st.lists(
        st.one_of(
            dags(), st.lists(st.tuples(st.sampled_from([1.0, 0.1, 0.01]), dags()), max_size=3)
        ),
        min_size=1,
        max_size=3,
    ),
    st.tuples(_FLOATS, _FLOATS, _FLOATS),
)
def test_compiled_matches_interpreter_on_random_dags(outputs, y):
    f = compile_float(outputs, 3)
    assert outcome(f, list(y)) == outcome(lambda y: interpreted(outputs, y), list(y))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_sum_renders_constant_last():
    assert fmt(add_all([P, const(-1)])) == "p - 1"
    assert fmt(add_all([const(4), mul_all([const(-2), Q])])) == "-2*q + 4"


def test_negative_products_hoist_the_sign():
    assert fmt(mul_all([const(-2), P, Q])) == "-2*q*p"
    assert fmt(add_all([P, mul_all([const(-1), Q])])) == "p - q"


def test_power_rendering_round_trip_shape():
    s = add_all([power(Q, 2), power(P, 2)])
    assert fmt(power(s, -1)) == "(q^2 + p^2)^-1"
    assert fmt(differentiate(power(s, -1), 0)) == "-2*p*(q^2 + p^2)^-2"
    assert fmt(power(P, -1)) == "p^-1"


def test_constant_rendering():
    assert fmt(const(Fraction(1, 2))) == "1/2"
    assert fmt(mul_all([const(Fraction(-1, 2)), P])) == "-1/2*p"
    assert fmt(power(const(Fraction(1, 2)), 2)) == "1/4"


def test_latex_rendering():
    s = add_all([power(Q, 2), power(P, 2)])
    d = differentiate(power(s, -1), 0)
    assert (
        format_expression(d, NAMES, "latex")
        == r"-2 p \left(q^{2} + p^{2}\right)^{-2}"
    )
    assert format_expression(P, ("alpha",), "latex") == r"\alpha"


_SIGNED = [const(-1), const(-2), const(Fraction(-1, 3)), const(Fraction(-7, 2))]
_PRINT_LEAVES = [
    P, Q, variable(2), const(1), const(2), const(Fraction(1, 2)), const(Fraction(7, 5)), *_SIGNED
]


@st.composite
def shared_dags(draw):
    """A DAG built from a growing pool, so later nodes reuse earlier ones
    in sums, products and power bases: signed products, fractional
    constants, powers of sums and negative exponents."""
    pool = list(_PRINT_LEAVES)
    for _ in range(draw(st.integers(1, 14))):
        picks = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))]
        kind = draw(st.sampled_from(["add", "mul", "signed", "pow"]))
        if kind == "add":
            node = add_all(picks)
        elif kind == "mul":
            node = mul_all(picks)
        elif kind == "signed":
            node = mul_all([draw(st.sampled_from(_SIGNED))] + picks)
        else:
            try:
                node = power(add_all(picks), draw(st.sampled_from([-3, -2, -1, 2, 3])))
            except CoefficientError:  # a zero base with a negative exponent
                continue
        pool.append(node)
    built = pool[len(_PRINT_LEAVES):] or pool
    return add_all(built) if draw(st.booleans()) else built[-1]


@given(shared_dags(), st.sampled_from(["text", "latex"]))
def test_rendering_matches_the_tree_walk(expr, form):
    names = ("alpha", "q")  # variable 2 has no name and prints as y2
    assert format_expression(expr, names, form) == format_expression_tree_walk(expr, names, form)


def test_format_rejects_unknown():
    with pytest.raises(ValueError):
        fmt(P, "html")
