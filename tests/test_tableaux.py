import random
import warnings
from fractions import Fraction

import pytest

from bsharp.coefficients import RationalFunction, coeff_eval, coeff_print, symbol
from bsharp.errors import TableauError
from bsharp.series import series_eq
from bsharp.tableaux import (
    ButcherTableau,
    RowSumWarning,
    builtin_tableau,
    elementary_weight,
    order_of_accuracy,
    rk_series,
    tableau_from_json_dict,
    tableau_to_json_dict,
)
from bsharp.trees import all_trees_up_to, parse_tree

from oracles import elementary_weight_bruteforce

T = parse_tree


def random_tableau(stages, seed, explicit=False):
    rng = random.Random(seed)

    def entry(i, j):
        if explicit and j >= i:
            return Fraction(0)
        return Fraction(rng.randint(-3, 6), rng.randint(1, 4))

    A = [[entry(i, j) for j in range(stages)] for i in range(stages)]
    b = [Fraction(rng.randint(-3, 6), rng.randint(1, 4)) for _ in range(stages)]
    c = [sum(row[1:], start=row[0]) for row in A]
    return ButcherTableau(A, b, c)


# ---------------------------------------------------------------------------
# elementary weights
# ---------------------------------------------------------------------------

# one tableau per scalar domain of the weights: rational entries (ints),
# one-term denominators (Laurent polynomials) and a denominator that is a
# sum (plain coefficients)
_WEIGHT_TABLEAUX = {
    "1-False": random_tableau(3, 1),
    "2-True": random_tableau(3, 2, True),
    "3-False": random_tableau(3, 3),
    "rk22(alpha)": builtin_tableau("rk22(alpha)"),
    "two-parameter": tableau_from_json_dict(
        {"A": [["0", "0"], ["3/7*p", "0"]], "b": ["1 - q", "q"], "c": ["0", "3/7*p"],
         "symbols": ["p", "q"]}
    ),
    "a21=1/(1+beta)": tableau_from_json_dict(
        {"A": [["0", "0"], ["1/(1 + beta)", "0"]], "b": ["1/2", "1/2"],
         "c": ["0", "1/(1 + beta)"], "symbols": ["beta"]}
    ),
}


@pytest.mark.parametrize("name", list(_WEIGHT_TABLEAUX))
def test_weights_match_assignment_sum(name):
    tab = _WEIGHT_TABLEAUX[name]
    for tree in all_trees_up_to(5):
        weight = elementary_weight(tab, tree)
        assert weight == elementary_weight_bruteforce(tab.A, tab.b, tree.levels)
        # rational weights stay Fractions; no domain value leaks out
        assert type(weight) in ((Fraction, RationalFunction) if tab.symbols else (Fraction,))


def test_weights_never_read_c():
    tab = random_tableau(3, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RowSumWarning)
        shifted = ButcherTableau(tab.A, tab.b, [Fraction(9)] * 3)
    assert series_eq(rk_series(tab, 5), rk_series(shifted, 5))


def test_symbolic_family_weights():
    tab = builtin_tableau("rk22(alpha)")
    assert coeff_print(elementary_weight(tab, T("[0,1,1]"))) == "1/(4*alpha)"
    assert elementary_weight(tab, T("[0]")) == 1
    assert elementary_weight(tab, T("[0,1]")) == Fraction(1, 2)
    assert elementary_weight(tab, T("[0,1,2]")) == 0


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,stages,order",
    [("euler", 1, 1), ("midpoint", 2, 2), ("rk4", 4, 4), ("rk22(alpha)", 2, 2)],
)
def test_builtin_orders(name, stages, order):
    tab = builtin_tableau(name)
    assert tab.stages == stages
    assert tab.is_explicit
    assert order_of_accuracy(tab, 5) == order


def test_rk22_at_one_is_the_midpoint_rule():
    assert series_eq(
        rk_series(builtin_tableau("rk22(1)"), 5),
        rk_series(builtin_tableau("midpoint"), 5),
    )


def test_rk22_numeric_and_symbolic_members_agree():
    sym = rk_series(builtin_tableau("rk22(alpha)"), 4)
    num = rk_series(builtin_tableau("rk22(3/4)"), 4)
    binding = {"alpha": Fraction(3, 4)}
    for tree, c in sym.items():
        assert coeff_eval(c, binding) == num[tree]


def test_rk22_rejects_zero_parameter():
    with pytest.raises(TableauError, match="nonzero"):
        builtin_tableau("rk22(0)")


def test_unknown_builtin():
    with pytest.raises(TableauError, match="unknown tableau"):
        builtin_tableau("rk5")


def test_builtin_accepts_whitespace():
    assert builtin_tableau(" rk22( alpha )").stages == 2


# ---------------------------------------------------------------------------
# tableau construction
# ---------------------------------------------------------------------------

def test_shape_validation():
    one = [Fraction(1)]
    with pytest.raises(TableauError, match="at least one stage"):
        ButcherTableau([], [], [])
    with pytest.raises(TableauError, match="matrix"):
        ButcherTableau([[Fraction(0), Fraction(0)]], one, one)
    with pytest.raises(TableauError, match="matrix"):
        ButcherTableau([[Fraction(0)], [Fraction(0)]], one, one)
    with pytest.raises(TableauError, match="c has"):
        ButcherTableau([[Fraction(0)]], one, [Fraction(0), Fraction(1)])


def test_row_sum_warning():
    with pytest.warns(RowSumWarning, match=r"row 0 of A sums to 0 but c\[0\] is 1"):
        ButcherTableau([[Fraction(0)]], [Fraction(1)], [Fraction(1)])


def test_bind_fixes_family_members():
    tab = builtin_tableau("rk22(alpha)")
    assert tab.symbols == {"alpha"}
    bound = tab.bind({"alpha": Fraction(1, 2)})
    assert bound.symbols == frozenset()
    assert bound.b == (Fraction(1, 2), Fraction(1, 2))
    assert bound.c == (Fraction(0), Fraction(1))
    assert order_of_accuracy(tab, 4, bindings={"alpha": Fraction(1, 2)}) == 2


def test_implicit_tableau_is_detected_and_weighted():
    # the one-stage implicit midpoint rule has order 2
    half = Fraction(1, 2)
    tab = ButcherTableau([[half]], [Fraction(1)], [half])
    assert not tab.is_explicit
    assert order_of_accuracy(tab, 3) == 2


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_json_round_trip():
    for name in ("rk4", "rk22(alpha)"):
        tab = builtin_tableau(name)
        data = tableau_to_json_dict(tab)
        again = tableau_from_json_dict(data)
        assert series_eq(rk_series(tab, 4), rk_series(again, 4))
    assert tableau_to_json_dict(builtin_tableau("rk22(alpha)"))["symbols"] == ["alpha"]
    assert "symbols" not in tableau_to_json_dict(builtin_tableau("rk4"))


def test_json_requires_declared_symbols():
    data = {"A": [["0"]], "b": ["beta"], "c": ["0"], "symbols": ["alpha"]}
    with pytest.raises(TableauError, match="undeclared symbols \\['beta'\\]"):
        tableau_from_json_dict(data)
    # without a symbols list, anything parseable goes
    assert tableau_from_json_dict({"A": [["0"]], "b": ["beta"], "c": ["0"]}).symbols == {
        "beta"
    }


@pytest.mark.parametrize(
    "data,fragment",
    [
        ([], "must be an object"),
        ({"A": [["0"]]}, "missing"),
        ({"A": [["0"], ["0"]], "b": ["1"], "c": ["0"]}, "matrix"),
        ({"A": "zero", "b": ["1"], "c": ["0"]}, "malformed|matrix"),
        # strings are not lists, even though they iterate
        ({"A": "x", "b": ["1"], "c": ["0"]}, '"A" must be a matrix'),
        ({"A": ["0"], "b": ["1"], "c": ["0"]}, '"A" must be a matrix'),
        ({"A": [["0"]], "b": "1", "c": ["0"]}, '"b" and "c" must be lists'),
        ({"A": [["0"]], "b": ["1"], "c": "0"}, '"b" and "c" must be lists'),
        ({"A": [["0"]], "b": ["a"], "c": ["0"], "symbols": "ab"}, '"symbols" must be a list'),
        ({"A": [["0"]], "b": ["a"], "c": ["0"], "symbols": [["a"]]}, '"symbols" must be a list'),
    ],
)
def test_json_shape_errors(data, fragment):
    with pytest.raises(TableauError, match=fragment):
        tableau_from_json_dict(data)


def test_symbols_collects_all_slots():
    tab = ButcherTableau(
        [[symbol("a"), Fraction(0)], [Fraction(0), symbol("d") + 1]],
        [symbol("w"), Fraction(1)],
        [symbol("a"), symbol("d") + 1],
    )
    assert tab.symbols == {"a", "d", "w"}
