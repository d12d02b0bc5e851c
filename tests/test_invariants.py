"""Structure invariants of the modified equation and the modifying
integrator, checked at order 10 (and the first at order 12 for the modified
equation), where the brute force in ``oracles.py`` cannot reach.

* A symmetric method has a modified field with even powers of h only
  (Hairer-Lubich-Wanner, GNI §IX.2), so both series vanish on every tree of
  even order.
* The adjoint method, a*_ij = b_{s+1-j} - a_{s+1-i,s+1-j} and
  b*_i = b_{s+1-i}, has both series equal to (-1)^(|τ|-1) times the
  method's (GNI §II.3 and §IX.2).
* A method of order p has both series zero on the orders 2..p.
"""

import pytest

from bsharp.rationals import rat
from bsharp.series import modified_equation_series, modifying_integrator_series
from bsharp.tableaux import ButcherTableau, builtin_tableau, rk_series

ORDER = 10
SOLVES = pytest.mark.parametrize(
    "solve", [modified_equation_series, modifying_integrator_series], ids=["ME", "MI"]
)

IMPLICIT_MIDPOINT = ButcherTableau([[rat(1, 2)]], [rat(1)], [rat(1, 2)])
TRAPEZOIDAL = ButcherTableau(
    [[rat(0), rat(0)], [rat(1, 2), rat(1, 2)]], [rat(1, 2), rat(1, 2)], [rat(0), rat(1)]
)
SYMMETRIC = pytest.mark.parametrize(
    "tab", [IMPLICIT_MIDPOINT, TRAPEZOIDAL], ids=["implicit-midpoint", "trapezoidal"]
)


def adjoint(tab):
    s = tab.stages
    A = [[tab.b[s - 1 - j] - tab.A[s - 1 - i][s - 1 - j] for j in range(s)] for i in range(s)]
    return ButcherTableau(A, tab.b[::-1], [sum(row, rat(0)) for row in A])


@SOLVES
@SYMMETRIC
def test_symmetric_methods_vanish_on_every_even_order(solve, tab):
    v = solve(rk_series(tab, ORDER))
    even = [c for tree, c in v.items() if tree.order % 2 == 0]
    assert len(even) == 859 and not any(even)


@SYMMETRIC
def test_symmetric_modified_equations_vanish_on_every_even_order_to_twelve(tab):
    v = modified_equation_series(rk_series(tab, 12))
    even = [c for tree, c in v.items() if tree.order % 2 == 0]
    assert len(even) == 5625 and not any(even)


@SOLVES
def test_the_even_order_check_discriminates(solve):
    v = solve(rk_series(builtin_tableau("rk4"), ORDER))
    assert any(c for tree, c in v.items() if tree.order % 2 == 0)


@SOLVES
@pytest.mark.parametrize("name", ["midpoint", "rk4"])
def test_the_adjoint_method_flips_odd_powers_of_h(solve, name):
    tab = builtin_tableau(name)
    v = solve(rk_series(tab, ORDER))
    w = solve(rk_series(adjoint(tab), ORDER))
    assert adjoint(adjoint(tab)).A == tab.A
    assert w != v
    for tree, c in v.items():
        assert w[tree] == (-1) ** (tree.order - 1) * c


@SOLVES
def test_rk4_series_vanish_on_orders_two_to_four(solve):
    v = solve(rk_series(builtin_tableau("rk4"), ORDER))
    assert all(c == (tree.order == 1) for tree, c in v.items() if tree.order <= 4)
    assert any(c for tree, c in v.items() if tree.order == 5)
