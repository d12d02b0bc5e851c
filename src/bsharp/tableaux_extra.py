"""The weight of one tree, the order check of a tableau and its JSON output.

The companion of :mod:`bsharp.tableaux`, loaded only by the commands that
run one of these; a tableau that is only stepped or expanded into a
series never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .coefficients import Coefficient, coeff_eval, coeff_print
from .series import TruncatedBSeries
from .series_extra import series_order_of_accuracy
from .splits import _kids
from .tableaux import ButcherTableau, _products, _propagated, _weight, rk_series
from .trees import RootedTree


def elementary_weight(tab: ButcherTableau, tree: RootedTree) -> Coefficient:
    """Φ(tree): the coefficient of the method's B-series at ``tree``."""
    from .splits_extra import tree_id

    A, b, _, lower, d = tab._lifted
    ones = [1] * len(b)

    def products(i: int) -> list:
        kids = _kids[i]
        return _products({c: _propagated(A, products(c)) for c in kids}, kids, ones)

    return lower(_weight(b, products(tree_id(tree._levels))), d ** len(tree._levels))


def order_of_accuracy(
    tab: ButcherTableau, max_check: int, bindings: Mapping[str, Fraction] | None = None
) -> int:
    """Largest order ≤ max_check whose conditions all hold.

    Symbolic entries are compared as rational functions; pass ``bindings``
    to check a specific member of a method family instead.
    """
    series = rk_series(tab, max_check)
    if bindings is not None:
        series = TruncatedBSeries(
            max_check,
            coeff_eval(series.empty, bindings),
            {t: coeff_eval(c, bindings) for t, c in series.items()},
        )
    return series_order_of_accuracy(series)


def tableau_to_json_dict(tab: ButcherTableau) -> dict:
    out: dict = {
        "A": [[coeff_print(a) for a in row] for row in tab.A],
        "b": [coeff_print(v) for v in tab.b],
        "c": [coeff_print(v) for v in tab.c],
    }
    if tab.symbols:
        out["symbols"] = sorted(tab.symbols)
    return out
