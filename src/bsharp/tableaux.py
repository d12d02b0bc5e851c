"""Butcher tableaux, elementary weights, and order checks.

A tableau holds the stage matrix A, the weight vector b, and the abscissae
c, all as exact coefficients (rationals or rational functions of named
parameters, so whole method families like the two-stage second-order family
can be analysed symbolically).  Tableaux are immutable; weight evaluation is
a pure function of (A, b) — c is carried for I/O and simulation but never
enters a weight, so a tableau whose rows do not sum to c merely warns.

The elementary weight of a tree assigns a stage index to every node, takes
``b`` at the root and an ``A`` entry per edge, and sums over all
assignments.  It is computed by the standard bottom-up recursion: with
Ψ_i(τ) = Π over children τ_k of (A·Ψ(τ_k))_i and Ψ_i(single node) = 1,
the weight is Φ(τ) = Σ_i b_i Ψ_i(τ).  A method has order p exactly when
Φ(τ) = 1/γ(τ) for every tree with at most p nodes.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

from .coefficients import (
    Coefficient,
    coeff_add,
    coeff_div,
    coeff_eq,
    coeff_eval,
    coeff_is_zero,
    coeff_mul,
    coeff_parse,
    coeff_print,
    coeff_sub,
    coeff_symbols,
)
from .errors import TableauError
from .rationals import Rat, rat
from .series import TruncatedBSeries, series_order_of_accuracy
from .trees import RootedTree, _children, all_trees_up_to


class RowSumWarning(UserWarning):
    """A stage's row of A does not sum to its abscissa c."""


class ButcherTableau:
    """Immutable Runge-Kutta tableau with exact entries."""

    __slots__ = ("A", "b", "c", "_psi_cache")

    def __init__(
        self,
        A: Sequence[Sequence[Coefficient]],
        b: Sequence[Coefficient],
        c: Sequence[Coefficient],
    ):
        A = tuple(tuple(row) for row in A)
        b = tuple(b)
        c = tuple(c)
        s = len(b)
        if s == 0:
            raise TableauError("a tableau needs at least one stage")
        if len(A) != s or any(len(row) != s for row in A):
            raise TableauError(f"A must be a {s}x{s} matrix to match b")
        if len(c) != s:
            raise TableauError(f"c has {len(c)} entries but there are {s} stages")
        self.A = A
        self.b = b
        self.c = c
        self._psi_cache: dict[bytes, tuple[Coefficient, ...]] = {}
        for i, row in enumerate(A):
            row_sum: Coefficient = rat(0)
            for a in row:
                row_sum = coeff_add(row_sum, a)
            if not coeff_eq(row_sum, c[i]):
                warnings.warn(
                    f"row {i} of A sums to {coeff_print(row_sum)} but c[{i}] is "
                    f"{coeff_print(c[i])}",
                    RowSumWarning,
                    stacklevel=2,
                )

    @property
    def stages(self) -> int:
        return len(self.b)

    @property
    def is_explicit(self) -> bool:
        return all(
            coeff_is_zero(a) for i, row in enumerate(self.A) for a in row[i:]
        )

    @property
    def symbols(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for row in self.A:
            for a in row:
                names |= coeff_symbols(a)
        for v in (*self.b, *self.c):
            names |= coeff_symbols(v)
        return names

    def bind(self, bindings: Mapping[str, Rat]) -> "ButcherTableau":
        """Numeric tableau with every symbol replaced by its binding."""
        return ButcherTableau(
            [[coeff_eval(a, bindings) for a in row] for row in self.A],
            [coeff_eval(v, bindings) for v in self.b],
            [coeff_eval(v, bindings) for v in self.c],
        )

    def __repr__(self) -> str:
        return f"<ButcherTableau {self.stages} stages>"


def _propagated(tab: ButcherTableau, seq: bytes) -> tuple[Coefficient, ...]:
    """(A·Ψ(τ))_i for each stage i, τ given by its level sequence; cached."""
    cached = tab._psi_cache.get(seq)
    if cached is not None:
        return cached
    child_vectors = [_propagated(tab, child) for child in _children(seq)]
    psi = []
    for j in range(tab.stages):
        value: Coefficient = rat(1)
        for vec in child_vectors:
            value = coeff_mul(value, vec[j])
        psi.append(value)
    out = []
    for i in range(tab.stages):
        total: Coefficient = rat(0)
        for j, a in enumerate(tab.A[i]):
            if coeff_is_zero(a):
                continue
            total = coeff_add(total, coeff_mul(a, psi[j]))
        out.append(total)
    result = tuple(out)
    tab._psi_cache[seq] = result
    return result


def elementary_weight(tab: ButcherTableau, tree: RootedTree) -> Coefficient:
    """Φ(tree): the coefficient of the method's B-series at ``tree``."""
    child_vectors = [_propagated(tab, child) for child in _children(tree._levels)]
    total: Coefficient = rat(0)
    for i, bi in enumerate(tab.b):
        if coeff_is_zero(bi):
            continue
        term = bi
        for vec in child_vectors:
            term = coeff_mul(term, vec[i])
        total = coeff_add(total, term)
    return total


def rk_series(tab: ButcherTableau, max_order: int) -> TruncatedBSeries:
    """The method's map-kind B-series truncated at ``max_order``."""
    return TruncatedBSeries(
        max_order,
        rat(1),
        {t: elementary_weight(tab, t) for t in all_trees_up_to(max_order)},
    )


def order_of_accuracy(
    tab: ButcherTableau, max_check: int, bindings: Mapping[str, Rat] | None = None
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


# ---------------------------------------------------------------------------
# built-in tableaux and JSON I/O
# ---------------------------------------------------------------------------

def builtin_tableau(name: str) -> ButcherTableau:
    """Look up a built-in method.

    ``euler``, ``midpoint``, ``rk4``, and the one-parameter second-order
    family ``rk22(alpha)`` — the argument is any coefficient text: a
    parameter name (symbolic family member), a rational value such as
    ``rk22(3/4)``, or an expression such as ``rk22(alpha+1)`` or
    ``rk22((1+alpha)/2)``.
    """
    key = name.strip()
    if key == "euler":
        return ButcherTableau([[rat(0)]], [rat(1)], [rat(0)])
    if key == "midpoint":
        half = rat(1, 2)
        return ButcherTableau(
            [[rat(0), rat(0)], [half, rat(0)]], [rat(0), rat(1)], [rat(0), half]
        )
    if key == "rk4":
        z, h = rat(0), rat(1, 2)
        return ButcherTableau(
            [
                [z, z, z, z],
                [h, z, z, z],
                [z, h, z, z],
                [z, z, rat(1), z],
            ],
            [rat(1, 6), rat(1, 3), rat(1, 3), rat(1, 6)],
            [z, h, h, rat(1)],
        )
    if key.startswith("rk22(") and key.endswith(")"):
        alpha = coeff_parse(key[5:-1])
        if coeff_is_zero(alpha):
            raise TableauError("rk22 parameter must be nonzero")
        z = rat(0)
        half_inv = coeff_div(rat(1), coeff_mul(rat(2), alpha))
        return ButcherTableau(
            [[z, z], [half_inv, z]],
            [coeff_sub(rat(1), alpha), alpha],
            [z, half_inv],
        )
    raise TableauError(
        f"unknown tableau {name!r}; built-ins are euler, midpoint, rk4, rk22(<alpha>)"
    )


def tableau_from_json_dict(data: dict) -> ButcherTableau:
    """Read the tableau JSON schema: A, b, c as coefficient strings plus an
    optional ``symbols`` list naming every parameter that may appear."""
    if not isinstance(data, dict):
        raise TableauError("tableau JSON must be an object")
    missing = {"A", "b", "c"} - data.keys()
    if missing:
        raise TableauError(f"tableau JSON is missing {sorted(missing)}")
    rows, b, c, declared = data["A"], data["b"], data["c"], data.get("symbols")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TableauError('tableau JSON "A" must be a matrix: a list of rows, each a list')
    if not isinstance(b, list) or not isinstance(c, list):
        raise TableauError('tableau JSON "b" and "c" must be lists')
    if declared is not None and not (
        isinstance(declared, list) and all(isinstance(name, str) for name in declared)
    ):
        raise TableauError('tableau JSON "symbols" must be a list of names')
    A = [[coeff_parse(str(v)) for v in row] for row in rows]
    tab = ButcherTableau(A, [coeff_parse(str(v)) for v in b], [coeff_parse(str(v)) for v in c])
    if declared is not None:
        undeclared = tab.symbols - set(declared)
        if undeclared:
            raise TableauError(
                f"tableau uses undeclared symbols {sorted(undeclared)}; add them "
                'to the "symbols" list'
            )
    return tab


def tableau_to_json_dict(tab: ButcherTableau) -> dict:
    out: dict = {
        "A": [[coeff_print(a) for a in row] for row in tab.A],
        "b": [coeff_print(v) for v in tab.b],
        "c": [coeff_print(v) for v in tab.c],
    }
    if tab.symbols:
        out["symbols"] = sorted(tab.symbols)
    return out
