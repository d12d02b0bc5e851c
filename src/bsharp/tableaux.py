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

The recursion runs over the scalar domain (ints or Laurent polynomials)
that :mod:`bsharp.graded` picks for A and b and lifts them into once, on
first use, scaled by a d of theirs; a tableau that only steps, as in a
direct simulation, loads no series layer.  Φ(τ) and A·Ψ(τ) carry one
entry per node, so d^|τ|·Φ(τ) is a value of the domain, which its
``lower`` turns into a coefficient once per tree.  :func:`rk_series`
reads the trees of the index of :mod:`bsharp.splits`, A·Ψ by id.  The
weight of one tree, the order check and JSON output live in
:mod:`bsharp.tableaux_extra`; their names are still read from here.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Mapping, Sequence

from . import _forward
from .coefficients import (
    Coefficient,
    coeff_div,
    coeff_eval,
    coeff_from_json,
    coeff_parse,
    coeff_print,
    coeff_symbols,
)
from .errors import TableauError

__getattr__ = _forward(globals(), "tableaux_extra")

if TYPE_CHECKING:
    from .series import TruncatedBSeries


class RowSumWarning(UserWarning):
    """A stage's row of A does not sum to its abscissa c."""


class ButcherTableau:
    """Immutable Runge-Kutta tableau with exact entries."""

    __slots__ = ("A", "b", "c", "_lift")

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
        self._lift: tuple | None = None
        for i, row in enumerate(A):
            row_sum = sum(row, Fraction(0))
            if row_sum != c[i]:
                warnings.warn(
                    f"row {i} of A sums to {coeff_print(row_sum)} but c[{i}] is "
                    f"{coeff_print(c[i])}",
                    RowSumWarning,
                    stacklevel=2,
                )

    @property
    def _lifted(self) -> tuple:
        """``(A, b, lift, lower, d, lie, dot)`` of :func:`bsharp.graded.lift_tableau`,
        lifted on first use."""
        if self._lift is None:
            from .graded import lift_tableau

            self._lift = lift_tableau(self.A, self.b)
        return self._lift

    @property
    def stages(self) -> int:
        return len(self.b)

    @property
    def is_explicit(self) -> bool:
        return not any(a for i, row in enumerate(self.A) for a in row[i:])

    @property
    def symbols(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for row in self.A:
            for a in row:
                names |= coeff_symbols(a)
        for v in (*self.b, *self.c):
            names |= coeff_symbols(v)
        return names

    def bind(self, bindings: Mapping[str, Fraction]) -> "ButcherTableau":
        """Numeric tableau with every symbol replaced by its binding."""
        return ButcherTableau(
            [[coeff_eval(a, bindings) for a in row] for row in self.A],
            [coeff_eval(v, bindings) for v in self.b],
            [coeff_eval(v, bindings) for v in self.c],
        )

    def __repr__(self) -> str:
        return f"<ButcherTableau {self.stages} stages>"


# The tree index is imported by rk_series, so that a tableau that only
# steps loads no tree layer.

def _products(psi, kids: tuple[int, ...], ones: list) -> list:
    """Π over the children ``kids`` of their d^|c|·(A·Ψ(c)), stage by
    stage, ``psi`` giving each by id."""
    vec = ones
    for c in kids:
        vec = list(map(mul, vec, psi[c]))
    return vec


def _propagated(A, vec: list) -> tuple:
    """d^|τ|·(A·Ψ(τ)) from the stage products ``vec`` of τ's children."""
    return tuple(sum([a * p for a, p in zip(row, vec) if a], 0) for row in A)


def _weight(b, vec: list):
    """d^|τ|·Φ(τ) from the stage products ``vec`` of τ's children."""
    return sum([bi * p for bi, p in zip(b, vec) if bi], 0)


def rk_series(tab: ButcherTableau, max_order: int) -> TruncatedBSeries:
    """The method's map-kind B-series truncated at ``max_order``: the
    weights of the trees up to it, each indexed tree's A·Ψ kept for its
    parents."""
    from .series import TruncatedBSeries, _check_max_order
    from .splits import _seqs, walk

    _check_max_order(max_order)
    coeffs = {b"": Fraction(1)}
    if max_order:
        A, b, _, lower, d, _, _ = tab._lifted
        ones, powers = [1] * len(b), [d**n for n in range(max_order + 1)]
        trees = walk(max_order)
        psi: list = [None] * len(_seqs)
        for n, seq, kids, i in trees:
            vec = _products(psi, kids, ones)
            coeffs[seq] = lower(_weight(b, vec), powers[n])
            if i is not None:
                psi[i] = _propagated(A, vec)
    return TruncatedBSeries._from_levels(max_order, coeffs)


# ---------------------------------------------------------------------------
# built-in tableaux and JSON input
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
    z, h, one = Fraction(0), Fraction(1, 2), Fraction(1)
    if key == "euler":
        return ButcherTableau([[z]], [one], [z])
    if key == "midpoint":
        return ButcherTableau([[z, z], [h, z]], [z, one], [z, h])
    if key == "rk4":
        sixth, third = Fraction(1, 6), Fraction(1, 3)
        return ButcherTableau(
            [[z, z, z, z], [h, z, z, z], [z, h, z, z], [z, z, one, z]],
            [sixth, third, third, sixth],
            [z, h, h, one],
        )
    if key.startswith("rk22(") and key.endswith(")"):
        alpha = coeff_parse(key[5:-1])
        if not alpha:
            raise TableauError("rk22 parameter must be nonzero")
        half_inv = coeff_div(1, 2 * alpha)
        return ButcherTableau([[z, z], [half_inv, z]], [1 - alpha, alpha], [z, half_inv])
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
    A = [[coeff_from_json(v, f"A[{i}][{j}]", TableauError) for j, v in enumerate(row)]
         for i, row in enumerate(rows)]
    b, c = ([coeff_from_json(v, f"{name}[{i}]", TableauError) for i, v in enumerate(entries)]
            for name, entries in (("b", b), ("c", c)))
    tab = ButcherTableau(A, b, c)
    if declared is not None:
        undeclared = tab.symbols - set(declared)
        if undeclared:
            raise TableauError(
                f"tableau uses undeclared symbols {sorted(undeclared)}; add them "
                'to the "symbols" list'
            )
    return tab
