"""Fixed-step integration harness.

Three ways to produce a trajectory on the grid t = 0, h, 2h, ...:

* ``direct`` — apply an explicit Runge-Kutta tableau with step h;
* ``reference`` — classical RK4 with internal step h/100 on the same
  system, reporting every 100th substep;
* ``modified`` / ``modifying`` — build the corresponding perturbed
  right-hand side from the tableau (truncated at a chosen order, with the
  numeric step size substituted), then integrate *that* field like
  ``reference``.

All stepping is IEEE double; exactness ends where the trajectory begins.
The field is compiled once per run: :func:`~bsharp.expressions.compile_float`
lowers the expression DAG of every component (and, for a series field,
every degree) into one straight-line function that computes each shared
node once.  It keeps the interpreter's order of operations, so the floats,
and the CSV, are the ones a node-by-node
:func:`~bsharp.expressions.eval_expression` gives.
A step that produces a non-finite value aborts the run via
:class:`NumericFailureError`, which carries the time of the last good row.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

from .coefficients import coeff_eval
from .errors import NumericFailureError, TableauError
from .expressions import compile_float
from .graded import modifying_integrator_of_tableau
from .odes import DiffCache, ODESystem, series_vector_field
from .series import modified_equation_series
# perfbench/traced.py wraps this solve by name, though a tableau's
# modifying integrator no longer calls it
from .series import modifying_integrator_series  # noqa: F401
from .tableaux import ButcherTableau, rk_series

_MODES = ("direct", "reference", "modified", "modifying")

#: substeps per output row in the reference integrator
_REFINE = 100

#: the most rows one trajectory may have; a plan that asks for more is refused
_MAX_ROWS = 10**7

_RK4_A = (
    (0.0, 0.0, 0.0, 0.0),
    (0.5, 0.0, 0.0, 0.0),
    (0.0, 0.5, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
)
_RK4_B = (1 / 6, 1 / 3, 1 / 3, 1 / 6)

Field = Callable[[Sequence[float]], list[float]]


class SimulationPlan:
    """Everything needed to produce one trajectory; validated on
    construction, read-only afterwards."""

    __slots__ = ("tableau", "system", "step", "t_max", "initial", "mode", "series_order")

    def __init__(
        self,
        tableau: ButcherTableau,
        system: ODESystem,
        step: float,
        t_max: float,
        initial: tuple[float, ...],
        mode: str = "direct",
        series_order: int = 2,
    ):
        if mode not in _MODES:
            raise ValueError(f"unknown simulation mode {mode!r}")
        if not (math.isfinite(step) and step > 0):
            raise TableauError("step size must be finite and positive")
        if not (math.isfinite(t_max) and t_max > 0):
            raise TableauError("t_max must be finite and positive")
        if not math.isfinite(t_max / step):
            raise TableauError(f"t_max / step overflows: t_max = {t_max!r}, step = {step!r}")
        rows = _row_count(step, t_max)
        if rows > _MAX_ROWS:
            raise TableauError(
                f"t_max / step asks for {rows} rows, more than the {_MAX_ROWS} "
                "a simulation may write"
            )
        if len(initial) != system.dimension:
            raise TableauError(
                f"initial point has {len(initial)} components, "
                f"system has {system.dimension}"
            )
        if not all(map(math.isfinite, initial)):
            raise TableauError(f"initial point {initial!r} is not finite")
        if mode in ("modified", "modifying") and series_order < 1:
            raise TableauError("series order must be at least 1")
        for name, value in (
            ("tableau", tableau), ("system", system), ("step", step), ("t_max", t_max),
            ("initial", initial), ("mode", mode), ("series_order", series_order),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: SimulationPlan is read-only")

    @property
    def rows(self) -> int:
        return _row_count(self.step, self.t_max)


def _row_count(step: float, t_max: float) -> int:
    return int(math.floor(t_max / step + 1e-9)) + 1


def _float_tableau(tab: ButcherTableau):
    """Lower the exact tableau to doubles; symbols must be bound already."""
    a = tuple(tuple(float(coeff_eval(x, {})) for x in row) for row in tab.A)
    b = tuple(float(coeff_eval(x, {})) for x in tab.b)
    return a, b


def _require_explicit(tab: ButcherTableau) -> None:
    if not tab.is_explicit:
        raise TableauError(
            "tableau is not explicit (nonzero entry on or above the "
            "diagonal); only explicit methods can be simulated"
        )


def system_field(system: ODESystem) -> Field:
    """The right-hand side as a compiled float field."""
    return compile_float(system.rhs, system.dimension)


def graded_field(
    system: ODESystem,
    terms: list[list[tuple[int, object]]],
    step: float,
) -> Field:
    """Collapse per-degree expression lists into a compiled float field.

    ``terms`` is the output of :func:`series_vector_field` for a flow-kind
    series: degree d contributes ``step**(d-1) * E_d(y)``, and each
    component is the fold ``((0.0 + w1*E1) + w2*E2) + ...`` in degree order.
    The degree-0 entry is identically zero for flow series and is skipped.
    """
    weighted = [
        [(step ** (degree - 1), expr) for degree, expr in component if degree != 0]
        for component in terms
    ]
    return compile_float(weighted, system.dimension)


def _rk_step(
    a, b, f: Field, y: list[float], h: float
) -> list[float]:
    stages: list[list[float]] = []
    n = len(y)
    for i in range(len(b)):
        yi = list(y)
        row = a[i]
        for j in range(i):
            aij = row[j]
            if aij == 0.0:
                continue
            kj = stages[j]
            for m in range(n):
                yi[m] += h * aij * kj[m]
        stages.append(f(yi))
    out = list(y)
    for i, bi in enumerate(b):
        if bi == 0.0:
            continue
        ki = stages[i]
        for m in range(n):
            out[m] += h * bi * ki[m]
    return out


def _build_field(plan: SimulationPlan) -> Field:
    if plan.mode in ("direct", "reference"):
        return system_field(plan.system)
    if plan.mode == "modified":
        flow = modified_equation_series(rk_series(plan.tableau, plan.series_order))
    else:
        flow = modifying_integrator_of_tableau(plan.tableau, plan.series_order)
    cache = DiffCache(plan.system)
    terms = series_vector_field(flow, plan.system, cache)
    return graded_field(plan.system, terms, plan.step)


def iterate_rows(plan: SimulationPlan) -> Iterator[tuple[float, tuple[float, ...]]]:
    """The (t, y) rows on the output grid, lazily; raises mid-iteration on
    blow-up.

    The tableau is checked and the field built before this returns, so a
    plan that cannot run raises here, before any row.  The first row is the
    initial condition at t = 0.  When a step produces NaN/inf (or the
    right-hand side raises a numeric error), iteration stops with
    :class:`NumericFailureError` whose ``last_valid_t`` is the time of the
    last row already yielded.
    """
    _require_explicit(plan.tableau)
    return _rows(plan, _build_field(plan))


def _rows(plan: SimulationPlan, field: Field) -> Iterator[tuple[float, tuple[float, ...]]]:
    if plan.mode == "direct":
        a, b = _float_tableau(plan.tableau)
        substeps, h_sub = 1, plan.step
    else:
        a, b = _RK4_A, _RK4_B
        substeps, h_sub = _REFINE, plan.step / _REFINE

    y = [float(v) for v in plan.initial]
    yield 0.0, tuple(y)
    for i in range(1, plan.rows):
        last_t = (i - 1) * plan.step
        try:
            for _ in range(substeps):
                y = _rk_step(a, b, field, y, h_sub)
        except (ZeroDivisionError, OverflowError) as exc:
            raise NumericFailureError(
                f"numeric failure during step to t = {i * plan.step!r}: {exc}",
                last_valid_t=last_t,
            ) from exc
        if not all(math.isfinite(v) for v in y):
            raise NumericFailureError(
                f"non-finite state during step to t = {i * plan.step!r}",
                last_valid_t=last_t,
            )
        yield i * plan.step, tuple(y)


def run_simulation(plan: SimulationPlan) -> list[tuple[float, tuple[float, ...]]]:
    """Collect the full trajectory (raises on numeric failure)."""
    return list(iterate_rows(plan))
