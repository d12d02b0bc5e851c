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
:func:`~bsharp.expressions_extra.eval_expression` gives.
The stepping is generated once per run too: :func:`_row_function` writes
one function that advances one output row, one step of the method's
float tableau for ``direct`` and 100 RK4 substeps otherwise.  It holds
the state and the stages in scalar locals, h·a_ij and h·b_i as float
constants with the zero entries left out, and calls the field once per
stage with a list; it makes the float operations of a loop over the
tableau, in the same order, so the rows are the same to the last bit.
A step that produces a non-finite value aborts the run via
:class:`NumericFailureError`, which carries the time of the last good row.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterator, Sequence

from . import _forward
from .coefficients import coeff_eval
from .errors import NumericFailureError, TableauError
from .expressions import _fold, compile_float
from .odes import DiffCache, ODESystem, series_vector_field
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

# The series solves are attributes of this module, imported on first use,
# so that a direct or reference run loads no series layer.
# perfbench/traced.py wraps them by name, though a tableau's modifying
# integrator no longer calls ``modifying_integrator_series``.
__getattr__ = _forward(globals(), "series")


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


def _float_tableau(tab: ButcherTableau, bindings: dict):
    """Lower the exact tableau to doubles, its symbols bound to ``bindings``
    (the system's parameters)."""
    a = tuple(tuple(float(coeff_eval(x, bindings)) for x in row) for row in tab.A)
    b = tuple(float(coeff_eval(x, bindings)) for x in tab.b)
    return a, b


def _require_explicit(tab: ButcherTableau) -> None:
    if not tab.is_explicit:
        raise TableauError(
            "tableau is not explicit (nonzero entry on or above the "
            "diagonal); only explicit methods can be simulated"
        )


def system_field(system: ODESystem) -> Field:
    """The right-hand side as a compiled float field."""
    return compile_float(system.rhs, system.dimension, system.variables)


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
    return compile_float(weighted, system.dimension, system.variables)


def _row_function(a, b, h: float, substeps: int, dimension: int, field: Field):
    """The function that advances a state tuple by ``substeps`` steps of
    the explicit method (``a``, ``b``) with step ``h`` on ``field``.

    Stage i is the field at y + Σ_j (h·a_ij)·k_j, and the step
    y + Σ_i (h·b_i)·k_i, each sum folded left over the nonzero entries in
    index order, which is what a loop over the tableau computes.  Every
    stage calls ``field`` once, with a list, whether or not its value is
    used, and the state is returned as a tuple."""
    namespace: dict[str, object] = {"f": field}
    ys = [f"y{m}" for m in range(dimension)]
    step: list[str] = []

    def weights(row, count: int, prefix: str) -> list[tuple[str, int]]:
        terms = []
        for j in range(count):
            if row[j] != 0.0:
                name = f"{prefix}{j}"
                namespace[name] = h * row[j]
                terms.append((name, j))
        return terms

    def accumulate(target: str, m: int, terms: list[tuple[str, int]]) -> None:
        step.extend(_fold(target, [ys[m]] + [f"{w} * k{j}_{m}" for w, j in terms], " + "))

    points = ", ".join(f"p{m}" for m in range(dimension))
    for i in range(len(b)):
        terms = weights(a[i], i, f"a{i}_")
        for m in range(dimension):
            accumulate(f"p{m}", m, terms)
        stage = ", ".join(f"k{i}_{m}" for m in range(dimension))
        step.append(f"[{stage}] = f([{points}])")
    terms = weights(b, len(b), "b")
    for m in range(dimension):
        accumulate(ys[m], m, terms)
    state = ", ".join(ys)
    source = "\n".join([
        "def row(y):", f"    [{state}] = y", f"    for _ in range({substeps}):",
        *(f"        {line}" for line in step), f"    return ({state},)",
    ])
    exec(compile(source, "<bsharp rk row>", "exec"), namespace)
    return namespace["row"]


def _build_field(plan: SimulationPlan) -> Field:
    if plan.mode in ("direct", "reference"):
        return system_field(plan.system)
    if plan.mode == "modified":
        solve = sys.modules[__name__].modified_equation_series  # see __getattr__
        flow = solve(rk_series(plan.tableau, plan.series_order))
    else:
        from .modifying import modifying_integrator_of_tableau

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
    field = _build_field(plan)
    if plan.mode == "direct":
        a, b = _float_tableau(plan.tableau, plan.system.parameters)
        substeps, h_sub = 1, plan.step
    else:
        a, b = _RK4_A, _RK4_B
        substeps, h_sub = _REFINE, plan.step / _REFINE
    return _rows(plan, _row_function(a, b, h_sub, substeps, plan.system.dimension, field))


def _rows(plan: SimulationPlan, row) -> Iterator[tuple[float, tuple[float, ...]]]:
    y = tuple(float(v) for v in plan.initial)
    yield 0.0, y
    for i in range(1, plan.rows):
        last_t = (i - 1) * plan.step
        try:
            y = row(y)
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
        yield i * plan.step, y


def run_simulation(plan: SimulationPlan) -> list[tuple[float, tuple[float, ...]]]:
    """Collect the full trajectory (raises on numeric failure)."""
    return list(iterate_rows(plan))
