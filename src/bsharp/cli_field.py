"""The field half of ``modified-equation`` and ``modifying-integrator``:
with ``--ode`` or ``--ode-text``, the perturbed flow is written as the
right-hand side of a concrete system, in text, LaTeX or JSON.  Only those
runs load this module."""

from __future__ import annotations

from itertools import chain, count
from typing import TYPE_CHECKING

from .cli import _emit, _load_system

if TYPE_CHECKING:
    from .series import TruncatedBSeries


def _step_symbol(variables: tuple[str, ...]) -> str:
    """The first of ``h``, ``h_step``, ``h_step2``, ``h_step3``, ... that
    names no variable, so the printed field reads back unambiguously."""
    names = chain(("h", "h_step"), (f"h_step{i}" for i in count(2)))
    return next(name for name in names if name not in variables)


def emit_field(args, flow: TruncatedBSeries) -> int:
    """Write ``flow`` over the system of ``args`` as one equation per
    component, the step as one more variable.  The components are printed
    together, so a subexpression they share is formatted once."""
    if args.reduce_order_by:
        args.subparser.error("--reduce-order-by does not apply to --ode output")
    from .expressions import add_all, mul_all, power, variable
    from .expressions_extra import format_expressions
    from .odes import DiffCache, series_vector_field

    system = _load_system(args)
    step_name = _step_symbol(system.variables)
    h = variable(system.dimension)
    names = system.variables + (step_name,)
    fields = [
        add_all([mul_all((power(h, d - 1), expr)) for d, expr in component if d > 0])
        for component in series_vector_field(flow, system, DiffCache(system))
    ]

    fmt = args.format or "text"
    if fmt == "json":
        from .cli_json import _json_string, _json_text

        # json.dumps of {"variables", "step_symbol", "equations"}, each
        # component formatted, escaped and written in turn
        def pieces():
            yield '{\n  "variables": ' + _json_text(list(system.variables), "\n  ")
            yield ',\n  "step_symbol": ' + _json_text(step_name)
            sep = ',\n  "equations": {\n    '
            texts = format_expressions(fields, names)
            for name in system.variables:
                yield sep + _json_text(name) + ": "
                yield from _json_string(next(texts))
                sep = ",\n    "
            yield "\n  }\n}\n"

        _emit(args, pieces())
        return 0

    if fmt == "latex":
        from .coefficients_extra import latex_name

        heads = [f"\\dot{{{latex_name(name)}}} = " for name in system.variables]
    else:
        heads = [f"{name}' = " for name in system.variables]

    def lines():
        texts = format_expressions(fields, names, fmt)
        for head in heads:
            yield head
            yield next(texts)
            yield "\n"

    _emit(args, lines())
    return 0
