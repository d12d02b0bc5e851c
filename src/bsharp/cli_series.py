"""The commands that print a series: ``bseries``, ``compose``,
``substitute``, ``modified-equation`` and ``modifying-integrator``.  With
an ODE the last two print a field, through :mod:`bsharp.cli_field`."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from .cli import _add_ode_flags, _add_output, _count, _emit, _load_json, _load_tableau

if TYPE_CHECKING:
    from .series import TruncatedBSeries

_FORMATS = ("text", "json", "latex")


def define(command: str, p: argparse.ArgumentParser) -> None:
    if command in ("modified-equation", "modifying-integrator"):
        # a perturbed flow prints as a series (json) or, with --ode, as a field (text)
        _add_output(p, _FORMATS, None, "json; text with --ode")
    else:
        _add_output(p, _FORMATS, "json")
    p.add_argument(
        "--reduce-order-by",
        type=_count,
        default=0,
        metavar="N",
        help="display convention: lower every h exponent by N (text/latex)",
    )
    if command == "bseries":
        p.add_argument(
            "--tableau", required=True, metavar="SPEC", help="built-in name or JSON file"
        )
        p.add_argument("--order", type=_count, required=True, help="truncation order")
        p.set_defaults(func=cmd_bseries)
    elif command == "compose":
        p.add_argument("inner", metavar="INNER", help="series JSON file")
        p.add_argument("outer", metavar="OUTER", help="series JSON file")
        p.add_argument(
            "--normalize-stepsize",
            action="store_true",
            help="treat each factor as a half step of the composite",
        )
        p.set_defaults(func=cmd_compose)
    elif command == "substitute":
        p.add_argument("flow", metavar="FLOW", help="flow-kind series JSON file")
        p.add_argument("outer", metavar="OUTER", help="series JSON file")
        p.set_defaults(func=cmd_substitute)
    else:
        p.add_argument("--tableau", required=True, metavar="SPEC")
        p.add_argument("--order", type=_count, required=True)
        _add_ode_flags(p, required=False)
        variant = "modified" if command == "modified-equation" else "modifying"
        p.set_defaults(func=cmd_perturbed, variant=variant)


def _load_series(path: str) -> TruncatedBSeries:
    from .series_extra import series_from_json_dict

    return series_from_json_dict(_load_json(path))


def _emit_series(args, series: TruncatedBSeries, fmt: str) -> int:
    if fmt == "json":
        if args.reduce_order_by:
            args.subparser.error("--reduce-order-by applies to text/latex output only")
        from .cli_json import _emit_series_json

        _emit_series_json(args, series)
    else:
        from .series_extra import format_series

        _emit(args, (format_series(series, fmt, args.reduce_order_by), "\n"))
    return 0


def cmd_bseries(args) -> int:
    from .tableaux import rk_series

    tab = _load_tableau(args.tableau)
    return _emit_series(args, rk_series(tab, args.order), args.format)


def cmd_compose(args) -> int:
    from .series_extra import compose

    inner = _load_series(args.inner)
    outer = _load_series(args.outer)
    result = compose(inner, outer, normalize_stepsize=args.normalize_stepsize)
    return _emit_series(args, result, args.format)


def cmd_substitute(args) -> int:
    from .series_extra import _flow_from_json, substitute

    flow = _flow_from_json(_load_json(args.flow))
    outer = _load_series(args.outer)
    return _emit_series(args, substitute(flow, outer), args.format)


def _perturbed_flow(args) -> TruncatedBSeries:
    tab = _load_tableau(args.tableau)
    if args.variant == "modified":
        from .series import modified_equation_series
        from .tableaux import rk_series

        return modified_equation_series(rk_series(tab, args.order))
    from .modifying import modifying_integrator_of_tableau

    return modifying_integrator_of_tableau(tab, args.order)


def cmd_perturbed(args) -> int:
    """Shared handler for modified-equation and modifying-integrator."""
    flow = _perturbed_flow(args)
    if args.ode is None and getattr(args, "ode_text", None) is None:
        return _emit_series(args, flow, args.format or "json")

    from .cli_field import emit_field

    return emit_field(args, flow)
