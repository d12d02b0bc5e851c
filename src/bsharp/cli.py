"""Command-line front end.

Subcommands expose the library end to end: listing trees and their split
tables, computing a method's series, composing and substituting series from
JSON files, deriving modified equations and modifying integrators (as
coefficient tables or, with an ODE, as symbolic right-hand sides), checking
orders of accuracy, and running fixed-step simulations to CSV.

Exit codes: 0 success, 2 usage error, 3 bad input (files, syntax, or
domain errors), 4 numeric failure during simulation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain, count
from typing import TYPE_CHECKING, Optional, Sequence, TextIO

from .errors import BSharpError, NumericFailureError, ParseError

# Each command imports the layers it runs when it is entered, so a cold
# start loads (and, without cached bytecode, compiles) nothing else.
if TYPE_CHECKING:
    from fractions import Fraction

    from .odes import ODESystem
    from .series import TruncatedBSeries
    from .tableaux import ButcherTableau


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise BSharpError(f"{path}: not valid JSON ({exc})") from exc


def _load_tableau(spec: str) -> ButcherTableau:
    """A tableau argument is a JSON file path or a built-in name."""
    from .tableaux import builtin_tableau, tableau_from_json_dict

    if os.path.exists(spec) or spec.endswith(".json"):
        return tableau_from_json_dict(_load_json(spec))
    return builtin_tableau(spec)


def _load_series(path: str) -> TruncatedBSeries:
    from .series import series_from_json_dict

    return series_from_json_dict(_load_json(path))


def _load_system(args) -> ODESystem:
    from .odes import parse_ode

    if getattr(args, "ode_text", None) is not None:
        return parse_ode(args.ode_text)
    with open(args.ode, "r", encoding="utf-8") as fh:
        return parse_ode(fh.read())


def _parse_bindings(pairs: Sequence[str], parser) -> dict[str, Fraction]:
    from .coefficients import parse_rational

    bindings: dict[str, Fraction] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        name = name.strip()
        if not eq or not name:
            parser.error(f"--bind expects name=value, got {pair!r}")
        try:
            bindings[name] = parse_rational(value)
        except ParseError:
            parser.error(f"--bind {name}: {value!r} is not a rational number")
    return bindings


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _open_output(args) -> TextIO:
    if args.output:
        return open(args.output, "w", encoding="utf-8", newline="")
    return sys.stdout


def _emit(args, text: str) -> None:
    out = _open_output(args)
    try:
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _emit_series(args, series: TruncatedBSeries, fmt: str) -> int:
    from .series import format_series, series_to_json_dict

    if fmt == "json":
        if args.reduce_order_by:
            args.subparser.error("--reduce-order-by applies to text/latex output only")
        _emit(args, json.dumps(series_to_json_dict(series), indent=2))
    else:
        _emit(args, format_series(series, fmt, args.reduce_order_by))
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_trees(args) -> int:
    from fractions import Fraction

    from .trees import trees_of_order

    if args.order < 1:
        args.subparser.error("order must be at least 1")
    rows = []
    for tree in trees_of_order(args.order):
        sigma, gamma = tree.symmetry(), tree.density()
        rows.append((tree, sigma, gamma))
    if args.format == "json":
        _emit(args, json.dumps(
            [
                {
                    "tree": str(t),
                    "order": t.order,
                    "sigma": sigma,
                    "gamma": gamma,
                    "inverse_gamma": str(Fraction(1, gamma)),
                }
                for t, sigma, gamma in rows
            ],
            indent=2,
        ))
        return 0
    lines = []
    for tree, sigma, gamma in rows:
        if args.properties:
            lines.append(
                f"{tree}: order={tree.order}, sigma={sigma}, gamma={gamma}, "
                f"1/gamma={Fraction(1, gamma)}"
            )
        else:
            lines.append(str(tree))
    _emit(args, "\n".join(lines))
    return 0


def cmd_splits(args) -> int:
    from .splits import ordered_subtrees, partitions
    from .trees import parse_tree

    tree = parse_tree(args.tree)
    if args.kind == "subtrees":
        label = "subtree"
        pairs = [(s.subtree, s.forest) for s in ordered_subtrees(tree)]
    else:
        label = "skeleton"
        pairs = [(s.skeleton, s.forest) for s in partitions(tree)]
    if args.format == "json":
        _emit(args, json.dumps(
            [
                {label: str(kept), "forest": [str(t) for t in forest]}
                for kept, forest in pairs
            ],
            indent=2,
        ))
        return 0
    _emit(args, "\n".join(f"{skel} ; {forest}" for skel, forest in pairs))
    return 0


def cmd_bseries(args) -> int:
    from .tableaux import rk_series

    tab = _load_tableau(args.tableau)
    return _emit_series(args, rk_series(tab, args.order), args.format)


def cmd_compose(args) -> int:
    from .series import compose

    inner = _load_series(args.inner)
    outer = _load_series(args.outer)
    result = compose(inner, outer, normalize_stepsize=args.normalize_stepsize)
    return _emit_series(args, result, args.format)


def cmd_substitute(args) -> int:
    from .series import substitute

    flow = _load_series(args.flow)
    outer = _load_series(args.outer)
    return _emit_series(args, substitute(flow, outer), args.format)


def _perturbed_flow(args) -> TruncatedBSeries:
    tab = _load_tableau(args.tableau)
    if args.variant == "modified":
        from .series import modified_equation_series
        from .tableaux import rk_series

        return modified_equation_series(rk_series(tab, args.order))
    from .graded import modifying_integrator_of_tableau

    return modifying_integrator_of_tableau(tab, args.order)


def _step_symbol(variables: tuple[str, ...]) -> str:
    """The first of ``h``, ``h_step``, ``h_step2``, ``h_step3``, ... that
    names no variable, so the printed field reads back unambiguously."""
    names = chain(("h", "h_step"), (f"h_step{i}" for i in count(2)))
    return next(name for name in names if name not in variables)


def cmd_perturbed(args) -> int:
    """Shared handler for modified-equation and modifying-integrator."""
    flow = _perturbed_flow(args)
    if args.ode is None and getattr(args, "ode_text", None) is None:
        return _emit_series(args, flow, args.format or "json")

    if args.reduce_order_by:
        args.subparser.error("--reduce-order-by does not apply to --ode output")
    from .coefficients import latex_name
    from .expressions import add_all, format_expression, mul_all, power, variable
    from .odes import DiffCache, series_vector_field

    system = _load_system(args)
    terms = series_vector_field(flow, system, DiffCache(system))
    step_name = _step_symbol(system.variables)
    h = variable(system.dimension)
    names = system.variables + (step_name,)

    fields = []
    for component in terms:
        parts = [
            mul_all((power(h, degree - 1), expr))
            for degree, expr in component
            if degree > 0
        ]
        fields.append(add_all(parts))

    fmt = args.format or "text"
    if fmt == "json":
        _emit(args, json.dumps(
            {
                "variables": list(system.variables),
                "step_symbol": step_name,
                "equations": {
                    name: format_expression(f, names)
                    for name, f in zip(system.variables, fields)
                },
            },
            indent=2,
        ))
        return 0
    lines = []
    for name, f in zip(system.variables, fields):
        body = format_expression(f, names, fmt)
        if fmt == "latex":
            lines.append(f"\\dot{{{latex_name(name)}}} = {body}")
        else:
            lines.append(f"{name}' = {body}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_order(args) -> int:
    from .tableaux import order_of_accuracy

    tab = _load_tableau(args.tableau)
    bindings = _parse_bindings(args.bind, args.subparser) if args.bind else None
    p = order_of_accuracy(tab, args.max, bindings)
    if args.format == "json":
        _emit(args, json.dumps({"order": p}))
    else:
        _emit(args, str(p))
    return 0


def cmd_simulate(args) -> int:
    if args.modifying_integrator and args.modified_order is None:
        args.subparser.error("--modifying-integrator requires --modified-order")
    if args.reference and args.modified_order is not None:
        args.subparser.error("--reference and --modified-order are mutually exclusive")
    if not (math.isfinite(args.step) and args.step > 0):
        args.subparser.error("--step must be finite and positive")
    if not (math.isfinite(args.t_max) and args.t_max > 0):
        args.subparser.error("--t-max must be finite and positive")
    if args.modified_order is not None and args.modified_order < 1:
        args.subparser.error("--modified-order must be at least 1")
    from .simulate import SimulationPlan, iterate_rows

    tab = _load_tableau(args.tableau)
    system = _load_system(args)
    try:
        initial = tuple(float(v) for v in args.initial.split(","))
    except ValueError:
        args.subparser.error(f"--initial must be comma-separated numbers, got {args.initial!r}")
    if not all(map(math.isfinite, initial)):
        args.subparser.error(f"--initial must be finite, got {args.initial!r}")

    if args.reference:
        mode = "reference"
    elif args.modified_order is not None:
        mode = "modifying" if args.modifying_integrator else "modified"
    else:
        mode = "direct"

    plan = SimulationPlan(
        tableau=tab,
        system=system,
        step=args.step,
        t_max=args.t_max,
        initial=initial,
        mode=mode,
        series_order=args.modified_order if args.modified_order is not None else 2,
    )

    rows = iterate_rows(plan)  # refuses a plan before any output
    out = _open_output(args)
    try:
        out.write("t," + ",".join(system.variables) + "\n")
        try:
            for t, y in rows:
                out.write(f"{t!r}," + ",".join(repr(v) for v in y) + "\n")
        except NumericFailureError as exc:
            out.flush()
            print(
                f"error: {exc} (last valid t = {exc.last_valid_t!r})",
                file=sys.stderr,
            )
            return 4
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _count(text: str) -> int:
    """A non-negative integer argument; argparse names the flag in its error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_reduce_order(p: argparse.ArgumentParser) -> None:
    """Only the commands that print a series offer the display shift."""
    p.add_argument(
        "--reduce-order-by",
        type=_count,
        default=0,
        metavar="N",
        help="display convention: lower every h exponent by N (text/latex)",
    )


def _add_ode_flags(p: argparse.ArgumentParser, required: bool) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--ode", metavar="FILE", help="ODE system file")
    group.add_argument(
        "--ode-text", metavar="SRC", help="ODE system given inline", dest="ode_text"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsharp",
        description="Exact B-series computations for Runge-Kutta methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def new(
        name: str, help: str, formats=("text", "json"), default="text", shown=None
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "--format",
            choices=formats,
            default=default,
            help=f"output format (default: {shown or default})",
        )
        p.add_argument("--output", metavar="FILE", help="write output here instead of stdout")
        p.set_defaults(subparser=p)
        return p

    series_formats = ("text", "json", "latex")
    # a perturbed flow prints as a series (json) or, with --ode, as a field (text)
    flow_default = (None, "json; text with --ode")

    p = new("trees", "list canonical rooted trees of one order")
    p.add_argument("order", type=int, help="tree order (number of nodes)")
    p.add_argument("--properties", action="store_true", help="include sigma, gamma, 1/gamma")
    p.set_defaults(func=cmd_trees)

    p = new("splits", "list the split table of a tree")
    p.add_argument("tree", help="tree in level notation, e.g. [0,1,2,1]")
    p.add_argument(
        "--kind",
        choices=("subtrees", "partitions"),
        required=True,
        help="ordered-subtree splits or edge-partition splits",
    )
    p.set_defaults(func=cmd_splits)

    p = new("bseries", "series of a Runge-Kutta method", series_formats, "json")
    _add_reduce_order(p)
    p.add_argument("--tableau", required=True, metavar="SPEC", help="built-in name or JSON file")
    p.add_argument("--order", type=_count, required=True, help="truncation order")
    p.set_defaults(func=cmd_bseries)

    p = new("compose", "compose two series (INNER first, then OUTER)", series_formats, "json")
    _add_reduce_order(p)
    p.add_argument("inner", metavar="INNER", help="series JSON file")
    p.add_argument("outer", metavar="OUTER", help="series JSON file")
    p.add_argument(
        "--normalize-stepsize",
        action="store_true",
        help="treat each factor as a half step of the composite",
    )
    p.set_defaults(func=cmd_compose)

    p = new("substitute", "substitute a flow series into another series", series_formats, "json")
    _add_reduce_order(p)
    p.add_argument("flow", metavar="FLOW", help="flow-kind series JSON file")
    p.add_argument("outer", metavar="OUTER", help="series JSON file")
    p.set_defaults(func=cmd_substitute)

    p = new(
        "modified-equation", "flow whose exact solution the method samples",
        series_formats, *flow_default,
    )
    _add_reduce_order(p)
    p.add_argument("--tableau", required=True, metavar="SPEC")
    p.add_argument("--order", type=_count, required=True)
    _add_ode_flags(p, required=False)
    p.set_defaults(func=cmd_perturbed, variant="modified")

    p = new(
        "modifying-integrator", "flow the method integrates exactly",
        series_formats, *flow_default,
    )
    _add_reduce_order(p)
    p.add_argument("--tableau", required=True, metavar="SPEC")
    p.add_argument("--order", type=_count, required=True)
    _add_ode_flags(p, required=False)
    p.set_defaults(func=cmd_perturbed, variant="modifying")

    p = new("order", "order of accuracy of a method")
    p.add_argument("--tableau", required=True, metavar="SPEC")
    p.add_argument("--max", type=_count, required=True, help="highest order to check")
    p.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind a tableau symbol to a rational (repeatable)",
    )
    p.set_defaults(func=cmd_order)

    p = new("simulate", "fixed-step integration, CSV output", ("text",))
    p.add_argument("--tableau", required=True, metavar="SPEC")
    _add_ode_flags(p, required=True)
    p.add_argument("--step", type=float, required=True, help="output step size h")
    p.add_argument("--t-max", type=float, required=True, dest="t_max")
    p.add_argument(
        "--initial", required=True, help="initial point, comma-separated, e.g. 1,0"
    )
    p.add_argument(
        "--modified-order",
        type=int,
        default=None,
        metavar="K",
        dest="modified_order",
        help="integrate the order-K modified equation instead of the method",
    )
    p.add_argument(
        "--modifying-integrator",
        action="store_true",
        dest="modifying_integrator",
        help="with --modified-order: use the modifying-integrator field",
    )
    p.add_argument(
        "--reference",
        action="store_true",
        help="classical RK4 at h/100 on the original system",
    )
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except NumericFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BSharpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # an exact number with more digits than Python converts to text;
        # any other ValueError is a bug
        if "integer string conversion" not in str(exc):
            raise
        print(
            f"error: a number has more than {sys.get_int_max_str_digits()} digits "
            "(PYTHONINTMAXSTRDIGITS raises the limit)",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
