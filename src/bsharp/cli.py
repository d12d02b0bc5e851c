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
import math
import os
import sys
from itertools import chain, count, islice
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, TextIO

from .errors import BSharpError, NumericFailureError, ParseError

# Each command imports the layers it runs when it is entered, so a cold
# start loads (and, without cached bytecode, compiles) nothing else; json
# is imported only by the branches that read or write JSON.
if TYPE_CHECKING:
    from fractions import Fraction

    from .odes import ODESystem
    from .series import TruncatedBSeries
    from .tableaux import ButcherTableau


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    import json

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


def _parse_bindings(pairs: Sequence[str], parser, symbols) -> dict[str, Fraction]:
    from .coefficients import parse_rational

    bindings: dict[str, Fraction] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        name = name.strip()
        if not eq or not name:
            parser.error(f"--bind expects name=value, got {pair!r}")
        if name in bindings:
            parser.error(f"--bind {name} is given twice")
        if name not in symbols:
            parser.error(f"--bind {name}: the tableau has no symbol {name!r}")
        try:
            bindings[name] = parse_rational(value)
        except ParseError:
            parser.error(f"--bind {name}: {value!r} is not a rational number")
    return bindings


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
#
# A command runs everything that can fail (validation, the solve, building
# the expression DAG; only a simulation's numeric blow-up comes later)
# before it opens its output, and then writes each piece
# as soon as it exists: a field component right after it is formatted, a
# tree, split or simulation row as it is enumerated, JSON chunk by chunk.
# Such output is never held whole, so its memory grows with the largest
# piece, not with several copies of everything printed; a series' text or
# JSON dict and a JSON field's formatted components are still built whole
# before they are written.  Pieces go out in batches of
# about _BATCH characters, because an unbuffered stdout (PYTHONUNBUFFERED)
# turns every write into a system call; a piece that large on its own is
# written as it is, without another copy.

_BATCH = 1 << 16


def _open_output(args) -> TextIO:
    if args.output:
        return open(args.output, "w", encoding="utf-8", newline="")
    return sys.stdout


def _emit(args, pieces: Iterable[str]) -> None:
    """Write ``pieces`` in batches; what is batched when ``pieces`` raises
    is written before the exception goes on."""
    out = _open_output(args)
    batch: list[str] = []
    size = 0
    try:
        for piece in pieces:
            if len(piece) >= _BATCH:
                # taken out of the batch before it is written, so that a
                # failed write is not repeated by the flush below
                text, batch, size = "".join(batch), [], 0
                if text:
                    out.write(text)
                out.write(piece)
                continue
            batch.append(piece)
            size += len(piece)
            if size >= _BATCH:
                text, batch, size = "".join(batch), [], 0
                out.write(text)
    finally:
        try:
            if batch:
                out.write("".join(batch))
        finally:
            if out is sys.stdout:
                out.flush()
            else:
                out.close()


def _primed(rows: Iterator) -> Iterator:
    """``rows`` with its first item drawn now, so that whatever a generator
    checks when it starts fails before the output is opened."""
    first = list(islice(rows, 1))
    return chain(first, rows)


def _emit_json(args, data, indent: int | None = 2) -> None:
    """``json.dumps(data, indent=indent)`` and a newline, chunk by chunk."""
    import json

    _emit(args, chain(json.JSONEncoder(indent=indent).iterencode(data), ("\n",)))


def _json_list(items: Iterable) -> Iterator[str]:
    """The text of ``json.dumps(list(items), indent=2)`` and a newline,
    one element at a time.  An element's own text has no raw newline but
    those of the layout (JSON escapes them in strings), so indenting it
    one level is a replace."""
    import json

    encode = json.JSONEncoder(indent=2).encode
    sep = "[\n  "
    for item in items:
        yield sep
        yield encode(item).replace("\n", "\n  ")
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _emit_series(args, series: TruncatedBSeries, fmt: str) -> int:
    from .series import format_series, series_to_json_dict

    if fmt == "json":
        if args.reduce_order_by:
            args.subparser.error("--reduce-order-by applies to text/latex output only")
        _emit_json(args, series_to_json_dict(series))
    else:
        _emit(args, (format_series(series, fmt, args.reduce_order_by), "\n"))
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_trees(args) -> int:
    from fractions import Fraction

    from .trees import trees_of_order

    if args.order < 1:
        args.subparser.error("order must be at least 1")
    trees = _primed(trees_of_order(args.order))
    if not (args.properties or args.format == "json"):
        _emit(args, (f"{tree}\n" for tree in trees))
        return 0
    rows = ((t, t.symmetry(), t.density()) for t in trees)
    if args.format == "json":
        _emit(args, _json_list(
            {
                "tree": str(t),
                "order": t.order,
                "sigma": sigma,
                "gamma": gamma,
                "inverse_gamma": str(Fraction(1, gamma)),
            }
            for t, sigma, gamma in rows
        ))
    else:
        _emit(args, (
            f"{t}: order={t.order}, sigma={sigma}, gamma={gamma}, 1/gamma={Fraction(1, gamma)}\n"
            for t, sigma, gamma in rows
        ))
    return 0


def cmd_splits(args) -> int:
    from .splits import ordered_subtrees, partitions
    from .trees import parse_tree

    tree = parse_tree(args.tree)
    if args.kind == "subtrees":
        label, splits = "subtree", _primed(ordered_subtrees(tree))
    else:
        label, splits = "skeleton", _primed(partitions(tree))
    if args.format == "json":
        _emit(args, _json_list(
            {label: str(kept), "forest": [str(t) for t in forest]} for kept, forest in splits
        ))
    else:
        _emit(args, (f"{kept} ; {forest}\n" for kept, forest in splits))
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
    from .modifying import modifying_integrator_of_tableau

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
    step_name = _step_symbol(system.variables)
    h = variable(system.dimension)
    names = system.variables + (step_name,)
    fields = [
        add_all([mul_all((power(h, degree - 1), expr)) for degree, expr in component if degree > 0])
        for component in series_vector_field(flow, system, DiffCache(system))
    ]

    fmt = args.format or "text"
    if fmt == "json":
        _emit_json(args, {
            "variables": list(system.variables),
            "step_symbol": step_name,
            "equations": {
                name: format_expression(f, names)
                for name, f in zip(system.variables, fields)
            },
        })
        return 0

    def lines():
        for name, f in zip(system.variables, fields):
            yield f"\\dot{{{latex_name(name)}}} = " if fmt == "latex" else f"{name}' = "
            yield format_expression(f, names, fmt)
            yield "\n"

    _emit(args, lines())
    return 0


def cmd_order(args) -> int:
    from .tableaux import order_of_accuracy

    tab = _load_tableau(args.tableau)
    bindings = _parse_bindings(args.bind, args.subparser, tab.symbols) if args.bind else None
    p = order_of_accuracy(tab, args.max, bindings)
    if args.format == "json":
        _emit_json(args, {"order": p}, indent=None)
    else:
        _emit(args, (str(p), "\n"))
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
    header = "t," + ",".join(system.variables) + "\n"
    lines = (f"{t!r}," + ",".join(repr(v) for v in y) + "\n" for t, y in rows)
    try:
        _emit(args, chain((header,), lines))
    except NumericFailureError as exc:
        # the rows before the failure are written
        print(f"error: {exc} (last valid t = {exc.last_valid_t!r})", file=sys.stderr)
        return 4
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
