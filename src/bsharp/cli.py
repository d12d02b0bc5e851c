"""Command-line front end.

Subcommands expose the library end to end: listing trees and their split
tables, computing a method's series, composing and substituting series from
JSON files, deriving modified equations and modifying integrators (as
coefficient tables or, with an ODE, as symbolic right-hand sides), checking
orders of accuracy, and running fixed-step simulations to CSV.

Exit codes: 0 success, 2 usage error, 3 bad input (files, syntax, or
domain errors), 4 numeric failure during simulation.

Each command's arguments and handler live in a module of their own
(:data:`COMMANDS`), which imports the layers it runs when the handler is
entered; JSON output lives in :mod:`bsharp.cli_json`.  :func:`main`
registers and defines the named command alone, unless it comes after an
option (the help, or an error that lists every command), so a cold start
loads (and, without cached bytecode, compiles) that command's code and
nothing else.  :func:`build_parser` defines every command's arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Collection, Iterable, Optional, Sequence, TextIO

from . import _load
from .errors import BSharpError, NumericFailureError

if TYPE_CHECKING:
    from .odes import ODESystem
    from .tableaux import ButcherTableau

# command -> (the module that defines its arguments and handler, its help)
COMMANDS = {
    "trees": ("cli_trees", "list canonical rooted trees of one order"),
    "splits": ("cli_trees", "list the split table of a tree"),
    "bseries": ("cli_series", "series of a Runge-Kutta method"),
    "compose": ("cli_series", "compose two series (INNER first, then OUTER)"),
    "substitute": ("cli_series", "substitute a flow series into another series"),
    "modified-equation": ("cli_series", "flow whose exact solution the method samples"),
    "modifying-integrator": ("cli_series", "flow the method integrates exactly"),
    "order": ("cli_order", "order of accuracy of a method"),
    "simulate": ("cli_simulate", "fixed-step integration, CSV output"),
}


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


def _load_system(args) -> ODESystem:
    from .odes import parse_ode

    if getattr(args, "ode_text", None) is not None:
        return parse_ode(args.ode_text)
    with open(args.ode, "r", encoding="utf-8") as fh:
        return parse_ode(fh.read())


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
#
# A command runs everything that can fail (validation, the solve, building
# the expression DAG; only a simulation's numeric blow-up comes later)
# before it opens its output, and then writes each piece as soon as it
# exists: a field component, a tree, split or simulation row, a JSON member.
# Such output is never held whole, so its memory grows with the largest
# piece, not with several copies of everything printed; a series' text and
# its JSON dict are still built whole before they are written.  Pieces go
# out in batches of about _BATCH characters, because an unbuffered stdout
# (PYTHONUNBUFFERED) turns every write into a system call; a piece that
# large on its own is written as it is, without another copy.

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


def _add_output(
    p: argparse.ArgumentParser, formats=("text", "json"), default="text", shown=None
) -> None:
    """The --format and --output flags that every command starts with."""
    p.add_argument(
        "--format",
        choices=formats,
        default=default,
        help=f"output format (default: {shown or default})",
    )
    p.add_argument("--output", metavar="FILE", help="write output here instead of stdout")
    p.set_defaults(subparser=p)


def _add_ode_flags(p: argparse.ArgumentParser, required: bool) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--ode", metavar="FILE", help="ODE system file")
    group.add_argument(
        "--ode-text", metavar="SRC", help="ODE system given inline", dest="ode_text"
    )


def _parser(defined: Collection[str], registered: Collection[str] = COMMANDS):
    """The parser with the commands in ``registered`` registered and the
    arguments of those in ``defined`` defined by their modules."""
    parser = argparse.ArgumentParser(
        prog="bsharp",
        description="Exact B-series computations for Runge-Kutta methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in registered:
        p = sub.add_parser(name, help=COMMANDS[name][1])
        if name in defined:
            _load(COMMANDS[name][0]).define(name, p)
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _parser(COMMANDS)


def _command(argv: Sequence[str]) -> str:
    """The command ``argv`` names: its first word that is not an option,
    as the top level takes no option but -h (empty if there is none)."""
    return next((arg for arg in argv if not arg.startswith("-")), "")


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = _command(argv)
    alone = command in COMMANDS and argv[0] == command  # else the help or an error lists all
    parser = _parser((command,), (command,) if alone else COMMANDS)
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
