"""The ``order`` command: the order of accuracy of a method."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, Sequence

from .cli import _add_output, _count, _emit, _load_tableau
from .errors import ParseError

if TYPE_CHECKING:
    from fractions import Fraction


def define(command: str, p: argparse.ArgumentParser) -> None:
    _add_output(p)
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


def cmd_order(args) -> int:
    from .tableaux_extra import order_of_accuracy

    tab = _load_tableau(args.tableau)
    bindings = _parse_bindings(args.bind, args.subparser, tab.symbols) if args.bind else None
    p = order_of_accuracy(tab, args.max, bindings)
    # json.dumps({"order": p})
    _emit(args, (f'{{"order": {p}}}' if args.format == "json" else str(p), "\n"))
    return 0
