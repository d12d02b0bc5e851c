"""The ``trees`` command: a listing written row by row.

A listing of more than :data:`_MAX_ROWS` rows is refused before any
output: ``trees 30`` has about 3.5·10^11 of them.  The ``splits``
command's listings (:mod:`bsharp.cli_splits`) are held to the same
bound.
"""

from __future__ import annotations

import argparse

from .cli import _add_output, _emit
from .errors import BSharpError

#: the most rows one listing may have, as a simulation's
_MAX_ROWS = 10**7


def define(command: str, p: argparse.ArgumentParser) -> None:
    _add_output(p)
    p.add_argument("order", type=int, help="tree order (number of nodes)")
    p.add_argument("--properties", action="store_true", help="include sigma, gamma, 1/gamma")
    p.set_defaults(func=cmd_trees)


def _check_rows(rows: int, command: str) -> None:
    if rows > _MAX_ROWS:
        raise BSharpError(
            f"{command} would print {rows:,} rows, more than the {_MAX_ROWS:,} a listing may have"
        )


def cmd_trees(args) -> int:
    from .trees import _check_order, levels_text, tree_counts, trees_of_order

    n = args.order
    if n < 1:
        args.subparser.error("order must be at least 1")
    _check_order(n)
    _check_rows(tree_counts(n)[n], f"trees {n}")
    if not (args.properties or args.format == "json"):
        _emit(args, (f"{tree}\n" for tree in trees_of_order(n)))
        return 0
    from fractions import Fraction

    from .splits import _gamma, _sigma, densities, symmetries, walk

    trees = walk(n)  # order n as trees_of_order lists it, every order below indexed
    symmetries(), densities()  # of the indexed trees, which _sigma and _gamma read
    rows = ((levels_text(seq), _sigma(kids), _gamma(n, kids))
            for m, seq, kids, _ in trees if m == n)
    if args.format == "json":
        from .cli_json import _json_list, _quote

        # each row as json.dumps lays out {"tree", "order", "sigma",
        # "gamma", "inverse_gamma"} in a list
        _emit(args, _json_list(
            f'{{\n    "tree": {_quote(text)},\n    "order": {n},\n'
            f'    "sigma": {sigma},\n    "gamma": {gamma},\n'
            f'    "inverse_gamma": {_quote(str(Fraction(1, gamma)))}\n  }}'
            for text, sigma, gamma in rows
        ))
    else:
        _emit(args, (
            f"{text}: order={n}, sigma={sigma}, gamma={gamma}, 1/gamma={Fraction(1, gamma)}\n"
            for text, sigma, gamma in rows
        ))
    return 0
