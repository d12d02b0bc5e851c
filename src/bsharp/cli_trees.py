"""The ``trees`` and ``splits`` commands: listings written row by row."""

from __future__ import annotations

import argparse
from itertools import chain, islice
from typing import Iterator

from .cli import _add_output, _emit


def define(command: str, p: argparse.ArgumentParser) -> None:
    _add_output(p)
    if command == "trees":
        p.add_argument("order", type=int, help="tree order (number of nodes)")
        p.add_argument("--properties", action="store_true", help="include sigma, gamma, 1/gamma")
        p.set_defaults(func=cmd_trees)
    else:
        p.add_argument("tree", help="tree in level notation, e.g. [0,1,2,1]")
        p.add_argument(
            "--kind",
            choices=("subtrees", "partitions"),
            required=True,
            help="ordered-subtree splits or edge-partition splits",
        )
        p.set_defaults(func=cmd_splits)


def _primed(rows: Iterator) -> Iterator:
    """``rows`` with its first item drawn now, so that whatever a generator
    checks when it starts fails before the output is opened."""
    first = list(islice(rows, 1))
    return chain(first, rows)


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
        from .cli_json import _json_list, _quote

        # each row as json.dumps lays out {"tree", "order", "sigma",
        # "gamma", "inverse_gamma"} in a list
        _emit(args, _json_list(
            f'{{\n    "tree": {_quote(str(t))},\n    "order": {t.order},\n'
            f'    "sigma": {sigma},\n    "gamma": {gamma},\n'
            f'    "inverse_gamma": {_quote(str(Fraction(1, gamma)))}\n  }}'
            for t, sigma, gamma in rows
        ))
    else:
        _emit(args, (
            f"{t}: order={t.order}, sigma={sigma}, gamma={gamma}, 1/gamma={Fraction(1, gamma)}\n"
            for t, sigma, gamma in rows
        ))
    return 0


def cmd_splits(args) -> int:
    from .splits_extra import ordered_subtrees, partitions
    from .trees_extra import parse_tree

    tree = parse_tree(args.tree)
    if args.kind == "subtrees":
        label, splits = "subtree", _primed(ordered_subtrees(tree))
    else:
        label, splits = "skeleton", _primed(partitions(tree))
    if args.format == "json":
        from .cli_json import _json_list, _quote

        # each row as json.dumps lays out {label: kept, "forest": [...]} in
        # a list; "∅", the empty subtree, is escaped
        head = f"{{\n    {_quote(label)}: "

        def row(kept, forest) -> str:
            members = ",\n      ".join([_quote(str(t)) for t in forest])
            listed = f"[\n      {members}\n    ]" if members else "[]"
            return f'{head}{_quote(str(kept))},\n    "forest": {listed}\n  }}'

        _emit(args, _json_list(row(kept, forest) for kept, forest in splits))
    else:
        _emit(args, (f"{kept} ; {forest}\n" for kept, forest in splits))
    return 0
