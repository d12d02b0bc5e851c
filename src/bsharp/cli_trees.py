"""The ``trees`` and ``splits`` commands: listings written row by row.

A listing of more than :data:`_MAX_ROWS` rows is refused before any
output: ``trees 30`` has about 3.5·10^11 of them, and the partitions of
a 40-node tree 2^39.  So is a ``splits`` listing whose rows times the
tree's order pass :data:`_MAX_NODES`: the subtree splits of a 24-node
bush are 8,388,609 rows, about 2·10^8 nodes.
"""

from __future__ import annotations

import argparse
import math
from itertools import chain, islice
from typing import Iterator

from .cli import _add_output, _emit
from .errors import BSharpError

#: the most rows one listing may have, as a simulation's
_MAX_ROWS = 10**7
#: the most rows times tree order one ``splits`` listing may have, some
#: 10 s of output
_MAX_NODES = 10**7


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

    from .splits import _gamma, _sigma, densities, symmetries, top_order

    trees = top_order(n)  # as trees_of_order lists them, every order below indexed
    symmetries(), densities()  # of the indexed trees, which _sigma and _gamma read
    rows = ((levels_text(seq), _sigma(kids), _gamma(n, kids)) for seq, kids in trees)
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


def _kept(i: int) -> int:
    """The subtree splits of the indexed tree ``i`` that keep its root:
    Π (1 + those of a child) over its children."""
    from .splits import _kids

    return math.prod(1 + _kept(child) for child in _kids[i])


def cmd_splits(args) -> int:
    from .splits_extra import ordered_subtrees, partitions, tree_id
    from .trees_extra import parse_tree

    tree = parse_tree(args.tree)
    command = f"splits {tree} --kind {args.kind}"
    if args.kind == "subtrees":
        rows, label, splits = _kept(tree_id(tree._levels)) + 1, "subtree", ordered_subtrees
    else:
        rows, label, splits = 2 ** (tree.order - 1), "skeleton", partitions
    _check_rows(rows, command)
    if rows * tree.order > _MAX_NODES:
        raise BSharpError(
            f"{command} would print {rows:,} rows of {tree.order} nodes, about "
            f"{rows * tree.order:,} nodes, more than the {_MAX_NODES:,} a listing may have"
        )
    splits = _primed(splits(tree))
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
