"""The ``splits`` command: the split table of one tree, written row by row.

A listing of more than :data:`bsharp.cli_trees._MAX_ROWS` rows is refused
before any output, as a ``trees`` listing is: the partitions of a 40-node
tree are 2^39.  So is one whose rows times the tree's order pass
:data:`_MAX_NODES`: the subtree splits of a 24-node bush are 8,388,609
rows, about 2·10^8 nodes.
"""

from __future__ import annotations

import argparse
import math
from itertools import chain, islice
from typing import Iterator

from .cli import _add_output, _emit
from .cli_trees import _check_rows
from .errors import BSharpError

#: the most rows times tree order one ``splits`` listing may have, some
#: 10 s of output
_MAX_NODES = 10**7


def define(command: str, p: argparse.ArgumentParser) -> None:
    _add_output(p)
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
