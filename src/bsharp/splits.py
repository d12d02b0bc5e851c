"""The ways to take a tree apart.

*Ordered-subtree splits* choose a parent-closed set of nodes containing the
root (plus the empty choice).  The chosen nodes form the kept subtree; each
maximal unchosen branch falls off intact, and together they form the
complement forest.  These splits define series composition.

*Partition splits* choose a set of edges to remove.  The connected
components left behind form the forest; contracting each component to a
single node gives the skeleton.  These splits drive series substitution.

*Edge cuts* remove a single edge: the part that keeps the root is the
trunk, the part that falls off is the branch.  A tree of order n has n - 1
of them; they drive the Lie-derivative recursion of the modified equation.

The solves read cached tables over tree ids.  This module holds the tree
index and :func:`edge_cut_id_table` of one tree, which the modified
equation and the modifying integrator of a tableau read.  Everything
else lives in :mod:`bsharp.splits_extra`, which only the commands that
read it load: the lazy iterators :func:`~bsharp.splits_extra.ordered_subtrees`
and :func:`~bsharp.splits_extra.partitions`, which yield one split per
subset (a tree of order 40 has ~2**39 edge subsets; taking the first few
must not enumerate them all) wrapped in :class:`~bsharp.trees.RootedTree`
and :class:`~bsharp.splits_extra.Forest`, the partition tables
(:func:`~bsharp.splits_extra.partition_skeleton_table` of all trees of
one order grouped by skeleton), and ``with_child``, through which
:func:`bsharp.series_extra.compose` grows a kept subtree by one root
child in one dict lookup; their names are still read from here.

Nothing walks the 2**(order-1) subsets, a mask, or a level sequence to
canonicalize: every split of a tree is built over ids from those of the
root's children (the coproduct recursion of Calaque, Ebrahimi-Fard and
Manchon, "Two interacting Hopf algebras of trees", 2011).  For a partition
the edge to each child is kept or cut, and equal partial results are
merged as they arise; for a subtree split each child is cut off or kept
in one of its own subtree splits; an edge cut removes the edge to a child
or one of the child's cuts.  :func:`clear_split_caches` drops every
table, memo and the tree index.
"""

from __future__ import annotations

import sys

from . import _forward
from .errors import InvalidTreeError
from .trees import MAX_ORDER, _children

__getattr__ = _forward(globals(), "splits_extra", (
    "Forest", "PartitionSplit", "SubtreeSplit", "ordered_subtrees", "partition_skeleton_table",
    "partition_split_table", "partitions", "with_child",
))


# -- tree index and multiset keys --------------------------------------------
#
# The id tables name trees by dense int ids.  A tree gets its id the first
# time a table meets it, after its children.  A solve builds the tables of
# all trees up to its order in ``all_trees_up_to`` order and every row of a
# tree names only smaller trees and the tree itself, so from an empty index
# the ids follow that order; a single large tree registers only the trees its
# table names, never every tree of its order.
#
# A multiset of trees is one int, its *multiset key*: the count of id i sits
# in bits [_BITS*i, _BITS*(i+1)).  A table of a tree of order n holds no
# multiset with more than n members (the all-cut row of the bush has n
# one-node components), and n <= MAX_ORDER < 2**_BITS, so no count carries
# into its neighbour: a union is one ``+`` and the one-tree multiset of id i
# is ``1 << _BITS*i``.

_BITS = MAX_ORDER.bit_length()


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


_ids: dict[bytes, int] = {}         # canonical level sequence -> id
_seqs: list[bytes] = []             # id -> canonical level sequence
_kids: list[tuple[int, ...]] = []   # id -> children's ids, in level-sequence order


def tree_id(seq: bytes) -> int:
    """Id of the tree with canonical level sequence ``seq``."""
    i = _ids.get(seq)
    if i is None:
        if not seq:
            raise InvalidTreeError("the empty tree has no splits")
        kids = tuple(map(tree_id, _children(seq)))
        i = _ids[seq] = len(_seqs)
        _seqs.append(seq)
        _kids.append(kids)
        _grafts[sum(1 << _BITS * k for k in kids)] = i
    return i


def split_top(key: int) -> tuple[int, int]:
    """(highest id in the non-empty multiset ``key``, the rest of it)."""
    top = (key.bit_length() - 1) // _BITS
    return top, key - (1 << _BITS * top)


def _members(key: int) -> list[int]:
    """The ids of the multiset ``key``, highest first, with repeats."""
    out: list[int] = []
    while key:
        top = (key.bit_length() - 1) // _BITS
        count = key >> _BITS * top
        out += [top] * count
        key -= count << _BITS * top
    return out


def _graft(children: int) -> int:
    """Id of a root carrying the multiset ``children``, met first as a
    skeleton, component, kept subtree or trunk; read through ``_grafts``."""
    members = sorted((_seqs[k] for k in _members(children)), reverse=True)
    return tree_id(b"\x00" + b"".join(bytes(lvl + 1 for lvl in m) for m in members))


_grafts: dict[int, int] = _Memo(_graft)  # multiset key of a root's children -> id


def by_id(coefficients: dict[bytes, object]) -> list:
    """``coefficients`` (keyed by level sequence) as a list indexed by id,
    ``None`` for the indexed trees it lacks."""
    return list(map(coefficients.get, _seqs))


# -- edge-cut tables by the children recursion -------------------------------

def edge_cut_id_table(seq: bytes) -> tuple[tuple[int, int, int], ...]:
    """Distinct single-edge cuts of the tree ``seq`` over tree ids, cached.

    Rows are (trunk id, branch id, multiplicity), in the order of the cut
    node's first appearance in the level sequence; the multiplicities sum
    to order - 1.  The one-node tree has no cuts.
    """
    return _cut_tables[tree_id(seq)]


def _cut_rows(i: int) -> tuple[tuple[int, int, int], ...]:
    rows: dict[tuple[int, int], int] = {}
    kids = _kids[i]
    children = sum([1 << _BITS * c for c in kids])
    for c in kids:
        rest = children - (1 << _BITS * c)
        key = _grafts[rest], c  # the edge to c
        rows[key] = rows.get(key, 0) + 1
        for t, b, k in _cut_tables[c]:  # an edge inside c
            key = _grafts[rest + (1 << _BITS * t)], b
            rows[key] = rows.get(key, 0) + k
    return tuple([(t, b, k) for (t, b), k in rows.items()])


_cut_tables: dict[int, tuple] = _Memo(_cut_rows)  # id -> rows (trunk id, branch id, multiplicity)


def clear_split_caches() -> None:
    """Drop every cached split table and the memos behind them, those of
    :mod:`bsharp.splits_extra` too once it is loaded."""
    for memo in (_cut_tables, _ids, _seqs, _kids, _grafts):
        memo.clear()
    extra = sys.modules.get(f"{__name__}_extra")
    if extra is not None:
        extra._clear()
