"""Split tables and iterators that the modified-equation path never reads.

The companion of :mod:`bsharp.splits`, over its tree index, and loaded
only by the commands that read one of these: the id of a tree met as a
level sequence (:func:`tree_id`), the lazy iterators
:func:`ordered_subtrees` and :func:`partitions` (the ``splits`` command),
and the partition tables that :func:`bsharp.series_extra.substitute` and
the modifying integrator of a series sum.  A multiset of trees is named
by the sorted tuple of its ids, or as the children of one root.
:func:`clear_split_caches` drops the tables of both modules and the tree
index.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple, Union

from . import splits
from .errors import InvalidTreeError
from .splits import _cut_tables, _grafts, _ids, _kids, _Memo, _seqs, with_child
from .trees import RootedTree
from .trees_extra import EMPTY_TREE, _children, _EmptyTree


def tree_id(seq: bytes) -> int:
    """Id of the tree with canonical level sequence ``seq``, indexed when
    it is first met, after its children."""
    i = _ids.get(seq)
    if i is None:
        if not seq:
            raise InvalidTreeError("the empty tree has no splits")
        i = _ids[seq] = _grafts[tuple(sorted(map(tree_id, _children(seq))))]
    return i


def _merge(a: int, b: int) -> int:
    """Id of the tree whose root children are those of ``a`` and ``b``."""
    return _grafts[tuple(sorted(_kids[a] + _kids[b]))]


# tree id a -> {tree id b: id of the tree whose root children are those of
# a and b}: how a kept child's skeleton and other components join ours
with_children_of: dict[int, dict[int, int]] = _Memo(lambda a: _Memo(lambda b: _merge(a, b)))


class Forest(tuple):
    """A multiset of trees, kept sorted by (order, level sequence)."""

    __slots__ = ()

    def __new__(cls, trees: tuple[RootedTree, ...] = ()):
        return super().__new__(cls, sorted(trees))

    @property
    def order(self) -> int:
        return sum(t.order for t in self)

    def __str__(self) -> str:
        return "{" + ", ".join(str(t) for t in self) + "}"

    def __repr__(self) -> str:
        return f"Forest({list(self)!r})"


class SubtreeSplit(NamedTuple):
    """One ordered-subtree split: the kept subtree (or ∅) and the forest of
    branches that were cut off."""

    subtree: Union[RootedTree, _EmptyTree]
    forest: Forest


class PartitionSplit(NamedTuple):
    """One partition split: the contracted skeleton and the component
    forest.  The skeleton always has exactly one node per forest member."""

    skeleton: RootedTree
    forest: Forest


def ordered_subtrees(tree: RootedTree) -> Iterator[SubtreeSplit]:
    """Lazily enumerate every ordered-subtree split of ``tree``.

    Root-only split first, whole-tree split last but one, then the empty
    split.  The number of splits is (number of parent-closed subsets) + 1.
    """
    for kept, forest in _kept(tree_id(tree._levels)):
        members = [RootedTree._wrap(_seqs[m]) for m in forest]
        yield SubtreeSplit(RootedTree._wrap(_seqs[kept]), Forest(tuple(members)))
    yield SubtreeSplit(EMPTY_TREE, Forest((tree,)))


def partitions(tree: RootedTree) -> Iterator[PartitionSplit]:
    """Lazily enumerate all 2**(order-1) partition splits of ``tree``.

    The no-edges-removed split (forest = {tree}, skeleton = the one-node
    tree) comes first; the all-edges-removed split (forest of single nodes,
    skeleton shaped like the tree itself) comes last.
    """
    for comp, skel, others in _states(tree_id(tree._levels)):
        members = [RootedTree._wrap(_seqs[m]) for m in _kids[others] + (comp,)]
        yield PartitionSplit(RootedTree._wrap(_seqs[skel]), Forest(tuple(members)))


# -- partition tables by the children recursion ------------------------------
#
# A *rooted state* of a tree with some edges removed is the triple of tree
# ids (the root component, the skeleton, the other components as the
# children of one root: the one-node tree when there are none).  A tree's
# rooted table maps each state to the number of edge subsets that give it.
# Children are joined one at a time, in level-sequence order; the edge to
# a child is either kept or cut.  A table row names its forest by the
# sorted tuple of its members' ids, the key of ``_grafts``.
#
# No masks are stored.  A child's edges are the bits above those of the
# children joined before it, and the edge to the child is the bit just
# below them, so looping over the child's states (outer), keep before cut,
# then over the states joined so far (inner) produces each combination in
# ascending order of its least mask, given that both tables are in that
# order.  Insertion order therefore stays the order of least masks, which
# is the order of first appearance in :func:`partitions`: that iterator
# reads :func:`_states`, which hangs one child state at a time through the
# same :func:`_join`, so it yields one state per edge subset, masks ascending.

_ROOT_ONLY = (0, 0, 0)  # the one-node tree is the first tree the index meets

# order -> partition rows of its trees grouped by skeleton id
_skeleton_tables: dict[int, tuple] = {}
# (other components' id, root component's id) -> the forest's member ids, sorted
_forest_ids: dict[tuple[int, int], tuple[int, ...]] = _Memo(
    lambda pair: tuple(sorted(_kids[pair[0]] + pair[1:]))
)
# forest's member ids -> their level sequences, for partition_split_table only
_forests: dict[tuple[int, ...], tuple[bytes, ...]] = {}


def _join(partial: dict[tuple, int], child: dict[tuple, int]) -> dict[tuple, int]:
    """Rooted table after hanging one more child (given by its rooted
    table) under the root of ``partial``."""
    out: dict[tuple, int] = {}
    get = out.get
    states = list(partial.items())
    for (c_comp, c_skel, c_others), ck in child.items():
        # keep the edge: the child's root component hangs under ours, its
        # skeleton root merges into ours and its other components join ours
        grow, skel_to = with_child[c_comp], with_children_of[c_skel]
        others_to = with_children_of[c_others]
        for (comp, skel, others), k in states:
            key = (grow[comp], skel_to[skel], others_to[others])
            out[key] = get(key, 0) + k * ck
        # cut the edge: the child's root component is one more component
        # and its whole skeleton hangs under our skeleton root
        hang, others_to = with_child[c_skel], with_children_of[with_child[c_comp][c_others]]
        for (comp, skel, others), k in states:
            key = (comp, hang[skel], others_to[others])
            out[key] = get(key, 0) + k * ck
    return out


def _build_rooted(i: int) -> dict[tuple, int]:
    table = {_ROOT_ONLY: 1}
    for child in _kids[i]:
        table = _join(table, _rooted_tables[child])
    return table


# id -> rooted table, only for trees met as a child
_rooted_tables: dict[int, dict[tuple[int, int, int], int]] = _Memo(_build_rooted)


def _states(i: int, j: int = 0) -> Iterator[tuple[int, int, int]]:
    """Rooted state of tree ``i`` with only its children from the ``j``-th
    on, for each subset of their edges, lazily and in ascending mask order:
    each later child's states vary more slowly, and each child's edge is
    kept, then cut."""
    kids = _kids[i]
    if j == len(kids):
        yield _ROOT_ONLY
        return
    for rest in _states(i, j + 1):
        for state in _states(kids[j]):
            yield from _join({rest: 1}, {state: 1})


def partition_skeleton_table(order: int) -> tuple[tuple[int, list[tuple]], ...]:
    """Partition splits of every tree of ``order`` over tree ids, grouped
    by skeleton, cached: (skeleton id, [(tree id, forest's member ids
    sorted, multiplicity), ...]), every distinct split of each tree but its
    first, no-edges-removed one, each skeleton once."""
    table = _skeleton_tables.get(order)
    if table is None:
        groups: defaultdict[int, list] = defaultdict(list)
        for i in splits.orders_below(order + 1)[order - 1]:
            for (skeleton, forest), k in islice(_partition_rows(i).items(), 1, None):
                groups[skeleton].append((i, forest, k))
        table = _skeleton_tables[order] = tuple(groups.items())
    return table


def _partition_rows(i: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """(skeleton id, forest's member ids sorted) -> multiplicity over the
    partition splits of tree ``i``, in order of first appearance."""
    rows: dict[tuple, int] = {}
    get = rows.get
    # the tree's own rooted table is folded here, not cached
    for (comp, skel, others), k in _build_rooted(i).items():
        key = (skel, _forest_ids[others, comp])
        rows[key] = get(key, 0) + k
    return rows


@lru_cache(maxsize=None)
def partition_split_table(tree: RootedTree) -> tuple[tuple[bytes, tuple[bytes, ...], int], ...]:
    """Distinct partition splits of ``tree`` as a cached flat table.

    Entries are (skeleton, forest, multiplicity) with canonical level
    sequences (``bytes``) for the skeleton and the forest members, the
    forest sorted by (order, level sequence).  Each distinct split appears
    once, in the order of its first appearance in :func:`partitions`, and
    the multiplicities sum to 2**(order-1).  The first entry is always
    (one-node tree, (tree,), 1).  This is a view of the partition rows
    over ids, spelled as level sequences; the solves read
    :func:`partition_skeleton_table`.
    """
    rows = []
    for (s, f), k in _partition_rows(tree_id(tree._levels)).items():
        forest = _forests.get(f)
        if forest is None:
            members = sorted(map(_seqs.__getitem__, f))
            members.sort(key=len)  # stable: (order, level sequence)
            forest = _forests[f] = tuple(members)
        rows.append((_seqs[s], forest, k))
    return tuple(rows)


# -- subtree splits by the children recursion ---------------------------------

def _kept(i: int, j: int = 0) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(id of the kept subtree, ids of the forest's members) for each
    subtree split of tree ``i`` that keeps its root, over its children from
    the ``j``-th on, lazily.  Each child is cut off whole or kept in one of
    its own splits, cut first; earlier children vary more slowly, so along
    the level sequence each node's choice varies more slowly than the next."""
    kids = _kids[i]
    if j == len(kids):
        yield 0, ()  # the root alone: the one-node tree
        return
    child = kids[j]
    cut = (child,)
    for kept, forest in _kept(i, j + 1):
        yield kept, forest + cut
    for c_kept, c_forest in _kept(child):
        graft = with_child[c_kept]
        for kept, forest in _kept(i, j + 1):
            yield graft[kept], forest + c_forest


def clear_split_caches() -> None:
    """Drop every cached split table and the memos behind them, and the
    tree index, which voids every id."""
    partition_split_table.cache_clear()
    for memo in (_cut_tables, with_child, _seqs, _kids, _grafts, splits._orders, splits._firsts,
                 _ids, splits._sigmas, splits._gammas, _rooted_tables, _skeleton_tables,
                 _forest_ids, _forests, with_children_of):
        memo.clear()
