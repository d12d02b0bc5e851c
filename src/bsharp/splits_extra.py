"""Split tables and iterators that the modified-equation path never reads.

The companion of :mod:`bsharp.splits`, over its tree index and the
multiset keys below, and loaded only by the commands that read one of
these: :func:`tree_id` of a parsed tree, the lazy iterators
:func:`ordered_subtrees` and :func:`partitions` (the ``splits``
command), the partition tables that
:func:`bsharp.series_extra.substitute` and the modifying integrator of a
series sum, and σ over ids for display.
:func:`bsharp.splits.clear_split_caches` drops the tables here too,
through :func:`_clear`.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple, Union

from . import splits
from .errors import InvalidTreeError
from .splits import _cut_tables, _Memo, _kids, _seqs
from .trees import EMPTY_TREE, MAX_ORDER, RootedTree, _EmptyTree, _children

_ids: dict[bytes, int] = {}  # level sequence -> id, for trees met as one


def tree_id(seq: bytes) -> int:
    """Id of the tree with canonical level sequence ``seq``, indexed when
    it is first met, after its children."""
    i = _ids.get(seq)
    if i is None:
        if not seq:
            raise InvalidTreeError("the empty tree has no splits")
        i = _ids[seq] = splits._grafts[tuple(sorted(map(tree_id, _children(seq))))]
    return i


def edge_cut_id_table(seq: bytes) -> tuple[tuple[int, int, int], ...]:
    """Distinct single-edge cuts of the tree ``seq`` over tree ids.

    Rows are (trunk id, branch id, multiplicity), in the order of the cut
    node's first appearance in the level sequence; the multiplicities sum
    to order - 1.  The one-node tree has no cuts.  A view of the cached
    rows that the solves read, {(trunk id, branch id): multiplicity}.
    """
    return tuple([(t, b, k) for (t, b), k in _cut_tables[tree_id(seq)].items()])


# -- multiset keys --------------------------------------------------------------
#
# The tables and iterators here add and merge multisets of trees as they
# go, so they name one by an int, its *multiset key*: the count of id i
# sits in bits [_BITS*i, _BITS*(i+1)).  A table of a tree of order n holds
# no multiset with more than n members (the all-cut row of the bush has n
# one-node components), and n <= MAX_ORDER < 2**_BITS, so no count carries
# into its neighbour: a union is one ``+`` and the one-tree multiset of id
# i is ``1 << _BITS*i``.  A key grows with the highest id in it, so the
# solves over the whole index key a multiset by its sorted tuple of ids
# instead (``splits._grafts``).

_BITS = MAX_ORDER.bit_length()


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


# multiset key of a root's children -> id of the tree
_grafts: dict[int, int] = _Memo(lambda children: splits._grafts[tuple(_members(children)[::-1])])


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
        members = [RootedTree._wrap(_seqs[m]) for m in _members(forest)]
        yield SubtreeSplit(RootedTree._wrap(_seqs[_grafts[kept]]), Forest(tuple(members)))
    yield SubtreeSplit(EMPTY_TREE, Forest((tree,)))


def partitions(tree: RootedTree) -> Iterator[PartitionSplit]:
    """Lazily enumerate all 2**(order-1) partition splits of ``tree``.

    The no-edges-removed split (forest = {tree}, skeleton = the one-node
    tree) comes first; the all-edges-removed split (forest of single nodes,
    skeleton shaped like the tree itself) comes last.
    """
    for comp, skel, others in _states(tree_id(tree._levels)):
        forest = others + (1 << _BITS * _grafts[comp])
        members = [RootedTree._wrap(_seqs[m]) for m in _members(forest)]
        yield PartitionSplit(RootedTree._wrap(_seqs[_grafts[skel]]), Forest(tuple(members)))


# -- partition tables by the children recursion ------------------------------
#
# A *rooted state* of a tree with some edges removed is the triple of
# multiset keys (children of the root component, children of the skeleton
# root, the other components).  A tree's rooted table maps each state to
# the number of edge subsets that give it.  Children are joined one at a
# time, in level-sequence order; the edge to a child is either kept or cut.
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

_ROOT_ONLY = (0, 0, 0)

# order -> partition rows of its trees grouped by skeleton id
_skeleton_tables: dict[int, tuple] = {}
# forest key -> its level sequences, for partition_split_table only
_forests: dict[int, tuple[bytes, ...]] = {}


def _join(partial: dict[tuple, int], child: dict[tuple, int]) -> dict[tuple, int]:
    """Rooted table after hanging one more child (given by its rooted
    table) under the root of ``partial``."""
    out: dict[tuple, int] = {}
    get = out.get
    states = list(partial.items())
    for (c_comp, c_skel, c_others), ck in child.items():
        kept, cut_skel = 1 << _BITS * _grafts[c_comp], 1 << _BITS * _grafts[c_skel]
        # keep the edge: the child's root component hangs under ours and
        # its skeleton root merges into ours
        for (comp, skel, others), k in states:
            key = (comp + kept, skel + c_skel, others + c_others)
            out[key] = get(key, 0) + k * ck
        # cut the edge: the child's root component is one more component
        # and its whole skeleton hangs under our skeleton root
        cut_others = c_others + kept
        for (comp, skel, others), k in states:
            key = (comp, skel + cut_skel, others + cut_others)
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


def partition_skeleton_table(order: int) -> tuple[tuple[int, list[tuple[int, int, int]]], ...]:
    """Partition splits of every tree of ``order`` over tree ids, grouped
    by skeleton, cached: (skeleton id, [(tree id, forest key,
    multiplicity), ...]), every distinct split of each tree but its first,
    no-edges-removed one, each skeleton once."""
    table = _skeleton_tables.get(order)
    if table is None:
        groups: defaultdict[int, list] = defaultdict(list)
        for i in splits.orders_below(order + 1)[order - 1]:
            for (skeleton, forest), k in islice(_partition_rows(i).items(), 1, None):
                groups[skeleton].append((i, forest, k))
        table = _skeleton_tables[order] = tuple(groups.items())
    return table


def _partition_rows(i: int) -> dict[tuple[int, int], int]:
    """(skeleton id, forest key) -> multiplicity over the partition splits
    of tree ``i``, in order of first appearance."""
    rows: dict[tuple[int, int], int] = {}
    get = rows.get
    # the tree's own rooted table is folded here, not cached
    for (comp, skel, others), k in _build_rooted(i).items():
        key = (_grafts[skel], others + (1 << _BITS * _grafts[comp]))
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
            members = sorted(map(_seqs.__getitem__, _members(f)))
            members.sort(key=len)  # stable: (order, level sequence)
            forest = _forests[f] = tuple(members)
        rows.append((_seqs[s], forest, k))
    return tuple(rows)


# -- subtree splits by the children recursion ---------------------------------

def _kept(i: int, j: int = 0) -> Iterator[tuple[int, int]]:
    """(multiset key of the kept root's children, forest key) for each
    subtree split of tree ``i`` that keeps its root, over its children from
    the ``j``-th on, lazily.  Each child is cut off whole or kept in one of
    its own splits, cut first; earlier children vary more slowly, so along
    the level sequence each node's choice varies more slowly than the next."""
    kids = _kids[i]
    if j == len(kids):
        yield 0, 0
        return
    child = kids[j]
    cut = 1 << _BITS * child
    for kept, forest in _kept(i, j + 1):
        yield kept, forest + cut
    for c_kept, c_forest in _kept(child):
        graft = 1 << _BITS * _grafts[c_kept]
        for kept, forest in _kept(i, j + 1):
            yield kept + graft, forest + c_forest


def symmetries() -> list[int]:
    """σ of every tree of the index, by id: Π σ(c)^k·k! over its distinct
    children c, each k times a child (equal children are adjacent)."""
    sigmas: list[int] = []
    for kids in _kids:
        s, run, last = 1, 0, None
        for c in kids:
            run = run + 1 if c == last else 1
            s *= sigmas[c] * run
            last = c
        sigmas.append(s)
    return sigmas


def _clear() -> None:
    """Drop the tables and memos of this module, for
    :func:`bsharp.splits.clear_split_caches`."""
    partition_split_table.cache_clear()
    for memo in (_rooted_tables, _skeleton_tables, _forests, _grafts, _ids):
        memo.clear()
