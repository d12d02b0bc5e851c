"""The ways to take a tree apart.

*Ordered-subtree splits* choose a parent-closed set of nodes containing the
root (plus the empty choice).  The chosen nodes form the kept subtree; each
maximal unchosen branch falls off intact, and together they form the
complement forest.  These splits drive series composition.

*Partition splits* choose a set of edges to remove.  The connected
components left behind form the forest; contracting each component to a
single node gives the skeleton.  These splits drive series substitution.

*Edge cuts* remove a single edge: the part that keeps the root is the
trunk, the part that falls off is the branch.  A tree of order n has n - 1
of them; they drive the Lie-derivative recursion of the modified equation.

The lazy iterators yield one split per subset, so equal-shaped splits
appear as often as the series laws count them (a tree of order 40 has
~2**39 edge subsets; taking the first few must not enumerate them all).
The ``*_table`` functions materialize and cache whole tables keyed by tree;
series operations use those, so the cost is paid once per tree shape and
only for the small orders a truncated series actually contains.  The
partition and edge-cut tables merge equal splits into one row that carries
its integer multiplicity; the subtree table holds the rows of
:func:`ordered_subtrees`, one per subset, from the same row generator.

Partition tables never walk the 2**(order-1) edge subsets.  They are built
from the children's tables (the coproduct recursion of Calaque,
Ebrahimi-Fard and Manchon, "Two interacting Hopf algebras of trees",
2011): the edge from the root to each child is either kept or cut, and
equal partial results are merged as they arise.  The tables of subtrees
met as a child are memoised by canonical level sequence.  Partition rows
hold canonical level sequences (``bytes``), not :class:`RootedTree`
objects; :func:`clear_split_caches` drops every table and memo.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, NamedTuple, Union

from .trees import (
    EMPTY_TREE,
    RootedTree,
    _canon,
    _child_slices,
    _EmptyTree,
    _SHALLOWER,
)

SubtreeOrEmpty = Union[RootedTree, _EmptyTree]


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

    subtree: SubtreeOrEmpty
    forest: Forest


class PartitionSplit(NamedTuple):
    """One partition split: the contracted skeleton and the component
    forest.  The skeleton always has exactly one node per forest member."""

    skeleton: RootedTree
    forest: Forest


# -- per-subset splits ------------------------------------------------------
#
# Subtree masks: bit i set means node i is kept; masks are parent-closed and
# always contain bit 0 (the root).  Partition masks: bit i - 1 set means the
# edge from parent(i) to node i is removed.


def _parents(levels: bytes) -> bytes:
    """parent[i] = index of the parent of node i (parent[0] is 0)."""
    parent = bytearray(len(levels))
    last_at = bytearray(len(levels))  # last node seen at each level
    for i in range(1, len(levels)):
        lvl = levels[i]
        parent[i] = last_at[lvl - 1]
        last_at[lvl] = i
    return bytes(parent)


def _subtree_end(levels: bytes, i: int) -> int:
    """One past the last node of the subtree rooted at node ``i``."""
    n = len(levels)
    base = levels[i]
    j = i + 1
    while j < n and levels[j] > base:
        j += 1
    return j


def _forest_key(member: bytes) -> tuple[int, bytes]:
    return (len(member), member)


def _closed_masks(parents: bytes) -> Iterator[int]:
    # depth-first over node indices, exclude branch first; bit 0 always set
    n = len(parents)

    def rec(i: int, mask: int) -> Iterator[int]:
        if i == n:
            yield mask
            return
        yield from rec(i + 1, mask)
        if (mask >> parents[i]) & 1:
            yield from rec(i + 1, mask | (1 << i))

    return rec(1, 1)


def _subtree_rows(levels: bytes) -> Iterator[tuple[bytes, tuple[bytes, ...]]]:
    """(kept subtree, cut-away forest) for each parent-closed mask, root-only
    first.

    The kept nodes, in their original order, already form a depth-first
    traversal of the kept subtree, each at its original level.  Every
    maximal unkept branch is a contiguous span that falls off intact.
    """
    n = len(levels)
    parents = _parents(levels)
    for mask in _closed_masks(parents):
        sub = bytearray()
        forest: list[bytes] = []
        i = 0
        while i < n:
            if (mask >> i) & 1:
                sub.append(levels[i])
                i += 1
            else:  # first unkept node of a branch: its parent is kept
                end = _subtree_end(levels, i)
                base = levels[i]
                forest.append(_canon(bytes(lvl - base for lvl in levels[i:end])))
                i = end
        forest.sort(key=_forest_key)
        yield _canon(bytes(sub)), tuple(forest)


def _partition_split(
    levels: bytes, parents: bytes, mask: int
) -> tuple[bytes, tuple[bytes, ...]]:
    """Remove the masked edges: (contracted skeleton, component forest)."""
    n = len(levels)
    comp = bytearray(n)       # comp[i] = index of the root of i's component
    skel_level = bytearray(n)  # level in the skeleton, indexed by component root
    skel = bytearray((0,))
    roots = [0]
    for i in range(1, n):
        if (mask >> (i - 1)) & 1:
            comp[i] = i
            lvl = skel_level[comp[parents[i]]] + 1
            skel_level[i] = lvl
            skel.append(lvl)
            roots.append(i)
        else:
            comp[i] = comp[parents[i]]
    members: list[bytes] = []
    for r in roots:
        base = levels[r]
        mem = bytearray()
        for j in range(r, _subtree_end(levels, r)):
            if comp[j] == r:
                mem.append(levels[j] - base)
        members.append(_canon(bytes(mem)))
    members.sort(key=_forest_key)
    return _canon(bytes(skel)), tuple(members)


def ordered_subtrees(tree: RootedTree) -> Iterator[SubtreeSplit]:
    """Lazily enumerate every ordered-subtree split of ``tree``.

    Root-only split first, whole-tree split last but one, then the empty
    split.  The number of splits is (number of parent-closed subsets) + 1.
    """
    for sub, forest in _subtree_rows(tree._levels):
        yield SubtreeSplit(RootedTree._wrap(sub), Forest(tuple(map(RootedTree._wrap, forest))))
    yield SubtreeSplit(EMPTY_TREE, Forest((tree,)))


def partitions(tree: RootedTree) -> Iterator[PartitionSplit]:
    """Lazily enumerate all 2**(order-1) partition splits of ``tree``.

    The no-edges-removed split (forest = {tree}, skeleton = the one-node
    tree) comes first; the all-edges-removed split (forest of single nodes,
    skeleton shaped like the tree itself) comes last.
    """
    levels = tree._levels
    parents = _parents(levels)
    for mask in range(1 << (tree.order - 1)):
        skel, forest = _partition_split(levels, parents, mask)
        yield PartitionSplit(RootedTree._wrap(skel), Forest(tuple(map(RootedTree._wrap, forest))))


@lru_cache(maxsize=None)
def subtree_split_table(tree: RootedTree) -> tuple[tuple[SubtreeOrEmpty, tuple[RootedTree, ...]], ...]:
    """All ordered-subtree splits of ``tree`` as a cached flat table.

    Entries are (kept subtree or EMPTY_TREE, forest trees).  Same order as
    :func:`ordered_subtrees`.
    """
    rows: list[tuple[SubtreeOrEmpty, tuple[RootedTree, ...]]] = [
        (RootedTree._wrap(sub), tuple(map(RootedTree._wrap, forest)))
        for sub, forest in _subtree_rows(tree._levels)
    ]
    rows.append((EMPTY_TREE, (tree,)))
    return tuple(rows)


# -- partition tables by the children recursion ------------------------------
#
# A *rooted state* of a tree with some edges removed is the triple
# (children of the root component, children of the skeleton root, the other
# components), each a multiset of canonical level sequences kept as a tuple
# in descending order.  A tree's rooted table maps each state to the number
# of edge subsets that give it.  Children are joined one at a time, in
# level-sequence order; the edge to a child is either kept or cut.
#
# No masks are stored.  A child's edges are the bits above those of the
# children joined before it, and the edge to the child is the bit just
# below them, so looping over the child's states (outer), keep before cut,
# then over the states joined so far (inner) produces each combination in
# ascending order of its least mask, given that both tables are in that
# order.  Insertion order therefore stays the order of least masks, which
# is the order of first appearance in :func:`partitions`.

_DEEPER = bytes(range(1, 256)) + b"\xff"    # translate table: level + 1
_ROOT_ONLY = ((), (), ())

# canonical level sequence -> rooted table, only for trees met as a child
_rooted_tables: dict[bytes, dict[tuple, int]] = {}
# descending tuple of canonical children -> level sequence of their root
_grafts: dict[tuple[bytes, ...], bytes] = {}


def _graft(children: tuple[bytes, ...]) -> bytes:
    """Canonical level sequence of a root carrying ``children``."""
    seq = _grafts.get(children)
    if seq is None:
        seq = _grafts[children] = b"\x00" + b"".join(c.translate(_DEEPER) for c in children)
    return seq


def _merge(a: tuple[bytes, ...], b: tuple[bytes, ...]) -> tuple[bytes, ...]:
    """Multiset union of two descending tuples."""
    if not b:
        return a
    if not a:
        return b
    return tuple(sorted(a + b, reverse=True))


def _join(partial: dict[tuple, int], child: dict[tuple, int]) -> dict[tuple, int]:
    """Rooted table after hanging one more child (given by its rooted
    table) under the root of ``partial``."""
    out: dict[tuple, int] = {}
    get = out.get
    states = list(partial.items())
    for (c_comp, c_skel, c_others), ck in child.items():
        # keep the edge: the child's root component hangs under ours and
        # its skeleton root merges into ours
        kept = (_graft(c_comp),)
        for (comp, skel, others), k in states:
            key = (_merge(comp, kept), _merge(skel, c_skel), _merge(others, c_others))
            out[key] = get(key, 0) + k * ck
        # cut the edge: the child's root component is one more component
        # and its whole skeleton hangs under our skeleton root
        cut_skel = (_graft(c_skel),)
        cut_others = _merge(c_others, kept)
        for (comp, skel, others), k in states:
            key = (comp, _merge(skel, cut_skel), _merge(others, cut_others))
            out[key] = get(key, 0) + k * ck
    return out


def _build_rooted(seq: bytes) -> dict[tuple, int]:
    table = {_ROOT_ONLY: 1}
    for child in _child_slices(seq):
        table = _join(table, _rooted_table(child.translate(_SHALLOWER)))
    return table


def _rooted_table(seq: bytes) -> dict[tuple, int]:
    table = _rooted_tables.get(seq)
    if table is None:
        table = _rooted_tables[seq] = _build_rooted(seq)
    return table


@lru_cache(maxsize=None)
def partition_split_table(tree: RootedTree) -> tuple[tuple[bytes, tuple[bytes, ...], int], ...]:
    """Distinct partition splits of ``tree`` as a cached flat table.

    Entries are (skeleton, forest, multiplicity) with canonical level
    sequences (``bytes``) for the skeleton and the forest members, the
    forest sorted by (order, level sequence).  Each distinct split appears
    once, in the order of its first appearance in :func:`partitions`, and
    the multiplicities sum to 2**(order-1).  The first entry is always
    (one-node tree, (tree,), 1).
    """
    rows: dict[tuple[bytes, tuple[bytes, ...]], int] = {}
    get = rows.get
    # the tree's own rooted table is folded here, not cached
    for (comp, skel, others), k in _build_rooted(tree._levels).items():
        key = (_graft(skel), _merge(others, (_graft(comp),)))
        rows[key] = get(key, 0) + k
    # forests are descending; a stable sort by length of the reversed tuple
    # gives (order, level sequence) order
    return tuple(
        (skel, tuple(sorted(forest[::-1], key=len)), k) for (skel, forest), k in rows.items()
    )


@lru_cache(maxsize=None)
def edge_cut_table(tree: RootedTree) -> tuple[tuple[RootedTree, RootedTree, int], ...]:
    """Distinct single-edge cuts of ``tree`` as a cached flat table.

    Entries are (trunk, branch, multiplicity), in the order of the cut
    node's first appearance in the level sequence; the multiplicities sum
    to order - 1.  The one-node tree has no cuts.
    """
    levels = tree._levels
    counts: Counter = Counter()
    for i in range(1, len(levels)):
        base = levels[i]
        end = _subtree_end(levels, i)
        # removing the contiguous span of node i's subtree leaves a valid
        # depth-first sequence of the trunk
        trunk = _canon(levels[:i] + levels[end:])
        branch = _canon(bytes(lvl - base for lvl in levels[i:end]))
        counts[trunk, branch] += 1
    return tuple(
        (RootedTree._wrap(trunk), RootedTree._wrap(branch), k)
        for (trunk, branch), k in counts.items()
    )


def clear_split_caches() -> None:
    """Drop every cached split table and the memos behind them."""
    subtree_split_table.cache_clear()
    partition_split_table.cache_clear()
    edge_cut_table.cache_clear()
    _rooted_tables.clear()
    _grafts.clear()
