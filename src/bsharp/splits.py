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
its integer multiplicity; the subtree table still lists one row per subset.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, NamedTuple, Union

from . import _kernels
from .trees import EMPTY_TREE, RootedTree, _EmptyTree

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


def _iter_closed_masks(parents: bytes) -> Iterator[int]:
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


def ordered_subtrees(tree: RootedTree) -> Iterator[SubtreeSplit]:
    """Lazily enumerate every ordered-subtree split of ``tree``.

    Root-only split first, whole-tree split last but one, then the empty
    split.  The number of splits is (number of parent-closed subsets) + 1.
    """
    levels = tree._levels
    parents = _kernels.parents_of(levels)
    for mask in _iter_closed_masks(parents):
        sub, forest = _kernels.subtree_split_for_mask(levels, mask)
        yield SubtreeSplit(
            RootedTree._wrap(sub),
            Forest(tuple(RootedTree._wrap(m) for m in forest)),
        )
    yield SubtreeSplit(EMPTY_TREE, Forest((RootedTree._wrap(_kernels.canonical_levels(levels)),)))


def partitions(tree: RootedTree) -> Iterator[PartitionSplit]:
    """Lazily enumerate all 2**(order-1) partition splits of ``tree``.

    The no-edges-removed split (forest = {tree}, skeleton = the one-node
    tree) comes first; the all-edges-removed split (forest of single nodes,
    skeleton shaped like the tree itself) comes last.
    """
    levels = tree._levels
    for mask in range(1 << (tree.order - 1)):
        skel, forest = _kernels.partition_split_for_mask(levels, mask)
        yield PartitionSplit(
            RootedTree._wrap(skel),
            Forest(tuple(RootedTree._wrap(m) for m in forest)),
        )


@lru_cache(maxsize=None)
def subtree_split_table(tree: RootedTree) -> tuple[tuple[SubtreeOrEmpty, tuple[RootedTree, ...]], ...]:
    """All ordered-subtree splits of ``tree`` as a cached flat table.

    Entries are (kept subtree or EMPTY_TREE, forest trees).  Same order as
    :func:`ordered_subtrees`.
    """
    out = []
    for sub, forest in _kernels.subtree_splits(tree._levels):
        kept: SubtreeOrEmpty = EMPTY_TREE if sub is None else RootedTree._wrap(sub)
        out.append((kept, tuple(RootedTree._wrap(m) for m in forest)))
    return tuple(out)


@lru_cache(maxsize=None)
def partition_split_table(
    tree: RootedTree,
) -> tuple[tuple[RootedTree, tuple[RootedTree, ...], int], ...]:
    """Distinct partition splits of ``tree`` as a cached flat table.

    Entries are (skeleton, forest trees, multiplicity): each distinct split
    appears once, in the order of its first appearance in
    :func:`partitions`, and the multiplicities sum to 2**(order-1).  The
    first entry is always (one-node tree, (tree,), 1).
    """
    # count the raw kernel rows before wrapping, so only distinct rows are
    # ever turned into RootedTree objects
    counts = Counter(_kernels.partition_splits(tree._levels))
    return tuple(
        (RootedTree._wrap(skel), tuple(RootedTree._wrap(m) for m in forest), k)
        for (skel, forest), k in counts.items()
    )


@lru_cache(maxsize=None)
def edge_cut_table(tree: RootedTree) -> tuple[tuple[RootedTree, RootedTree, int], ...]:
    """Distinct single-edge cuts of ``tree`` as a cached flat table.

    Entries are (trunk, branch, multiplicity), in the order of the cut
    node's first appearance in the level sequence; the multiplicities sum
    to order - 1.  The one-node tree has no cuts.
    """
    levels = tree._levels
    n = len(levels)
    counts: Counter = Counter()
    for i in range(1, n):
        base = levels[i]
        end = i + 1
        while end < n and levels[end] > base:
            end += 1
        # removing the contiguous span of node i's subtree leaves a valid
        # depth-first sequence of the trunk
        trunk = _kernels.canonical_levels(levels[:i] + levels[end:])
        branch = _kernels.canonical_levels(bytes(lvl - base for lvl in levels[i:end]))
        counts[trunk, branch] += 1
    return tuple(
        (RootedTree._wrap(trunk), RootedTree._wrap(branch), k)
        for (trunk, branch), k in counts.items()
    )


def clear_split_caches() -> None:
    """Drop the cached split tables (cold-start measurements only)."""
    subtree_split_table.cache_clear()
    partition_split_table.cache_clear()
    edge_cut_table.cache_clear()
