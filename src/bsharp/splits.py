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
They are the only place that wraps splits in :class:`RootedTree` and
:class:`Forest`.  Each spells out, lazily and over ids, the recursion a
table stores: :func:`partitions` the partition rows, through the same
join step, and :func:`ordered_subtrees` the one behind :func:`subtree_table`.

The tables are cached, so the cost is paid once per tree shape and only
for the small orders a truncated series actually contains.  Their rows
name a tree by a dense int id from one lazily grown tree index and a
forest by one int *multiset key* with a count field per id, so every
table has the same row shape.  :func:`edge_cut_id_table` gives the
(trunk id, branch id, multiplicity) rows of one tree, each distinct cut
once.  :func:`subtree_table` and :func:`partition_skeleton_table` give
the rows of all trees of one order grouped by head, the kept subtree or
the skeleton: (head, [(tree id, forest key, k), ...]), each head once,
both made by one grouping function, :func:`_grouped`.  The solves read only
these, with coefficients put into lists indexed by id by :func:`by_id`.

No table walks the 2**(order-1) subsets, and nothing here walks a mask
or canonicalizes a level sequence: each table is built over ids from the
tables of the root's children (the coproduct recursion of Calaque,
Ebrahimi-Fard and Manchon, "Two interacting Hopf algebras of trees",
2011).  For a partition the edge to each child is kept or cut, and equal
partial results are merged as they arise; for a subtree split each child
is cut off or kept in one of its own subtree splits; an edge cut removes
the edge to a child or one of the child's cuts.  The union of two
multisets is one ``+`` and grafting a root onto a multiset is one dict
lookup.  :func:`partition_split_table` is the partition table with ids
spelled as level sequences (``bytes``).  The tables of subtrees met as a
child are memoised by id; :func:`clear_split_caches` drops every table,
memo and the index.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple, Union

from .errors import InvalidTreeError
from .trees import EMPTY_TREE, MAX_ORDER, RootedTree, _children, _EmptyTree, trees_of_order


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
        yield SubtreeSplit(RootedTree._wrap(_seqs[_graft(kept)]), Forest(tuple(members)))
    yield SubtreeSplit(EMPTY_TREE, Forest((tree,)))


def partitions(tree: RootedTree) -> Iterator[PartitionSplit]:
    """Lazily enumerate all 2**(order-1) partition splits of ``tree``.

    The no-edges-removed split (forest = {tree}, skeleton = the one-node
    tree) comes first; the all-edges-removed split (forest of single nodes,
    skeleton shaped like the tree itself) comes last.
    """
    for comp, skel, others in _states(tree_id(tree._levels)):
        forest = others + (1 << _BITS * _graft(comp))
        members = [RootedTree._wrap(_seqs[m]) for m in _members(forest)]
        yield PartitionSplit(RootedTree._wrap(_seqs[_graft(skel)]), Forest(tuple(members)))


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

_ids: dict[bytes, int] = {}         # canonical level sequence -> id
_seqs: list[bytes] = []             # id -> canonical level sequence
_kids: list[tuple[int, ...]] = []   # id -> children's ids, in level-sequence order
_grafts: dict[int, int] = {}        # multiset key of a root's children -> id


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
    """Id of a root carrying the multiset ``children``."""
    i = _grafts.get(children)
    if i is None:  # met first as a skeleton, component, kept subtree or trunk
        members = sorted((_seqs[k] for k in _members(children)), reverse=True)
        i = tree_id(b"\x00" + b"".join(bytes(lvl + 1 for lvl in m) for m in members))
    return i


def by_id(coefficients: dict[bytes, object]) -> list:
    """``coefficients`` (keyed by level sequence) as a list indexed by id,
    ``None`` for the indexed trees it lacks."""
    return list(map(coefficients.get, _seqs))


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

# id -> rooted table, only for trees met as a child
_rooted_tables: dict[int, dict[tuple[int, int, int], int]] = {}
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
        try:
            kept, cut_skel = 1 << _BITS * _grafts[c_comp], 1 << _BITS * _grafts[c_skel]
        except KeyError:
            kept, cut_skel = 1 << _BITS * _graft(c_comp), 1 << _BITS * _graft(c_skel)
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
        table = _join(table, _rooted_table(child))
    return table


def _rooted_table(i: int) -> dict[tuple, int]:
    table = _rooted_tables.get(i)
    if table is None:
        table = _rooted_tables[i] = _build_rooted(i)
    return table


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


def _grouped(order: int, cache: dict, rows_of) -> tuple[tuple[int, list], ...]:
    """The ((head, forest key), k) rows ``rows_of(i)`` of every tree i of
    ``order`` as (head, [(tree id, forest key, k), ...]), each head once,
    cached in ``cache`` by order."""
    table = cache.get(order)
    if table is None:
        groups: defaultdict[int, list] = defaultdict(list)
        for tree in trees_of_order(order):
            i = tree_id(tree._levels)
            for (head, forest), k in rows_of(i):
                groups[head].append((i, forest, k))
        table = cache[order] = tuple(groups.items())
    return table


def partition_skeleton_table(order: int) -> tuple[tuple[int, list[tuple[int, int, int]]], ...]:
    """Partition splits of every tree of ``order`` over tree ids, grouped
    by skeleton, cached: (skeleton id, [(tree id, forest key,
    multiplicity), ...]), every distinct split of each tree but its first,
    no-edges-removed one, each skeleton once."""
    return _grouped(order, _skeleton_tables, lambda i: islice(_partition_rows(i).items(), 1, None))


def _partition_rows(i: int) -> dict[tuple[int, int], int]:
    """(skeleton id, forest key) -> multiplicity over the partition splits
    of tree ``i``, in order of first appearance."""
    rows: dict[tuple[int, int], int] = {}
    get = rows.get
    # the tree's own rooted table is folded here, not cached
    for (comp, skel, others), k in _build_rooted(i).items():
        try:
            key = (_grafts[skel], others + (1 << _BITS * _grafts[comp]))
        except KeyError:
            key = (_graft(skel), others + (1 << _BITS * _graft(comp)))
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


# -- subtree and edge-cut tables by the children recursion --------------------

_subtree_tables: dict[int, tuple] = {}  # order -> rows of its trees grouped by kept id
_cut_tables: dict[int, tuple] = {}      # id -> rows (trunk id, branch id, multiplicity)


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
        graft = 1 << _BITS * _graft(c_kept)
        for kept, forest in _kept(i, j + 1):
            yield kept + graft, forest + c_forest


def subtree_table(order: int) -> tuple[tuple[int, list[tuple[int, int, int]]], ...]:
    """Ordered-subtree splits of every tree of ``order`` over tree ids,
    grouped by kept subtree, cached: (kept id, [(tree id, forest key, 1),
    ...]), one row per parent-closed subset of nodes but the whole tree,
    equal rows unmerged, each kept subtree once."""
    return _grouped(order, _subtree_tables, _subtree_rows)


def _subtree_rows(i: int) -> Iterator[tuple[tuple[int, int], int]]:
    for kept, forest in _kept(i):
        if forest:  # the whole tree alone has an empty forest
            yield (_graft(kept), forest), 1


def edge_cut_id_table(seq: bytes) -> tuple[tuple[int, int, int], ...]:
    """Distinct single-edge cuts of the tree ``seq`` over tree ids, cached.

    Rows are (trunk id, branch id, multiplicity), in the order of the cut
    node's first appearance in the level sequence; the multiplicities sum
    to order - 1.  The one-node tree has no cuts.
    """
    i = tree_id(seq)
    table = _cut_tables.get(i)
    if table is None:
        rows: dict[tuple[int, int], int] = {}
        kids = _kids[i]
        children = sum([1 << _BITS * c for c in kids])
        for c in kids:
            rest = children - (1 << _BITS * c)
            key = _graft(rest), c  # the edge to c
            rows[key] = rows.get(key, 0) + 1
            for t, b, k in edge_cut_id_table(_seqs[c]):  # an edge inside c
                key = _graft(rest + (1 << _BITS * t)), b
                rows[key] = rows.get(key, 0) + k
        table = _cut_tables[i] = tuple([(t, b, k) for (t, b), k in rows.items()])
    return table


def clear_split_caches() -> None:
    """Drop every cached split table and the memos behind them."""
    partition_split_table.cache_clear()
    _rooted_tables.clear()
    _skeleton_tables.clear()
    _subtree_tables.clear()
    _cut_tables.clear()
    _forests.clear()
    _ids.clear()
    _seqs.clear()
    _kids.clear()
    _grafts.clear()
