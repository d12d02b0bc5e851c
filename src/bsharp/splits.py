"""The tree index, and the ways to take a tree apart.

An *ordered-subtree split* keeps a parent-closed set of nodes with the
root (or nothing), and the branches it leaves fall off as a forest: these
compose series.  A *partition split* removes a set of edges; the
components form the forest, and contracting each gives the skeleton:
these substitute series.  An *edge cut* removes one edge, leaving the
trunk with the root and the branch; a tree of order n has n - 1 of them,
and they drive the Lie-derivative recursion of the modified equation.

The solves name trees by ids.  This module holds the tree index, which
builds every tree of an order from the ids of its children
(:func:`orders_below`), the one walk of the trees up to an order that
every pass keeping nothing of its top order reads (:func:`walk`), σ and γ
by id, and the edge cuts that the modified equation and the modifying
integrator of a tableau read: no solve parses a level sequence.  The id
of a parsed tree (:func:`~bsharp.splits_extra.tree_id`), the lazy
iterators of splits, the partition tables and
:func:`~bsharp.splits_extra.clear_split_caches` live in
:mod:`bsharp.splits_extra`, which only the commands that read them load;
their names are still read from here.

Nothing walks the 2**(order-1) subsets, a mask, or a level sequence to
canonicalize: every split of a tree is built over ids from those of the
root's children (the coproduct recursion of Calaque, Ebrahimi-Fard and
Manchon, "Two interacting Hopf algebras of trees", 2011).
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import Counter
from collections.abc import Iterator
from itertools import chain

from . import _forward
from .errors import SeriesError
from .trees import _check_order, tree_counts

__getattr__ = _forward(globals(), "splits_extra")


# -- the tree index ------------------------------------------------------------
#
# A tree is a root over a multiset of children.  ``_grafts`` keys it by
# that multiset, the sorted tuple of the children's ids, and ``_kids``
# gives the children back in level-sequence order.  A solve indexes every
# tree below its top order N, one order at a time, each tree built from
# its children's ids (:func:`orders_below`); from an empty index the ids
# follow ``all_trees_up_to`` order.  A pass that keeps nothing of its top
# order N reads :func:`walk`: the trees of order N are built the same way,
# as they are read, and registered nowhere, as none of them is a child or a
# trunk of another.  A tree met any other way (parsed, by ``tree_id``, or
# grown by a table) gets its id when it is first met, after its children,
# and keeps it when its order is indexed whole.  σ and γ are lists by id,
# grown as they are read.

class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


_DEEPER = bytes(range(1, 256)) + b"\xff"  # translate table: level + 1

_seqs: list[bytes] = []            # id -> canonical level sequence
_kids: list[tuple[int, ...]] = []  # id -> children's ids, in level-sequence order
_orders: list[list[int]] = []      # n - 1 -> ids of order n, in all_trees_up_to order
_firsts: list[int] = []            # the ids of _orders, level sequence descending
_ids: dict[bytes, int] = {}        # level sequence -> id, for trees met as one
_sigmas: list[int] = []            # id -> σ, as far as symmetries() has read the index
_gammas: list[int] = []            # id -> γ, as far as densities() has read the index


def _add(seq: bytes, kids: tuple[int, ...], key: tuple[int, ...]) -> int:
    i = _grafts[key] = len(_seqs)
    _seqs.append(seq)
    _kids.append(kids)
    return i


def _graft(key: tuple[int, ...]) -> int:
    """Id of a root over the children ``key``, met first; read through
    ``_grafts``."""
    kids = tuple(sorted(key, key=_seqs.__getitem__, reverse=True))
    return _add(b"\x00" + b"".join([_seqs[k].translate(_DEEPER) for k in kids]), kids, key)


_grafts: dict[tuple[int, ...], int] = _Memo(_graft)  # sorted children's ids -> id


def _born(n: int) -> Iterator[tuple[bytes, tuple[int, ...]]]:
    """(level sequence, children's ids in level-sequence order) of every
    tree of order ``n`` in ``all_trees_up_to`` order, built from the orders
    below ``n``, which are indexed whole and no more.

    A tree is its greatest child c on the root of a tree r of order
    n - |c| whose children are no greater than c.  Level sequences
    compare by c first and then by r, so c runs through ``_firsts`` and r
    through the trees of its order that qualify, the last ones there."""
    if n == 1:
        yield b"\x00", ()
        return
    seqs, kids = _seqs, _kids
    # each order's first children's level sequences, ascending (b"" for •)
    heads = [[seqs[k[0]] if k else b"" for k in map(kids.__getitem__, reversed(ids))]
             for ids in _orders]
    for c in _firsts:
        s = seqs[c]
        ids = _orders[n - len(s) - 1]
        start = len(ids) - bisect_right(heads[n - len(s) - 1], s)
        head, first = b"\x00" + s.translate(_DEEPER), (c,)
        for r in ids[start:]:
            yield head + seqs[r][1:], first + kids[r]


def orders_below(n: int) -> list[list[int]]:
    """Index every tree of order below ``n``, an order at a time, and give
    the ids of each order in ``all_trees_up_to`` order (order m at m - 1)."""
    while len(_orders) < n - 1:
        ids = []
        for seq, kids in _born(len(_orders) + 1):
            key = tuple(sorted(kids))
            i = _grafts.get(key)  # met before as a parsed or grown tree
            ids.append(_add(seq, kids, key) if i is None else i)
        _orders.append(ids)
        _firsts[:] = sorted(_firsts + ids, key=_seqs.__getitem__, reverse=True)
    return _orders[: max(n - 1, 0)]


def walk(top: int) -> Iterator[tuple[int, bytes, tuple[int, ...], int | None]]:
    """(order, level sequence, children's ids, id) of every tree up to
    order ``top`` in ``all_trees_up_to`` order, every order below ``top``
    indexed before it returns.  The trees of order ``top`` have id None and
    register nothing: a pass reads each of them once and keeps nothing."""
    orders = orders_below(top)
    below = ((n, _seqs[i], _kids[i], i) for n, ids in enumerate(orders, 1) for i in ids)
    if top < 1:
        return below
    trees = ((_seqs[i], _kids[i]) for i in _orders[top - 1]) if len(_orders) >= top else _born(top)
    return chain(below, ((top, seq, kids, None) for seq, kids in trees))


def _sigma(kids: tuple[int, ...]) -> int:
    """σ of a root over ``kids``: Π σ(c)^k·k! over its distinct children c, k of each."""
    return math.prod(_sigmas[c] ** k * math.factorial(k) for c, k in Counter(kids).items())


def _gamma(n: int, kids: tuple[int, ...]) -> int:
    """γ of a tree of order ``n`` over the children ``kids``: n·Π γ(c)."""
    return math.prod(map(_gammas.__getitem__, kids), start=n)


def symmetries() -> list[int]:
    """σ of every indexed tree, by id, from its children's σ."""
    for kids in _kids[len(_sigmas):]:
        _sigmas.append(_sigma(kids))
    return _sigmas


def densities() -> list[int]:
    """γ of every indexed tree, by id: its order times its children's γ."""
    for i in range(len(_gammas), len(_kids)):
        _gammas.append(_gamma(len(_seqs[i]), _kids[i]))
    return _gammas


# -- how large an order is, before any tree is built ---------------------------

MAX_CUT_ROWS = 6_000_000  # order 16 needs about 5.2 million, order 17 about 15.6


def check_size(max_order: int) -> None:
    """Refuse a truncation order whose trees and edge cuts would not fit,
    before any of them is built: a tree of order n has at most n - 1
    distinct cuts, so Σ a(n)·(n - 1) bounds the rows of a solve."""
    _check_order(max_order)
    counts = tree_counts(max_order)
    rows = sum(k * (n - 1) for n, k in enumerate(counts))
    if rows > MAX_CUT_ROWS:
        raise SeriesError(
            f"order {max_order} is too large: about {sum(counts):,} trees and "
            f"{rows:,} edge cuts, past the limit of {MAX_CUT_ROWS:,} cuts (order 16)"
        )


# -- edge-cut tables by the children recursion -------------------------------

def cut_rows(kids: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """The edge cuts of a root over the children ``kids`` (in
    level-sequence order), {(trunk id, branch id): multiplicity}, in the
    order of the cut nodes along its level sequence.  That tree is its first child c on the
    root of the tree r of the others, so it is cut at the edge to c,
    inside c (trunk r grown by the trunk there), or inside r (the trunk
    there grown by c); equal cuts merge, at the first."""
    if not kids:
        return {}
    c = kids[0]
    r = _grafts[tuple(sorted(kids[1:]))]
    rows = {(r, c): 1}
    get = rows.get
    for (t, b), k in _cut_tables[c].items():
        cut = with_child[t][r], b
        rows[cut] = get(cut, 0) + k
    grow = with_child[c]
    for (t, b), k in _cut_tables[r].items():
        cut = grow[t], b
        rows[cut] = get(cut, 0) + k
    return rows


# id -> its edge cuts, {(trunk id, branch id): multiplicity}
_cut_tables: dict[int, dict] = _Memo(lambda i: cut_rows(_kids[i]))


def _grow(child: int, s: int) -> int:
    """Id of the tree ``s`` with one more root child, ``child``."""
    kids = sorted(_kids[s])
    insort(kids, child)
    return _grafts[tuple(kids)]


# child id -> {tree id s: id of s with one more root child, the child}: how
# a trunk, a kept subtree and a partition's components and skeleton grow
with_child: dict[int, dict[int, int]] = _Memo(lambda child: _Memo(lambda s: _grow(child, s)))
