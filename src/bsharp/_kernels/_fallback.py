"""Pure-Python reference implementation of the level-sequence kernels.

Trees are stored as depth-first level sequences packed into ``bytes`` with
the root at level 0 (so ``[0, 1, 2, 1]`` is ``b"\\x00\\x01\\x02\\x01"``).
Canonical form is the lexicographically greatest level sequence among all
depth-first orderings of the same tree; it is obtained by recursively
sorting child subsequences in descending order.

The compiled module ``_speedups`` implements exactly the same contract and
must agree with this module bit-for-bit (see the backend conformance tests).
All functions assume a *valid* level sequence: non-empty, ``seq[0]`` is the
only node at its level, and each later entry is at most one deeper than its
predecessor.  Validation happens at the API layer, not here.

Mask conventions
----------------
* subtree masks: bit ``i`` set means node ``i`` is kept; masks are
  parent-closed and always contain bit 0 (the root).
* partition masks: bit ``i - 1`` set means the edge from ``parent(i)`` to
  node ``i`` is removed.  Removing a set of edges splits the tree into the
  forest of connected components; contracting every component to a single
  node leaves the skeleton tree.
"""

from __future__ import annotations

BACKEND = "python"

_canon_cache: dict[bytes, bytes] = {}


def clear_caches() -> None:
    _canon_cache.clear()


def canonical_levels(levels: bytes) -> bytes:
    """Canonical (lexicographically greatest) form of a level sequence."""
    return _canon(levels)


def _canon(seq: bytes) -> bytes:
    out = _canon_cache.get(seq)
    if out is not None:
        return out
    n = len(seq)
    if n <= 2:
        out = seq  # a single node or a single edge is already canonical
    else:
        target = seq[0] + 1
        starts = [i for i in range(1, n) if seq[i] == target]
        if len(starts) == 1:
            out = seq[:1] + _canon(seq[1:])
        else:
            starts.append(n)
            subs = [_canon(seq[s:e]) for s, e in zip(starts, starts[1:])]
            # descending bytes order makes the concatenation lex-greatest
            subs.sort(reverse=True)
            out = seq[:1] + b"".join(subs)
    _canon_cache[seq] = out
    return out


def successor_levels(levels: bytes) -> bytes | None:
    """Next canonical level sequence of the same order, or None when done.

    Successive calls starting from the chain ``[0, 1, ..., n-1]`` visit every
    canonical sequence of order ``n`` exactly once, in decreasing
    lexicographic order, ending at the bushy tree ``[0, 1, 1, ..., 1]``.
    Amortized cost per step is constant: the step rewrites only the suffix
    after the last node deeper than level 1.
    """
    n = len(levels)
    p = -1
    for i in range(n - 1, -1, -1):
        if levels[i] > 1:
            p = i
            break
    if p < 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = bytearray(levels[:p])
    width = p - q
    for i in range(p, n):
        out.append(out[i - width])
    return bytes(out)


def parents_of(levels: bytes) -> bytes:
    """parent[i] = index of the parent of node i (parent[0] is 0)."""
    n = len(levels)
    parent = bytearray(n)
    last_at = bytearray(64)
    for i in range(1, n):
        lvl = levels[i]
        parent[i] = last_at[lvl - 1]
        last_at[lvl] = i
    return bytes(parent)


def _sort_key(member: bytes) -> tuple[int, bytes]:
    return (len(member), member)


def _subtree_end(levels: bytes, i: int) -> int:
    n = len(levels)
    base = levels[i]
    j = i + 1
    while j < n and levels[j] > base:
        j += 1
    return j


def subtree_split_for_mask(levels: bytes, mask: int) -> tuple[bytes, tuple[bytes, ...]]:
    """Split off the kept subtree: (kept-subtree levels, cut-away forest).

    The kept nodes, in their original order, already form a depth-first
    traversal of the kept subtree, and because the mask is parent-closed each
    kept node keeps its original level.
    """
    n = len(levels)
    parent = parents_of(levels)
    sub = bytearray()
    forest: list[bytes] = []
    i = 0
    while i < n:
        if (mask >> i) & 1:
            sub.append(levels[i])
            i += 1
        elif (mask >> parent[i]) & 1:
            # maximal excluded branch: its whole span is cut away intact
            end = _subtree_end(levels, i)
            base = levels[i]
            forest.append(canonical_levels(bytes(lvl - base for lvl in levels[i:end])))
            i = end
        else:  # pragma: no cover - unreachable for parent-closed masks
            i += 1
    forest.sort(key=_sort_key)
    return canonical_levels(bytes(sub)), tuple(forest)


def partition_split_for_mask(levels: bytes, mask: int) -> tuple[bytes, tuple[bytes, ...]]:
    """Remove the masked edges: (contracted skeleton, component forest)."""
    n = len(levels)
    parent = parents_of(levels)
    comp = bytearray(n)       # comp[i] = index of the root of i's component
    skel_level = bytearray(n)  # level in the skeleton, indexed by component root
    skel = bytearray((0,))
    roots = [0]
    for i in range(1, n):
        if (mask >> (i - 1)) & 1:
            comp[i] = i
            lvl = skel_level[comp[parent[i]]] + 1
            skel_level[i] = lvl
            skel.append(lvl)
            roots.append(i)
        else:
            comp[i] = comp[parent[i]]
    members: list[bytes] = []
    for r in roots:
        base = levels[r]
        mem = bytearray()
        for j in range(r, _subtree_end(levels, r)):
            if comp[j] == r:
                mem.append(levels[j] - base)
        members.append(canonical_levels(bytes(mem)))
    members.sort(key=_sort_key)
    return canonical_levels(bytes(skel)), tuple(members)


def closed_subtree_masks(levels: bytes) -> list[int]:
    """All parent-closed node subsets containing the root, as bit masks.

    Depth-first over node indices, exclude-branch first, so the root-only
    mask comes first and the all-nodes mask comes last.
    """
    n = len(levels)
    parent = parents_of(levels)
    out: list[int] = []

    def rec(i: int, mask: int) -> None:
        if i == n:
            out.append(mask)
            return
        rec(i + 1, mask)
        if (mask >> parent[i]) & 1:
            rec(i + 1, mask | (1 << i))

    rec(1, 1)
    return out


def subtree_splits(levels: bytes) -> list[tuple[bytes | None, tuple[bytes, ...]]]:
    """All subtree splits in enumeration order; the empty subtree comes
    last, marked with ``None``."""
    out: list[tuple[bytes | None, tuple[bytes, ...]]] = [
        subtree_split_for_mask(levels, mask) for mask in closed_subtree_masks(levels)
    ]
    out.append((None, (canonical_levels(levels),)))
    return out

