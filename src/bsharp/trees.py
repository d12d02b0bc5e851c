"""Rooted trees as canonical level sequences.

A tree of order n (number of nodes) is stored as the level sequence of a
depth-first traversal: node levels in visit order, root at level 0.  Among
all depth-first orderings of the same tree the lexicographically greatest
sequence is the canonical representative, so equal trees compare equal as
plain sequences.  Orders above 62 are rejected, which keeps every sequence
one cache line wide (stored as ``bytes``) and each count field of the
multiset keys of :mod:`bsharp.splits_extra` at 6 bits.

Canonicalization sorts each node's child subsequences in descending order,
which makes the concatenation greatest; results are memoised.  Enumeration
steps from one canonical sequence to the next in constant amortized time.
Parsing, validation, canonicalization and :func:`count_trees` live in
:mod:`bsharp.trees_extra`, which a command that only enumerates trees
never loads; their names are still read from here.  A solve builds its
trees from their children in the index of :mod:`bsharp.splits`.

The empty tree ``∅`` that indexes the constant term of a B-series is *not*
an order-0 :class:`RootedTree`; it is the distinct sentinel
:data:`EMPTY_TREE`, accepted only where a series coefficient is being looked
up or displayed.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator

from . import _forward
from .errors import InvalidTreeError

MAX_ORDER = 62

__getattr__ = _forward(globals(), "trees_extra", ("canonicalize", "count_trees", "parse_tree"))

_symmetry_cache: dict[bytes, int] = {}
_density_cache: dict[bytes, int] = {}

_SHALLOWER = b"\x00" + bytes(range(255))  # translate table: level - 1


class RootedTree:
    """A non-empty rooted tree in canonical form.

    Accepts any valid level sequence (any integer base level) and
    canonicalizes it.  Instances are immutable, hashable, and totally
    ordered by (order, level sequence) — the order used everywhere a
    deterministic tree ordering is needed.
    """

    __slots__ = ("_levels", "_hash")

    def __init__(self, levels: Iterable[int]):
        from .trees_extra import _canon, _validate

        self._levels = _canon(_validate(levels))
        self._hash = hash(self._levels)

    @classmethod
    def _wrap(cls, canonical: bytes) -> "RootedTree":
        # fast path for level sequences that are already canonical
        self = object.__new__(cls)
        self._levels = canonical
        self._hash = hash(canonical)
        return self

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(self._levels)

    @property
    def order(self) -> int:
        """Number of nodes."""
        return len(self._levels)

    def children(self) -> tuple["RootedTree", ...]:
        """Subtrees hanging off the root, largest first."""
        return tuple(map(RootedTree._wrap, _children(self._levels)))

    def symmetry(self) -> int:
        """Order of the automorphism group (sigma)."""
        return _symmetry(self._levels)

    def density(self) -> int:
        """Product over all nodes of the size of the subtree rooted there
        (gamma)."""
        return _density(self._levels)

    @property
    def is_empty(self) -> bool:
        return False

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self._levels)) + "]"

    def __repr__(self) -> str:
        return f"RootedTree({list(self._levels)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RootedTree):
            return self._levels == other._levels
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def _key(self) -> tuple[int, bytes]:
        return (len(self._levels), self._levels)

    def __lt__(self, other: "RootedTree") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "RootedTree") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "RootedTree") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "RootedTree") -> bool:
        return self._key() >= other._key()


class _EmptyTree:
    """Sentinel for the empty tree (constant term of a series)."""

    __slots__ = ()
    _levels = b""  # the empty level sequence; keys the empty coefficient

    @property
    def order(self) -> int:
        return 0

    @property
    def is_empty(self) -> bool:
        return True

    def __str__(self) -> str:
        return "∅"

    def __repr__(self) -> str:
        return "EMPTY_TREE"


EMPTY_TREE = _EmptyTree()


def _check_order(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidTreeError(f"order must be an integer, got {n!r}")
    if n < 0:
        raise InvalidTreeError(f"order must be non-negative, got {n}")
    if n > MAX_ORDER:
        raise InvalidTreeError(f"order {n} exceeds the maximum of {MAX_ORDER}")


def trees_of_order(n: int) -> Iterator[RootedTree]:
    """All canonical trees with n nodes, lexicographically decreasing.

    The first tree is the chain ``[0, 1, ..., n-1]`` and the last is the
    bush ``[0, 1, 1, ..., 1]``.  ``n == 0`` yields nothing.
    """
    _check_order(n)
    if n == 0:
        return
    current: bytes | None = bytes(range(n))
    while current is not None:
        yield RootedTree._wrap(current)
        current = _successor(current)


def all_trees_up_to(max_order: int) -> Iterator[RootedTree]:
    """Trees of every order from 1 to max_order, in (order, sequence) order."""
    for n in range(1, max_order + 1):
        yield from trees_of_order(n)


def _child_slices(seq: bytes) -> list[bytes]:
    """The subsequences of the root's children, in order, at their original
    levels."""
    n = len(seq)
    starts = [i for i in range(1, n) if seq[i] == seq[0] + 1] + [n]
    return [seq[s:e] for s, e in zip(starts, starts[1:])]


def _children(seq: bytes) -> list[bytes]:
    """Level sequences of the root's children, in order, each rebased to
    level 0 (canonical whenever ``seq`` is)."""
    return [child.translate(_SHALLOWER) for child in _child_slices(seq)]


def _successor(levels: bytes) -> bytes | None:
    """Next canonical level sequence of the same order, or None after the
    bush.

    Starting from the chain ``[0, 1, ..., n-1]`` this visits every
    canonical sequence of order n once, in decreasing lexicographic order
    (Beyer and Hedetniemi, 1980).  Only the suffix from the last node
    deeper than level 1 is rewritten: it repeats the span that starts at
    that node's parent.
    """
    n = len(levels)
    p = n - 1
    while p >= 0 and levels[p] <= 1:
        p -= 1
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


def _symmetry(seq: bytes) -> int:
    result = _symmetry_cache.get(seq)
    if result is not None:
        return result
    counts: dict[bytes, int] = {}
    for child in _children(seq):
        counts[child] = counts.get(child, 0) + 1
    result = 1
    for child, k in counts.items():
        result *= _symmetry(child) ** k * math.factorial(k)
    _symmetry_cache[seq] = result
    return result


def _density(seq: bytes) -> int:
    result = _density_cache.get(seq)
    if result is not None:
        return result
    result = len(seq)
    for child in _children(seq):
        result *= _density(child)
    _density_cache[seq] = result
    return result


def clear_tree_caches() -> None:
    """Drop every module-level memo: canonical forms, symmetries and
    densities.  Trees already built stay valid."""
    _symmetry_cache.clear()
    _density_cache.clear()
    extra = sys.modules.get(f"{__name__}_extra")
    if extra is not None:
        extra._canon_cache.clear()
