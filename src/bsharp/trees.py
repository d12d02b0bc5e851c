"""Rooted trees as canonical level sequences.

A tree of order n (number of nodes) is stored as the level sequence of a
depth-first traversal: node levels in visit order, root at level 0.  Among
all depth-first orderings of the same tree the lexicographically greatest
sequence is the canonical representative, so equal trees compare equal as
plain sequences.  Orders above 62 are rejected, which keeps every sequence
one cache line wide (stored as ``bytes``).

Canonicalization sorts each node's child subsequences in descending order,
which makes the concatenation greatest; results are memoised.  Enumeration
steps from one canonical sequence to the next in constant amortized time.
Parsing, validation, canonicalization, :func:`count_trees` and the
empty tree ``EMPTY_TREE`` (the constant term of a B-series, not an
order-0 tree) live in :mod:`bsharp.trees_extra`, which a command that
only enumerates trees never loads; their names are still read from here.
A solve builds its trees from their children in the index of
:mod:`bsharp.splits`, which also holds σ and γ by id.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from . import _forward
from .errors import InvalidTreeError

MAX_ORDER = 62

__getattr__ = _forward(globals(), "trees_extra")


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
        from .trees_extra import _children

        return tuple(map(RootedTree._wrap, _children(self._levels)))

    def symmetry(self) -> int:
        """Order of the automorphism group (sigma)."""
        from .splits import symmetries
        from .splits_extra import tree_id

        i = tree_id(self._levels)  # indexed first: symmetries() covers the index
        return symmetries()[i]

    def density(self) -> int:
        """Product over all nodes of the size of the subtree rooted there
        (gamma)."""
        from .splits import densities
        from .splits_extra import tree_id

        i = tree_id(self._levels)
        return densities()[i]

    @property
    def is_empty(self) -> bool:
        return False

    def __str__(self) -> str:
        return levels_text(self._levels)

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


def levels_text(seq: bytes) -> str:
    """The text of the tree with level sequence ``seq``: ``[0,1,1]``."""
    return "[" + ",".join(map(str, seq)) + "]"


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


def tree_counts(n: int) -> list[int]:
    """[a(0), ..., a(n)]: the number of rooted trees of each order (OEIS
    A000081, a(0) = 0), by Otter's recurrence
    a(m+1) = Σ_{k=1..m} (Σ_{d|k} d·a(d))·a(m-k+1) / m."""
    a = [0, 1][: n + 1]
    divisor_sums = [0]  # divisor_sums[k] = Σ_{d | k} d·a(d)
    for m in range(1, n):
        divisor_sums.append(sum(d * a[d] for d in range(1, m + 1) if m % d == 0))
        a.append(sum(divisor_sums[k] * a[m - k + 1] for k in range(1, m + 1)) // m)
    return a
