"""Rooted trees as canonical level sequences.

A tree of order n (number of nodes) is stored as the level sequence of a
depth-first traversal: node levels in visit order, root at level 0.  Among
all depth-first orderings of the same tree the lexicographically greatest
sequence is the canonical representative, so equal trees compare equal as
plain sequences.  Orders above 62 are rejected, which keeps every sequence
one cache line wide (stored as ``bytes``) and the count fields of the
multiset keys in :mod:`bsharp.splits` at ``MAX_ORDER.bit_length()`` bits.

Canonicalization sorts the child subsequences of every node in descending
order, which makes the concatenation lexicographically greatest; results
are memoised by input sequence.  Enumeration steps from one canonical
sequence to the next in constant amortized time, without canonicalizing.

The empty tree ``∅`` that indexes the constant term of a B-series is *not*
an order-0 :class:`RootedTree`; it is the distinct sentinel
:data:`EMPTY_TREE`, accepted only where a series coefficient is being looked
up or displayed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .errors import InvalidTreeError

MAX_ORDER = 62

_canon_cache: dict[bytes, bytes] = {}
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
        seq = _validate(levels)
        self._levels = _canon(seq)
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
        return "[" + ",".join(str(l) for l in self._levels) + "]"

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


def _validate(levels: Iterable[int]) -> bytes:
    seq = list(levels)
    if not seq:
        raise InvalidTreeError("empty level sequence (use EMPTY_TREE for the empty tree)")
    if len(seq) > MAX_ORDER:
        raise InvalidTreeError(f"tree order {len(seq)} exceeds the maximum of {MAX_ORDER}")
    base = seq[0]
    for i, lvl in enumerate(seq):
        if not isinstance(lvl, int) or isinstance(lvl, bool):
            raise InvalidTreeError(f"level sequence entries must be integers, got {lvl!r}")
        if i == 0:
            continue
        if lvl <= base:
            raise InvalidTreeError(
                f"node {i} at level {lvl} is not below the root (a level sequence "
                "describes a single tree, so only the first entry may sit at the "
                "root level)"
            )
        if lvl > seq[i - 1] + 1:
            raise InvalidTreeError(
                f"level jumps from {seq[i - 1]} to {lvl} at position {i}; "
                "depth may grow by at most one per step"
            )
    return bytes(lvl - base for lvl in seq)


def canonicalize(levels: Iterable[int]) -> RootedTree:
    """Validate a level sequence and return the canonical tree."""
    return RootedTree(levels)


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


def count_trees(n: int) -> int:
    """Number of distinct rooted trees with n nodes (OEIS A000081), by
    Otter's recurrence a(m+1) = Σ_{k=1..m} (Σ_{d|k} d·a(d))·a(m-k+1) / m."""
    _check_order(n)
    a = [0, 1]  # a[0] = 0: the empty tree is not counted
    divisor_sums = [0]  # divisor_sums[k] = Σ_{d | k} d·a(d)
    for m in range(1, n):
        divisor_sums.append(sum(d * a[d] for d in range(1, m + 1) if m % d == 0))
        a.append(sum(divisor_sums[k] * a[m - k + 1] for k in range(1, m + 1)) // m)
    return a[n]


def all_trees_up_to(max_order: int) -> Iterator[RootedTree]:
    """Trees of every order from 1 to max_order, in (order, sequence) order."""
    for n in range(1, max_order + 1):
        yield from trees_of_order(n)


def parse_tree(text: str):
    """Parse ``"[0,1,2,1]"`` (or ``"∅"`` / ``"{}"`` for the empty tree)."""
    stripped = text.strip()
    if stripped in ("∅", "{}"):
        return EMPTY_TREE
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise InvalidTreeError(f"tree notation must look like [0,1,2,...], got {text!r}")
    body = stripped[1:-1].strip()
    if not body:
        raise InvalidTreeError("empty brackets; use ∅ or {} for the empty tree")
    try:
        levels = [int(part) for part in body.split(",")]
    except ValueError as exc:
        raise InvalidTreeError(f"non-integer level in {text!r}") from exc
    return RootedTree(levels)


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


def _canon(seq: bytes) -> bytes:
    """Canonical (lexicographically greatest) form of a valid level
    sequence, keeping its base level."""
    out = _canon_cache.get(seq)
    if out is None:
        if len(seq) <= 2:
            out = seq  # a single node or a single edge is already canonical
        else:
            out = seq[:1] + b"".join(sorted(map(_canon, _child_slices(seq)), reverse=True))
        _canon_cache[seq] = out
    return out


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
    _canon_cache.clear()
    _symmetry_cache.clear()
    _density_cache.clear()
