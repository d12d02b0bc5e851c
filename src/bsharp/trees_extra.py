"""Reading, validating and canonicalizing level sequences, and counting trees.

The companion of :mod:`bsharp.trees`: enumeration never canonicalizes, so
a command that only enumerates trees (a modified equation, a simulation)
never loads this module.  :class:`~bsharp.trees.RootedTree` imports it
when it is built from a level sequence, and :mod:`bsharp.trees` reads its
public names from here on first access.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InvalidTreeError
from .trees import EMPTY_TREE, MAX_ORDER, RootedTree, _check_order, _child_slices

# dropped by bsharp.trees.clear_tree_caches
_canon_cache: dict[bytes, bytes] = {}


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


def count_trees(n: int) -> int:
    """Number of distinct rooted trees with n nodes (OEIS A000081), by
    Otter's recurrence (:func:`bsharp.splits.tree_counts`, which sizes an
    order before its trees are built)."""
    from .splits import tree_counts

    _check_order(n)
    return tree_counts(n)[n]


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


