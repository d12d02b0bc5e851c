"""Conformance between the compiled kernels and the pure-Python fallback."""

import hashlib
import os
import subprocess
import sys

import pytest

from bsharp._kernels import BACKEND, _fallback
from bsharp.trees import MAX_ORDER, all_trees_up_to

try:
    from bsharp._kernels import _speedups
except ImportError:  # pragma: no cover - source-only install
    _speedups = None

needs_compiled = pytest.mark.skipif(
    _speedups is None, reason="compiled backend not built"
)


def _enumerate(impl, order):
    out = []
    levels = bytes(range(order))
    while levels is not None:
        out.append(levels)
        levels = impl.successor_levels(levels)
    return out


@needs_compiled
def test_enumeration_agrees():
    for order in range(1, 10):
        assert _enumerate(_speedups, order) == _enumerate(_fallback, order)


def _reversed_dfs(seq):
    """The same tree written with every child list visited in reverse."""
    parents = _fallback.parents_of(seq)
    children: dict[int, list[int]] = {}
    for v in range(1, len(seq)):
        children.setdefault(parents[v], []).append(v)
    out: list[int] = []

    def walk(v, depth):
        out.append(depth)
        for child in reversed(children.get(v, [])):
            walk(child, depth + 1)

    walk(0, 0)
    return bytes(out)


@needs_compiled
def test_canonicalization_agrees():
    for tree in all_trees_up_to(7):
        seq = tree._levels
        variant = _reversed_dfs(seq)
        assert _fallback.canonical_levels(variant) == seq
        assert _speedups.canonical_levels(variant) == seq
        assert _speedups.parents_of(seq) == _fallback.parents_of(seq)


@needs_compiled
def test_split_tables_agree_bit_for_bit():
    # hash the full subtree-split tables for every tree through order 7;
    # partition splits are compared mask by mask in test_masks_agree
    def digest(impl):
        h = hashlib.blake2b(digest_size=16)
        for tree in all_trees_up_to(7):
            seq = tree._levels
            for sub, forest in impl.subtree_splits(seq):
                h.update(b"S" + (sub if sub is not None else b"~"))
                for m in forest:
                    h.update(b"." + m)
        return h.hexdigest()

    assert digest(_speedups) == digest(_fallback)


@needs_compiled
def test_masks_agree():
    for tree in all_trees_up_to(6):
        seq = tree._levels
        assert list(_speedups.closed_subtree_masks(seq)) == list(
            _fallback.closed_subtree_masks(seq)
        )
        for mask in range(1 << (len(seq) - 1)):
            assert _speedups.partition_split_for_mask(seq, mask) == (
                _fallback.partition_split_for_mask(seq, mask)
            )


def test_environment_override_selects_fallback():
    env = dict(os.environ, BSHARP_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", "from bsharp._kernels import BACKEND; print(BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "python"


def test_active_backend_is_reported():
    assert BACKEND in ("cython", "python")
    if _speedups is not None and not os.environ.get("BSHARP_PURE_PYTHON"):
        assert BACKEND == "cython"


def test_order_cap_matches_mask_width():
    # masks are built in machine words; the cap keeps 2**(order-1) in range
    assert MAX_ORDER == 62
    chain = bytes(range(MAX_ORDER))
    assert _fallback.parents_of(chain)[-1] == MAX_ORDER - 2
