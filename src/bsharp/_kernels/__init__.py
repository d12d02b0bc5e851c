"""Level-sequence kernels with an optional compiled backend.

``bsharp._kernels.impl`` is the Cython module ``_speedups`` when it was
built, otherwise the pure-Python ``_fallback``.  Set the environment
variable ``BSHARP_PURE_PYTHON=1`` before import to force the fallback.
Both backends expose the same functions and must agree exactly.
"""

from __future__ import annotations

import os

if os.environ.get("BSHARP_PURE_PYTHON"):
    from . import _fallback as impl
else:
    try:
        from . import _speedups as impl  # type: ignore[no-redef]
    except ImportError:
        from . import _fallback as impl

BACKEND: str = impl.BACKEND

canonical_levels = impl.canonical_levels
successor_levels = impl.successor_levels
parents_of = impl.parents_of
subtree_split_for_mask = impl.subtree_split_for_mask
partition_split_for_mask = impl.partition_split_for_mask
closed_subtree_masks = impl.closed_subtree_masks
subtree_splits = impl.subtree_splits
clear_caches = impl.clear_caches
