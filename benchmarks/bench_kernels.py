#!/usr/bin/env python3
"""Compare the pure-Python level-sequence kernels with the compiled ones.

Three workloads, each run against ``bsharp._kernels._fallback`` and, when
the extension was built, ``bsharp._kernels._speedups``:

  enumerate     walk every canonical sequence of one order via the
                constant-amortized successor step
  canonicalize  re-canonicalize scrambled (child-shuffled) serializations
  splits        build the full subtree-split lists for every tree of
                one order

Usage:
    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --gen-order 13 --split-order 11
"""

import argparse
import random
import time

from bsharp._kernels import _fallback

try:
    from bsharp._kernels import _speedups
except ImportError:
    _speedups = None


def walk_order(mod, order):
    levels = bytes(range(order))
    count = 0
    while levels is not None:
        count += 1
        levels = mod.successor_levels(levels)
    return count


def all_of_order(order):
    levels = bytes(range(order))
    while levels is not None:
        yield levels
        levels = _fallback.successor_levels(levels)


def scrambled(levels, rng):
    """Serialize the same tree with children visited in random order."""
    out = []

    def emit(seq, base):
        out.append(base)
        kids = []
        i = 1
        while i < len(seq):
            j = i + 1
            while j < len(seq) and seq[j] > seq[i]:
                j += 1
            kids.append(seq[i:j])
            i = j
        rng.shuffle(kids)
        for kid in kids:
            emit(kid, base + 1)

    emit(levels, 0)
    return bytes(out)


def bench(mod, fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        mod.clear_caches()  # memoized canonicalization would hide the work
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gen-order", type=int, default=12,
                    help="order for the enumeration walk (default 12)")
    ap.add_argument("--canon-samples", type=int, default=10000,
                    help="scrambled sequences to canonicalize (default 10000)")
    ap.add_argument("--canon-order", type=int, default=10,
                    help="order of the scrambled sequences (default 10)")
    ap.add_argument("--split-order", type=int, default=10,
                    help="order for the full split tables (default 10)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed repetitions, best one counts (default 3)")
    args = ap.parse_args()

    rng = random.Random(2718)
    pool = list(all_of_order(args.canon_order))
    samples = [scrambled(pool[i % len(pool)], rng) for i in range(args.canon_samples)]
    split_inputs = list(all_of_order(args.split_order))

    def workloads(mod):
        return [
            (f"enumerate order {args.gen_order}",
             lambda: walk_order(mod, args.gen_order)),
            (f"canonicalize {len(samples)} x order {args.canon_order}",
             lambda: [mod.canonical_levels(s) for s in samples]),
            (f"subtree splits, all {len(split_inputs)} trees of order {args.split_order}",
             lambda: [mod.subtree_splits(t) for t in split_inputs]),
        ]

    backends = [("python", _fallback)]
    if _speedups is not None:
        backends.append(("cython", _speedups))
    else:
        print("note: compiled backend not built; timing the fallback only\n")

    results = {}
    for name, mod in backends:
        for label, fn in workloads(mod):
            results[(label, name)] = bench(mod, fn, args.repeats)

    width = max(len(label) for label, _ in workloads(_fallback))
    header = f"{'workload':<{width}}  {'python':>10}"
    if _speedups is not None:
        header += f"  {'cython':>10}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for label, _ in workloads(_fallback):
        py = results[(label, "python")]
        line = f"{label:<{width}}  {py * 1e3:>8.1f}ms"
        if _speedups is not None:
            cy = results[(label, "cython")]
            line += f"  {cy * 1e3:>8.1f}ms  {py / cy:>7.1f}x"
        print(line)

    # the two backends must agree bit for bit on everything they timed
    if _speedups is not None:
        for t in split_inputs[: 64]:
            assert _fallback.subtree_splits(t) == _speedups.subtree_splits(t)
        for s in samples[: 256]:
            assert _fallback.canonical_levels(s) == _speedups.canonical_levels(s)


if __name__ == "__main__":
    main()
