"""Independent reference implementations used only by the tests.

Nothing here shares code with the package internals it checks: trees are
nested tuples (a node is the sorted tuple of its child subtrees), counting
is brute force, and the elementary-weight / split computations follow the
definitions directly with explicit loops.  Slow on purpose — these run at
small orders where exhaustive enumeration is feasible.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from bsharp.coefficients import latex_name
from bsharp.errors import CoefficientError, UnboundSymbolError


def is_rational(value: object) -> bool:
    """True for ints and Fractions (not bools)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)

# A "shape" is the canonical nested-tuple form of a rooted tree: every node
# is the tuple of its children's shapes, sorted.  The single-node tree is ().

LEAF = ()


@lru_cache(maxsize=None)
def shapes_of_order(n: int) -> tuple:
    """All tree shapes with n nodes, by multiset-of-subtrees recursion."""
    if n == 1:
        return (LEAF,)
    out = set()
    for forest in _forests(n - 1, None):
        out.add(tuple(sorted(forest)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _forests(total: int, bound) -> tuple:
    """Multisets (as sorted tuples) of shapes with the given total node
    count; ``bound`` caps each member to keep the recursion duplicate-free."""
    if total == 0:
        return ((),)
    out = []
    for size in range(total, 0, -1):
        for shape in shapes_of_order(size):
            if bound is not None and shape > bound:
                continue
            for rest in _forests(total - size, shape):
                out.append((shape,) + rest)
    return tuple(out)


def levels_to_shape(levels) -> tuple:
    """Convert a level sequence to the canonical nested-tuple shape."""
    children: list[list] = [[] for _ in levels]
    stack = [0]
    for i in range(1, len(levels)):
        while levels[stack[-1]] != levels[i] - 1:
            stack.pop()
        children[stack[-1]].append(i)
        stack.append(i)

    def build(v: int) -> tuple:
        return tuple(sorted(build(c) for c in children[v]))

    return build(0)


def shape_to_levels(shape, depth: int = 0) -> list[int]:
    out = [depth]
    for child in shape:
        out.extend(shape_to_levels(child, depth + 1))
    return out


def parents_from_levels(levels) -> list[int]:
    parent = [-1] * len(levels)
    stack = [0]
    for i in range(1, len(levels)):
        while levels[stack[-1]] != levels[i] - 1:
            stack.pop()
        parent[i] = stack[-1]
        stack.append(i)
    return parent


def symmetry_bruteforce(levels) -> int:
    """|Aut| by checking every node permutation (use only for n <= 7)."""
    n = len(levels)
    parent = parents_from_levels(levels)
    count = 0
    for perm in permutations(range(n)):
        if perm[0] != 0:
            continue
        if all(perm[parent[v]] == parent[perm[v]] for v in range(1, n)):
            count += 1
    return count


def density_direct(levels) -> int:
    """gamma = product of subtree sizes, computed from the parent array."""
    n = len(levels)
    parent = parents_from_levels(levels)
    size = [1] * n
    for v in range(n - 1, 0, -1):
        size[parent[v]] += size[v]
    out = 1
    for s in size:
        out *= s
    return out


def elementary_weight_bruteforce(A, b, levels):
    """Sum over all node->stage assignments of b_root * prod a_(parent,child).

    Works for any entry type supporting + and * (exact rationals or the
    package's symbolic coefficients).
    """
    n = len(levels)
    parent = parents_from_levels(levels)
    stages = range(len(b))
    total = None
    for assign in product(stages, repeat=n):
        term = b[assign[0]]
        for v in range(1, n):
            term = term * A[assign[parent[v]]][assign[v]]
        total = term if total is None else total + term
    return total


# The weights, γ and σ as the package computed them before the tree index:
# memoised recursions over level sequences, each tree parsed into its
# children's sequences.

def weights_by_levels(tab, max_order: int) -> dict:
    """{level sequence: Φ} of every tree up to ``max_order``, in
    ``all_trees_up_to`` order: Φ(τ) = Σ_i b_i Π_c (A·Ψ(c))_i over the
    root's children c, with Ψ_i(τ) = Π_c (A·Ψ(c))_i, over the tableau's
    lifted entries and lowered by d^|τ|."""
    from bsharp.trees import all_trees_up_to

    A, b, _, lower, d, _, _ = tab._lifted
    propagated: dict = {}

    def vector(seq: bytes) -> tuple:
        if seq not in propagated:
            psi = [1] * len(b)
            for child in _level_children(seq):
                psi = [p * q for p, q in zip(psi, vector(child))]
            propagated[seq] = tuple(sum([a * p for a, p in zip(row, psi) if a], 0) for row in A)
        return propagated[seq]

    out = {}
    for tree in all_trees_up_to(max_order):
        seq = tree._levels
        children = [vector(child) for child in _level_children(seq)]
        total = 0
        for i, bi in enumerate(b):
            if bi:
                term = bi
                for vec in children:
                    term = term * vec[i]
                total = total + term
        out[seq] = lower(total, d ** len(seq))
    return out


@lru_cache(maxsize=None)
def density_by_levels(seq: bytes) -> int:
    """γ: the order times the γ of each child."""
    return math.prod(map(density_by_levels, _level_children(seq)), start=len(seq))


@lru_cache(maxsize=None)
def symmetry_by_levels(seq: bytes) -> int:
    """σ: Π σ(c)^k·k! over the distinct children c, each k times a child."""
    counts = Counter(_level_children(seq))
    return math.prod(symmetry_by_levels(c) ** k * math.factorial(k) for c, k in counts.items())


# ---------------------------------------------------------------------------
# splits, by exhaustive subset enumeration
# ---------------------------------------------------------------------------

def _component_shape(members: list[int], children: dict[int, list[int]], root: int) -> tuple:
    def build(v: int) -> tuple:
        return tuple(sorted(build(c) for c in children.get(v, []) if c in members))

    return build(root)


def subtree_splits_bruteforce(levels) -> Counter:
    """Multiset of (kept shape | None for the empty split, forest shapes)."""
    n = len(levels)
    parent = parents_from_levels(levels)
    children: dict[int, list[int]] = {}
    for v in range(1, n):
        children.setdefault(parent[v], []).append(v)

    out: Counter = Counter()
    for mask in range(1 << n):
        kept = [v for v in range(n) if mask >> v & 1]
        if 0 not in kept:
            continue
        if any(parent[v] not in kept for v in kept if v != 0):
            continue
        kept_set = set(kept)
        branch_roots = [
            v for v in range(n) if v not in kept_set and parent[v] in kept_set
        ]
        rest = [v for v in range(n) if v not in kept_set]
        forest = tuple(
            sorted(_component_shape(rest, children, r) for r in branch_roots)
        )
        out[(_component_shape(kept, children, 0), forest)] += 1
    # the empty split: nothing kept, the whole tree is the single branch
    out[(None, (levels_to_shape(levels),))] += 1
    return out


def partition_splits_bruteforce(levels) -> Counter:
    """Multiset of (skeleton shape, forest shapes) over all edge subsets.

    An edge subset is *kept*; removing the rest cuts the tree into
    components (the forest), and collapsing each component to a single node
    gives the skeleton.
    """
    n = len(levels)
    parent = parents_from_levels(levels)
    children: dict[int, list[int]] = {}
    for v in range(1, n):
        children.setdefault(parent[v], []).append(v)

    out: Counter = Counter()
    edges = list(range(1, n))  # edge v <-> (parent[v], v)
    for mask in range(1 << len(edges)):
        kept_edges = {edges[i] for i in range(len(edges)) if mask >> i & 1}
        # component root of every node: walk up while the edge is kept
        comp_root = list(range(n))
        for v in range(1, n):
            u = v
            while u != 0 and u in kept_edges:
                u = parent[u]
            comp_root[v] = u
        roots = sorted(set(comp_root))
        members: dict[int, list[int]] = {r: [] for r in roots}
        for v in range(n):
            members[comp_root[v]].append(v)
        forest = tuple(
            sorted(_component_shape(members[r], children, r) for r in roots)
        )
        # skeleton: contract components; component of v hangs under the
        # component containing parent(root_of_v)
        skel_children: dict[int, list[int]] = {}
        for r in roots:
            if r != 0:
                skel_children.setdefault(comp_root[parent[r]], []).append(r)

        def skel_shape(r: int) -> tuple:
            return tuple(sorted(skel_shape(c) for c in skel_children.get(r, [])))

        out[(skel_shape(0), forest)] += 1
    return out


def edge_cuts_bruteforce(levels) -> Counter:
    """Multiset of (trunk shape, branch shape), one cut per non-root node."""
    n = len(levels)
    parent = parents_from_levels(levels)
    out: Counter = Counter()
    for v in range(1, n):
        below = {v}
        for u in range(v + 1, n):
            if parent[u] in below:
                below.add(u)
        trunk = [levels[u] for u in range(n) if u not in below]
        branch = [levels[u] for u in sorted(below)]
        out[(levels_to_shape(trunk), levels_to_shape(branch))] += 1
    return out


# ---------------------------------------------------------------------------
# split rows by edge and node masks and by sequence slices
# ---------------------------------------------------------------------------
#
# The builders as they stood before the children recursion: partitions walk
# the edge masks and kept subtrees the parent-closed node masks over the
# level sequence, and edge cuts slice the sequence; every piece is
# canonicalized as bytes.  Rows come out in the order the package promises.

def _canonical(seq: bytes) -> bytes:
    """Lexicographically greatest level sequence of the tree ``seq``,
    keeping its base level."""
    starts = [i for i in range(1, len(seq)) if seq[i] == seq[0] + 1] + [len(seq)]
    kids = sorted((_canonical(seq[s:e]) for s, e in zip(starts, starts[1:])), reverse=True)
    return seq[:1] + b"".join(kids)


def _span_end(seq: bytes, i: int) -> int:
    """One past the last node of the subtree rooted at node ``i``."""
    j = i + 1
    while j < len(seq) and seq[j] > seq[i]:
        j += 1
    return j


def _rebased(seq: bytes) -> bytes:
    return _canonical(bytes(x - seq[0] for x in seq))


def subtree_rows_by_masks(seq: bytes) -> list:
    """(kept subtree, forest) for each parent-closed node set of the
    canonical level sequence ``seq`` that holds the root, the forest sorted
    by (order, level sequence).  Node 1's bit varies slowest, unkept first,
    the order of :func:`bsharp.splits.ordered_subtrees`."""
    n = len(seq)
    parent = parents_from_levels(seq)

    def masks(i: int, mask: int):
        if i == n:
            yield mask
            return
        yield from masks(i + 1, mask)
        if mask >> parent[i] & 1:
            yield from masks(i + 1, mask | 1 << i)

    rows = []
    for mask in masks(1, 1):
        kept, forest, i = bytearray(), [], 0
        while i < n:
            if mask >> i & 1:
                kept.append(seq[i])
                i += 1
            else:  # the first node of a branch that falls off intact
                end = _span_end(seq, i)
                forest.append(_rebased(seq[i:end]))
                i = end
        rows.append((_canonical(bytes(kept)), tuple(sorted(sorted(forest), key=len))))
    return rows


def partition_rows_by_masks(seq: bytes) -> list:
    """(skeleton, forest) for each edge subset of the canonical level
    sequence ``seq``, the forest sorted by (order, level sequence).  Bit
    i - 1 of the mask removes the edge to node i; masks ascend, the order
    of :func:`bsharp.splits.partitions`."""
    n = len(seq)
    parent = parents_from_levels(seq)
    rows = []
    for mask in range(1 << (n - 1)):
        comp = list(range(n))  # comp[i] = the root of i's component
        depth = [0] * n        # skeleton level, by component root
        roots = [0]
        for i in range(1, n):
            if mask >> (i - 1) & 1:
                depth[i] = depth[comp[parent[i]]] + 1
                roots.append(i)
            else:
                comp[i] = comp[parent[i]]
        forest = [
            _rebased(bytes(seq[j] for j in range(r, _span_end(seq, r)) if comp[j] == r))
            for r in roots
        ]
        skeleton = _canonical(bytes(depth[r] for r in roots))
        rows.append((skeleton, tuple(sorted(sorted(forest), key=len))))
    return rows


def edge_cut_rows_by_slices(seq: bytes) -> list:
    """Distinct (trunk, branch, multiplicity) single-edge cuts of the
    canonical level sequence ``seq``, in the order of the cut node's first
    appearance: removing node j's contiguous span leaves the trunk."""
    rows: dict = {}
    for j in range(1, len(seq)):
        end = _span_end(seq, j)
        key = _canonical(seq[:j] + seq[end:]), _rebased(seq[j:end])
        rows[key] = rows.get(key, 0) + 1
    return [(t, b, k) for (t, b), k in rows.items()]


# ---------------------------------------------------------------------------
# series solves, by partition multisets
# ---------------------------------------------------------------------------

def modified_equation_bruteforce(method, max_order: int, one) -> dict:
    """Triangular solve of Σ over partitions (1/γ(skeleton))·Π v(component)
    = method(τ) for the flow-kind v, shape by shape.

    ``method`` maps every shape up to ``max_order`` to its coefficient;
    ``one`` is the rational unit the 1/γ weights are built from.  The
    no-edges-removed partition (skeleton = one node, forest = {τ}) is the
    only one that involves v(τ) itself.
    """
    v: dict = {}
    for n in range(1, max_order + 1):
        for shape in shapes_of_order(n):
            total = method[shape]
            for (skeleton, forest), count in partition_splits_bruteforce(
                shape_to_levels(shape)
            ).items():
                if skeleton == LEAF:
                    continue
                term = one / density_direct(shape_to_levels(skeleton)) * count
                for component in forest:
                    term *= v[component]
                total -= term
            v[shape] = total
    return v


def modifying_integrator_bruteforce(method, max_order: int, one) -> dict:
    """Triangular solve of Σ over partitions method(skeleton)·Π v(component)
    = 1/γ(τ) for the flow-kind v, shape by shape.

    Same inputs as :func:`modified_equation_bruteforce`.  The
    no-edges-removed partition contributes method(•)·v(τ); every other
    partition involves only smaller shapes.
    """
    v: dict = {}
    for n in range(1, max_order + 1):
        for shape in shapes_of_order(n):
            total = one / density_direct(shape_to_levels(shape))
            for (skeleton, forest), count in partition_splits_bruteforce(
                shape_to_levels(shape)
            ).items():
                if skeleton == LEAF:
                    continue
                term = method[skeleton] * count
                for component in forest:
                    term *= v[component]
                total -= term
            v[shape] = total / method[LEAF]
    return v


# ---------------------------------------------------------------------------
# partition tables over bytes states, and the row-by-row solves
# ---------------------------------------------------------------------------
#
# The children recursion as it stood before tree ids: a rooted state is
# (children of the root component, children of the skeleton root, the other
# components), each a descending tuple of canonical level sequences, and a
# union re-sorts.  Same loop order as the package's builder, so the rows
# come out in the same order with the same multiplicities.

def _level_children(seq: bytes) -> list[bytes]:
    """Canonical level sequences of the root's children, in order."""
    starts = [i for i in range(1, len(seq)) if seq[i] == 1] + [len(seq)]
    return [bytes(x - 1 for x in seq[s:e]) for s, e in zip(starts, starts[1:])]


def _bytes_graft(children: tuple[bytes, ...]) -> bytes:
    return b"\x00" + b"".join(bytes(x + 1 for x in c) for c in children)


def _bytes_merge(a: tuple[bytes, ...], b: tuple[bytes, ...]) -> tuple[bytes, ...]:
    return tuple(sorted(a + b, reverse=True))


def _bytes_join(partial: dict, child: dict) -> dict:
    out: dict = {}
    states = list(partial.items())
    for (c_comp, c_skel, c_others), ck in child.items():
        kept = (_bytes_graft(c_comp),)
        for (comp, skel, others), k in states:
            key = (_bytes_merge(comp, kept), _bytes_merge(skel, c_skel),
                   _bytes_merge(others, c_others))
            out[key] = out.get(key, 0) + k * ck
        cut_skel = (_bytes_graft(c_skel),)
        cut_others = _bytes_merge(c_others, kept)
        for (comp, skel, others), k in states:
            key = (comp, _bytes_merge(skel, cut_skel), _bytes_merge(others, cut_others))
            out[key] = out.get(key, 0) + k * ck
    return out


@lru_cache(maxsize=None)
def _bytes_rooted(seq: bytes) -> dict:
    table = {((), (), ()): 1}
    for child in _level_children(seq):
        table = _bytes_join(table, _bytes_rooted(child))
    return table


def partition_table_bytes_states(seq: bytes) -> tuple:
    """(skeleton, forest, multiplicity) rows of the canonical level sequence
    ``seq``, forests sorted by (order, level sequence), rows in the order of
    first appearance."""
    rows: dict = {}
    for (comp, skel, others), k in _bytes_rooted(seq).items():
        key = (_bytes_graft(skel), _bytes_merge(others, (_bytes_graft(comp),)))
        rows[key] = rows.get(key, 0) + k
    return tuple(
        (skel, tuple(sorted(forest[::-1], key=len)), k) for (skel, forest), k in rows.items()
    )


# The per-tree split rows over tree ids, as the package built them before it
# kept only the grouped partition tables of one order
# (bsharp.splits.partition_skeleton_table) and composed without subtree
# tables: read straight off the package's recursions, in their order, so the
# grouped tables and the lazy iterators are checked against them row for row.

def subtree_id_table(seq: bytes) -> tuple:
    """(kept id, forest's member ids, 1) for each ordered-subtree split of
    the tree ``seq`` but the empty one, in the order of
    :func:`bsharp.splits.ordered_subtrees`, equal rows unmerged; the
    whole-tree row, last, has the empty forest, ()."""
    from bsharp import splits, splits_extra

    rows = splits_extra._kept(splits.tree_id(seq))
    return tuple((kept, forest, 1) for kept, forest in rows)


def edge_cut_id_table(seq: bytes) -> tuple:
    """(trunk id, branch id, multiplicity) for each distinct single-edge
    cut of the tree ``seq``, in the order of the cut node's first
    appearance in the level sequence; the multiplicities sum to order - 1,
    and the one-node tree has none.  A view of the cached rows that the
    solves read, {(trunk id, branch id): multiplicity}."""
    from bsharp import splits

    return tuple((t, b, k) for (t, b), k in splits._cut_tables[splits.tree_id(seq)].items())


def partition_id_table(seq: bytes) -> tuple:
    """(skeleton id, forest key, multiplicity) for each distinct partition
    split of the tree ``seq``, in the order of first appearance; the first
    is the no-edges-removed split."""
    from bsharp import splits, splits_extra

    rows = splits_extra._partition_rows(splits.tree_id(seq))
    return tuple((skeleton, forest, k) for (skeleton, forest), k in rows.items())


def modified_equation_rows(method: dict, max_order: int, trees, fold_top: bool = False) -> dict:
    """The modified-equation solve over plain coefficients, as the package
    ran it before one loop served every scalar domain: the Lie terms
    c_2..c_|τ| of a tree summed cut by cut over
    :func:`edge_cut_rows_by_slices`, then subtracted from method(τ) one by
    one as c_j·(1/j!); inputs as for :func:`modifying_integrator_rows`.

    With ``fold_top``, a tree τ of the top order N sums its Lie terms as
    the package does: each trunk θ's list is first folded into
    F(θ) = Σ_j c_j(θ)·N!/(j+1)! over its nonzero terms, and then
    v(τ) = method(τ) - (Σ over the cuts of F(θ)·(k·v(β))) / N!."""
    inverse_factorials = [Fraction(1, math.factorial(j)) for j in range(2, max_order + 1)]
    whole = math.factorial(max_order)
    top_ratios = [whole // math.factorial(j + 1) for j in range(1, max_order)]
    v = {b"": Fraction(0)}
    lie: dict = {}  # lie[seq][j - 1] = c_j(τ) for j = 1..|τ|
    folded: dict = {}
    for seq in trees:
        if fold_top and len(seq) == max_order:
            if not folded:
                for trunk, terms in lie.items():
                    folded[trunk] = sum(
                        [c * r for c, r in zip(terms, top_ratios) if c], Fraction(0)
                    )
            total = Fraction(0)
            for trunk, branch, k in edge_cut_rows_by_slices(seq):
                if folded[trunk] and v[branch]:
                    total += folded[trunk] * (v[branch] * k)
            v[seq] = method[seq] - total / whole
            continue
        higher = [Fraction(0)] * (len(seq) - 1)  # c_2 .. c_|τ|
        for trunk, branch, k in edge_cut_rows_by_slices(seq):
            w = v[branch] * k
            for j, c in enumerate(lie[trunk]):
                higher[j] += c * w
        total = method[seq]
        for c, inverse in zip(higher, inverse_factorials):
            total -= c * inverse
        v[seq] = total
        lie[seq] = [total] + higher
    return v


def modifying_integrator_rows(method: dict, max_order: int, trees) -> dict:
    """The modifying-integrator solve one row at a time, each row's
    product multiplied out in full: ``method`` maps level sequences (``b""``
    included) to coefficients, ``trees`` lists the level sequences up to
    ``max_order`` in solve order."""
    from bsharp.coefficients import coeff_div

    v = {b"": Fraction(0)}
    for seq in trees:
        total = Fraction(1, density_direct(seq))
        for skeleton, components, k in partition_table_bytes_states(seq)[1:]:
            term = method[skeleton]
            if k != 1:
                term *= k
            for component in components:
                term *= v[component]
            total -= term
        v[seq] = coeff_div(total, method[b"\x00"])
    return v


def substitute_rows(flow: dict, outer: dict, trees) -> dict:
    """coeff(τ) = Σ outer(skeleton)·k·Π flow(component), one row at a time;
    inputs as for :func:`modifying_integrator_rows`."""
    out = {b"": outer[b""]}
    for seq in trees:
        total = Fraction(0)
        for skeleton, components, k in partition_table_bytes_states(seq):
            term = outer[skeleton]
            if k != 1:
                term *= k
            for component in components:
                term *= flow[component]
            total += term
        out[seq] = total
    return out


def compose_rows(inner: dict, outer: dict, trees) -> dict:
    """coeff(τ) = Σ outer(kept)·Π inner(branch) over the ordered-subtree
    splits, one per subset in :func:`bsharp.splits.ordered_subtrees` order
    (the empty split, kept part ``b""``, last), the branches multiplied in
    (order, level sequence) order; inputs as for
    :func:`modifying_integrator_rows`."""
    from bsharp.splits import ordered_subtrees
    from bsharp.trees import RootedTree

    out = {b"": outer[b""]}
    for seq in trees:
        total = Fraction(0)
        for kept, branches in ordered_subtrees(RootedTree._wrap(seq)):
            term = outer[b"" if kept.is_empty else kept._levels]
            for branch in branches:
                term *= inner[branch._levels]
            total += term
        out[seq] = total
    return out


# ---------------------------------------------------------------------------
# elementary differentials, no caching, no index sorting
# ---------------------------------------------------------------------------

def elementary_differential_bruteforce(system, levels):
    """Per-component expressions via explicit nested index loops.

    Derivatives are taken in raw (unsorted) index order and nothing is
    memoized, so agreement with the package's cached/sorted version also
    exercises symmetry of mixed partials.
    """
    from bsharp.expressions import add_all, differentiate, mul_all

    nvars = len(system.variables)
    parent = parents_from_levels(levels)
    n = len(levels)
    children: dict[int, list[int]] = {}
    for v in range(1, n):
        children.setdefault(parent[v], []).append(v)

    def node_value(v: int, component: int):
        kids = children.get(v, [])
        if not kids:
            return system.rhs[component]
        terms = []
        for assign in product(range(nvars), repeat=len(kids)):
            d = system.rhs[component]
            for index in assign:
                d = differentiate(d, index)
            factors = [d]
            for kid, index in zip(kids, assign):
                factors.append(node_value(kid, index))
            terms.append(mul_all(factors))
        return add_all(terms)

    return tuple(node_value(0, j) for j in range(nvars))


# ---------------------------------------------------------------------------
# float vector fields, interpreted node by node
# ---------------------------------------------------------------------------

def system_field_interpreted(system):
    """The right-hand side at a float point, one ``eval_expression`` per
    component."""
    from bsharp.expressions import eval_expression

    def f(y):
        return [eval_expression(e, y) for e in system.rhs]

    return f


def graded_field_interpreted(terms, step):
    """Σ_d step**(d-1)·E_d(y) per component, accumulated from 0.0 in degree
    order with a fresh ``eval_expression`` per component and degree."""
    from bsharp.expressions import eval_expression

    weighted = [
        [(step ** (degree - 1), expr) for degree, expr in component if degree != 0]
        for component in terms
    ]

    def f(y):
        out = []
        for ws in weighted:
            acc = 0.0
            for w, expr in ws:
                acc += w * eval_expression(expr, y)
            out.append(acc)
        return out

    return f


# ---------------------------------------------------------------------------
# fixed-step trajectories, one loop over the tableau per step
# ---------------------------------------------------------------------------

#: classical RK4 as doubles, the method of every run but ``direct``
RK4_FLOAT = (
    ((0.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)),
    (1 / 6, 1 / 3, 1 / 3, 1 / 6),
)


def rk_step_loop(a, b, f, y, h):
    """One explicit Runge-Kutta step, a loop over the float tableau that
    skips its zero entries: the stepping ``simulate`` generates code for."""
    stages = []
    n = len(y)
    for i in range(len(b)):
        yi = list(y)
        row = a[i]
        for j in range(i):
            aij = row[j]
            if aij == 0.0:
                continue
            kj = stages[j]
            for m in range(n):
                yi[m] += h * aij * kj[m]
        stages.append(f(yi))
    out = list(y)
    for i, bi in enumerate(b):
        if bi == 0.0:
            continue
        ki = stages[i]
        for m in range(n):
            out[m] += h * bi * ki[m]
    return out


def stepped_rows(a, b, field, initial, step, rows, substeps):
    """The rows (t, y) of a trajectory of ``rows`` rows, each ``substeps``
    steps of ``rk_step_loop`` with step ``step``/``substeps``, and the time
    of the last row before a numeric failure (a ZeroDivisionError or
    OverflowError, or a non-finite state), None without one."""
    h = step / substeps
    y = [float(v) for v in initial]
    out = [(0.0, tuple(y))]
    for i in range(1, rows):
        try:
            for _ in range(substeps):
                y = rk_step_loop(a, b, field, y, h)
        except (ZeroDivisionError, OverflowError):
            return out, (i - 1) * step
        if not all(math.isfinite(v) for v in y):
            return out, (i - 1) * step
        out.append((i * step, tuple(y)))
    return out, None


# ---------------------------------------------------------------------------
# elementary differentials, every index assignment expanded
# ---------------------------------------------------------------------------

class DiffCacheProductExpansion:
    """``DiffCache.elementary`` as it was before zero-prefix pruning: one
    ``mul_all`` product for each of the n^m index assignments of a node
    with m children, zero or not.  Partials come from a ``DiffCache``."""

    def __init__(self, system):
        from bsharp.odes import DiffCache

        self.system = system
        self._cache = DiffCache(system)
        self.partial = self._cache.partial
        self._trees = {}

    def elementary(self, tree):
        """The tree's elementary differential, one expression per component."""
        from bsharp.expressions import add_all, mul_all

        key = tree._levels
        out = self._trees.get(key)
        if out is not None:
            return out
        n = self.system.dimension
        children = tree.children()
        if not children:
            out = self.system.rhs
        else:
            child_vals = [self.elementary(child) for child in children]
            m = len(children)
            components = []
            for j in range(n):
                terms = []
                for assignment in product(range(n), repeat=m):
                    factors = [self.partial(j, tuple(sorted(assignment)))]
                    for i, k in enumerate(assignment):
                        factors.append(child_vals[i][k])
                    terms.append(mul_all(factors))
                components.append(add_all(terms))
            out = tuple(components)
        self._trees[key] = out
        return out


class DiffCacheByLevels:
    """``DiffCache.elementary`` as it was before the tree index: a memo
    keyed by level sequence, children re-parsed through
    ``RootedTree.children()``, the same zero-prefix pruning.  Partials are
    its own, from ``differentiate`` with a memo of its own."""

    def __init__(self, system):
        self.system = system
        self._partials = {}
        self._derivatives = {}
        self._trees = {}
        self.tensor_builds = 0
        self.tree_builds = 0

    def partial(self, component, indices):
        from bsharp.expressions import differentiate

        indices = tuple(sorted(indices))
        key = (component, indices)
        out = self._partials.get(key)
        if out is None:
            if indices:
                prefix = self.partial(component, indices[:-1])
                out = differentiate(prefix, indices[-1], self._derivatives)
            else:
                out = self.system.rhs[component]
            self.tensor_builds += 1
            self._partials[key] = out
        return out

    def elementary(self, tree):
        """The tree's elementary differential, one expression per component."""
        from bsharp.expressions import _ZERO, add_all, mul_all

        key = tree._levels
        out = self._trees.get(key)
        if out is not None:
            return out
        n = self.system.dimension
        children = tree.children()
        if not children:
            out = self.system.rhs
        else:
            child_vals = [self.elementary(child) for child in children]
            components = []
            for j in range(n):
                branches = [((), [])]
                for vals in child_vals:
                    grown = []
                    for indices, factors in branches:
                        for k in range(n):
                            if vals[k] is _ZERO:
                                continue
                            extended = tuple(sorted(indices + (k,)))
                            if self.partial(j, extended) is _ZERO:
                                continue
                            grown.append((extended, factors + [vals[k]]))
                    branches = grown
                components.append(add_all([
                    mul_all([self.partial(j, indices)] + factors) for indices, factors in branches
                ]))
            out = tuple(components)
        self.tree_builds += 1
        self._trees[key] = out
        return out


# ---------------------------------------------------------------------------
# expression normalization, by recursive absorption over Fractions
# ---------------------------------------------------------------------------

def const_by_fraction(value):
    """The (value, digest) that ``expressions.const`` gave a constant when
    it interned it under its ``Fraction``: every input is read as a
    Fraction first, and the digest hashes that Fraction's text."""
    from bsharp.expressions import _digest

    value = Fraction(value)
    return value, _digest(b"c" + str(value).encode())


def _by_kind_and_digest(node):
    return (node._rank, node._digest)


def add_all_by_absorbing(parts):
    """``expressions.add_all`` as it was before its flatten loop: a
    recursive ``absorb`` with a Fraction scale, like terms collected by
    body and constants folded in Fraction arithmetic; a sum body that
    collects to coefficient 1 is absorbed again, as a sum holds no sum,
    and a sum part beside a constant multiple of it, a part or a term of
    another sum part, is kept whole.  Nodes come from the module's
    constructors, so a result is the interned node itself."""
    from bsharp.expressions import Const, Prod, Sum, _raw_prod, _raw_sum, const

    constant = Fraction(0)
    collected = {}
    order = []

    def absorb(part, scale, whole=False):
        nonlocal constant
        if isinstance(part, Const):
            constant += scale * part.value
            return
        if isinstance(part, Sum) and not whole:
            for term in part.terms:
                absorb(term, scale)
            return
        if isinstance(part, Prod) and isinstance(part.factors[0], Const):
            coeff = scale * part.factors[0].value
            rest = part.factors[1:]
            body = rest[0] if len(rest) == 1 else _raw_prod(rest)
        else:
            coeff = scale
            body = part
        if body in collected:
            collected[body] += coeff
        else:
            collected[body] = coeff
            order.append(body)

    # a sum part S beside a term c*S, a part or a term of a sum part, is
    # absorbed as one body, so that the two collect as (1 + c)*S
    terms = [t for part in parts for t in (part.terms if isinstance(part, Sum) else (part,))]
    scaled = {
        t.factors[1] for t in terms
        if isinstance(t, Prod) and len(t.factors) == 2 and isinstance(t.factors[0], Const)
    }
    for part in parts:
        absorb(part, Fraction(1), part in scaled)
    # a sum holds no sum: a sum body whose coefficient is 1 is absorbed
    # again term by term, one at a time, until none is left
    while True:
        spread = [body for body in order if isinstance(body, Sum) and collected[body] == 1]
        if not spread:
            break
        order.remove(spread[0])
        del collected[spread[0]]
        absorb(spread[0], Fraction(1))

    terms = []
    for body in order:
        coeff = collected[body]
        if coeff == 0:
            continue
        if coeff == 1:
            terms.append(body)
        elif isinstance(body, Prod):
            terms.append(_raw_prod((const(coeff),) + body.factors))
        else:
            terms.append(_raw_prod((const(coeff), body)))
    terms.sort(key=_by_kind_and_digest)
    if constant != 0:
        terms.append(const(constant))
    if not terms:
        return const(0)
    return _raw_sum(tuple(terms))


def mul_all_by_absorbing(parts):
    """``expressions.mul_all`` as it was before its flatten loop: a
    recursive ``absorb`` that multiplies constants as Fractions and sums
    the exponents of each base."""
    from bsharp.expressions import Const, Power, Prod, _raw_power, _raw_prod, const

    constant = Fraction(1)
    powers = {}
    order = []

    def absorb(part):
        nonlocal constant
        if isinstance(part, Const):
            constant *= part.value
            return
        if isinstance(part, Prod):
            for factor in part.factors:
                absorb(factor)
            return
        if isinstance(part, Power):
            base, e = part.base, part.exponent
        else:
            base, e = part, 1
        if base in powers:
            powers[base] += e
        else:
            powers[base] = e
            order.append(base)

    for part in parts:
        absorb(part)
    if constant == 0:
        return const(0)

    factors = []
    for base in order:
        e = powers[base]
        if e == 0:
            continue
        factors.append(base if e == 1 else _raw_power(base, e))
    factors.sort(key=_by_kind_and_digest)
    if constant != 1:
        factors.insert(0, const(constant))
    if not factors:
        return const(1)
    return _raw_prod(tuple(factors))


# ---------------------------------------------------------------------------
# expression printing, as a tree walk
# ---------------------------------------------------------------------------

def format_expression_tree_walk(expr, names, fmt="text"):
    """``format_expression`` as it was before it printed each distinct node
    once: a recursive walk that renders every occurrence of a shared node
    again, in its context."""
    from bsharp.coefficients import latex_name
    from bsharp.expressions import Const, Power, Prod, Sum, Var, const

    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown expression format {fmt!r}")
    latex = fmt == "latex"

    def paren(s: str, needed: bool) -> str:
        if not needed:
            return s
        return f"\\left({s}\\right)" if latex else f"({s})"

    def name_of(index: int) -> str:
        if index < len(names):
            return latex_name(names[index]) if latex else names[index]
        return f"y{index}"

    def render(node, context: int) -> str:
        # context: 0 sum, 1 product, 2 power-base
        if isinstance(node, Const):
            if latex:
                from bsharp.coefficients_extra import _rat_latex

                s = _rat_latex(node.value)
            else:
                s = str(node.value)
            needs = node.value < 0 and context >= 1
            if context == 2 and Fraction(node.value).denominator != 1:
                needs = True
            return paren(s, needs)
        if isinstance(node, Var):
            return name_of(node.index)
        if isinstance(node, Power):
            base = render(node.base, 2)
            if latex:
                return f"{base}^{{{node.exponent}}}"
            return f"{base}^{node.exponent}"
        if isinstance(node, Prod):
            factors = node.factors
            neg = False
            if isinstance(factors[0], Const) and factors[0].value < 0:
                neg = True
                c = -Fraction(factors[0].value)
                factors = factors[1:] if c == 1 else (const(c),) + factors[1:]
            sep = " " if latex else "*"
            s = sep.join(render(f, 1) for f in factors)
            if neg:
                s = "-" + s
            return paren(s, context == 2 or (neg and context == 1))
        if isinstance(node, Sum):
            parts = []
            for term in node.terms:
                body = render(term, 0)
                if not parts:
                    parts.append(body)
                elif body.startswith("-"):
                    parts.append(f" - {body[1:]}")
                else:
                    parts.append(f" + {body}")
            return paren("".join(parts), context >= 1)
        raise TypeError(f"not an expression: {node!r}")  # pragma: no cover

    return render(expr, 0)


# ---------------------------------------------------------------------------
# rational functions over Fraction coefficients
# ---------------------------------------------------------------------------
#
# The polynomial and rational-function arithmetic that bsharp used before its
# polynomials held integer coefficients, copied verbatim: every operation
# rebuilds Fraction coefficients and renormalizes through
# ``RationalFunction.__init__`` / ``_clear_content`` / ``_collapse``.  The
# printers below render these objects exactly as ``coeff_print`` rendered
# them, so the package's output can be compared with it byte for byte.

class MultiPoly:
    """Multivariate polynomial over the rationals.

    ``symbols`` is a sorted tuple of names; ``terms`` maps exponent vectors
    (one entry per symbol) to nonzero rational coefficients.  Symbols that
    no term actually uses are pruned, so a constant polynomial always has an
    empty symbol tuple.
    """

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]):
        terms = {e: c for e, c in terms.items() if c != 0}
        if symbols and terms:
            used = [any(e[i] for e in terms) for i in range(len(symbols))]
            if not all(used):
                keep = [i for i, u in enumerate(used) if u]
                symbols = tuple(symbols[i] for i in keep)
                terms = {tuple(e[i] for i in keep): c for e, c in terms.items()}
        elif not terms:
            symbols = ()
        self.symbols = symbols
        self.terms = terms

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        value = Fraction(value)
        return cls((), {(): value} if value != 0 else {})

    @classmethod
    def symbol(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.symbols

    def constant_value(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def scaled(self, factor: Fraction) -> "MultiPoly":
        return MultiPoly(self.symbols, {e: c * factor for e, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.sorted_terms()[0][1]

    def eval(self, bindings: Mapping[str, Fraction]) -> Fraction:
        for name in self.symbols:
            if name not in bindings:
                raise UnboundSymbolError(f"no value bound for symbol '{name}'")
        total = Fraction(0)
        for exps, c in self.terms.items():
            value = Fraction(c)
            for name, e in zip(self.symbols, exps):
                if e:
                    value *= Fraction(bindings[name]) ** e
            total += value
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _, a, b = _align(self, other)
        return a == b

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<MultiPoly {_poly_text(self)}>"


def _align(a: MultiPoly, b: MultiPoly):
    if a.symbols == b.symbols:
        return a.symbols, a.terms, b.terms
    symbols = tuple(sorted(set(a.symbols) | set(b.symbols)))
    return symbols, _embed(a, symbols), _embed(b, symbols)


def _embed(p: MultiPoly, symbols: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
    if p.symbols == symbols:
        return p.terms
    idx = [symbols.index(s) for s in p.symbols]
    width = len(symbols)
    out = {}
    for exps, c in p.terms.items():
        vec = [0] * width
        for k, e in zip(idx, exps):
            vec[k] = e
        out[tuple(vec)] = c
    return out


def _poly_add(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    symbols, ta, tb = _align(a, b)
    out = dict(ta)
    for e, c in tb.items():
        out[e] = out.get(e, Fraction(0)) + c
    return MultiPoly(symbols, out)


def _poly_neg(a: MultiPoly) -> MultiPoly:
    return MultiPoly(a.symbols, {e: -c for e, c in a.terms.items()})


def _poly_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    symbols, ta, tb = _align(a, b)
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return MultiPoly(symbols, out)


def _poly_pow(a: MultiPoly, k: int) -> MultiPoly:
    result = MultiPoly.constant(1)
    for _ in range(k):
        result = _poly_mul(result, a)
    return result


class RationalFunction:
    """Quotient of two polynomials, normalized up to rational content only."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero:
            raise CoefficientError("zero denominator in rational function")
        if num.is_zero:
            den = MultiPoly.constant(1)
        else:
            num, den = _clear_content(num, den)
        self.num = num
        self.den = den

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(self.num.symbols) | frozenset(self.den.symbols)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def eval(self, bindings: Mapping[str, Fraction]) -> Fraction:
        den = self.den.eval(bindings)
        if den == 0:
            raise CoefficientError("denominator vanishes at the evaluation point")
        return self.num.eval(bindings) / den

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        num = _poly_add(_poly_mul(self.num, other.den), _poly_mul(other.num, self.den))
        return _collapse(RationalFunction(num, _poly_mul(self.den, other.den)))

    __radd__ = __add__

    def __neg__(self):
        return _collapse(RationalFunction(_poly_neg(self.num), self.den))

    def __sub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return _collapse(
            RationalFunction(_poly_mul(self.num, other.num), _poly_mul(self.den, other.den))
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero:
            raise CoefficientError("division by zero coefficient")
        return _collapse(
            RationalFunction(_poly_mul(self.num, other.den), _poly_mul(self.den, other.num))
        )

    def __rtruediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k >= 0:
            return _collapse(RationalFunction(_poly_pow(self.num, k), _poly_pow(self.den, k)))
        if self.num.is_zero:
            raise CoefficientError("zero coefficient raised to a negative power")
        return _collapse(RationalFunction(_poly_pow(self.den, -k), _poly_pow(self.num, -k)))

    def __eq__(self, other: object) -> bool:
        rf = _as_rf(other)
        if rf is None:
            return NotImplemented
        # cross-multiplication: no GCDs anywhere
        return _poly_mul(self.num, rf.den) == _poly_mul(rf.num, self.den)

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return _rf_text(self)

    def __repr__(self) -> str:
        return f"<RationalFunction {_rf_text(self)}>"


def _strip_common_monomial(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Divide both sides by their largest common monomial (not a GCD pass:
    per-symbol minimum exponents only, so e.g. alpha^7/alpha^9 collapses
    but (alpha^2-1)/(alpha-1) is left alone)."""
    common = set(num.symbols) & set(den.symbols)
    if not common:
        return num, den
    shift: dict[str, int] = {}
    for name in common:
        i = num.symbols.index(name)
        j = den.symbols.index(name)
        m = min(min(e[i] for e in num.terms), min(e[j] for e in den.terms))
        if m > 0:
            shift[name] = m
    if not shift:
        return num, den
    return _shift_exponents(num, shift), _shift_exponents(den, shift)


def _shift_exponents(p: MultiPoly, shift: dict[str, int]) -> MultiPoly:
    offsets = [shift.get(s, 0) for s in p.symbols]
    return MultiPoly(
        p.symbols,
        {
            tuple(e - o for e, o in zip(exps, offsets)): c
            for exps, c in p.terms.items()
        },
    )


def _clear_content(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    num, den = _strip_common_monomial(num, den)
    coeffs = list(num.terms.values()) + list(den.terms.values())
    lcm = 1
    for c in coeffs:
        lcm = math.lcm(lcm, int(c.denominator))
    gcd = 0
    for c in coeffs:
        gcd = math.gcd(gcd, abs(int(c.numerator)) * (lcm // int(c.denominator)))
    scale = Fraction(lcm, gcd)
    if den.leading_coefficient() < 0:
        scale = -scale
    return num.scaled(scale), den.scaled(scale)


def _collapse(rf: RationalFunction) -> Coefficient:
    if rf.num.is_constant and rf.den.is_constant:
        return rf.num.constant_value() / rf.den.constant_value()
    return rf


def _as_rf(value) -> RationalFunction | None:
    if isinstance(value, RationalFunction):
        return value
    if is_rational(value):
        return RationalFunction(MultiPoly.constant(value), MultiPoly.constant(1))
    return None


def _rat_text(value: Fraction) -> str:
    return str(Fraction(value))


def _rat_latex(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def _term_body(exps, coeff_abs: Fraction, symbols, latex: bool) -> str:
    if latex:
        factors = [
            latex_name(s) + (f"^{{{e}}}" if e > 1 else "")
            for s, e in zip(symbols, exps) if e
        ]
        if not factors:
            return _rat_latex(coeff_abs)
        body = " ".join(factors)
        if coeff_abs != 1:
            body = f"{_rat_latex(coeff_abs)} {body}"
        return body
    factors = [f"{s}^{e}" if e > 1 else s for s, e in zip(symbols, exps) if e]
    if not factors:
        return _rat_text(coeff_abs)
    body = "*".join(factors)
    if coeff_abs != 1:
        body = f"{_rat_text(coeff_abs)}*{body}"
    return body


def _poly_render(p: MultiPoly, latex: bool) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for exps, c in p.sorted_terms():
        body = _term_body(exps, abs(c), p.symbols, latex)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(parts)


def _poly_text(p: MultiPoly) -> str:
    return _poly_render(p, latex=False)


def _is_atomic_poly(p: MultiPoly) -> bool:
    # renders without any operator: a bare integer or a bare symbol
    if len(p.terms) != 1:
        return False
    (exps, c), = p.terms.items()
    if not any(exps):
        return c >= 0 and Fraction(c).denominator == 1
    return c == 1 and sum(exps) == 1


def _rf_text(rf: RationalFunction) -> str:
    num, den = rf.num, rf.den
    if den.is_constant and den.constant_value() == 1:
        return _poly_text(num)
    num_str = _poly_text(num)
    if len(num.terms) > 1:
        num_str = f"({num_str})"
    den_str = _poly_text(den)
    if not _is_atomic_poly(den):
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


def _rf_latex(rf: RationalFunction) -> str:
    num, den = rf.num, rf.den
    if den.is_constant and den.constant_value() == 1:
        return _poly_render(num, latex=True)
    return f"\\frac{{{_poly_render(num, latex=True)}}}{{{_poly_render(den, latex=True)}}}"


def oracle_symbol(name: str) -> RationalFunction:
    """The oracle coefficient consisting of a bare named parameter."""
    return RationalFunction(MultiPoly.symbol(name), MultiPoly.constant(1))


def oracle_print(c, fmt: str = "text") -> str:
    """``coeff_print`` as it was, for oracle rationals and rational functions."""
    if isinstance(c, RationalFunction):
        return _rf_text(c) if fmt == "text" else _rf_latex(c)
    return _rat_text(c) if fmt == "text" else _rat_latex(c)


# ---------------------------------------------------------------------------
# CLI output assembled whole
# ---------------------------------------------------------------------------
#
# The CLI writes its output piece by piece as it is produced.  These build
# the same texts the way it once did: every row in a list, joined at the
# end or passed whole through json.dumps, and a newline added unless the
# text ends with one.  They call the package for the rows themselves.

def _whole(text: str) -> str:
    return text if text.endswith("\n") else text + "\n"


def trees_output_joined(order: int, fmt: str = "text", properties: bool = False) -> str:
    """``bsharp trees ORDER [--properties] --format FMT``."""
    import json

    from bsharp.trees import trees_of_order

    rows = [(tree, tree.symmetry(), tree.density()) for tree in trees_of_order(order)]
    if fmt == "json":
        return _whole(json.dumps([
            {"tree": str(t), "order": t.order, "sigma": sigma, "gamma": gamma,
             "inverse_gamma": str(Fraction(1, gamma))}
            for t, sigma, gamma in rows
        ], indent=2))
    if properties:
        return _whole("\n".join(
            f"{t}: order={t.order}, sigma={sigma}, gamma={gamma}, 1/gamma={Fraction(1, gamma)}"
            for t, sigma, gamma in rows
        ))
    return _whole("\n".join(str(t) for t, _, _ in rows))


def splits_output_joined(tree_text: str, kind: str, fmt: str = "text") -> str:
    """``bsharp splits TREE --kind KIND --format FMT``."""
    import json

    from bsharp.splits import ordered_subtrees, partitions
    from bsharp.trees import parse_tree

    tree = parse_tree(tree_text)
    if kind == "subtrees":
        label, pairs = "subtree", [(s.subtree, s.forest) for s in ordered_subtrees(tree)]
    else:
        label, pairs = "skeleton", [(s.skeleton, s.forest) for s in partitions(tree)]
    if fmt == "json":
        return _whole(json.dumps(
            [{label: str(kept), "forest": [str(t) for t in forest]} for kept, forest in pairs],
            indent=2,
        ))
    return _whole("\n".join(f"{kept} ; {forest}" for kept, forest in pairs))


def field_output_joined(command: str, tableau: str, order: int, ode: str, fmt: str) -> str:
    """``bsharp COMMAND --tableau TABLEAU --order ORDER --ode-text ODE
    --format FMT`` for a built-in tableau."""
    import json

    from bsharp.expressions import add_all, format_expression, mul_all, power, variable
    from bsharp.modifying import modifying_integrator_of_tableau
    from bsharp.odes import DiffCache, parse_ode, series_vector_field
    from bsharp.series import modified_equation_series
    from bsharp.tableaux import builtin_tableau, rk_series

    tab = builtin_tableau(tableau)
    if command == "modified-equation":
        flow = modified_equation_series(rk_series(tab, order))
    else:
        flow = modifying_integrator_of_tableau(tab, order)
    system = parse_ode(ode)
    step = next(name for name in ("h", "h_step", *(f"h_step{i}" for i in range(2, 99)))
                if name not in system.variables)
    names = system.variables + (step,)
    h = variable(system.dimension)
    fields = [
        add_all([mul_all((power(h, d - 1), e)) for d, e in component if d > 0])
        for component in series_vector_field(flow, system, DiffCache(system))
    ]
    if fmt == "json":
        return _whole(json.dumps({
            "variables": list(system.variables),
            "step_symbol": step,
            "equations": {n: format_expression(f, names) for n, f in zip(system.variables, fields)},
        }, indent=2))
    lines = []
    for name, f in zip(system.variables, fields):
        body = format_expression(f, names, fmt)
        head = f"\\dot{{{latex_name(name)}}}" if fmt == "latex" else f"{name}'"
        lines.append(f"{head} = {body}")
    return _whole("\n".join(lines))
