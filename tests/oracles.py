"""Independent reference implementations used only by the tests.

Nothing here shares code with the package internals it checks: trees are
nested tuples (a node is the sorted tuple of its child subtrees), counting
is brute force, and the elementary-weight / split computations follow the
definitions directly with explicit loops.  Slow on purpose — these run at
small orders where exhaustive enumeration is feasible.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations, product

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
                    term = term * v[component]
                total = total - term
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
                    term = term * v[component]
                total = total - term
            v[shape] = total / method[LEAF]
    return v


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


# ---------------------------------------------------------------------------
# expression printing, as a tree walk
# ---------------------------------------------------------------------------

def format_expression_tree_walk(expr, names, fmt="text"):
    """``format_expression`` as it was before it printed each distinct node
    once: a recursive walk that renders every occurrence of a shared node
    again, in its context."""
    from bsharp.coefficients import latex_name
    from bsharp.expressions import Const, Power, Prod, Sum, Var, _paren, const
    from bsharp.rationals import rat, rat_str

    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown expression format {fmt!r}")
    latex = fmt == "latex"

    def name_of(index: int) -> str:
        if index < len(names):
            return latex_name(names[index]) if latex else names[index]
        return f"y{index}"

    def render(node, context: int) -> str:
        # context: 0 sum, 1 product, 2 power-base
        if isinstance(node, Const):
            if latex:
                from bsharp.coefficients import _rat_latex

                s = _rat_latex(node.value)
            else:
                s = rat_str(node.value)
            needs = node.value < 0 and context >= 1
            if context == 2 and rat(node.value).denominator != 1:
                needs = True
            return _paren(s, needs, latex)
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
                c = -rat(factors[0].value)
                factors = factors[1:] if c == 1 else (const(c),) + factors[1:]
            sep = " " if latex else "*"
            s = sep.join(render(f, 1) for f in factors)
            if neg:
                s = "-" + s
            return _paren(s, context == 2 or (neg and context == 1), latex)
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
            return _paren("".join(parts), context >= 1, latex)
        raise TypeError(f"not an expression: {node!r}")  # pragma: no cover

    return render(expr, 0)
