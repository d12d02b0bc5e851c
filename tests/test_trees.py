import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsharp import trees
from bsharp.errors import InvalidTreeError
from bsharp.trees import (
    EMPTY_TREE,
    MAX_ORDER,
    RootedTree,
    all_trees_up_to,
    canonicalize,
    count_trees,
    parse_tree,
    trees_of_order,
)

from oracles import (
    density_direct,
    levels_to_shape,
    shapes_of_order,
    symmetry_bruteforce,
)

# frozen: number of rooted trees with 1..9 nodes
COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286]

# frozen: the eight smallest trees with their symmetry and density
PROPERTY_ROWS = [
    ((0,), 1, 1),
    ((0, 1), 1, 2),
    ((0, 1, 1), 2, 3),
    ((0, 1, 2), 1, 6),
    ((0, 1, 1, 1), 6, 4),
    ((0, 1, 2, 1), 1, 8),
    ((0, 1, 2, 2), 2, 12),
    ((0, 1, 2, 3), 1, 24),
]

# frozen: full listings for small orders, in generation order
SMALL_LISTINGS = {
    1: [(0,)],
    2: [(0, 1)],
    3: [(0, 1, 2), (0, 1, 1)],
    4: [(0, 1, 2, 3), (0, 1, 2, 2), (0, 1, 2, 1), (0, 1, 1, 1)],
}


def test_counts_match_frozen_and_oracle():
    for n, expected in enumerate(COUNTS, start=1):
        assert count_trees(n) == expected
        assert len(list(trees_of_order(n))) == expected
        assert len(shapes_of_order(n)) == expected


def test_small_orders_enumerate_exactly():
    for order, listing in SMALL_LISTINGS.items():
        assert [t.levels for t in trees_of_order(order)] == listing


def test_enumeration_shapes_match_oracle():
    for n in range(1, 8):
        ours = {levels_to_shape(t.levels) for t in trees_of_order(n)}
        assert ours == set(shapes_of_order(n))


@pytest.mark.parametrize("levels,sigma,gamma", PROPERTY_ROWS)
def test_symmetry_and_density_fixture(levels, sigma, gamma):
    tree = RootedTree(levels)
    assert tree.symmetry() == sigma
    assert tree.density() == gamma
    assert tree.order == len(levels)


def test_symmetry_and_density_against_bruteforce():
    for n in range(1, 7):
        for tree in trees_of_order(n):
            assert tree.symmetry() == symmetry_bruteforce(tree.levels)
            assert tree.density() == density_direct(tree.levels)


def test_generation_is_ordered_and_canonical():
    for n in range(1, 8):
        seen = list(trees_of_order(n))
        assert seen == sorted(seen, reverse=True)  # lex-descending level sequences
        for tree in seen:
            assert canonicalize(tree.levels) == tree


def test_all_trees_up_to_is_order_then_lex():
    flat = list(all_trees_up_to(5))
    assert flat == [t for n in range(1, 6) for t in trees_of_order(n)]
    assert len(flat) == sum(COUNTS[:5])


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

@st.composite
def level_sequences(draw, max_nodes=10):
    """Valid (not necessarily canonical) level sequences."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    levels = [0]
    for _ in range(n - 1):
        prev = levels[-1]
        levels.append(draw(st.integers(min_value=1, max_value=prev + 1)))
    return tuple(levels)


@given(level_sequences())
def test_canonicalize_is_idempotent_and_shape_preserving(levels):
    tree = canonicalize(levels)
    assert canonicalize(tree.levels) == tree
    assert levels_to_shape(tree.levels) == levels_to_shape(levels)
    assert tree.order == len(levels)


@given(level_sequences(max_nodes=8))
@settings(max_examples=50)
def test_canonical_form_is_maximal_among_representatives(levels):
    # the canonical representative is lex-greatest over the relabelings that
    # the enumeration itself produces
    tree = canonicalize(levels)
    same_shape = [
        t for t in trees_of_order(len(levels))
        if levels_to_shape(t.levels) == levels_to_shape(levels)
    ]
    assert same_shape == [tree]
    assert tree.levels == max(t.levels for t in same_shape)


def _reversed_dfs(levels):
    """The same tree written with every child list visited in reverse."""
    children: dict[int, list[int]] = {}
    path: list[int] = []  # path[d] = the last node seen at level d
    for v, lvl in enumerate(levels):
        del path[lvl:]
        if path:
            children.setdefault(path[-1], []).append(v)
        path.append(v)
    out: list[int] = []

    def walk(v, depth):
        out.append(depth)
        for child in reversed(children.get(v, [])):
            walk(child, depth + 1)

    walk(0, 0)
    return tuple(out)


def test_canonicalization_undoes_a_reversed_traversal():
    for tree in all_trees_up_to(7):
        variant = _reversed_dfs(tree.levels)
        assert sorted(variant) == sorted(tree.levels)
        assert RootedTree(variant).levels == tree.levels


def test_clear_tree_caches_empties_every_cache():
    def caches():
        # every module-level memo: lru-cached functions and plain dicts
        return {
            name: obj.cache_info().currsize if hasattr(obj, "cache_info") else len(obj)
            for name, obj in vars(trees).items()
            if not name.startswith("__")
            and (hasattr(obj, "cache_info") or isinstance(obj, dict))
        }

    for tree in all_trees_up_to(6):
        canonicalize(_reversed_dfs(tree.levels))
        tree.symmetry()
        tree.density()
    filled = caches()
    assert {"_canon_cache", "_symmetry_cache", "_density_cache"} <= filled.keys()
    assert all(size > 0 for size in filled.values()), filled
    trees.clear_tree_caches()
    assert all(size == 0 for size in caches().values()), caches()


def test_children_decompose_and_rebuild():
    tree = parse_tree("[0,1,2,2,1]")
    kids = tree.children()
    assert [k.levels for k in kids] == [(0, 1, 1), (0,)]
    rebuilt = canonicalize((0,) + tuple(x + 1 for k in kids for x in k.levels))
    assert rebuilt == tree


# ---------------------------------------------------------------------------
# validation and parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        (),              # no nodes
        (0, 0),          # second root
        (0, 2),          # level jump
        (0, 1, 3),       # level jump deeper in
        (1, 2),          # does not start at the root level... actually shifts
    ],
)
def test_invalid_level_sequences_rejected(bad):
    if bad == (1, 2):
        # base offset is allowed: [1,2] is just [0,1] shifted
        assert RootedTree(bad).levels == (0, 1)
        return
    with pytest.raises(InvalidTreeError):
        RootedTree(bad)


def test_order_cap():
    chain = tuple(range(MAX_ORDER))
    assert RootedTree(chain).order == MAX_ORDER
    with pytest.raises(InvalidTreeError):
        RootedTree(tuple(range(MAX_ORDER + 1)))
    with pytest.raises(InvalidTreeError):
        list(trees_of_order(MAX_ORDER + 1))


def test_parse_and_format_round_trip():
    for n in range(1, 6):
        for tree in trees_of_order(n):
            assert parse_tree(str(tree)) == tree


def test_parse_empty_tree_spellings():
    assert parse_tree("∅") is EMPTY_TREE
    assert parse_tree("{}") is EMPTY_TREE
    assert str(EMPTY_TREE) == "∅"
    assert EMPTY_TREE.order == 0
    assert EMPTY_TREE.is_empty


@pytest.mark.parametrize("text", ["[]", "[0,", "0,1", "[a]", "[0 1]", ""])
def test_parse_rejects_garbage(text):
    with pytest.raises(InvalidTreeError):
        parse_tree(text)


def test_parse_canonicalizes():
    assert parse_tree("[0,1,1,2]") == parse_tree("[0,1,2,1]")


def test_ordering_and_hash():
    a, b = parse_tree("[0,1]"), parse_tree("[0,1,1]")
    assert a < b  # order first
    c, d = parse_tree("[0,1,1]"), parse_tree("[0,1,2]")
    assert c < d  # then lex on levels
    assert len({RootedTree((0, 1)), parse_tree("[0,1]")}) == 1


# OEIS A000081: rooted trees with 1..20 nodes
A000081 = [
    1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 87811,
    235381, 634847, 1721159, 4688676, 12826228,
]


def test_count_trees_matches_enumeration_and_a000081():
    for n in range(1, 13):
        assert count_trees(n) == sum(1 for _ in trees_of_order(n))
    assert [count_trees(n) for n in range(1, 21)] == A000081
    assert count_trees(MAX_ORDER) > A000081[-1]
    for bad in (MAX_ORDER + 1, 3.0, True, "3"):
        with pytest.raises(InvalidTreeError):
            count_trees(bad)


def test_order_zero_is_the_empty_enumeration():
    assert count_trees(0) == 0
    assert list(trees_of_order(0)) == []
    with pytest.raises(InvalidTreeError):
        count_trees(-1)
