from collections import Counter
from itertools import islice
from time import perf_counter

from hypothesis import given, settings

from bsharp import splits
from bsharp.splits import (
    Forest,
    PartitionSplit,
    SubtreeSplit,
    edge_cut_table,
    ordered_subtrees,
    partition_split_table,
    partitions,
    subtree_split_table,
)
from bsharp.trees import (
    EMPTY_TREE,
    MAX_ORDER,
    RootedTree,
    all_trees_up_to,
    canonicalize,
    parse_tree,
)

from oracles import (
    edge_cuts_bruteforce,
    levels_to_shape,
    partition_splits_bruteforce,
    subtree_splits_bruteforce,
)
from test_trees import level_sequences

T = parse_tree  # shorthand for the fixtures below

# frozen: all 16 partition splits of [0,1,2,1,2], as (forest, skeleton, count)
PARTITION_FIXTURE = [
    (["[0,1,2,1,2]"], "[0]", 1),
    (["[0,1]", "[0,1,2]"], "[0,1]", 2),
    (["[0]", "[0,1,2,1]"], "[0,1]", 2),
    (["[0]", "[0,1]", "[0,1]"], "[0,1,1]", 3),
    (["[0]", "[0]", "[0,1,1]"], "[0,1,1]", 1),
    (["[0]", "[0]", "[0,1,2]"], "[0,1,2]", 2),
    (["[0]", "[0]", "[0]", "[0,1]"], "[0,1,2,1]", 4),
    (["[0]", "[0]", "[0]", "[0]", "[0]"], "[0,1,2,1,2]", 1),
]

# frozen: all 10 ordered-subtree splits of [0,1,2,1,2], as (kept, forest, count)
SUBTREE_FIXTURE = [
    ("[0]", ["[0,1]", "[0,1]"], 1),
    ("[0,1]", ["[0]", "[0,1]"], 2),
    ("[0,1,1]", ["[0]", "[0]"], 1),
    ("[0,1,2]", ["[0,1]"], 2),
    ("[0,1,2,1]", ["[0]"], 2),
    ("[0,1,2,1,2]", [], 1),
    (None, ["[0,1,2,1,2]"], 1),
]


def _partition_multiset(tree):
    return Counter(
        (skel, tuple(forest)) for skel, forest in partitions(tree)
    )


def _subtree_multiset(tree):
    return Counter(
        (None if sub.is_empty else sub, tuple(forest))
        for sub, forest in ordered_subtrees(tree)
    )


def test_partition_fixture_multiset():
    tree = T("[0,1,2,1,2]")
    expected = Counter()
    for forest, skel, count in PARTITION_FIXTURE:
        key = (T(skel), tuple(sorted(T(f) for f in forest)))
        expected[key] += count
    assert _partition_multiset(tree) == expected
    assert sum(expected.values()) == 16


def test_subtree_fixture_multiset():
    tree = T("[0,1,2,1,2]")
    expected = Counter()
    for kept, forest, count in SUBTREE_FIXTURE:
        key = (
            None if kept is None else T(kept),
            tuple(sorted(T(f) for f in forest)),
        )
        expected[key] += count
    assert _subtree_multiset(tree) == expected
    assert sum(expected.values()) == 10


def test_partition_count_is_two_to_the_edges():
    for tree in all_trees_up_to(6):
        assert sum(1 for _ in partitions(tree)) == 1 << (tree.order - 1)


def test_partitions_match_bruteforce():
    for tree in all_trees_up_to(6):
        ours = Counter(
            (
                levels_to_shape(skel.levels),
                tuple(sorted(levels_to_shape(t.levels) for t in forest)),
            )
            for skel, forest in partitions(tree)
        )
        assert ours == partition_splits_bruteforce(tree.levels)


def test_ordered_subtrees_match_bruteforce():
    for tree in all_trees_up_to(6):
        ours = Counter(
            (
                None if sub.is_empty else levels_to_shape(sub.levels),
                tuple(sorted(levels_to_shape(t.levels) for t in forest)),
            )
            for sub, forest in ordered_subtrees(tree)
        )
        assert ours == subtree_splits_bruteforce(tree.levels)


def test_split_invariants():
    for tree in all_trees_up_to(6):
        for skel, forest in partitions(tree):
            assert skel.order == len(forest)
            assert forest.order == tree.order
        for sub, forest in ordered_subtrees(tree):
            kept = 0 if sub.is_empty else sub.order
            assert kept + forest.order == tree.order


def test_partition_endpoints():
    tree = T("[0,1,2,2,1]")
    splits = list(partitions(tree))
    assert splits[0] == PartitionSplit(T("[0]"), Forest((tree,)))
    last = splits[-1]
    assert last.skeleton == tree
    assert all(t.order == 1 for t in last.forest)


def test_subtree_endpoints():
    tree = T("[0,1,2,2,1]")
    splits = list(ordered_subtrees(tree))
    first, last = splits[0], splits[-1]
    assert first.subtree == T("[0]")
    assert last == SubtreeSplit(EMPTY_TREE, Forest((tree,)))
    # whole-tree split sits just before the empty one
    assert splits[-2] == SubtreeSplit(tree, Forest())


def test_iterators_are_lazy():
    # a 40-chain has 2**39 edge subsets; taking a few must be instant
    chain = RootedTree(range(40))
    start = perf_counter()
    head = list(islice(partitions(chain), 5))
    head += list(islice(ordered_subtrees(chain), 5))
    assert perf_counter() - start < 1.0
    assert head[0].skeleton == T("[0]")


def test_iteration_is_deterministic():
    tree = T("[0,1,2,1,1]")
    assert list(partitions(tree)) == list(partitions(tree))
    assert list(ordered_subtrees(tree)) == list(ordered_subtrees(tree))


def _assert_table_matches_iterator(tree):
    # the lazy iterator goes through the per-mask kernel, one split per
    # edge subset in ascending mask order; the table is built by the
    # children recursion
    raw = [
        (skel._levels, tuple(m._levels for m in forest))
        for skel, forest in partitions(tree)
    ]
    table = partition_split_table(tree)
    rows = [(skel, forest) for skel, forest, _ in table]
    assert all(
        type(skel) is bytes and all(type(m) is bytes for m in forest)
        for skel, forest in rows
    )
    assert len(set(rows)) == len(rows)
    expanded = Counter()
    for skel, forest, k in table:
        expanded[skel, forest] += k
    assert expanded == Counter(raw)
    assert sum(k for _, _, k in table) == 1 << (tree.order - 1)
    # distinct rows in the order of their first appearance
    assert rows == list(dict.fromkeys(raw))
    assert table[0] == (b"\x00", (tree._levels,), 1)


def test_tables_agree_with_iterators():
    trees = list(all_trees_up_to(8))
    assert len(trees) == 200
    for tree in trees:
        _assert_table_matches_iterator(tree)
        assert [
            (sub, tuple(forest)) for sub, forest in ordered_subtrees(tree)
        ] == list(subtree_split_table(tree))
        # cached: same object on the second call
        assert partition_split_table(tree) is partition_split_table(tree)


@given(level_sequences(max_nodes=11))
@settings(max_examples=40, deadline=None)
def test_partition_table_matches_iterator_on_random_trees(levels):
    _assert_table_matches_iterator(canonicalize(levels))


def test_partition_table_matches_bruteforce():
    for tree in all_trees_up_to(7):
        ours = Counter()
        for skel, forest, k in partition_split_table(tree):
            assert len(skel) == len(forest)
            assert sum(len(m) for m in forest) == tree.order
            ours[
                levels_to_shape(skel), tuple(sorted(levels_to_shape(m) for m in forest))
            ] += k
        assert ours == partition_splits_bruteforce(tree.levels)


def test_clear_split_caches_empties_every_cache():
    def caches():
        # every module-level memo: the lru-cached tables and plain dicts
        return {
            name: obj.cache_info().currsize if hasattr(obj, "cache_info") else len(obj)
            for name, obj in vars(splits).items()
            if not name.startswith("__")
            and (hasattr(obj, "cache_info") or isinstance(obj, dict))
        }

    for tree in all_trees_up_to(6):
        partition_split_table(tree)
        subtree_split_table(tree)
        edge_cut_table(tree)
    filled = caches()
    assert {
        "subtree_split_table", "partition_split_table", "edge_cut_table",
        "_rooted_tables", "_grafts",
    } <= filled.keys()
    assert all(size > 0 for size in filled.values()), filled
    splits.clear_split_caches()
    assert all(size == 0 for size in caches().values()), caches()


def test_order_cap_matches_mask_width():
    # masks are built in machine words; the cap keeps 2**(order-1) in range
    assert MAX_ORDER == 62
    chain = bytes(range(MAX_ORDER))
    assert splits._parents(chain)[-1] == MAX_ORDER - 2


def test_edge_cut_table_matches_bruteforce():
    for tree in all_trees_up_to(7):
        table = edge_cut_table(tree)
        ours = Counter()
        for trunk, branch, k in table:
            assert trunk.order + branch.order == tree.order
            ours[levels_to_shape(trunk.levels), levels_to_shape(branch.levels)] += k
        assert len(ours) == len(table)  # rows are distinct
        assert ours == edge_cuts_bruteforce(tree.levels)
        assert edge_cut_table(tree) is table
    assert edge_cut_table(T("[0]")) == ()


def test_forest_sorts_and_prints():
    f = Forest((T("[0,1]"), T("[0]"), T("[0,1,2]")))
    assert [t.levels for t in f] == [(0,), (0, 1), (0, 1, 2)]
    assert str(f) == "{[0], [0,1], [0,1,2]}"
    assert f.order == 6
    assert Forest() == ()
