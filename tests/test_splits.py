from collections import Counter
from itertools import islice
from time import perf_counter

import pytest
from hypothesis import given, settings

from bsharp import splits, splits_extra
from bsharp.errors import InvalidTreeError
from bsharp.series import compose, exact_series
from bsharp.splits import (
    Forest,
    PartitionSplit,
    SubtreeSplit,
    edge_cut_id_table,
    ordered_subtrees,
    partition_split_table,
    partitions,
)
from bsharp.trees import (
    EMPTY_TREE,
    MAX_ORDER,
    RootedTree,
    all_trees_up_to,
    canonicalize,
    parse_tree,
    trees_of_order,
)

from oracles import (
    edge_cut_rows_by_slices,
    edge_cuts_bruteforce,
    levels_to_shape,
    partition_id_table,
    partition_rows_by_masks,
    partition_splits_bruteforce,
    partition_table_bytes_states,
    subtree_id_table,
    subtree_rows_by_masks,
    subtree_splits_bruteforce,
)
from test_trees import level_sequences

T = parse_tree  # shorthand for the fixtures below


def _forest_seqs(key):
    """The members of a forest multiset key as level sequences, sorted by
    (order, level sequence) like a :class:`Forest`."""
    return tuple(sorted(sorted(splits._seqs[i] for i in splits_extra._members(key)), key=len))


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
    splits.clear_split_caches()
    start = perf_counter()
    list(islice(partitions(chain), 5))
    assert perf_counter() - start < 1.0
    # alone, the partitions index only the chains they name
    assert len(splits._seqs) <= 45
    splits.clear_split_caches()
    start = perf_counter()
    head = list(islice(partitions(chain), 5))
    head += list(islice(ordered_subtrees(chain), 5))
    assert perf_counter() - start < 1.0
    assert head[0].skeleton == T("[0]")
    # the subtree splits index the chains they name, not the tree's splits
    assert len(splits._seqs) <= 45
    splits.clear_split_caches()


def test_the_empty_tree_has_no_splits():
    splits.clear_split_caches()
    for iterate in (ordered_subtrees, partitions):
        with pytest.raises(InvalidTreeError, match="empty tree"):
            list(iterate(EMPTY_TREE))
    assert not splits._seqs  # raised before the tree index saw it


def test_the_empty_tree_has_no_split_tables():
    # b"" is not a tree: indexing it would take the graft key 0 from the
    # one-node tree, and the one-edge tree would keep b"" as a subtree
    splits.clear_split_caches()
    edge_cut_id_table(b"\x00")
    seqs, grafts = list(splits._seqs), dict(splits._grafts)
    for table in (subtree_id_table, edge_cut_id_table, partition_id_table):
        with pytest.raises(InvalidTreeError, match="empty tree"):
            table(b"")
        assert splits._seqs == seqs and splits._grafts == grafts
    assert [
        (splits._seqs[kept], _forest_seqs(forest), k)
        for kept, forest, k in subtree_id_table(b"\x00\x01")
    ] == [(b"\x00", (b"\x00",), 1), (b"\x00\x01", (), 1)]
    splits.clear_split_caches()


def test_iteration_is_deterministic():
    tree = T("[0,1,2,1,1]")
    assert list(partitions(tree)) == list(partitions(tree))
    assert list(ordered_subtrees(tree)) == list(ordered_subtrees(tree))


def _assert_table_matches_iterator(tree):
    # the lazy iterator and the table hang each child through one join
    # step over ids; the oracle walks the edge masks over the level
    # sequence, one split per edge subset in ascending mask order
    raw = partition_rows_by_masks(tree._levels)
    assert [
        (skel._levels, tuple(m._levels for m in forest))
        for skel, forest in partitions(tree)
    ] == raw
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


def _assert_matches_mask_and_slice_oracles(tree):
    # the subtree table and iterator come from one children recursion over
    # ids, the edge-cut table from the children's tables; the oracles walk
    # node masks and slice the level sequence, row for row, order included
    seq = tree._levels
    expected = subtree_rows_by_masks(seq)
    assert [
        (splits._seqs[kept], _forest_seqs(forest), k)
        for kept, forest, k in subtree_id_table(seq)
    ] == [(kept, forest, 1) for kept, forest in expected]
    assert [
        (sub._levels, tuple(m._levels for m in forest))
        for sub, forest in ordered_subtrees(tree)
    ] == expected + [(b"", (seq,))]
    assert [
        (splits._seqs[trunk], splits._seqs[branch], k)
        for trunk, branch, k in edge_cut_id_table(seq)
    ] == edge_cut_rows_by_slices(seq)


def test_tables_agree_with_iterators():
    trees = list(all_trees_up_to(8))
    assert len(trees) == 200
    for tree in trees:
        _assert_table_matches_iterator(tree)
        _assert_matches_mask_and_slice_oracles(tree)
        # cached: same object on the second call
        assert partition_split_table(tree) is partition_split_table(tree)


@given(level_sequences(max_nodes=11))
@settings(max_examples=40, deadline=None)
def test_partition_table_matches_iterator_on_random_trees(levels):
    _assert_table_matches_iterator(canonicalize(levels))


@given(level_sequences(max_nodes=12))
@settings(max_examples=40, deadline=None)
def test_subtree_and_cut_splits_match_the_oracles_on_random_trees(levels):
    _assert_matches_mask_and_slice_oracles(canonicalize(levels))


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


def test_partition_view_matches_the_bytes_state_builder():
    # same rows, in the same order, with the same multiplicities
    for tree in all_trees_up_to(8):
        assert partition_split_table(tree) == partition_table_bytes_states(tree._levels), tree


def test_multiset_counts_fit_their_field():
    # the all-cut row of the bush of the top order has MAX_ORDER one-node
    # components, the largest count any multiset key holds
    assert 2**splits_extra._BITS > MAX_ORDER
    splits.clear_split_caches()
    bush = RootedTree([0] + [1] * (MAX_ORDER - 1))
    table = partition_split_table(bush)
    assert table[-1] == (bush._levels, (b"\x00",) * MAX_ORDER, 1)
    assert sum(k for _, _, k in table) == 2 ** (MAX_ORDER - 1)
    assert all(sum(map(len, forest)) == MAX_ORDER for _, forest, _ in table)
    # the index holds only the trees the table names: the bushes
    assert sorted(splits._seqs) == sorted(bytes([0] + [1] * n) for n in range(MAX_ORDER))
    splits.clear_split_caches()


def test_clear_split_caches_empties_every_cache():
    def caches():
        # every module-level memo of both modules: the lru-cached tables,
        # plain dicts and the lists of the tree index
        return {
            name: obj.cache_info().currsize if hasattr(obj, "cache_info") else len(obj)
            for module in (splits, splits_extra)
            for name, obj in vars(module).items()
            if not name.startswith("__")
            and (hasattr(obj, "cache_info") or isinstance(obj, (dict, list)))
        }

    for tree in all_trees_up_to(6):
        partition_split_table(tree)
        edge_cut_id_table(tree._levels)
    splits.partition_skeleton_table(6)
    compose(exact_series(6), exact_series(6))  # grows kept subtrees through splits.with_child
    # the iterator indexes the trees it names: a 7-chain's kept subtrees
    list(ordered_subtrees(RootedTree(range(7))))
    assert bytes(range(7)) in splits_extra._ids
    filled = caches()
    assert {
        "partition_split_table", "_rooted_tables", "_skeleton_tables", "_forests",
        "with_child", "_cut_tables", "_ids", "_seqs", "_kids", "_grafts",
    } <= filled.keys()
    assert all(size > 0 for size in filled.values()), filled
    splits.clear_split_caches()
    assert all(size == 0 for size in caches().values()), caches()


def test_skeleton_table_regroups_the_partition_rows_of_one_order():
    for order in range(1, 8):
        table = splits.partition_skeleton_table(order)
        heads = [head for head, _ in table]
        assert len(heads) == len(set(heads))  # each skeleton once
        got = Counter((i, head, forest, k) for head, rows in table for i, forest, k in rows)
        expected = Counter()
        for tree in trees_of_order(order):
            i = splits.tree_id(tree._levels)
            # every row but the first, the no-edges-removed split
            expected.update((i, head, forest, k) for head, forest, k in
                            partition_id_table(tree._levels)[1:])
        assert got == expected
        assert splits.partition_skeleton_table(order) is table


def test_edge_cut_table_matches_bruteforce():
    for tree in all_trees_up_to(7):
        table = edge_cut_id_table(tree._levels)
        ours = Counter()
        for trunk, branch, k in table:
            trunk, branch = splits._seqs[trunk], splits._seqs[branch]
            assert len(trunk) + len(branch) == tree.order
            ours[levels_to_shape(trunk), levels_to_shape(branch)] += k
        assert len(ours) == len(table)  # rows are distinct
        assert ours == edge_cuts_bruteforce(tree.levels)
        assert edge_cut_id_table(tree._levels) == table
    assert edge_cut_id_table(b"\x00") == ()


def test_edge_cut_rows_follow_the_cut_nodes():
    # [0,1,2,1,1]: one row per distinct cut, in the order of the first node
    # that gives it: node 1 (branch [0,1]), node 2 (a leaf off [0,1,1,1]),
    # nodes 3 and 4 (a leaf off [0,1,2,1], twice)
    table = edge_cut_id_table(T("[0,1,2,1,1]")._levels)
    assert [(splits._seqs[t], splits._seqs[b], k) for t, b, k in table] == [
        (bytes([0, 1, 1]), bytes([0, 1]), 1),
        (bytes([0, 1, 1, 1]), bytes([0]), 1),
        (bytes([0, 1, 2, 1]), bytes([0]), 2),
    ]


def test_every_id_table_row_names_indexed_trees():
    # rows hold only ints: ids of the index, and forest keys whose members
    # are ids of the index
    def indexed(*ids):
        return all(type(i) is int and 0 <= i < len(splits._seqs) for i in ids)

    for tree in all_trees_up_to(6):
        seq = tree._levels
        for head, forest, k in subtree_id_table(seq) + partition_id_table(seq):
            assert indexed(head, *splits_extra._members(forest)) and type(k) is int
        for trunk, branch, k in edge_cut_id_table(seq):
            assert indexed(trunk, branch) and type(k) is int


def test_forest_sorts_and_prints():
    f = Forest((T("[0,1]"), T("[0]"), T("[0,1,2]")))
    assert [t.levels for t in f] == [(0,), (0, 1), (0, 1, 2)]
    assert str(f) == "{[0], [0,1], [0,1,2]}"
    assert f.order == 6
    assert Forest() == ()
