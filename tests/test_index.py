"""The tree index, its edge cuts, weights, γ and σ, and the size check of
an order, against code that shares nothing with the index: the lazy
enumerator over level sequences, Otter's count, brute-force cut
multisets, the level-sequence recursions of ``oracles``, and a Taylor
expansion in sympy of a method's step and of the exact flow of the field
the command line prints."""

import io
import math
import time
from collections import Counter
from contextlib import redirect_stdout

import pytest

import oracles
from bsharp import splits, splits_extra
from bsharp.cli import main
from bsharp.coefficients import coeff_print
from bsharp.errors import SeriesError
from bsharp.tableaux import builtin_tableau, rk_series, tableau_from_json_dict
from bsharp.trees import trees_of_order
from bsharp.trees_extra import count_trees


@pytest.fixture
def empty_index():
    splits.clear_split_caches()
    yield
    splits.clear_split_caches()


def _deeper(seq: bytes) -> bytes:
    return bytes(level + 1 for level in seq)


def test_each_order_is_built_in_the_enumerators_order(empty_index):
    orders = splits.orders_below(10)
    for n, ids in enumerate(orders, 1):
        assert [splits._seqs[i] for i in ids] == [t._levels for t in trees_of_order(n)]
    # from an empty index the ids follow that order, and each tree's
    # sequence is its children's, in level-sequence order, on a root
    assert [i for ids in orders for i in ids] == list(range(len(splits._seqs)))
    for seq, kids in zip(splits._seqs, splits._kids):
        assert seq == b"\x00" + b"".join(_deeper(splits._seqs[c]) for c in kids)
    # the top order is read as it is built and registers nothing
    size = len(splits._seqs)
    top = list(splits.top_order(10))
    assert [seq for seq, _ in top] == [t._levels for t in trees_of_order(10)]
    assert all(seq == b"\x00" + b"".join(_deeper(splits._seqs[c]) for c in kids)
               for seq, kids in top)
    assert len(splits._seqs) == size and len(splits._grafts) == size


def test_the_index_counts_the_trees(empty_index):
    assert [len(ids) for ids in splits.orders_below(15)] == [count_trees(n) for n in range(1, 15)]
    assert splits.tree_counts(30)[1:] == [count_trees(n) for n in range(1, 31)]


def test_a_tree_met_before_keeps_its_id(empty_index):
    # a parsed tree and a grown one are indexed before their orders
    chain, bush = bytes(range(7)), bytes([0] + [1] * 6)
    ids = splits.tree_id(chain), splits.tree_id(bush)
    orders = splits.orders_below(8)
    assert ids[0] in orders[6] and ids[1] in orders[6]
    assert [splits._seqs[i] for i in orders[6]] == [t._levels for t in trees_of_order(7)]
    assert len(set(splits._seqs)) == len(splits._seqs)
    assert [splits._seqs[i] for i in ids] == [chain, bush]


def test_cut_rows_match_the_bruteforce(empty_index):
    # below the top order as cached and at the top order as streamed
    orders = splits.orders_below(8)
    trees = [(splits._seqs[i], splits._cut_tables[i]) for ids in orders for i in ids]
    trees += [(seq, splits.cut_rows(kids)) for seq, kids in splits.top_order(8)]
    assert len(trees) == sum(map(count_trees, range(1, 9)))
    for seq, rows in trees:
        ours = Counter()
        for (trunk, branch), k in rows.items():
            shapes = oracles.levels_to_shape(splits._seqs[trunk]), oracles.levels_to_shape(
                splits._seqs[branch]
            )
            ours[shapes] += k
        assert ours == oracles.edge_cuts_bruteforce(list(seq)), seq
        assert len(ours) == len(rows)


_SEEDED = {
    "A": [["0", "0", "0"], ["2/3", "0", "0"], ["-1/3", "3/2", "0"]],
    "b": ["1/4", "0", "3/4"],
    "c": ["0", "2/3", "7/6"],
}


@pytest.mark.parametrize("spec", ["midpoint", "rk4", "rk22(alpha)", "seeded"])
def test_weights_match_the_level_sequence_code(empty_index, spec):
    tab = tableau_from_json_dict(_SEEDED) if spec == "seeded" else builtin_tableau(spec)
    ours = rk_series(tab, 8)._coeffs
    theirs = oracles.weights_by_levels(tab, 8)
    assert list(ours)[1:] == list(theirs)
    assert all(ours[seq] == c and coeff_print(ours[seq]) == coeff_print(c)
               for seq, c in theirs.items())


def test_gamma_and_sigma_match_the_level_sequence_code(empty_index):
    splits.orders_below(11)
    gammas, sigmas = splits.densities(), splits_extra.symmetries()
    assert len(gammas) == len(sigmas) == len(splits._seqs)
    for seq, gamma, sigma in zip(splits._seqs, gammas, sigmas):
        assert gamma == oracles.density_by_levels(seq) == oracles.density_direct(list(seq))
        assert sigma == oracles.symmetry_by_levels(seq)
        if len(seq) <= 6:
            assert sigma == oracles.symmetry_bruteforce(list(seq))


# -- the size of an order, checked before any tree is built --------------------

def test_order_16_fits_and_17_does_not():
    splits.check_size(16)
    with pytest.raises(SeriesError, match="order 17 is too large: about 1,011,311 trees"):
        splits.check_size(17)


@pytest.mark.parametrize(
    "argv",
    [
        ["modified-equation", "--tableau", "rk4", "--order", "20"],
        ["modifying-integrator", "--tableau", "midpoint", "--order", "18", "--format", "text"],
        ["bseries", "--tableau", "rk4", "--order", "17"],
        ["order", "--tableau", "rk4", "--max", "20"],
        ["simulate", "--tableau", "midpoint", "--ode-text", "vars y; y' = -y", "--step", "0.5",
         "--t-max", "1", "--initial", "1", "--modified-order", "20"],
        ["compose", "series.json", "series.json"],
    ],
    ids=["me", "mi", "bseries", "order", "simulate", "series-json"],
)
def test_an_order_too_large_is_refused_before_any_tree_is_built(
    empty_index, monkeypatch, tmp_path, capsys, argv
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "series.json").write_text(
        '{"kind": "map", "max_order": 17, "empty": "1", "coefficients": {}}', encoding="utf-8"
    )
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and "is too large: about" in err and "edge cuts" in err
    assert not splits._seqs


# -- a Taylor oracle in sympy --------------------------------------------------

LV = "vars p, q; p' = (2 - q)*p; q' = (p - 1)*q"  # the README's predator-prey system
DEGREE = 5  # compared through h^5


def _field(argv: list[str]):
    """The ring over QQ of p, q and h, its generators, the field of
    :data:`LV`, and the field that ``argv`` prints, each component a
    polynomial."""
    from sympy import QQ, sympify
    from sympy.polys.rings import ring

    R, p, q, h = ring("p,q,h", QQ)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([*argv, "--ode-text", LV, "--format", "text"]) == 0
    bodies = [line.split(" = ", 1)[1] for line in out.getvalue().splitlines()]
    printed = [R(sympify(body.replace("^", "**"))) for body in bodies]
    return R, (p, q, h), [(2 - q) * p, (p - 1) * q], printed


def _truncate(R, f):
    return R({m: c for m, c in f.items() if m[2] <= DEGREE})


def _flow(R, gens, field):
    """Σ_k h^k/k!·L^k y of the field, through h^DEGREE."""
    from sympy import QQ

    p, q, h = gens
    out = []
    for y in (p, q):
        term = total = y
        for k in range(1, DEGREE + 1):
            term = _truncate(R, term.diff(p) * field[0] + term.diff(q) * field[1])
            total += _truncate(R, term * h**k) * QQ(1, math.factorial(k))
        out.append(total)
    return out


def _step(R, gens, tab, field):
    """The explicit Runge-Kutta step of ``tab`` on the field, through h^DEGREE."""
    from sympy import QQ

    p, q, h = gens
    A = [[QQ(a.numerator, a.denominator) for a in row] for row in tab.A]
    b = [QQ(x.numerator, x.denominator) for x in tab.b]

    def combined(y, weights, ks, j):
        return y + h * sum((w * k[j] for w, k in zip(weights, ks) if w), R(0))

    def at(f, stage):  # f at the stage, each product truncated
        powers: dict = {}

        def power(j, e):
            if (j, e) not in powers:
                powers[j, e] = R(1) if not e else _truncate(R, power(j, e - 1) * stage[j])
            return powers[j, e]

        terms = (_truncate(R, power(0, i) * power(1, j)) * h**k * c
                 for (i, j, k), c in f.items() if k <= DEGREE)
        return _truncate(R, sum(terms, R(0)))

    ks: list = []
    for row in A:
        stage = [_truncate(R, combined(y, row, ks, j)) for j, y in enumerate((p, q))]
        ks.append([at(f, stage) for f in field])
    return [_truncate(R, combined(y, b, ks, j)) for j, y in enumerate((p, q))]


@pytest.mark.parametrize("tableau", ["midpoint", "rk4"])
def test_the_printed_modified_equation_is_sampled_by_the_step(tableau):
    R, gens, field, modified = _field(["modified-equation", "--tableau", tableau, "--order", "5"])
    assert _step(R, gens, builtin_tableau(tableau), field) == _flow(R, gens, modified)


@pytest.mark.parametrize("tableau", ["midpoint", "rk4"])
def test_the_step_on_the_printed_modifying_field_is_the_exact_flow(tableau):
    R, gens, field, modifying = _field(
        ["modifying-integrator", "--tableau", tableau, "--order", "5"]
    )
    assert _step(R, gens, builtin_tableau(tableau), modifying) == _flow(R, gens, field)
