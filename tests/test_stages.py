"""The modifying integrator of a tableau by its stage recursion.

:func:`bsharp.modifying.modifying_integrator_of_tableau` solves the stages
K_i = v∘Y_i tree by tree over edge-cut tables, for every tableau.  Its
oracle is the partition solve
:func:`bsharp.series.modifying_integrator_series` of the method's series.
"""

import importlib.util
import io
import json
import random
import warnings
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bsharp import cli, graded, splits
from bsharp.errors import SingularMethodError
from bsharp.modifying import modifying_integrator_of_tableau
from bsharp.series import (
    modifying_integrator_series,
    reset_zero_skip_count,
    series_to_json_dict,
    zero_skip_count,
)
from bsharp.splits import clear_split_caches
from bsharp.tableaux import (
    ButcherTableau,
    RowSumWarning,
    builtin_tableau,
    rk_series,
    tableau_from_json_dict,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

F = Fraction


def _tableau(A, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RowSumWarning)
        return ButcherTableau(A, b, [sum(row, F(0)) for row in A])


def _seeded(seed: int, stages: int, implicit: bool) -> ButcherTableau:
    """A rational tableau whose second row of A and second entry of b are
    zero, with other entries drawn from ``seed``."""
    rng = random.Random(seed)

    def entry():
        return F(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 2, 3, 4, 7)))

    A = [
        [F(0) if i == 1 or (not implicit and j >= i) else entry() for j in range(stages)]
        for i in range(stages)
    ]
    b = [F(0) if i == 1 else entry() for i in range(stages)]
    b[0] += 1 - sum(b)
    return _tableau(A, b)


_TABLEAUX = {
    "euler": builtin_tableau("euler"),
    "midpoint": builtin_tableau("midpoint"),
    "rk4": builtin_tableau("rk4"),
    "implicit midpoint": _tableau([[F(1, 2)]], [F(1)]),
    "trapezoid": _tableau([[F(0), F(0)], [F(1, 2), F(1, 2)]], [F(1, 2), F(1, 2)]),
    "seeded explicit": _seeded(3, 4, implicit=False),
    "seeded implicit": _seeded(5, 3, implicit=True),
}


def _printed(series) -> str:
    return json.dumps(series_to_json_dict(series), indent=2)


@pytest.mark.parametrize("name", list(_TABLEAUX))
def test_stage_recursion_equals_the_partition_solve(name):
    tab = _TABLEAUX[name]
    expected = modifying_integrator_series(rk_series(tab, 7))
    got = modifying_integrator_of_tableau(tab, 7)
    assert got == expected
    assert _printed(got) == _printed(expected)


def test_the_seeded_tableaux_have_a_zero_row_and_a_zero_weight():
    for name in ("seeded explicit", "seeded implicit"):
        tab = _TABLEAUX[name]
        assert not any(tab.A[1]) and not tab.b[1] and sum(tab.b) == 1
        assert all(any(row) for i, row in enumerate(tab.A) if i > 1)
    assert _TABLEAUX["seeded explicit"].is_explicit
    assert not _TABLEAUX["seeded implicit"].is_explicit


_entries = st.builds(F, st.integers(-5, 5), st.sampled_from((1, 2, 3, 5, 7, 11)))


@st.composite
def _rational_tableaux(draw):
    stages = draw(st.integers(1, 3))
    explicit = draw(st.booleans())
    A = [
        [F(0) if explicit and j >= i else draw(_entries) for j in range(stages)]
        for i in range(stages)
    ]
    b = [draw(_entries) for _ in range(stages)]
    assume(sum(b))
    return _tableau(A, b)


@given(_rational_tableaux(), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_stage_recursion_matches_the_partition_solve_on_random_rational_tableaux(tab, order):
    assert modifying_integrator_of_tableau(tab, order) == (
        modifying_integrator_series(rk_series(tab, order))
    )


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_tableaux():
    """(id, tableau, order): the first tableau of each series kind of the
    benchmark's job lists (seed 1), at the order its jobs run."""
    workloads = _workloads()
    cases = {}
    for workload, kinds in (
        ("series_rational", workloads._RATIONAL_KINDS),
        ("series_symbolic", workloads._SYMBOLIC_KINDS),
    ):
        seconds = len(kinds) * workloads.JOB_COST_S[workload]
        for job, (kind, _) in zip(workloads.make_jobs(workload, 1, seconds), kinds):
            spec = job["check"]["tableau"]
            tab = builtin_tableau(spec) if isinstance(spec, str) else tableau_from_json_dict(spec)
            if isinstance(kind, tuple):
                kind = "{}-stage-{}-zeros".format(*kind)
            elif isinstance(kind, int):
                kind = f"{kind}-parameter"
            cases.setdefault(f"{workload}-{kind}", (tab, job["check"]["order"]))
    return [(name, tab, order) for name, (tab, order) in cases.items()]


_PRINTED_CASES = [
    ("midpoint", builtin_tableau("midpoint"), 9),
    ("rk4", builtin_tableau("rk4"), 9),
    ("rk22(alpha)", builtin_tableau("rk22(alpha)"), 8),
    ("two-parameter", tableau_from_json_dict(
        {"A": [["0", "0"], ["3/7*p", "0"]], "b": ["1 - q", "q"], "c": ["0", "3/7*p"],
         "symbols": ["p", "q"]}
    ), 8),
    *_benchmark_tableaux(),
]


@pytest.mark.parametrize(
    "tab,order", [case[1:] for case in _PRINTED_CASES], ids=[case[0] for case in _PRINTED_CASES]
)
def test_stage_recursion_prints_like_the_partition_solve(tab, order):
    expected = _printed(modifying_integrator_series(rk_series(tab, order)))
    assert _printed(modifying_integrator_of_tableau(tab, order)) == expected


def test_a_zero_weight_sum_is_singular_and_order_zero_is_empty(capsys, tmp_path):
    tab = _tableau([[F(0), F(0)], [F(1), F(0)]], [F(1), F(-1)])
    with pytest.raises(SingularMethodError) as stages:
        modifying_integrator_of_tableau(tab, 3)
    with pytest.raises(SingularMethodError) as partition:
        modifying_integrator_series(rk_series(tab, 3))
    assert str(stages.value) == str(partition.value)
    assert not modifying_integrator_of_tableau(tab, 0)._coeffs[b""]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"A": [["0", "0"], ["1", "0"]], "b": ["1", "-1"], "c": ["0", "1"]}))
    argv = ["modifying-integrator", "--tableau", str(path), "--format", "json", "--order"]
    assert cli.main([*argv, "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and str(stages.value) in captured.err
    assert cli.main([*argv, "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["kind"], data["max_order"], data["coefficients"]) == ("flow", 0, {})


def _cli_output(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def _partition_tables_built() -> bool:
    return bool(splits._skeleton_tables or splits._rooted_tables)


@pytest.mark.parametrize("name", ["rk4", "rk22(alpha)"])
def test_tableau_modifying_integrator_builds_no_partition_table(name):
    clear_split_caches()
    _cli_output("modifying-integrator", "--tableau", name, "--order", "6", "--format", "json")
    assert not _partition_tables_built()
    assert splits._cut_tables
    clear_split_caches()


_SYMBOLIC_DENOMINATORS = {
    # Σb = 1 + beta: the solve divides by a non-monomial
    "b=(1,beta)": {"A": [["0", "0"], ["1/2", "0"]], "b": ["1", "beta"], "c": ["0", "1/2"]},
    # an entry with a non-monomial denominator
    "a21=1/(1+beta)": {"A": [["0", "0"], ["1/(1 + beta)", "0"]], "b": ["1/2", "1/2"],
                       "c": ["0", "1/(1 + beta)"]},
    # Σb = beta, a monomial
    "b=(0,beta)": {"A": [["0", "0"], ["1/2", "0"]], "b": ["0", "beta"], "c": ["0", "1/2"]},
}


@pytest.mark.parametrize("name", list(_SYMBOLIC_DENOMINATORS))
def test_symbolic_denominators_take_the_stage_recursion(name):
    tab = tableau_from_json_dict({**_SYMBOLIC_DENOMINATORS[name], "symbols": ["beta"]})
    for order in (5, 6, 7):
        clear_split_caches()
        got = modifying_integrator_of_tableau(tab, order)
        assert not _partition_tables_built()
        expected = modifying_integrator_series(rk_series(tab, order))
        assert got == expected
        if name == "b=(1,beta)":  # the two solves print alike, too
            assert _printed(got) == _printed(expected)
    clear_split_caches()


class _Counted(int):
    """An int that counts the products it takes part in; the results of
    its arithmetic are counted ints as well."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(int(self) * int(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return _Counted(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _Counted(int(self) - int(other))

    def __rsub__(self, other):
        return _Counted(int(other) - int(self))

    def __neg__(self):
        return _Counted(-int(self))

    def __divmod__(self, other):
        q, r = divmod(int(self), int(other))
        return _Counted(q), _Counted(r)


def test_stage_recursion_product_count_at_order_10(monkeypatch):
    # a count of the products of the integer solve, not a time: its values
    # start as counted ints lifted from the tableau, and every product one
    # of them takes part in is counted, by a multiplicity or a factorial
    # ratio too; midpoint at order 10 made 50,429 (and no λ restart)
    lift = graded._lift_int
    monkeypatch.setattr(graded, "_lift_int", lambda *args: _Counted(lift(*args)))
    _Counted.products = 0
    tab = builtin_tableau("midpoint")
    got = modifying_integrator_of_tableau(tab, 10)
    assert 0 < _Counted.products <= 52000
    monkeypatch.undo()
    assert got == modifying_integrator_of_tableau(tab, 10)


def test_stage_recursion_skips_zero_terms_without_changing_the_result():
    tab = builtin_tableau("midpoint")
    reset_zero_skip_count()
    eager = modifying_integrator_of_tableau(tab, 8, skip_zero=False)
    assert zero_skip_count() == 0
    assert modifying_integrator_of_tableau(tab, 8) == eager
    assert zero_skip_count() > 0
    reset_zero_skip_count()
