"""What the benchmark harness in ``perfbench/`` needs from bsharp.

The harness drives bsharp through its modules as well as its CLI:
``run.py`` records backend constants, ``traced.py`` calls each layer and
counts coefficient operations by rebinding ``series.coeff_*`` (which
``substitute`` calls, and ``compose`` and the two solves do not), and
``checks.py`` evaluates printed fields against ``tests/oracles.py``, which
it loads at import.  perfbench's own tests are not in this suite, so these
tests keep a cleanup of bsharp from breaking the harness unseen.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from bsharp import series
from bsharp.cli import build_parser
from bsharp.tableaux import rk_series, tableau_from_json_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HARNESS = [PERFBENCH / name for name in ("run.py", "traced.py", "checks.py")]

# traced.py rebinds these by name (getattr/setattr), which a scan cannot see
COUNTED = ("coeff_add", "coeff_sub", "coeff_mul", "coeff_div")


def harness_names() -> list[tuple[str, str]]:
    """(module, name) for every bsharp name the harness imports, and every
    attribute it reads off a bsharp module it imports."""
    found = {("bsharp.series", name) for name in COUNTED}
    for path in HARNESS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bsharp"):
                for alias in node.names:
                    if node.module == "bsharp":
                        modules[alias.asname or alias.name] = f"bsharp.{alias.name}"
                    else:
                        found.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                found.add((modules[node.value.id], node.attr))
    return sorted(found)


NAMES = harness_names()


def test_the_scan_sees_the_harness():
    for expected in [
        ("bsharp._kernels", "BACKEND"),
        ("bsharp.cli", "build_parser"),
        ("bsharp.expressions", "eval_expression"),
        ("bsharp.odes", "parse_ode"),
        ("bsharp.series", "modifying_integrator_series"),
        ("bsharp.simulate", "SimulationPlan"),
    ]:
        assert expected in NAMES


@pytest.mark.parametrize("module,name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_harness_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_checks_load_the_oracles(monkeypatch):
    """``run.py`` imports ``checks`` with ``perfbench/`` on ``sys.path``, and
    ``checks`` runs ``tests/oracles.py`` at import: an import there that
    fails would fail every benchmark check."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    checks = importlib.import_module("checks")
    try:
        assert Path(checks.oracles.__file__) == PERFBENCH.parent / "tests" / "oracles.py"
        assert [len(checks.oracles.shapes_of_order(n)) for n in range(1, 6)] == [1, 1, 2, 4, 9]
    finally:
        sys.modules.pop("checks", None)


def test_series_folds_count_through_the_module_attributes(monkeypatch):
    """coefficients.ops counts the calls that go through ``series.coeff_*``;
    a fold that bound the helpers elsewhere would report zero.  Every pass
    over a split table adds inline, but its forest products go through
    ``series.coeff_mul``, so that count is taken on ``substitute``, on a
    tableau with a21 = 1/(1 + beta).  ``compose`` multiplies inline in its
    recursion over each tree's children and makes no such call."""
    tab = tableau_from_json_dict(
        {"A": [["0", "0"], ["1/(1 + beta)", "0"]], "b": ["1/2", "1/2"],
         "c": ["0", "1/(1 + beta)"], "symbols": ["beta"]}
    )
    method = rk_series(tab, 4)
    flow = series.modified_equation_series(method)
    expected = series.substitute(flow, method)
    calls = dict.fromkeys(COUNTED, 0)

    def counting(name, fn):
        def wrapper(a, b):
            calls[name] += 1
            return fn(a, b)
        return wrapper

    for name in COUNTED:
        monkeypatch.setattr(series, name, counting(name, getattr(series, name)))
    assert series.substitute(flow, method) == expected
    assert calls["coeff_mul"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["modified-equation", "--tableau", "rk22(alpha)", "--order", "8", "--format", "json"],
        ["modifying-integrator", "--tableau", "rk4", "--order", "8",
         "--ode-text", "vars x; x' = x", "--format", "text"],
        ["simulate", "--tableau", "midpoint", "--ode-text", "vars x; x' = x",
         "--step", "0.1", "--t-max", "2.0", "--initial=0.5", "--modified-order", "3"],
    ],
    ids=["series", "field", "simulate"],
)
def test_job_arguments_parse_to_what_traced_reads(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
    if args.command == "simulate":
        for name in ("tableau", "ode_text", "initial", "reference", "modified_order",
                     "modifying_integrator", "step", "t_max"):
            assert hasattr(args, name)
    else:
        for name in ("tableau", "order", "variant", "ode_text", "format"):
            assert hasattr(args, name)
