import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bsharp

SOURCE = Path(__file__).resolve().parents[1] / "src" / "bsharp"
MODULES = sorted(path.stem for path in SOURCE.glob("*.py") if path.stem != "__init__")


def test_source_tree_holds_only_python_files():
    # no generated, compiled or stale files next to the modules
    stray = sorted(
        str(path.relative_to(SOURCE))
        for path in SOURCE.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".py"
    )
    assert stray == []


def _bsharp_imports(node: ast.AST, in_function: bool = False):
    """(bsharp module, in_function) for every import under ``node`` that
    runs; ``if TYPE_CHECKING:`` bodies never run."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
            for branch in child.orelse:
                yield from _bsharp_imports(branch, in_function)
            continue
        if isinstance(child, ast.ImportFrom):
            if child.level and child.module:
                yield child.module.split(".")[0], in_function
            elif child.level:
                yield from ((alias.name, in_function) for alias in child.names)
            elif (child.module or "").startswith("bsharp."):
                yield child.module.split(".")[1], in_function
        elif isinstance(child, ast.Import):
            for alias in child.names:
                if alias.name.startswith("bsharp."):
                    yield alias.name.split(".")[1], in_function
        nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from _bsharp_imports(child, in_function or nested)


def test_the_import_scan_sees_both_kinds():
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    found = set(_bsharp_imports(tree))
    assert ("errors", False) in found and ("trees", True) in found
    assert ("tableaux", False) not in found  # only under TYPE_CHECKING


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_bsharp_module_twice(module):
    # the CLI imports a layer per command and library modules import at the
    # top only, so no bsharp module is imported both at the top and in a function
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    found = set(_bsharp_imports(tree))
    twice = sorted(name for name, in_function in found if in_function and (name, False) in found)
    assert twice == []


def test_every_export_is_its_home_modules_object():
    assert bsharp.__all__[-1] == "__version__"
    for name in bsharp.__all__[:-1]:
        home = importlib.import_module(f"bsharp.{bsharp._HOME[name]}")
        assert getattr(bsharp, name) is getattr(home, name), name
    assert set(bsharp.__all__) <= set(dir(bsharp))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bsharp.no_such_name
    assert not hasattr(bsharp, "no_such_name")


def _fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter that imports this checkout's
    package and return what it prints, read as JSON."""
    path = os.environ.get("PYTHONPATH")
    src = str(SOURCE.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_star_import_and_submodule_import_work_in_a_fresh_interpreter():
    names = _fresh(
        "import json\n"
        "from bsharp import *\n"
        "from bsharp import rationals, _kernels\n"
        "import bsharp\n"
        "assert rationals.BACKEND and _kernels.BACKEND\n"
        "print(json.dumps(sorted(n for n in bsharp.__all__ if n in globals())))\n"
    )
    assert names == sorted(bsharp.__all__)


LOADED = (
    "import io, json, sys\n"
    "from bsharp.cli import main\n"
    "sys.stdout = io.StringIO()\n"
    "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
    "loaded = sorted(m[7:] for m in sys.modules if m.startswith('bsharp.'))\n"
    "print(json.dumps([codes, loaded, '_hashlib' in sys.modules]), file=sys.__stdout__)\n"
)


def _loaded_by(*argvs: list[str]) -> list[str]:
    """The bsharp modules a fresh interpreter has loaded after running the
    CLI on each argv in turn.  No command loads OpenSSL (``_hashlib``): the
    node digests use the built-in ``_blake2``."""
    codes, loaded, openssl = _fresh(LOADED, json.dumps(argvs))
    assert codes == [0] * len(argvs)
    assert not openssl
    return loaded


def test_importing_the_package_loads_no_module():
    assert _fresh(
        "import json, sys\n"
        "import bsharp\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('bsharp.')]))\n"
    ) == []


COMMANDS = (
    "trees", "splits", "bseries", "compose", "substitute", "modified-equation",
    "modifying-integrator", "order", "simulate",
)
# every tableau lifts its entries through graded.py, and every solve runs there
SOLVE = ["coefficients", "graded", "series", "splits", "tableaux", "trees"]
ODE = "vars p, q\np' = -q\nq' = p\n"
# b = (1, beta): the modifying integrator divides by 1 + beta, so it runs
# over plain coefficients, in graded.py like every other solve
B_1_BETA = {"A": [["0", "0"], ["1/2", "0"]], "b": ["1", "beta"], "c": ["0", "1/2"],
            "symbols": ["beta"]}


@pytest.mark.parametrize(
    "argvs,layers",
    [
        ([[command, "--help"] for command in COMMANDS], []),
        ([["trees", "1"]], ["trees"]),
        ([["splits", "[0,1,1]", "--kind", "partitions"]], ["splits", "trees"]),
        ([["order", "--tableau", "rk4", "--max", "4"]], SOLVE),
        ([["modified-equation", "--tableau", "midpoint", "--order", "3"]], SOLVE),
        ([["modifying-integrator", "--tableau", "midpoint", "--order", "3"]], SOLVE),
        ([["modified-equation", "--tableau", "rk22(alpha)", "--order", "3"]], SOLVE),
        (
            [["modifying-integrator", "--tableau", "b_1_beta.json", "--order", "3"]],
            SOLVE,
        ),
        ([["bseries", "--tableau", "rk22(alpha)", "--order", "3"]], SOLVE),
        (
            [["modified-equation", "--tableau", "midpoint", "--order", "3", "--ode-text", ODE]],
            SOLVE + ["expressions", "odes"],
        ),
        (
            [[
                "simulate", "--tableau", "midpoint", "--ode-text", ODE, "--step", "0.5",
                "--t-max", "1", "--initial", "1,0", "--modified-order", "2",
            ]],
            SOLVE + ["expressions", "odes", "simulate"],
        ),
    ],
    ids=[
        "help", "trees", "splits", "order", "me", "mi", "me-symbolic", "mi-plain",
        "bseries-symbolic", "me-ode", "simulate",
    ],
)
def test_each_command_loads_only_the_layers_it_runs(monkeypatch, tmp_path, argvs, layers):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b_1_beta.json").write_text(json.dumps(B_1_BETA), encoding="utf-8")
    assert _loaded_by(*argvs) == sorted(["cli", "errors", *layers])


def test_series_file_commands_load_only_the_solve_layers(tmp_path):
    method, flow = str(tmp_path / "method.json"), str(tmp_path / "flow.json")
    assert _loaded_by(
        ["bseries", "--tableau", "midpoint", "--order", "3", "--output", method],
        ["modified-equation", "--tableau", "midpoint", "--order", "3", "--output", flow],
        ["compose", method, method],
        ["substitute", flow, method],
    ) == sorted(["cli", "errors", *SOLVE])
