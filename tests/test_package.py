import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
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
    assert ("errors", False) in found and ("tableaux", True) in found
    assert ("tableaux", False) not in found  # only under TYPE_CHECKING


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_bsharp_module_twice(module):
    # the CLI imports a layer per command and library modules import at the
    # top only, so no bsharp module is imported both at the top and in a function
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    found = set(_bsharp_imports(tree))
    twice = sorted(name for name, in_function in found if in_function and (name, False) in found)
    assert twice == []


def _unused_imports(source: str) -> list[str]:
    """The names bound by a module-level import of ``source`` (inside an
    ``if`` too) that nothing in it reads, but for an import whose line
    carries ``# noqa: F401``.  A string that is a name reads it, as a
    forward reference does."""
    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and isinstance(node.value, str) and node.value.isidentifier()}
    imports, body = [], list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, ast.If):
            body += node.body + node.orelse
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            kept = "# noqa: F401" in lines[node.lineno - 1]
            if not kept and getattr(node, "module", None) != "__future__":
                imports += [(alias.asname or alias.name.split(".")[0], node) for alias in node.names]
    return [f"{name} (line {node.lineno})" for name, node in imports if name not in read]


def test_the_unused_import_scan_sees_every_kind():
    source = (
        "import os.path\nimport sys  # noqa: F401\nfrom a import (\n    b,\n    c as d,\n)\n"
        "if TYPE_CHECKING:\n    from e import F, G\nfrom __future__ import annotations\n"
        "def g(x: F) -> 'G':\n    import json\n    return d\n"
    )
    assert _unused_imports(source) == ["os (line 1)", "b (line 3)"]


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_no_module_level_import_goes_unused(module):
    # an import that nothing reads costs every command that loads its
    # module; one kept for another reader says so with "# noqa: F401"
    assert _unused_imports((SOURCE / f"{module}.py").read_text(encoding="utf-8")) == []


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (``_x``, not ``__x__``) that the
    modules ``sources`` (name -> source) define, by ``def``, ``class`` or
    assignment (inside an ``if`` or ``try`` too), and that no code in any
    of them reads outside the definition itself.  A name, an attribute and
    a string that is the name read it; an import does not."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def reads(node: ast.AST) -> Counter:
        found = Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found[sub.id] += 1
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                found[sub.attr] += 1
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found[sub.value] += 1
        return found

    everywhere = sum(map(reads, trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        body = list(tree.body)
        while body:
            node = body.pop(0)
            if isinstance(node, (ast.If, ast.Try)):
                body += node.body + node.orelse + getattr(node, "finalbody", [])
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [sub.id for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Name)]
            else:
                continue
            own = reads(node)
            unread += [
                f"{module}.{name} (line {node.lineno})" for name in names
                if name.startswith("_") and not name.startswith("__")
                and everywhere[name] == own[name]
            ]
    return unread


def test_the_unread_private_name_scan_sees_every_kind():
    sources = {
        "a": "from b import _used\n_CONST = 1\n_cache: dict = {}\n"
             "def _f():\n    return _f()\nclass _C:\n    pass\n"
             "if TYPE_CHECKING:\n    _T = int\n_read = 2\n__all__ = []\n",
        "b": "import a\ndef _used():\n    return a._read\nx = _other = 3\nprint(_other)\n",
    }
    assert _unread_private_names(sources) == [
        "a._CONST (line 2)", "a._cache (line 3)", "a._f (line 4)", "a._C (line 6)",
        "a._T (line 9)", "b._used (line 2)",
    ]


def test_no_private_name_goes_unread():
    # a helper, class, constant or cache that no code reads any more is
    # dead weight in the module that still defines it
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCE.glob("*.py")}
    assert _unread_private_names(sources) == []


def test_every_export_is_its_home_modules_object():
    assert bsharp.__all__[-1] == "__version__"
    for name in bsharp.__all__[:-1]:
        home = importlib.import_module(f"bsharp.{bsharp._HOME[name]}")
        value = getattr(bsharp, name)
        assert value is getattr(home, name), name
        # defined by the layer's module or its companion
        defined = getattr(value, "__module__", None) or type(value).__module__
        assert defined in (home.__name__, f"{home.__name__}_extra"), name
    assert set(bsharp.__all__) <= set(dir(bsharp))


# a layer's module -> its companion, which holds the code no hot command runs
COMPANIONS = {module[: -len("_extra")]: module for module in MODULES if module.endswith("_extra")}
# the modules that read the names they lack from another: the layers with a
# companion, and simulate, whose series solves are read from series
FORWARDING = sorted([*COMPANIONS, "simulate"])


def _defined_names(module: str) -> set[str]:
    """The names that a module-level def, class or assignment of ``module`` binds."""
    names = set()
    for node in ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {sub.id for target in targets for sub in ast.walk(target)
                      if isinstance(sub, ast.Name)}
    return names


def test_each_forwarding_module_says_so_with_no_name_list():
    # where a name lives is said once, by the module that defines it
    found = sorted(
        module for module in MODULES
        if "_forward(" in (SOURCE / f"{module}.py").read_text(encoding="utf-8")
    )
    assert found == FORWARDING
    for module in FORWARDING:
        target = COMPANIONS.get(module, "series")
        source = (SOURCE / f"{module}.py").read_text(encoding="utf-8")
        assert f'__getattr__ = _forward(globals(), "{target}")' in source, module
    assert not any(module.endswith("_extra") for module in bsharp._EXPORTS)


@pytest.mark.parametrize("companion", sorted(COMPANIONS.values()))
def test_every_public_name_of_a_companion_is_read_from_its_layers_module(companion):
    layer = importlib.import_module(f"bsharp.{companion[: -len('_extra')]}")
    extra = importlib.import_module(f"bsharp.{companion}")
    public = sorted(name for name in _defined_names(companion) if not name.startswith("_"))
    assert public
    for name in public:
        assert getattr(layer, name) is getattr(extra, name), name


def test_dunder_and_private_names_load_nothing_more():
    # a star import, hasattr(m, "__path__") and a missing private name are
    # refused before the companion (or series, for simulate) is imported
    before, after = _fresh(
        "import importlib, json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('bsharp.'))\n"
        "before, after = [], []\n"
        f"for name in {sorted(FORWARDING, key=lambda m: m != 'simulate')!r}:\n"
        "    module = importlib.import_module('bsharp.' + name)\n"
        "    before.append(loaded())\n"
        "    for attr in ('__all__', '__path__', '_no_such_name'):\n"
        "        hasattr(module, attr)\n"
        "    exec(f'from bsharp.{name} import *', {})\n"
        "    after.append(loaded())\n"
        "print(json.dumps([before, after]))\n"
    )
    assert before == after
    assert "bsharp.series" not in after[0]  # simulate alone
    assert not [m for m in after[-1] if m.endswith("_extra")]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bsharp.no_such_name
    assert not hasattr(bsharp, "no_such_name")
    for module in FORWARDING:
        layer = importlib.import_module(f"bsharp.{module}")
        with pytest.raises(AttributeError, match=rf"'bsharp.{module}' has no attribute 'no_such'"):
            layer.no_such


def _fresh(code: str, *args: str, read=json.loads):
    """Run ``code`` in a new interpreter that imports this checkout's
    package and return what it prints, read as JSON (or by ``read``)."""
    path = os.environ.get("PYTHONPATH")
    src = str(SOURCE.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return read(proc.stdout)


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


# reads and writes Python literals, so that json is loaded only if bsharp loads it
LOADED = (
    "import ast, io, sys\n"
    "from bsharp.cli import main\n"
    "sys.stdout = io.StringIO()\n"
    "codes = [main(argv) for argv in ast.literal_eval(sys.argv[1])]\n"
    "loaded = sorted(m[7:] for m in sys.modules if m.startswith('bsharp.'))\n"
    "state = [codes, loaded, '_hashlib' in sys.modules, 'json' in sys.modules]\n"
    "print(repr(state), file=sys.__stdout__)\n"
)


def _loaded_by(*argvs: list[str], uses_json: bool = True) -> list[str]:
    """The bsharp modules a fresh interpreter has loaded after running the
    CLI on each argv in turn; json is loaded only if ``uses_json``.  No
    command loads OpenSSL (``_hashlib``): the node digests use the
    built-in ``_blake2``."""
    codes, loaded, openssl, json_loaded = _fresh(LOADED, repr(argvs), read=ast.literal_eval)
    assert codes == [0] * len(argvs)
    assert not openssl
    if not uses_json:
        assert not json_loaded
    return loaded


def test_the_console_script_is_the_entry_of_python_m_bsharp():
    # the bsharp script and python -m bsharp end the process the same way
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["bsharp"]
    module, _, name = target.partition(":")
    from bsharp.__main__ import run

    assert getattr(importlib.import_module(module), name) is run


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
# the modifying integrator and symbols load their own layers
MI, SYMBOLIC = ["modifying"], ["symbolic"]
# each command's arguments and handler live in its own module; only JSON
# output loads cli_json, and only a series command's series printer
TREES, SERIES, ORDER, SIMULATE_CLI = ["cli_trees"], ["cli_series"], ["cli_order"], ["cli_simulate"]
JSON = ["cli_json"]
ODE = "vars p, q\np' = -q\nq' = p\n"
SIMULATE = [
    "simulate", "--tableau", "midpoint", "--ode-text", ODE, "--step", "0.5",
    "--t-max", "1", "--initial", "1,0",
]
# stepping a tableau lifts none of its entries and runs no series layer
STEP = ["coefficients", "expressions", "odes", "simulate", "tableaux", *SIMULATE_CLI]
# a field is written by cli_field and formatted by expressions_extra; a
# simulation compiles it instead
FIELD = ["cli_field", "expressions", "expressions_extra", "odes"]
STEPPED = ["expressions", "odes", "simulate"]
# b = (1, beta): the modifying integrator divides by 1 + beta, so it runs
# over plain coefficients, in graded.py's domains like every other solve,
# and registers 1 + beta as a denominator factor in symbolic_extra
B_1_BETA = {"A": [["0", "0"], ["1/2", "0"]], "b": ["1", "beta"], "c": ["0", "1/2"],
            "symbols": ["beta"]}
# a rational tableau file, as the benchmark's series jobs read them
RATIONAL = {"A": [["0", "0", "0"], ["1/2", "0", "0"], ["-1/3", "2/3", "0"]],
            "b": ["1/4", "0", "3/4"], "c": ["0", "1/2", "1/3"]}


# a series prints as JSON by default; trees, splits, order, a field and
# simulate print text, and json is not loaded for them
@pytest.mark.parametrize(
    "argvs,layers,uses_json",
    [
        (
            [[command, "--help"] for command in COMMANDS],
            TREES + ["cli_splits"] + SERIES + ORDER + SIMULATE_CLI, False,
        ),
        ([["trees", "1"]], TREES + ["trees"], False),
        (
            [["splits", "[0,1,1]", "--kind", "partitions"]],
            TREES + ["cli_splits", "splits", "splits_extra", "trees", "trees_extra"], False,
        ),
        (
            [["order", "--tableau", "rk4", "--max", "4"]],
            SOLVE + ORDER + ["series_extra", "tableaux_extra"], False,
        ),
        (
            [["modified-equation", "--tableau", "midpoint", "--order", "3"]],
            SOLVE + SERIES + JSON, True,
        ),
        (
            [["modifying-integrator", "--tableau", "midpoint", "--order", "3"]],
            SOLVE + SERIES + JSON + MI, True,
        ),
        (
            [["modified-equation", "--tableau", "rk22(alpha)", "--order", "3"]],
            SOLVE + SERIES + JSON + SYMBOLIC, True,
        ),
        (
            [["modifying-integrator", "--tableau", "b_1_beta.json", "--order", "3"]],
            SOLVE + SERIES + JSON + MI + SYMBOLIC + ["symbolic_extra"], True,
        ),
        (
            [["bseries", "--tableau", "rk22(alpha)", "--order", "3"]],
            SOLVE + SERIES + JSON + SYMBOLIC, True,
        ),
        (
            [["modified-equation", "--tableau", "midpoint", "--order", "3", "--ode-text", ODE]],
            SOLVE + SERIES + FIELD, False,
        ),
        (
            [["modifying-integrator", "--tableau", "rational.json", "--order", "9",
              "--format", "json"]],
            SOLVE + SERIES + JSON + MI, True,
        ),
        (
            [["modified-equation", "--tableau", "midpoint", "--order", "3", "--ode-text", ODE,
              "--format", "json"]],
            SOLVE + SERIES + FIELD + JSON, True,
        ),
        ([SIMULATE + ["--modified-order", "2"]], SOLVE + SIMULATE_CLI + STEPPED, False),
        (
            [SIMULATE + ["--modified-order", "2", "--modifying-integrator"]],
            SOLVE + SIMULATE_CLI + MI + STEPPED, False,
        ),
        ([SIMULATE], STEP, False),
        ([SIMULATE + ["--reference"]], STEP, False),
    ],
    ids=[
        "help", "trees", "splits", "order", "me", "mi", "me-symbolic", "mi-plain",
        "bseries-symbolic", "me-ode", "mi-file-order-9", "me-ode-json", "simulate",
        "simulate-mi", "simulate-direct", "simulate-reference",
    ],
)
def test_each_command_loads_only_the_layers_it_runs(
    monkeypatch, tmp_path, argvs, layers, uses_json
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b_1_beta.json").write_text(json.dumps(B_1_BETA), encoding="utf-8")
    (tmp_path / "rational.json").write_text(json.dumps(RATIONAL), encoding="utf-8")
    assert _loaded_by(*argvs, uses_json=uses_json) == sorted(["cli", "errors", *layers])


def test_a_series_is_written_as_json_without_the_json_package():
    _loaded_by(
        ["modified-equation", "--tableau", "midpoint", "--order", "3", "--format", "json"],
        uses_json=False,
    )


def test_a_listing_of_trees_loads_no_fractions():
    # 1/γ is printed only with --properties or as JSON; fractions would
    # bring decimal with it
    assert _fresh(
        "import io, json, sys\n"
        "from bsharp.cli import main\n"
        "sys.stdout = io.StringIO()\n"
        "assert main(['trees', '3']) == 0\n"
        "print(json.dumps([m for m in ('fractions', 'decimal') if m in sys.modules]),\n"
        "      file=sys.__stdout__)\n"
    ) == []


def test_series_file_commands_load_only_the_solve_layers(tmp_path):
    method, flow = str(tmp_path / "method.json"), str(tmp_path / "flow.json")
    assert _loaded_by(
        ["bseries", "--tableau", "midpoint", "--order", "3", "--output", method],
        ["modified-equation", "--tableau", "midpoint", "--order", "3", "--output", flow],
        ["compose", method, method],
        ["substitute", flow, method],
    ) == sorted([
        "cli", "errors", *SOLVE, *SERIES, *JSON, "series_extra", "splits_extra", "trees_extra"
    ])


# the bsharp source lines a cold command compiles: those of every bsharp
# module it loaded (the package's too), read after main() returns
COMPILED = (
    "import ast, io, sys\n"
    "from bsharp.cli import main\n"
    "sys.stdout = io.StringIO()\n"
    "assert main(ast.literal_eval(sys.argv[1])) == 0\n"
    "lines = sum(open(m.__file__, encoding='utf-8').read().count('\\n')\n"
    "            for name, m in sys.modules.items() if name.split('.')[0] == 'bsharp')\n"
    "print(lines, file=sys.__stdout__)\n"
)


@pytest.mark.parametrize(
    "argv,lines",
    [
        (SIMULATE + ["--modified-order", "3"], 3059),
        (["modified-equation", "--tableau", "midpoint", "--order", "9"], 2102),
        (["trees", "1"], 677),
        (["modifying-integrator", "--tableau", "rk22(alpha)", "--order", "3"], 2823),
    ],
    ids=["simulate", "modified-equation", "trees", "symbolic-modifying-integrator"],
)
def test_a_cold_command_compiles_only_the_code_it_runs(argv, lines):
    # a command loads the hot core of each layer it runs, and no other
    # command's arguments or handler; code that only other commands run
    # lives in companion modules.  The bound is the count recorded when
    # the test was written, or the lower count of a later change that moved
    # code no hot command runs into a companion, plus 5 %.
    assert _fresh(COMPILED, repr(argv), read=int) <= lines * 1.05
