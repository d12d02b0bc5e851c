import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bsharp.series import (
    exact_series, modified_equation_series, series_from_json_dict, series_to_json_dict,
)
from bsharp.cli import COMMANDS
from bsharp.tableaux import builtin_tableau, rk_series
from peak_rss import peak_rss

LV = "vars p, q\np' = (2 - q)*p\nq' = (p - 1)*q\n"

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env() -> dict:
    """The environment of a child process that imports this checkout's
    package, whether or not the parent found it on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}


def run_python(*args, env=None):
    """``python`` with ``args`` in a child process that imports this
    checkout's package."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env or _env()
    )


def run_cli(*args):
    """``python -m bsharp`` in a child process."""
    return run_python("-m", "bsharp", *args)


def run_ok(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# ---------------------------------------------------------------------------
# trees and splits
# ---------------------------------------------------------------------------

def test_trees_text_listing():
    assert run_ok("trees", "3") == "[0,1,2]\n[0,1,1]\n"


def test_trees_properties_table():
    assert run_ok("trees", "3", "--properties") == (
        "[0,1,2]: order=3, sigma=1, gamma=6, 1/gamma=1/6\n"
        "[0,1,1]: order=3, sigma=2, gamma=3, 1/gamma=1/3\n"
    )


def test_trees_json():
    rows = json.loads(run_ok("trees", "2", "--format", "json"))
    assert rows == [
        {
            "tree": "[0,1]",
            "order": 2,
            "sigma": 1,
            "gamma": 2,
            "inverse_gamma": "1/2",
        }
    ]


def test_trees_usage_errors():
    assert run_cli("trees", "0").returncode == 2
    proc = run_cli("trees", "3", "--format", "latex")
    assert proc.returncode == 2
    assert "invalid choice: 'latex'" in proc.stderr


def test_splits_text_tables():
    assert run_ok("splits", "[0,1,1]", "--kind", "partitions") == (
        "[0] ; {[0,1,1]}\n"
        "[0,1] ; {[0], [0,1]}\n"
        "[0,1] ; {[0], [0,1]}\n"
        "[0,1,1] ; {[0], [0], [0]}\n"
    )
    assert run_ok("splits", "[0,1,1]", "--kind", "subtrees") == (
        "[0] ; {[0], [0]}\n"
        "[0,1] ; {[0]}\n"
        "[0,1] ; {[0]}\n"
        "[0,1,1] ; {}\n"
        "∅ ; {[0,1,1]}\n"
    )


def test_splits_json_kinds_are_labeled():
    partitions = json.loads(run_ok("splits", "[0,1]", "--kind", "partitions", "--format", "json"))
    assert partitions == [
        {"skeleton": "[0]", "forest": ["[0,1]"]},
        {"skeleton": "[0,1]", "forest": ["[0]", "[0]"]},
    ]
    subtrees = json.loads(run_ok("splits", "[0,1]", "--kind", "subtrees", "--format", "json"))
    assert subtrees == [
        {"subtree": "[0]", "forest": ["[0]"]},
        {"subtree": "[0,1]", "forest": []},
        {"subtree": "∅", "forest": ["[0,1]"]},
    ]


def test_splits_rejects_bad_tree():
    proc = run_cli("splits", "[0,2]", "--kind", "partitions")
    assert proc.returncode == 3
    assert "error:" in proc.stderr


@pytest.mark.parametrize("kind", ["subtrees", "partitions"])
def test_splits_rejects_the_empty_tree(kind):
    proc = run_cli("splits", "{}", "--kind", kind)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:") and "empty tree" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


# ---------------------------------------------------------------------------
# series commands
# ---------------------------------------------------------------------------

def test_bseries_text_display():
    assert run_ok(
        "bseries", "--tableau", "rk22(alpha)", "--order", "3", "--format", "text"
    ) == (
        "1            h^0  y\n"
        "1            h^1  F([0])\n"
        "1/2          h^2  F([0,1])\n"
        "1/(8*alpha)  h^3  F([0,1,1])\n"
    )


def test_bseries_json_round_trips_into_the_library():
    out = run_ok("bseries", "--tableau", "midpoint", "--order", "4")
    series = series_from_json_dict(json.loads(out))
    assert series == rk_series(builtin_tableau("midpoint"), 4)


def test_bseries_output_file(tmp_path):
    target = tmp_path / "series.json"
    run_ok("bseries", "--tableau", "euler", "--order", "3", "--output", str(target))
    data = json.loads(target.read_text())
    assert data["kind"] == "map"
    assert data["coefficients"]["[0,1]"] == "0"


def test_reduce_order_by_needs_display_format():
    proc = run_cli("bseries", "--tableau", "euler", "--order", "3", "--reduce-order-by", "1")
    assert proc.returncode == 2
    assert "text/latex" in proc.stderr


def test_compose_cli_matches_library(tmp_path):
    euler = tmp_path / "euler.json"
    run_ok("bseries", "--tableau", "euler", "--order", "3", "--output", str(euler))
    out = json.loads(run_ok("compose", str(euler), str(euler)))
    assert out["coefficients"]["[0]"] == "2"
    normalized = json.loads(
        run_ok("compose", str(euler), str(euler), "--normalize-stepsize")
    )
    assert normalized["coefficients"]["[0]"] == "1"
    assert normalized["coefficients"]["[0,1]"] == "1/4"


def test_substitute_cli_round_trip(tmp_path):
    # the perturbed field pushed back through the exact flow gives the method
    method = tmp_path / "midpoint.json"
    flow = tmp_path / "flow.json"
    exact = tmp_path / "exact.json"
    run_ok("bseries", "--tableau", "midpoint", "--order", "4", "--output", str(method))
    run_ok(
        "modified-equation", "--tableau", "midpoint", "--order", "4", "--output", str(flow)
    )
    exact.write_text(json.dumps(series_to_json_dict(exact_series(4))))
    out = json.loads(run_ok("substitute", str(flow), str(exact)))
    assert out == json.loads(method.read_text())


def test_a_substitution_past_the_size_bound_exits_3_with_an_estimate(monkeypatch, tmp_path, capsys):
    # the bound lowered to below order 3's 11 edge subsets: the refusal path
    # of two order-14 series (333 million subsets), without their files
    from bsharp import cli, series_extra

    paths = [tmp_path / "flow.json", tmp_path / "method.json"]
    method = rk_series(builtin_tableau("midpoint"), 3)
    for path, series in zip(paths, (modified_equation_series(method), method)):
        path.write_text(json.dumps(series_to_json_dict(series)))
    monkeypatch.setattr(series_extra, "MAX_EDGE_SUBSETS", 10)
    out = tmp_path / "out.json"
    assert cli.main(["substitute", *map(str, paths), "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: substitution at order 3 is too large: about 11 edge subsets, some 0.0 GB of "
        "partition tables, past the limit of 10 subsets (order 13)\n"
    )
    assert not out.exists()


def test_a_substitution_of_an_oversized_flow_is_refused_before_its_coefficients(
    tmp_path, capsys
):
    # two order-14 files whose coefficient tables are empty: the flow's
    # max_order is sized as soon as its JSON is read, so the refusal is the
    # size estimate, not a complaint about the coefficients
    from bsharp import cli

    paths = [tmp_path / "flow.json", tmp_path / "method.json"]
    for path, kind, empty in zip(paths, ("flow", "map"), ("0", "1")):
        path.write_text(json.dumps(
            {"kind": kind, "max_order": 14, "empty": empty, "coefficients": {}}
        ))
    start = time.perf_counter()
    assert cli.main(["substitute", *map(str, paths)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: substitution at order 14 is too large: about 333,364,411 edge subsets, "
        "some 10.7 GB of partition tables, past the limit of 100,000,000 subsets (order 13)\n"
    )


def test_compose_rejects_flow_inner(tmp_path):
    flow = tmp_path / "flow.json"
    run_ok("modified-equation", "--tableau", "euler", "--order", "3", "--output", str(flow))
    proc = run_cli("compose", str(flow), str(flow))
    assert proc.returncode == 3
    assert "map-kind" in proc.stderr


def test_json_null_coefficients_are_input_errors(tmp_path):
    # null once read as the symbol None: "None/2", and "2*None + 1"
    tableau = tmp_path / "tableau.json"
    tableau.write_text(json.dumps({"A": [["0", "0"], [None, "0"]], "b": ["1/2", "1/2"],
                                   "c": ["0", "1"]}))
    proc = run_cli("bseries", "--tableau", str(tableau), "--order", "2")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "A[1][0] must be a coefficient string or an integer, got null" in proc.stderr
    assert "None" not in proc.stderr
    series = tmp_path / "series.json"
    data = series_to_json_dict(exact_series(2))
    data["coefficients"]["[0,1]"] = None
    series.write_text(json.dumps(data))
    proc = run_cli("compose", str(series), str(series))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert 'coefficients["[0,1]"] must be a coefficient string or an integer' in proc.stderr


def test_a_power_past_the_digit_limit_is_refused_before_it_is_computed(tmp_path):
    tableau = tmp_path / "tableau.json"
    tableau.write_text(json.dumps({"A": [["0"]], "b": ["2^99999999999"], "c": ["0"]}))
    proc = run_cli("bseries", "--tableau", str(tableau), "--order", "1")
    assert proc.returncode == 3
    assert "exponent 99999999999 has more than" in proc.stderr


def test_a_symbolic_power_too_large_to_expand_is_refused_before_it_is_computed():
    proc = run_cli("bseries", "--tableau", "rk22((1+alpha)^99999999999)", "--order", "2")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "exponent 99999999999 may have more than" in proc.stderr


# ---------------------------------------------------------------------------
# perturbed fields over a concrete system
# ---------------------------------------------------------------------------

def test_modified_equation_text_over_a_system():
    out = run_ok(
        "modified-equation", "--tableau", "euler", "--order", "2", "--ode-text", LV
    )
    assert out == (
        "p' = -1/2*h*(p*(-q + 2)^2 - q*p*(p - 1)) + p*(-q + 2)\n"
        "q' = -1/2*h*(q*(p - 1)^2 + q*p*(-q + 2)) + q*(p - 1)\n"
    )


def test_modified_equation_json_over_a_system():
    data = json.loads(
        run_ok(
            "modified-equation", "--tableau", "euler", "--order", "2",
            "--ode-text", "vars y\ny' = y\n", "--format", "json",
        )
    )
    assert data == {
        "variables": ["y"],
        "step_symbol": "h",
        "equations": {"y": "y - 1/2*h*y"},
    }


def test_step_symbol_dodges_a_variable_named_h():
    data = json.loads(
        run_ok(
            "modified-equation", "--tableau", "euler", "--order", "2",
            "--ode-text", "vars h\nh' = h\n", "--format", "json",
        )
    )
    assert data["step_symbol"] == "h_step"
    assert data["equations"]["h"] == "h - 1/2*h_step*h"


def test_step_symbol_dodges_variables_named_h_and_h_step():
    base = (
        "modified-equation", "--tableau", "midpoint", "--order", "3",
        "--ode-text", "vars h, h_step; h' = h_step; h_step' = -h",
    )
    data = json.loads(run_ok(*base, "--format", "json"))
    assert data["step_symbol"] == "h_step2"
    assert data["equations"] == {
        "h": "h_step + 1/6*h_step*h_step2^2",
        "h_step": "-h - 1/6*h*h_step2^2",
    }
    assert run_ok(*base) == (
        "h' = h_step + 1/6*h_step*h_step2^2\n"
        "h_step' = -h - 1/6*h*h_step2^2\n"
    )


def test_modified_equation_latex_over_a_system():
    out = run_ok(
        "modified-equation", "--tableau", "euler", "--order", "2",
        "--ode-text", "vars y\ny' = y\n", "--format", "latex",
    )
    assert out == "\\dot{y} = y - \\frac{1}{2} h y\n"


@pytest.mark.parametrize(
    "ode,latex",
    [
        ("vars h; h' = h", "\\dot{h} = h - \\frac{1}{2} h_{step} h\n"),
        ("vars x_old; x_old' = x_old", "\\dot{x_{old}} = x_{old} - \\frac{1}{2} h x_{old}\n"),
        (
            "vars theta, x1; theta' = x1; x1' = -theta",
            "\\dot{\\theta} = x_{1} + \\frac{1}{2} h \\theta\n"
            "\\dot{x_{1}} = \\frac{1}{2} h x_{1} - \\theta\n",
        ),
    ],
    ids=["h_step", "x_old", "theta"],
)
def test_latex_names_brace_subscripts_and_spell_greek(ode, latex):
    out = run_ok(
        "modified-equation", "--tableau", "euler", "--order", "2",
        "--ode-text", ode, "--format", "latex",
    )
    assert out == latex


def test_latex_names_print_stray_underscores_literally():
    # `_x` and `y_` have no subscript separator: every underscore is `\_`
    out = run_ok(
        "modified-equation", "--tableau", "euler", "--order", "2",
        "--ode-text", "vars _x, y_; _x' = y_; y_' = _x", "--format", "latex",
    )
    assert out == (
        "\\dot{\\_x} = y\\_ - \\frac{1}{2} h \\_x\n"
        "\\dot{y\\_} = \\_x - \\frac{1}{2} h y\\_\n"
    )


def test_modifying_integrator_flips_the_correction_sign():
    base = (
        "--tableau", "euler", "--order", "2", "--ode-text", "vars y\ny' = y\n",
        "--format", "json",
    )
    modified = json.loads(run_ok("modified-equation", *base))
    modifying = json.loads(run_ok("modifying-integrator", *base))
    assert modified["equations"]["y"] == "y - 1/2*h*y"
    assert modifying["equations"]["y"] == "y + 1/2*h*y"


def test_perturbation_without_system_emits_series_json():
    data = json.loads(run_ok("modified-equation", "--tableau", "euler", "--order", "2"))
    assert data["kind"] == "flow"
    assert data["coefficients"] == {"[0]": "1", "[0,1]": "-1/2"}


def test_rk22_unbalanced_argument_is_an_input_error():
    proc = run_cli("bseries", "--tableau", "rk22(()", "--order", "2")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_ode_error_positions_reach_stderr():
    proc = run_cli(
        "modified-equation", "--tableau", "euler", "--order", "2",
        "--ode-text", "vars p\np' = ",
    )
    assert proc.returncode == 3
    assert "line 2, column 5" in proc.stderr


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------

def test_order_text_and_json():
    assert run_ok("order", "--tableau", "rk4", "--max", "6") == "4\n"
    assert json.loads(run_ok("order", "--tableau", "rk4", "--max", "6", "--format", "json")) == {
        "order": 4
    }


def test_order_with_bindings():
    out = run_ok(
        "order", "--tableau", "rk22(alpha)", "--max", "4", "--bind", "alpha=1/2"
    )
    assert out == "2\n"
    proc = run_cli("order", "--tableau", "rk22(alpha)", "--max", "4", "--bind", "alpha=zero")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "tableau, binds, message",
    [
        ("rk4", ["zeta=1"], "--bind zeta: the tableau has no symbol 'zeta'"),
        ("rk22(alpha)", ["zeta=1"], "--bind zeta: the tableau has no symbol 'zeta'"),
        ("rk22(alpha)", ["alpha=1/2", "alpha=1"], "--bind alpha is given twice"),
    ],
)
def test_order_refuses_a_binding_it_would_ignore(tableau, binds, message):
    args = [arg for bind in binds for arg in ("--bind", bind)]
    proc = run_cli("order", "--tableau", tableau, "--max", "4", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(f"error: {message}")


@pytest.mark.parametrize("value", ["2^-1", " -(1/4 - 3/4) ", "1/(1+1)"])
def test_bind_reads_the_coefficient_grammar(value):
    out = run_ok("order", "--tableau", "rk22(alpha)", "--max", "4", "--bind", f"alpha={value}")
    assert out == "2\n"


@pytest.mark.parametrize("value", ["0.5", "1e3", "1/0", ""])
def test_bind_refuses_what_tableau_entries_refuse(value):
    proc = run_cli("order", "--tableau", "rk22(alpha)", "--max", "4", "--bind", f"alpha={value}")
    assert proc.returncode == 2
    assert "is not a rational number" in proc.stderr


def test_order_refuses_latex():
    proc = run_cli("order", "--tableau", "rk4", "--max", "5", "--format", "latex")
    assert proc.returncode == 2
    assert "invalid choice: 'latex'" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("bseries", "--tableau", "rk4", "--order", "-2"), "--order"),
        (("modified-equation", "--tableau", "rk4", "--order", "-1"), "--order"),
        (("modifying-integrator", "--tableau", "rk4", "--order", "-1"), "--order"),
        (("order", "--tableau", "rk4", "--max", "-2"), "--max"),
        (
            ("modified-equation", "--tableau", "rk4", "--order", "3", "--format", "text",
             "--reduce-order-by", "-1"),
            "--reduce-order-by",
        ),
        (("bseries", "--tableau", "rk4", "--order", "two"), "--order"),
    ],
    ids=["bseries", "me", "mi", "order", "reduce-order-by", "not-a-number"],
)
def test_negative_counts_are_usage_errors_naming_the_flag(argv, flag):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert f"argument {flag}: expected a non-negative integer" in proc.stderr
    assert proc.stdout == ""


def test_order_zero_is_valid():
    series = json.loads(run_ok("modified-equation", "--tableau", "rk4", "--order", "0"))
    assert (series["max_order"], series["coefficients"]) == (0, {})
    assert run_ok("order", "--tableau", "rk4", "--max", "0") == "0\n"


# ---------------------------------------------------------------------------
# --reduce-order-by: offered only where a series is printed
# ---------------------------------------------------------------------------

SERIES_COMMANDS = ("bseries", "compose", "substitute", "modified-equation", "modifying-integrator")


@pytest.mark.parametrize(
    "argv",
    [
        ("trees", "3"),
        ("splits", "[0,1,1]", "--kind", "subtrees"),
        ("order", "--tableau", "rk4", "--max", "3"),
        (
            "simulate", "--tableau", "euler", "--ode-text", "vars y; y' = y",
            "--step", "0.5", "--t-max", "1", "--initial", "1",
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_reduce_order_by_is_refused_where_no_series_is_printed(argv):
    proc = run_cli(*argv, "--reduce-order-by", "1")
    assert proc.returncode == 2
    assert "unrecognized arguments: --reduce-order-by 1" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", SERIES_COMMANDS)
def test_reduce_order_by_is_offered_by_every_series_command(command):
    assert "--reduce-order-by" in run_ok(command, "--help")


def test_reduce_order_by_lowers_the_printed_h_powers():
    base = run_ok("modified-equation", "--tableau", "midpoint", "--order", "3", "--format", "text")
    reduced = run_ok(
        "modified-equation", "--tableau", "midpoint", "--order", "3", "--format", "text",
        "--reduce-order-by", "1",
    )
    assert "h^1" in base and "h^0" not in base
    assert reduced == base.replace("h^1", "h^0").replace("h^3", "h^2")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_csv_shape():
    out = run_ok(
        "simulate", "--tableau", "euler", "--ode-text", "vars u, v\nu' = 0\nv' = 0\n",
        "--step", "0.25", "--t-max", "1", "--initial", "1.5,-2",
    )
    assert out.splitlines() == [
        "t,u,v",
        "0.0,1.5,-2.0",
        "0.25,1.5,-2.0",
        "0.5,1.5,-2.0",
        "0.75,1.5,-2.0",
        "1.0,1.5,-2.0",
    ]


def test_simulate_blow_up_streams_then_fails():
    proc = run_cli(
        "simulate", "--tableau", "midpoint", "--ode-text", "vars y\ny' = y^2\n",
        "--step", "10", "--t-max", "100", "--initial", "10",
    )
    assert proc.returncode == 4
    lines = proc.stdout.splitlines()
    assert lines[0] == "t,y"
    assert len(lines) >= 2  # partial rows were already written
    assert "last valid t" in proc.stderr


OSCILLATOR = "vars p, q; p' = -q/(p^2 + q^2); q' = p/(p^2 + q^2)"


@pytest.mark.parametrize("extra", [(), ("--modified-order", "3")], ids=["direct", "modified"])
def test_simulate_singular_start_fails_after_the_first_row(extra):
    # the README oscillator is singular at the origin: the first step divides by zero
    proc = run_cli(
        "simulate", "--tableau", "midpoint", "--ode-text", OSCILLATOR,
        "--step", "0.5", "--t-max", "2", "--initial", "0,0", *extra,
    )
    assert proc.returncode == 4
    assert proc.stdout == "t,p,q\n0.0,0.0,0.0\n"
    [line] = proc.stderr.splitlines()
    assert "zero base with negative exponent" in line
    assert "last valid t = 0.0" in line


def test_simulate_overflow_is_a_numeric_failure():
    proc = run_cli(
        "simulate", "--tableau", "euler", "--ode-text", "vars y\ny' = y^2\n",
        "--step", "10", "--t-max", "100", "--initial", "10",
    )
    assert proc.returncode == 4
    assert [row.split(",")[0] for row in proc.stdout.splitlines()] == [
        "t", "0.0", "10.0", "20.0", "30.0", "40.0", "50.0", "60.0", "70.0",
    ]
    [line] = proc.stderr.splitlines()
    assert "Numerical result out of range" in line
    assert "last valid t = 70.0" in line


@pytest.mark.parametrize(
    "extra",
    [
        ("--reference", "--modified-order", "2"),
        ("--modifying-integrator",),
        ("--step", "0"),
        ("--step", "nan"),
        ("--step", "inf"),
        ("--t-max", "inf"),
        ("--t-max", "-1"),
        ("--format", "json"),
    ],
)
def test_simulate_usage_errors(extra):
    base = [
        "simulate", "--tableau", "euler", "--ode-text", "vars y\ny' = y\n",
        "--initial", "1",
    ]
    if "--step" not in extra:
        base += ["--step", "0.5"]
    base += ["--t-max", "1"]
    proc = run_cli(*base, *extra)
    assert proc.returncode == 2, proc.stderr


@pytest.mark.parametrize("initial", ["nan", "inf", "-inf"])
def test_simulate_refuses_a_non_finite_initial_point(initial):
    proc = run_cli(
        "simulate", "--tableau", "euler", "--ode-text", "vars y\ny' = y\n",
        "--step", "0.5", "--t-max", "1", f"--initial={initial}",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--initial must be finite" in proc.stderr


def test_simulate_refuses_a_grid_too_fine_to_count():
    proc = run_cli(
        "simulate", "--tableau", "euler", "--ode-text", "vars y\ny' = y\n",
        "--step", "1e-300", "--t-max", "1e300", "--initial", "1",
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and "overflows" in line


def test_simulate_refuses_more_rows_than_it_may_write():
    proc = run_cli(
        "simulate", "--tableau", "euler", "--ode-text", "vars y\ny' = y\n",
        "--step", "1e-9", "--t-max", "1e9", "--initial", "1",
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and "1000000000000000001 rows" in line


@pytest.mark.parametrize(
    "ode, extra",
    [
        ("x' = 10^400*x", ()),
        ("x' = 10^400*x", ("--reference",)),
        ("x' = 10^400*x", ("--modified-order", "2")),
        ("x' = 10^400*x", ("--modified-order", "2", "--modifying-integrator")),
        # the field fits, but its order-3 modified field has constants past 10^400
        ("x' = 10^200*x^2", ("--modified-order", "3")),
    ],
)
def test_simulate_refuses_a_constant_past_the_double_range(tmp_path, ode, extra):
    target = tmp_path / "rows.csv"
    proc = run_cli(
        "simulate", "--tableau", "midpoint", "--ode-text", f"vars y, x; y' = -y; {ode}",
        "--step", "0.1", "--t-max", "0.2", "--initial", "0,1e-210",
        "--output", str(target), *extra,
    )
    assert proc.returncode == 3
    assert proc.stdout == "" and not target.exists()
    assert proc.stderr == "error: component x has a constant that does not fit a double\n"


@pytest.mark.parametrize("output", [False, True])
def test_simulate_refuses_an_unbound_symbol_before_any_output(tmp_path, output):
    target = tmp_path / "out.csv"
    proc = run_cli(
        "simulate", "--tableau", "rk22(alpha)", "--ode-text", "vars x; x' = x",
        "--step", "0.5", "--t-max", "1", "--initial=1",
        *(("--output", str(target)) if output else ()),
    )
    assert proc.returncode == 3
    assert proc.stdout == "" and not target.exists()
    assert proc.stderr.startswith("error:") and "alpha" in proc.stderr


def test_simulate_binds_a_symbolic_tableau_from_the_param_lines():
    # the direct run reads alpha from the param line, as the series modes
    # do: rk22(1) is Heun's method, which on x' = x with h = 1/2 makes the
    # same doubles as the midpoint rule
    rest = ["--ode-text", "vars x; param alpha = 1; x' = x", "--step", "0.5", "--t-max", "1",
            "--initial", "1"]
    out = run_ok("simulate", "--tableau", "rk22(alpha)", *rest)
    assert out == run_ok("simulate", "--tableau", "midpoint", *rest)
    assert out.splitlines()[-1] == "1.0,2.640625"


def test_simulate_runs_a_field_whose_constants_fit():
    out = run_ok(
        "simulate", "--tableau", "midpoint", "--ode-text", "vars x; x' = 10^200*x^2",
        "--step", "0.1", "--t-max", "0.2", "--initial", "1e-210",
    )
    assert out.splitlines()[0] == "t,x" and len(out.splitlines()) == 4


def test_simulate_input_errors():
    proc = run_cli(
        "simulate", "--tableau", "euler", "--ode-text", "vars y\ny' = y\n",
        "--step", "0.5", "--t-max", "1", "--initial", "1,2",
    )
    assert proc.returncode == 3
    assert "components" in proc.stderr


def test_simulate_reference_mode_runs():
    out = run_ok(
        "simulate", "--tableau", "euler", "--ode-text", "vars y\ny' = -y\n",
        "--step", "0.5", "--t-max", "1", "--initial", "1", "--reference",
    )
    last = out.splitlines()[-1].split(",")
    assert float(last[0]) == 1.0
    assert abs(float(last[1]) - 0.36787944117144233) < 1e-10


def test_simulate_modified_order_mode_runs():
    out = run_ok(
        "simulate", "--tableau", "euler", "--ode-text", "vars y\ny' = -y\n",
        "--step", "0.5", "--t-max", "1", "--initial", "1",
        "--modified-order", "3",
    )
    assert len(out.splitlines()) == 4  # header + 3 grid points... 0, .5, 1


# ---------------------------------------------------------------------------
# vector-field output, pinned byte for byte
# ---------------------------------------------------------------------------

_CUBIC3 = "vars u, v, w; u' = 1/2*v - 1/3*u*w*v; v' = -1/2*w + 1/3*v*u; w' = 1/2*u - 1/3*w*v"
_QUAD4 = (
    "vars a, b, c, d; a' = 1/2*b - 1/3*a*c; b' = -1/2*c + 1/3*b*d; "
    "c' = 1/2*d - 1/3*c*a; d' = -1/2*a + 1/3*d*b"
)
_QUAD3 = "vars u, v, w; u' = 1/2*v - 1/3*u*w; v' = -1/2*w + 1/3*v*u; w' = 1/2*u - 1/3*w*v"
_CUBIC4 = (
    "vars a, b, c, d; a' = 1/2*b - 1/3*a*c*b; b' = -1/2*c + 1/3*b*d; "
    "c' = 1/2*d - 1/3*c*a; d' = -1/2*a + 1/3*d*b"
)

# a field whose like terms 2*S - S leave a sum S inside a sum: summed again,
# the inner sum must flatten so that its terms collect with the outer ones
_NESTED_SUMS = (
    "vars p, q, r; p' = 2*(p+q) + r - (p+q); q' = p*(2*(p+q) + r - (p+q)) - q; "
    "r' = (p+q)^2 - 2*(p+q)*(p+q) + p"
)
_FLAT_SUMS = (
    "vars p, q, r; p' = p + q + r; q' = p*(p + q + r) - q; r' = (p+q)^2 - 2*(p+q)*(p+q) + p"
)

# sha256 of stdout at order 6 for the four job kinds of the perfbench
# field_text workload, recorded before the expression builders and the
# printer were rewritten for speed; the DAG and its text must not change.
# The nested sums at order 3 print as the same system written flat,
# _FLAT_SUMS, whose digests were recorded before like terms c*S that
# collect to a sum S were spread into the sum holding them
_FIELD_DIGESTS = {
    ("modified-equation", "midpoint", 6, _CUBIC3): {
        "text": "4c7fc68136f8f4716b62fb8b04e66eafc307ba71e1248e7b86310a1af79dbe7a",
        "json": "f465f4ec2cdad4b6bc2b52d4fbc65f945c2e5c0a56defed3a77e0f00c51b8603",
        "latex": "407c018a715d4ae5aacbab692f7043be4a4bb8af239ce60f3b86567c72e82f6b",
    },
    ("modifying-integrator", "rk4", 6, _QUAD4): {
        "text": "8f77373f6c53a2cb289ac3097a3a50241fa9204b1f11844af03d6fc756718a13",
        "json": "f3c02302a2711a2f84d9e7c56b4a1f8aad38710b414944eeaf09a884a45957da",
        "latex": "2f000f62fa25e9d76ee94bb00dc4017ffdd2c825fe97159e0d985eb5eb7db063",
    },
    ("modifying-integrator", "rk4", 6, _QUAD3): {
        "text": "d90e3218d6e360bab27771c8d67c8d9ab5978c9d7e8f2128bc9c0df245800dd9",
        "json": "f00646163e735834ef0070a880bb21b3532fb9320601431e66fafd2a78ce597c",
        "latex": "9ad5f77bd6ba5c5d7fcd640a201dcecaa1434c4e4db9fe13b386485dfeb53315",
    },
    ("modified-equation", "midpoint", 6, _CUBIC4): {
        "text": "1d42ed250c470f5fda2e0595e3bdd81acd0bc60a5b8a2e39af6fbcddda49181e",
        "json": "01a3569b89168ed5f3381708ca1fc72e64627a70785fc165a25a52af49888144",
        "latex": "23342e9340dced138ba85301dbdaef96ccf81c9b436940ea93e3d232bb799aaa",
    },
    ("modified-equation", "midpoint", 3, _NESTED_SUMS): {
        "text": "4052ccb540bc1fca23254a46eef393d475a2e7c80e3d81693ca313cdfd20cd6f",
        "json": "fd99a7a20e6d75f074b807298b5931a30b44de805522514b13a33dddda84dbe4",
        "latex": "9ae94c09ac330adc1a87918cee9037c6202c232fc1a5603ed35dfb7aeeaf44e2",
    },
    ("modifying-integrator", "midpoint", 3, _NESTED_SUMS): {
        "text": "59718f92d0623e64ada8a1b5024cea16a89edd51cb798bd02cb902b86c43de00",
        "json": "8ac14b9db6d7bb3f4250fd3d964cecf02e72d4c76df075486f138568402a6347",
        "latex": "fc2fb98c9449015afeef54024cbbc49b87f2c2cdd8e3c9c8849cfbfbf7175380",
    },
}


@pytest.mark.parametrize("kind", list(_FIELD_DIGESTS))
def test_field_output_is_byte_identical(kind, capsys):
    from bsharp.cli import main

    command, tableau, order, ode = kind
    for fmt, digest in _FIELD_DIGESTS[kind].items():
        argv = [command, "--tableau", tableau, "--order", str(order), "--ode-text", ode, "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, tableau, fmt)


# sha256 of stdout of the series commands that walk the tree index, at
# order 9 (trees at 8), recorded before every pass came to read one walk;
# the outputs must not change
_SERIES_DIGESTS = {
    ("bseries", "midpoint", "json"): "4f4708e08e1657a20a21eeed21831e7eed8283e5794585696ab9f78e2fca1838",
    ("bseries", "midpoint", "text"): "3d065e6c1f992c753f206af8f116e4d7f9c2a23d52a5ef11fc3ccb2ff8dfb376",
    ("bseries", "rk4", "json"): "2c8a1d4025a9901ccaf2cb14846b31f828f308331becbda01a614cc954f56051",
    ("bseries", "rk4", "text"): "798d393c919352b7e08cfcb798cf8d97a8641ddfbf1ab5fcf3053484ec4c1c30",
    ("bseries", "rk22(alpha)", "json"): "29c4a27798c366f3c552f88519c60d024b0dc792b060749f8031b97579938c61",
    ("bseries", "rk22(alpha)", "text"): "35f28112991af8c97800a7d2d7bb93678e920f16bea8ad41a5b85ed39eab581e",
    ("modified-equation", "midpoint", "json"):
        "fe2848ecc668288d6e2564b5c2575f105e63fc8031e4a0b8bf474eaf2cc917c2",
    ("modified-equation", "midpoint", "text"):
        "5794e1da6b0532b05caaee1b0d1d0073da4654daf4337aa97b1a0abb09bc582f",
    ("modified-equation", "rk4", "json"):
        "e549716ceac31687d4736d39de5287f6ff0553ba203f3b8b52706f10b81a0408",
    ("modified-equation", "rk4", "text"):
        "071097e6dd5c55b064d4c49115ff197f48d2519cb2bd8ab1460b049766290456",
    ("modified-equation", "rk22(alpha)", "json"):
        "cf80fb3278e7528de568b75c7965e5a91713a038662e06cb61bcb5eb012cc60e",
    ("modified-equation", "rk22(alpha)", "text"):
        "6ab90e98a51ed6b929b75bc030598c57cac5a1972be68c603d09d6effe90fb4d",
    ("modifying-integrator", "midpoint", "json"):
        "9fe710b5c2c0504eb6839e39e08396fe819ca0bf38bb46f91e54197e2782c6b7",
    ("modifying-integrator", "midpoint", "text"):
        "952c18194a3b77b5a12e057db9d492d7a371661a996f4cf22ff3e8c9a659a213",
    ("modifying-integrator", "rk4", "json"):
        "2f446019e05aa7b88214429a1676ed7ba9e9b5b6b92e94ccd703cca7aaf1acbe",
    ("modifying-integrator", "rk4", "text"):
        "cca01daace925c6cff9a2f047484d3ba8e6f87f0a2278700fcd3dacd0b322e73",
    ("modifying-integrator", "rk22(alpha)", "json"):
        "359552fb69c77f15aed1429c6ccb40e70cc6f2d052e67720d0d05635929859c8",
    ("modifying-integrator", "rk22(alpha)", "text"):
        "5c655a2f910c5d766e1e9221cdacc9fd76f922dd74cf814df3c78769067969dc",
    ("order", "rk4"): "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    ("order", "rk22(alpha)"): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ("trees",): "c5eec9544b212f2a86484d26e4997b0c4bcc8abaf65cc4d2b9158f152cc0c26b",
}


def _series_argv(kind: tuple) -> list[str]:
    if kind[0] == "trees":
        return ["trees", "8", "--properties", "--format", "json"]
    if kind[0] == "order":
        return ["order", "--tableau", kind[1], "--max", "9"]
    command, tableau, fmt = kind
    return [command, "--tableau", tableau, "--order", "9", "--format", fmt]


@pytest.mark.parametrize("kind", list(_SERIES_DIGESTS), ids=" ".join)
def test_series_output_is_byte_identical(kind, capsys):
    from bsharp.cli import main

    assert main(_series_argv(kind)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _SERIES_DIGESTS[kind]


@pytest.mark.parametrize("command", ["modified-equation", "modifying-integrator"])
def test_a_field_of_nested_sums_prints_as_its_flat_form(command, capsys):
    # 2*(p+q) + r - (p+q) is the node p + q + r, so every field built
    # from it is the one built from the flat system
    from bsharp.cli import main

    outs = []
    for ode in (_NESTED_SUMS, _FLAT_SUMS):
        assert main([command, "--tableau", "midpoint", "--order", "3", "--ode-text", ode]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# determinism: a symbolic series and the field of a series solve
# ---------------------------------------------------------------------------

_PINNED = {
    "me-symbolic": ["modified-equation", "--tableau", "rk22(alpha)", "--order", "6",
                    "--format", "json"],
    "mi-field": ["modifying-integrator", "--tableau", "rk4", "--order", "6", "--ode-text", LV,
                 "--format", "text"],
}


@pytest.mark.parametrize("argv", list(_PINNED.values()), ids=list(_PINNED))
def test_output_does_not_depend_on_the_hash_seed(argv):
    outs = set()
    for seed in ("0", "1", "2"):
        proc = run_python("-m", "bsharp", *argv, env={**_env(), "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


@pytest.mark.parametrize("argv", list(_PINNED.values()), ids=list(_PINNED))
def test_output_does_not_depend_on_the_trees_indexed_before(argv, capsys):
    # trees of orders 5 to 7 get their ids before the index reaches their
    # order, so the solve meets ids out of all_trees_up_to order
    from bsharp.splits import clear_split_caches, tree_id
    from bsharp.trees import parse_tree

    cold = run_ok(*argv)
    clear_split_caches()
    for text in ("[0,1,2,1,1]", "[0,1,1,2,2,1]", "[0,1,2,1,2,1,1]"):
        tree_id(parse_tree(text)._levels)
    assert _stdout_of(argv, capsys) == cold


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def test_no_command_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 2
    assert "usage:" in proc.stderr


def test_unknown_command_lists_choices():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_missing_tableau_file_is_an_input_error():
    proc = run_cli("bseries", "--tableau", "/nonexistent/tab.json", "--order", "2")
    assert proc.returncode == 3


def test_implicit_tableau_cannot_be_simulated(tmp_path):
    tab = tmp_path / "implicit.json"
    tab.write_text(json.dumps({"A": [["1/2"]], "b": ["1"], "c": ["1/2"]}))
    proc = run_cli(
        "simulate", "--tableau", str(tab), "--ode-text", "vars y\ny' = y\n",
        "--step", "0.5", "--t-max", "1", "--initial", "1",
    )
    assert proc.returncode == 3
    assert "not explicit" in proc.stderr


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_a_refused_simulate_writes_nothing(tmp_path, to_file):
    # the plan is checked and its field built before the header is written
    # or the output file opened
    tab = tmp_path / "implicit.json"
    tab.write_text(json.dumps({"A": [["1/2"]], "b": ["1"], "c": ["1/2"]}))
    out = tmp_path / "out.csv"
    proc = run_cli(
        "simulate", "--tableau", str(tab), "--ode-text", "vars p, q\np' = -q\nq' = p\n",
        "--step", "0.1", "--t-max", "1", "--initial=1,0",
        *(("--output", str(out)) if to_file else ()),
    )
    assert proc.returncode == 3
    assert "not explicit" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def _not_utf8(path: Path, argv: list, capsys) -> None:
    """``argv`` reading ``path``, which holds a byte that no UTF-8 text
    has, exits 3 with one error line naming the file and writes nothing."""
    from bsharp.cli import main

    path.write_bytes(b"\xff{}")
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not UTF-8 (invalid start byte at byte 0)\n"


def test_a_tableau_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    tab = tmp_path / "tab.json"
    _not_utf8(tab, ["bseries", "--tableau", str(tab), "--order", "2"], capsys)


def test_an_ode_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    ode = tmp_path / "system.ode"
    argv = ["modified-equation", "--tableau", "midpoint", "--order", "2", "--ode", str(ode)]
    _not_utf8(ode, argv, capsys)


def test_a_series_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    series = tmp_path / "series.json"
    _not_utf8(series, ["compose", str(series), str(series)], capsys)


_DEEP = 5000  # parentheses, far past the parser's recursion limit


def _deep(inner: str) -> str:
    return "(" * _DEEP + inner + ")" * _DEEP


def _deep_tableau(tmp_path):
    path = tmp_path / "deep-entry.json"
    path.write_text(json.dumps({"A": [["0", "0"], [_deep("1"), "0"]], "b": ["1/2", "1/2"],
                                "c": ["0", "1"]}))
    return ["bseries", "--tableau", str(path), "--order", "2"]


def _deep_ode_file(tmp_path):
    path = tmp_path / "deep.ode"
    path.write_text(f"vars y\ny' = {_deep('y')}\n")
    return ["modified-equation", "--tableau", "euler", "--order", "2", "--ode", str(path)]


def _deep_series(tmp_path):
    path = tmp_path / "deep-series.json"
    path.write_text(json.dumps({"kind": "map", "max_order": 1, "empty": "1",
                                "coefficients": {"[0]": _deep("1")}}))
    return ["compose", str(path), str(path)]


def _nested_json(tmp_path, command):
    path = tmp_path / "nested.json"
    path.write_text("[" * 10_000 + "]" * 10_000)
    if command == "compose":
        return ["compose", str(path), str(path)]
    return ["bseries", "--tableau", str(path), "--order", "2"]


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (lambda _: ["modified-equation", "--tableau", "euler", "--order", "2",
                    "--ode-text", f"vars y\ny' = {_deep('y')}"],
         3, "line 2, column 5: expression nested too deeply"),
        (_deep_ode_file, 3, "line 2, column 5: expression nested too deeply"),
        (lambda _: ["bseries", "--tableau", f"rk22({_deep('alpha')})", "--order", "2"],
         3, "expression nested too deeply"),
        (_deep_tableau, 3, "expression nested too deeply"),
        (_deep_series, 3, "expression nested too deeply"),
        (lambda _: ["order", "--tableau", "rk22(alpha)", "--max", "2", "--bind",
                    f"alpha={_deep('1')}"],
         2, "is not a rational number"),
        (lambda tmp: _nested_json(tmp, "bseries"), 3, "nested.json: JSON nested too deeply"),
        (lambda tmp: _nested_json(tmp, "compose"), 3, "nested.json: JSON nested too deeply"),
    ],
    ids=["ode-text", "ode-file", "rk22", "tableau-entry", "series-coefficient", "bind",
         "tableau-json", "series-json"],
)
def test_deeply_nested_input_is_refused_without_a_traceback(tmp_path, capsys, argv, code, message):
    # every channel gives its parse-error exit, not a RecursionError
    from bsharp.cli import main

    argv = argv(tmp_path)
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


def test_a_deeply_nested_system_within_the_limit_still_simulates():
    rhs = "y"
    for _ in range(60):
        rhs = f"x*(y + {rhs})"
    out = run_ok(
        "simulate", "--tableau", "midpoint",
        "--ode-text", f"vars x, y\nx' = -y/100\ny' = ({rhs})/1000000",
        "--step", "0.01", "--t-max", "0.02", "--initial", "0.1,0.1", "--modified-order", "3",
    )
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize(
    "text,key,argv",
    [
        ('{"kind": "map", "max_order": 2, "empty": "1",'
         ' "coefficients": {"[0]": "1", "[0,1]": "1/2", "[0,1]": "1/3"}}', "[0,1]",
         ["compose", "FILE", "FILE"]),
        ('{"A": [["0"]], "b": ["1"], "b": ["1/2"], "c": ["0"]}', "b",
         ["bseries", "--tableau", "FILE", "--order", "2"]),
    ],
    ids=["series", "tableau"],
)
def test_a_repeated_json_key_is_an_input_error(tmp_path, capsys, text, key, argv):
    from bsharp.cli import main

    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert main([str(path) if arg == "FILE" else arg for arg in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f'error: {path}: duplicate key "{key}"\n'


def test_a_closed_stdout_is_an_input_error():
    # started with no standard output at all (`bsharp trees 3 >&-`)
    proc = subprocess.run(
        [sys.executable, "-m", "bsharp", "trees", "3"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=_env(),
        preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (3, "error: standard output is closed\n")


# ---------------------------------------------------------------------------
# numbers too long for Python's integer-to-text limit
# ---------------------------------------------------------------------------

_LONG = "1" * 5000


@pytest.mark.parametrize(
    "args,fragment",
    [
        (("bseries", "--tableau", f"rk22({_LONG})", "--order", "1"), "5000 digits"),
        (
            ("simulate", "--tableau", "euler", "--ode-text", f"vars x; x' = {_LONG}*x",
             "--step", "0.5", "--t-max", "1", "--initial", "1"),
            "line 1, column 14",
        ),
        (
            ("modified-equation", "--tableau", "euler", "--order", "2",
             "--ode-text", "vars x; param a = 10^5000; x' = a*x"),
            "digits",
        ),
        (("modified-equation", "--tableau", "rk22(10^5000)", "--order", "3"),
         "digits"),
    ],
    ids=["literal-rk22", "literal-ode", "param-power", "rk22-power"],
)
def test_over_long_integers_are_input_errors(args, fragment):
    proc = run_cli(*args)
    assert proc.returncode == 3
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and fragment in line


# ---------------------------------------------------------------------------
# output written as it is produced
# ---------------------------------------------------------------------------

def _chain(n: int) -> str:
    return "[" + ",".join(map(str, range(n))) + "]"


def _stdout_of(argv, capsys) -> str:
    from bsharp.cli import main

    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("order", [1, 2, 5, 8])
def test_trees_output_matches_the_joined_form(order, capsys):
    for fmt, flags in (("text", []), ("text", ["--properties"]), ("json", [])):
        out = _stdout_of(["trees", str(order), "--format", fmt, *flags], capsys)
        assert out == oracles.trees_output_joined(order, fmt, bool(flags)), (fmt, flags)


@pytest.mark.parametrize("tree", ["[0]", "[0,1]", "[0,1,2,1,1]", "[0,1,2,2,1,2]", _chain(8)])
def test_splits_output_matches_the_joined_form(tree, capsys):
    for kind in ("subtrees", "partitions"):
        for fmt in ("text", "json"):
            out = _stdout_of(["splits", tree, "--kind", kind, "--format", fmt], capsys)
            assert out == oracles.splits_output_joined(tree, kind, fmt), (kind, fmt)


@pytest.mark.parametrize("kind", [
    ("modified-equation", "midpoint", 5, _CUBIC4),
    ("modifying-integrator", "rk4", 5, _QUAD3),
    ("modified-equation", "euler", 3, "vars h, h_step; h' = h_step; h_step' = -h"),
    ("modified-equation", "euler", 2, "vars theta_1, x_old; theta_1' = x_old; x_old' = 1"),
])
def test_field_output_matches_the_joined_form(kind, capsys):
    command, tableau, order, ode = kind
    for fmt in ("text", "latex", "json"):
        argv = [command, "--tableau", tableau, "--order", str(order), "--ode-text", ode]
        out = _stdout_of([*argv, "--format", fmt], capsys)
        assert out == oracles.field_output_joined(*kind, fmt), fmt


def test_a_large_output_file_matches_the_joined_form(tmp_path, monkeypatch):
    # partition rows of the 11-node chain span many batches, and the order-7
    # field has components longer than a batch, which go out whole
    from bsharp import cli

    target = tmp_path / "out.txt"
    assert cli.main(["splits", _chain(11), "--kind", "partitions", "--output", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == oracles.splits_output_joined(
        _chain(11), "partitions"
    )
    written = []
    monkeypatch.setattr(cli, "_BATCH", 1000)
    monkeypatch.setattr(cli.sys, "stdout", SimpleNamespace(write=written.append, flush=dict))
    assert cli.main(["modified-equation", "--tableau", "midpoint", "--order", "7",
                     "--ode-text", _CUBIC4]) == 0
    assert "".join(written) == oracles.field_output_joined(
        "modified-equation", "midpoint", 7, _CUBIC4, "text"
    )
    assert max(map(len, written)) > 1000 and len(written) < 20


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), _JSON) | st.lists(_JSON), st.integers(1, 80))
def test_streamed_json_is_json_dumps(data, batch):
    # quotes, backslashes, control and non-ASCII characters, empty
    # containers and floats come out as json.dumps writes them, whatever
    # the batch size
    from bsharp import cli, cli_json

    written = []
    out = SimpleNamespace(write=written.append, flush=dict)
    with patch.object(cli, "_BATCH", batch), patch.object(cli.sys, "stdout", out):
        cli._emit(SimpleNamespace(output=None), (cli_json._json_text(data), "\n"))
        whole = "".join(written)
        written.clear()
        texts = (cli_json._json_text(item, "\n  ") for item in data)
        cli._emit(SimpleNamespace(output=None), cli_json._json_list(texts))
    assert whole == json.dumps(data, indent=2) + "\n"
    if isinstance(data, list):
        assert "".join(written) == whole


def test_a_piece_as_large_as_a_batch_is_written_uncopied(monkeypatch):
    from bsharp import cli

    written = []
    monkeypatch.setattr(cli, "_BATCH", 10)
    monkeypatch.setattr(cli.sys, "stdout", SimpleNamespace(write=written.append, flush=dict))
    big = "x" * 10
    cli._emit(SimpleNamespace(output=None), iter(["a", "bc", big, "d" * 9, "e", "f"]))
    assert written == ["abc", big, "d" * 9 + "e", "f"]
    assert written[1] is big


@pytest.mark.parametrize("fail_at", [1, 2, 3])
def test_a_failed_write_is_not_repeated(monkeypatch, fail_at):
    # a write that raises (a full disk, a closed pipe) leaves what went
    # out before it written once, and the batch it failed on is dropped
    from bsharp import cli

    attempts = []

    def write(text):
        attempts.append(text)
        if len(attempts) == fail_at:
            raise OSError("no space left")

    monkeypatch.setattr(cli, "_BATCH", 10)
    monkeypatch.setattr(cli.sys, "stdout", SimpleNamespace(write=write, flush=dict))
    with pytest.raises(OSError):
        cli._emit(SimpleNamespace(output=None), iter(["a", "bc", "x" * 10, "d" * 9, "e", "f"]))
    assert attempts == ["abc", "x" * 10, "d" * 9 + "e", "f"][:fail_at]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize(
    "argv,fragment",
    [
        (("modified-equation", "--tableau", "midpoint", "--order", "3",
          "--ode-text", "vars x; param a = 10^4000; x' = a*x^2"), "digits"),
        (("trees", "63"), "exceeds the maximum"),
        (("splits", "[0,2]", "--kind", "partitions"), "level jumps"),
        (("splits", "{}", "--kind", "subtrees"), "empty tree"),
    ],
    ids=["digit-limit", "trees-63", "malformed-tree", "empty-tree"],
)
def test_a_refused_command_writes_nothing(tmp_path, to_file, argv, fragment):
    # what can fail runs before the output is opened
    out = tmp_path / "out.txt"
    proc = run_cli(*argv, *(("--output", str(out)) if to_file else ()))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert fragment in proc.stderr
    assert not out.exists()


_CHAIN_40 = "[" + ",".join(map(str, range(40))) + "]"
_BUSH_25 = "[0" + ",1" * 24 + "]"


@pytest.mark.parametrize(
    "argv,rows",
    [
        (("trees", "30"), "354,426,847,597"),  # A000081(30)
        (("splits", _CHAIN_40, "--kind", "partitions"), "549,755,813,888"),  # 2^39
        (("splits", _BUSH_25, "--kind", "subtrees"), "16,777,217"),  # 2^24 + 1
    ],
    ids=["trees-30", "chain-40-partitions", "bush-25-subtrees"],
)
def test_a_listing_of_more_than_ten_million_rows_is_refused(tmp_path, argv, rows):
    # counted before any tree or split is built, so the refusal is at once
    out = tmp_path / "out.txt"
    proc = run_cli(*argv, "--output", str(out))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert f"would print {rows} rows, more than the 10,000,000 a listing may have" in proc.stderr
    assert not out.exists()


def test_a_splits_listing_of_more_than_ten_million_nodes_is_refused(tmp_path, capsys):
    # 2^23 + 1 rows, under the row bound, but each prints the 24-node tree
    from time import perf_counter

    from bsharp import cli

    out = tmp_path / "out.txt"
    start = perf_counter()
    code = cli.main(["splits", "[0" + ",1" * 23 + "]", "--kind", "subtrees", "--output", str(out)])
    assert perf_counter() - start < 1
    assert code == 3 and not out.exists()
    assert ("would print 8,388,609 rows of 24 nodes, about 201,326,616 nodes, "
            "more than the 10,000,000 a listing may have") in capsys.readouterr().err


def test_the_subtree_count_is_the_rows_of_the_listing():
    from bsharp.cli_splits import _kept
    from bsharp.splits import tree_id
    from bsharp.splits_extra import ordered_subtrees
    from bsharp.trees import all_trees_up_to

    for tree in all_trees_up_to(7):
        assert _kept(tree_id(tree._levels)) + 1 == sum(1 for _ in ordered_subtrees(tree))


# ---------------------------------------------------------------------------
# memory: a command's own peak, read from a small launcher
# ---------------------------------------------------------------------------

def _own_peak_mb(*argv: str, tmp_path) -> float:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}
    out = tmp_path / "out.txt"
    code, mb, err = peak_rss([sys.executable, "-m", "bsharp", *argv], out, env)
    assert code == 0, err
    assert out.stat().st_size > 0
    return mb


def test_the_launcher_reads_the_commands_own_peak(tmp_path):
    # this process is larger than a bare interpreter; the reading is not
    fill = "x = bytearray(50 * 2**20); x[::4096] = b'1' * 12800"
    code, mb, _ = peak_rss([sys.executable, "-c", fill])
    assert code == 0 and 50 < mb < 90
    code, bare, _ = peak_rss([sys.executable, "-S", "-c", "pass"])
    assert code == 0 and bare < 30


def test_a_large_field_is_written_without_whole_copies(tmp_path):
    # order 9 of the 4-dim cubic system prints 9 MB; holding the text and
    # its joined copies peaked at 51 MB
    mb = _own_peak_mb("modified-equation", "--tableau", "midpoint", "--order", "9",
                      "--ode-text", _CUBIC4, tmp_path=tmp_path)
    assert mb <= 40


def test_a_large_json_field_is_written_one_component_at_a_time(tmp_path):
    # the same field as JSON: formatting every component before the first
    # write, and escaping each again, peaked at 38.8 MB, against 27.5 MB
    # for the text
    mb = _own_peak_mb("modified-equation", "--tableau", "midpoint", "--order", "9",
                      "--ode-text", _CUBIC4, "--format", "json", tmp_path=tmp_path)
    assert mb <= 32


def test_a_high_order_series_holds_no_top_order_rows(tmp_path):
    # the rk4 modified equation at order 13: cutting, caching and indexing
    # every tree, with multiset-int keys, peaked at 78 MB; building each
    # top-order tree's cuts as it is solved peaks at 42 MB
    mb = _own_peak_mb("modified-equation", "--tableau", "rk4", "--order", "13",
                      "--format", "json", tmp_path=tmp_path)
    assert mb <= 46


def test_a_substitution_keys_its_partition_states_by_tree_ids(tmp_path):
    # ME(midpoint) into rk4 at order 10: partition states over packed
    # multiset ints peaked at 46 MB; over tree ids, at 37 MB
    mb = _own_peak_mb("substitute", *_series_files(tmp_path, 10, flow=True), tmp_path=tmp_path)
    assert mb <= 41


def test_partition_rows_are_written_as_they_are_enumerated(tmp_path):
    # the 16-node chain has 2^15 rows, 2.6 MB; listing them first peaked at 56 MB
    mb = _own_peak_mb("splits", _chain(16), "--kind", "partitions", tmp_path=tmp_path)
    assert mb <= 25


# ---------------------------------------------------------------------------
# the parser: the named command alone, or every command
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [["-h"], ["-h", "trees"], ["nosuch"], ["--bogus", "trees", "3"], ["trees", "3", "--bogus"]]
    + [[command, "-h"] for command in COMMANDS],
)
def test_a_parser_of_the_named_command_reads_like_the_whole_parser(capsys, argv):
    from bsharp.cli import build_parser, main

    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert (got.out, got.err, code) == (expected.out, expected.err, exc.value.code)


# ---------------------------------------------------------------------------
# how a command ends: atexit handlers, a flush, and no teardown
# ---------------------------------------------------------------------------

# ``python -m bsharp`` as a script that first sets something up
_AS_MAIN = "import runpy; runpy.run_module('bsharp', run_name='__main__', alter_sys=True)\n"


def _buffered_env() -> dict:
    # stdout buffered, so that what a handler prints waits for the last flush
    return {k: v for k, v in _env().items() if k != "PYTHONUNBUFFERED"}


def test_an_atexit_handler_registered_before_the_command_still_runs():
    proc = run_python(
        "-c", "import atexit; atexit.register(print, 'handler ran')\n" + _AS_MAIN,
        "trees", "3", env=_buffered_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[0,1,2]\n[0,1,1]\nhandler ran\n"


def test_a_live_thread_is_waited_for():
    proc = run_python(
        "-c",
        "import threading, time\n"
        "threading.Thread(target=lambda: (time.sleep(0.3), print('thread done'))).start()\n"
        + _AS_MAIN,
        "trees", "3", env=_buffered_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(proc.stdout.splitlines()) == ["[0,1,1]", "[0,1,2]", "thread done"]


_BLOW_UP = [
    "simulate", "--tableau", "euler", "--ode-text", "vars y\ny' = y^2\n",
    "--step", "10", "--t-max", "100", "--initial", "10",
]


@pytest.mark.parametrize(
    "argv,code,stderr,written",
    [
        (["trees", "3"], 0, "", "[0,1,2]\n[0,1,1]\n"),
        (
            ["trees", "0"], 2,
            "usage: bsharp trees [-h] [--format {text,json}] [--output FILE] [--properties]\n"
            "                    order\n"
            "bsharp trees: error: order must be at least 1\n",
            None,
        ),
        (
            ["bseries", "--tableau", "nosuch", "--order", "2"], 3,
            "error: unknown tableau 'nosuch'; built-ins are euler, midpoint, rk4, rk22(<alpha>)\n",
            None,
        ),
        (
            _BLOW_UP, 4,
            "error: numeric failure during step to t = 80.0: "
            "(34, 'Numerical result out of range') (last valid t = 70.0)\n",
            "t,y\n0.0,10.0\n10.0,1010.0\n20.0,10202010.0\n30.0,1040810090603010.0\n"
            "40.0,1.0832856447010458e+31\n50.0,1.1735077880153604e+63\n"
            "60.0,1.3771205285327041e+127\n70.0,1.8964609501061942e+255\n",
        ),
    ],
    ids=["0", "2", "3", "4"],
)
@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output"])
def test_each_exit_code_keeps_its_stderr_and_output(tmp_path, argv, code, stderr, written, output):
    target = tmp_path / "out.txt"
    proc = run_cli(*argv, *(("--output", str(target)) if output else ()))
    assert (proc.returncode, proc.stderr) == (code, stderr)
    if output:
        assert proc.stdout == ""
        # a refused command creates no file
        assert (target.read_text(encoding="utf-8") if target.exists() else None) == written
    else:
        assert proc.stdout == (written or "")


@pytest.mark.parametrize(
    "argv",
    [
        ["trees", "12"],
        ["modified-equation", "--tableau", "midpoint", "--order", "9"],
        ["modified-equation", "--tableau", "rk22(alpha)", "--order", "6"],
        ["modified-equation", "--tableau", "rk4", "--order", "0"],
    ],
    ids=["trees", "me-json", "me-symbolic-json", "me-json-no-tree"],
)
def test_piped_and_file_output_is_complete(tmp_path, argv):
    from bsharp.series import modified_equation_series

    target = tmp_path / "out.txt"
    piped = run_ok(*argv)
    assert run_ok(*argv, "--output", str(target)) == ""
    assert target.read_text(encoding="utf-8") == piped
    if argv[0] == "trees":
        lines = piped.splitlines()
        assert len(lines) == len(oracles.shapes_of_order(12))
        assert (lines[0], lines[-1]) == (_chain(12), "[0" + ",1" * 11 + "]")
    else:
        # a series is written tree by tree, as json.dumps writes its dict
        series = modified_equation_series(rk_series(builtin_tableau(argv[2]), int(argv[4])))
        assert piped == json.dumps(series_to_json_dict(series), indent=2) + "\n"


def test_a_failed_last_flush_is_reported_by_the_teardown(tmp_path):
    # what a handler writes to a closed pipe fails in the last flush: the
    # interpreter's teardown then reports it and exits with 120, as without
    # bsharp's own exit
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import atexit, sys; atexit.register(sys.stdout.write, 'x')\n" + _AS_MAIN,
             "trees", "3", "--output", str(tmp_path / "out.txt")],
            stdout=write, stderr=subprocess.PIPE, text=True, env=_buffered_env(),
        )
    finally:
        os.close(write)
    assert proc.returncode == 120
    first, second = proc.stderr.splitlines()
    assert first.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert second == "BrokenPipeError: [Errno 32] Broken pipe"
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "[0,1,2]\n[0,1,1]\n"


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_stdout_early_is_not_an_error(buffered):
    # as in `bsharp trees 12 | head -1`: the rest of the output goes
    # nowhere, nothing is reported, and the status is the one a shell
    # gives a filter killed by SIGPIPE
    read, write = os.pipe()
    os.close(read)
    env = _buffered_env() if buffered else {**_env(), "PYTHONUNBUFFERED": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bsharp", "trees", "12"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_a_broken_pipe_writing_an_output_file_is_still_an_error(monkeypatch, tmp_path, capsys):
    from bsharp import cli_trees
    from bsharp.cli import main

    def broken(args, pieces):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli_trees, "_emit", broken)
    assert main(["trees", "3", "--output", str(tmp_path / "out.txt")]) == 3
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "runner,report",
    [(["cProfile", "-m"], "function calls"), (["trace", "--listfuncs", "--module"], "functions called:")],
    ids=["profiler", "tracer"],
)
def test_a_profiler_or_tracer_still_reports(runner, report):
    proc = run_python("-m", *runner, "bsharp", "trees", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[0,1,2]\n[0,1,1]\n")
    assert report in proc.stdout


# the two-parameter family of the symbolic benchmark jobs
_TWO_PARAMETER = {"A": [["0", "0"], ["3/7*p", "0"]], "b": ["1 - q", "q"], "c": ["0", "3/7*p"],
                  "symbols": ["p", "q"]}


def _kinds(tmp_path) -> dict:
    """Each command kind as a function of a size n, which the command's
    work grows with."""
    tableau = tmp_path / "two_parameter.json"
    tableau.write_text(json.dumps(_TWO_PARAMETER), encoding="utf-8")
    return {
        "me": lambda n: ["modified-equation", "--tableau", "rk4", "--order", str(n)],
        "mi": lambda n: ["modifying-integrator", "--tableau", "rk4", "--order", str(n)],
        "mi-symbolic": lambda n: [
            "modifying-integrator", "--tableau", str(tableau), "--order", str(n - 2)],
        "bseries": lambda n: ["bseries", "--tableau", "rk4", "--order", str(n)],
        "compose": lambda n: ["compose", *_series_files(tmp_path, n)],
        "substitute": lambda n: ["substitute", *_series_files(tmp_path, n - 2, flow=True)],
        "order": lambda n: ["order", "--tableau", "rk4", "--max", str(n)],
        "trees": lambda n: ["trees", str(n)],
        "splits": lambda n: ["splits", _chain(n), "--kind", "partitions"],
        "field": lambda n: [
            "modified-equation", "--tableau", "midpoint", "--order", str(n - 2), "--ode-text", LV],
        "simulate": lambda n: [
            "simulate", "--tableau", "midpoint", "--ode-text", LV, "--step", "0.1",
            "--t-max", str(n), "--initial", "1,1", "--modified-order", str(n // 2 - 1)],
    }


def _series_files(tmp_path, order: int, flow: bool = False) -> list[str]:
    """A (flow or map, rk4) pair of series JSON files of ``order``."""
    files = []
    for name, argv in (
        ("modified-equation" if flow else "bseries", ["--tableau", "midpoint"]),
        ("bseries", ["--tableau", "rk4"]),
    ):
        path = tmp_path / f"{name}-{argv[1]}-{order}.json"
        if not path.exists():
            from bsharp.cli import main

            assert main([name, *argv, "--order", str(order), "--output", str(path)]) == 0
        files.append(str(path))
    return files


@pytest.mark.parametrize(
    "kind", ["me", "mi", "mi-symbolic", "bseries", "compose", "substitute", "order", "trees",
             "splits", "field", "simulate"],
)
def test_a_command_leaves_a_few_cycles_whatever_its_size(tmp_path, kind):
    # the CLI process runs with the cyclic collector off: every command
    # leaves the same few unreachable objects (argparse's parser) at any
    # size, because the tables it builds hold no reference cycles
    import gc

    from bsharp.cli import main

    argv = _kinds(tmp_path)[kind]
    out = str(tmp_path / "out")
    for n in (6, 8):  # the inputs are made and their code loaded before counting
        argv(n)
    main([*argv(6), "--output", out])
    left = []
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n in (6, 8):
            assert main([*argv(n), "--output", out]) == 0
            assert not gc.isenabled()
            left.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    assert left[1] <= left[0] <= 150, left


def test_main_leaves_the_collector_as_it_found_it(capsys):
    import gc

    from bsharp.cli import main

    enabled = gc.isenabled()
    try:
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            assert main(["trees", "3"]) == 0
            assert gc.isenabled() is state
    finally:
        (gc.enable if enabled else gc.disable)()
    assert capsys.readouterr().out == "[0,1,2]\n[0,1,1]\n" * 2
