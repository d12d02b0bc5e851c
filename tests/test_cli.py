import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bsharp.series import exact_series, series_from_json_dict, series_to_json_dict
from bsharp.tableaux import builtin_tableau, rk_series

LV = "vars p, q\np' = (2 - q)*p\nq' = (p - 1)*q\n"

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args):
    """``python -m bsharp`` in a child process that imports this checkout's
    package, whether or not the parent found it on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}
    return subprocess.run(
        [sys.executable, "-m", "bsharp", *args],
        capture_output=True,
        text=True,
        env=env,
    )


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


def test_compose_rejects_flow_inner(tmp_path):
    flow = tmp_path / "flow.json"
    run_ok("modified-equation", "--tableau", "euler", "--order", "3", "--output", str(flow))
    proc = run_cli("compose", str(flow), str(flow))
    assert proc.returncode == 3
    assert "map-kind" in proc.stderr


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
