import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bsharp.series import exact_series, series_from_json_dict, series_to_json_dict
from bsharp.cli import COMMANDS
from bsharp.tableaux import builtin_tableau, rk_series
from peak_rss import peak_rss

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

# sha256 of stdout at order 6 for the four job kinds of the perfbench
# field_text workload, and at order 3 for the nested sums, recorded before
# the expression builders and the printer were rewritten for speed; the
# DAG and its text must not change
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
        "text": "877124d6930877dea5143fe444bb999906e152d8239646d69a30656554de9451",
        "json": "2c1ee2257ee5a23c5ac6409a3887f5539447c0bbd38328f8dfa9635fa44d20c9",
        "latex": "af6d25bc70d6f6d3d07ebbe6cd22b897be296a71f8d2bb7c87fbe9a2f087082f",
    },
    ("modifying-integrator", "midpoint", 3, _NESTED_SUMS): {
        "text": "ccf03736ae1fa89b63b352be528f02a013e2a3799351a3df5140f363cc51d6ee",
        "json": "2763716bc0a2eb4a1c5fa34b26150add620f5f17d92309bc38642a8741b01ac9",
        "latex": "c85c7f0285334718ce9b7b23d6dfc17e1f4fc225a06ddf2e97eddbf60242d888",
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
        cli_json._emit_json(SimpleNamespace(output=None), data)
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
