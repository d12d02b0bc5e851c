import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsharp import simulate
from bsharp.errors import NumericFailureError, TableauError
from bsharp.odes import DiffCache, parse_ode, series_vector_field
from bsharp.series import modified_equation_series, modifying_integrator_series
from bsharp.simulate import SimulationPlan, iterate_rows, run_simulation
from bsharp.tableaux import ButcherTableau, builtin_tableau, rk_series

from oracles import graded_field_interpreted, system_field_interpreted

DECAY = parse_ode("vars y\ny' = -y\n")
GROWTH = parse_ode("vars y\ny' = y\n")
FLAT = parse_ode("vars u, v\nu' = 0\nv' = 0\n")
CIRCLE = parse_ode("vars p, q\np' = -q/(p^2 + q^2)\nq' = p/(p^2 + q^2)\n")
CUBIC2 = parse_ode("vars u, v\nu' = v - u^3/3 + 2*u*v^2\nv' = -u + v^3/5 - 3/2*u^2*v + 1/4\n")
CUBIC3 = parse_ode(
    "vars x, y, z\nx' = y*z - x^3 + 1/3\ny' = x - 2*y*z^2 + z\nz' = -x*y + y^3/2 - 3/4*z*x^2\n"
)


def plan(**kw):
    defaults = dict(
        tableau=builtin_tableau("euler"),
        system=DECAY,
        step=0.1,
        t_max=1.0,
        initial=(1.0,),
    )
    defaults.update(kw)
    return SimulationPlan(**defaults)


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------

def test_plan_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown simulation mode"):
        plan(mode="extrapolate")
    with pytest.raises(TableauError, match="step size"):
        plan(step=0.0)
    with pytest.raises(TableauError, match="step size"):
        plan(step=-0.5)
    with pytest.raises(TableauError, match="t_max"):
        plan(t_max=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(TableauError, match="step size"):
            plan(step=bad)
        with pytest.raises(TableauError, match="t_max"):
            plan(t_max=bad)
    # finite inputs whose row count does not fit in a float
    with pytest.raises(TableauError, match="overflows"):
        plan(step=1e-300, t_max=1e300)
    # a row count that fits in a float but not in any run
    with pytest.raises(TableauError, match="asks for 1000000000000000001 rows"):
        plan(step=1e-9, t_max=1e9)
    with pytest.raises(TableauError, match="components"):
        plan(initial=(1.0, 2.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(TableauError, match="not finite"):
            plan(initial=(bad,))
    with pytest.raises(TableauError, match="series order"):
        plan(mode="modified", series_order=0)
    # a non-positive series order is fine when no series is built
    assert plan(mode="direct", series_order=0).rows == 11


def test_plan_defaults_and_read_only_attributes():
    p = plan()
    assert (p.mode, p.series_order, p.step, p.initial) == ("direct", 2, 0.1, (1.0,))
    with pytest.raises(AttributeError):
        p.step = 0.2
    with pytest.raises(AttributeError):
        p.extra = 1
    assert p.step == 0.1
    with pytest.raises(AttributeError):
        DECAY.rhs = ()
    assert DECAY.parameters == {}


def test_implicit_tableaux_cannot_run():
    implicit = ButcherTableau([[Fraction(1, 2)]], [Fraction(1)], [Fraction(1, 2)])
    with pytest.raises(TableauError, match="not explicit"):
        run_simulation(plan(tableau=implicit))


def test_symbolic_tableaux_cannot_run():
    with pytest.raises(Exception):
        run_simulation(plan(tableau=builtin_tableau("rk22(alpha)")))


# ---------------------------------------------------------------------------
# the output grid
# ---------------------------------------------------------------------------

@given(st.integers(1, 300), st.integers(1, 64))
def test_rows_cover_exact_multiples(k, denom):
    h = denom / 64.0  # binary fraction: k*h is computed without rounding fuss
    p = plan(step=h, t_max=k * h)
    assert p.rows == k + 1


def test_rows_round_down_between_grid_points():
    assert plan(step=0.4, t_max=1.0).rows == 3  # grid 0, .4, .8
    assert plan(step=0.1, t_max=1.0).rows == 11
    assert plan(step=3.0, t_max=1.0).rows == 1  # only the initial row


def test_grid_times_are_exact_multiples():
    rows = run_simulation(plan(step=0.125, t_max=1.0))
    assert [t for t, _ in rows] == [i * 0.125 for i in range(9)]


def test_first_row_is_the_initial_condition():
    rows = run_simulation(plan(initial=(0.75,)))
    assert rows[0] == (0.0, (0.75,))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_zero_field_stays_put_exactly():
    rows = run_simulation(plan(system=FLAT, initial=(1.5, -2.25), t_max=5.0, step=0.5))
    assert all(y == (1.5, -2.25) for _, y in rows)
    assert len(rows) == 11


def test_euler_matches_the_hand_recurrence():
    rows = run_simulation(plan(system=GROWTH, step=0.5, t_max=2.0))
    y = 1.0
    for i, (t, state) in enumerate(rows):
        assert state[0] == pytest.approx(y, rel=1e-15)
        y += 0.5 * y


def test_rk4_converges_at_fourth_order():
    def err(h):
        rows = run_simulation(
            plan(tableau=builtin_tableau("rk4"), system=DECAY, step=h, t_max=1.0)
        )
        return abs(rows[-1][1][0] - math.exp(-1.0))

    e1, e2 = err(0.1), err(0.05)
    assert e1 / e2 == pytest.approx(16, rel=0.2)


def test_midpoint_nearly_conserves_circle_energy():
    p = plan(
        tableau=builtin_tableau("midpoint"),
        system=CIRCLE,
        initial=(1.0, 0.0),
        step=0.5,
        t_max=25.0,
    )
    rows = run_simulation(p)
    assert len(rows) == 51
    for _, (x, y) in rows:
        assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-13)


# ---------------------------------------------------------------------------
# series-driven modes
# ---------------------------------------------------------------------------

def test_order_one_perturbation_is_the_reference_field():
    # at series order 1 the perturbed field *is* the right-hand side, so the
    # fine integrator walks the identical float path
    base = dict(system=DECAY, step=0.25, t_max=1.0)
    ref = run_simulation(plan(mode="reference", **base))
    mod = run_simulation(plan(mode="modified", series_order=1, **base))
    mfy = run_simulation(plan(mode="modifying", series_order=1, **base))
    assert ref == mod == mfy


def test_reference_is_much_more_accurate_than_euler():
    base = dict(system=DECAY, step=0.25, t_max=1.0)
    direct = run_simulation(plan(mode="direct", **base))
    ref = run_simulation(plan(mode="reference", **base))
    exact = math.exp(-1.0)
    assert abs(ref[-1][1][0] - exact) < 1e-10
    assert abs(direct[-1][1][0] - exact) > 1e-3


def test_modified_field_tracks_the_method_not_the_flow():
    # the perturbed flow reproduces what euler actually does, ever more
    # closely as the series order grows; the true flow stays far away
    base = dict(system=GROWTH, step=0.25, t_max=1.0)
    euler_end = run_simulation(plan(**base))[-1][1][0]
    reference_end = run_simulation(plan(mode="reference", **base))[-1][1][0]
    gap = abs(reference_end - euler_end)

    def residual(order):
        end = run_simulation(plan(mode="modified", series_order=order, **base))[-1][1][0]
        return abs(end - euler_end)

    r2, r4, r6 = residual(2), residual(4), residual(6)
    assert r6 < r4 < r2 < gap
    assert r6 < 1e-3 * gap


def test_modifying_field_compensates_the_method_error():
    # integrating the compensated field with the *method* would land on the
    # true flow; integrating it exactly (which this mode does) overshoots in
    # the opposite direction from the method's own error
    base = dict(system=GROWTH, step=0.25, t_max=1.0)
    euler_end = run_simulation(plan(**base))[-1][1][0]
    modifying_end = run_simulation(plan(mode="modifying", series_order=4, **base))[-1][1][0]
    reference_end = run_simulation(plan(mode="reference", **base))[-1][1][0]
    assert (reference_end - euler_end) * (modifying_end - reference_end) > 0


# ---------------------------------------------------------------------------
# failure reporting
# ---------------------------------------------------------------------------

def test_blow_up_reports_last_valid_time():
    quad = parse_ode("vars y\ny' = y^2\n")
    p = plan(system=quad, initial=(10.0,), step=10.0, t_max=200.0)
    seen = []
    with pytest.raises(NumericFailureError) as exc_info:
        for t, y in iterate_rows(p):
            seen.append(t)
    assert seen  # some rows made it out before the failure
    assert exc_info.value.last_valid_t == seen[-1]
    assert isinstance(exc_info.value, ArithmeticError)


def test_division_by_zero_is_a_numeric_failure():
    # the circle field is singular at the origin; the first step fails
    p = plan(system=CIRCLE, initial=(0.0, 0.0), step=1.0, t_max=10.0)
    seen = []
    with pytest.raises(NumericFailureError, match="zero base with negative exponent") as info:
        for t, y in iterate_rows(p):
            seen.append((t, y))
    assert seen == [(0.0, (0.0, 0.0))]
    assert info.value.last_valid_t == 0.0


def test_run_simulation_materializes_iterate_rows():
    p = plan(step=0.2, t_max=1.0)
    assert run_simulation(p) == list(iterate_rows(p))


# ---------------------------------------------------------------------------
# the compiled field against the interpreted one, bit for bit
# ---------------------------------------------------------------------------

def reprs(values):
    return [repr(v) for v in values]


CASES = {
    "circle": (CIRCLE, [(1.0, 0.0), (0.6, -0.8), (-0.25, 1e-3), (3.5, 2.0)]),
    "cubic2": (CUBIC2, [(0.0, 0.0), (0.5, -0.25), (-1.5, 0.75), (1e-3, 2.0)]),
    "cubic3": (
        CUBIC3, [(0.0, 0.0, 0.0), (0.5, -0.25, 0.125), (-1.0, 0.3, 2.0), (1e-3, -0.7, 0.9)]
    ),
    "flat": (FLAT, [(0.0, -0.0), (1.5, -2.25)]),
    "decay": (DECAY, [(0.0,), (-0.0,), (0.75,)]),
}


@pytest.mark.parametrize("case", ["circle", "cubic2", "cubic3"])
@pytest.mark.parametrize("tableau", ["euler", "midpoint", "rk4"])
def test_compiled_graded_fields_match_the_interpreter(case, tableau):
    system, points = CASES[case]
    for order in range(1, 6):
        method = rk_series(builtin_tableau(tableau), order)
        for solve in (modified_equation_series, modifying_integrator_series):
            terms = series_vector_field(solve(method), system, DiffCache(system))
            for step in (0.1, 0.37):
                compiled = simulate.graded_field(system, terms, step)
                oracle = graded_field_interpreted(terms, step)
                for y in points:
                    assert reprs(compiled(y)) == reprs(oracle(y)), (order, solve, step, y)


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_system_field_matches_the_interpreter(case):
    system, points = CASES[case]
    compiled, oracle = simulate.system_field(system), system_field_interpreted(system)
    for y in points:
        assert reprs(compiled(y)) == reprs(oracle(y))


@pytest.mark.parametrize(
    "mode, order", [("direct", 2), ("reference", 2), ("modified", 3), ("modifying", 4)]
)
def test_trajectories_match_the_interpreted_field(monkeypatch, mode, order):
    p = plan(
        tableau=builtin_tableau("midpoint"), system=CIRCLE, initial=(0.6, 0.8),
        step=0.25, t_max=0.75, mode=mode, series_order=order,
    )
    compiled = run_simulation(p)
    monkeypatch.setattr(simulate, "system_field", system_field_interpreted)
    monkeypatch.setattr(
        simulate, "graded_field", lambda system, terms, step: graded_field_interpreted(terms, step)
    )
    interpreted = run_simulation(p)
    assert len(compiled) == 4
    assert [(repr(t), reprs(y)) for t, y in compiled] == [
        (repr(t), reprs(y)) for t, y in interpreted
    ]
