"""Seeded job lists for the four benchmark workloads.

Every input a job needs (tableau JSON files, ODE texts, orders, step sizes,
initial points) is generated here from the workload name and the seed, so
the same seed always gives byte-identical inputs.  A job is a plain dict:

* ``id``     -- position in the job list, e.g. ``"series_rational/003"``;
* ``argv``   -- arguments for ``python -m bsharp``;
* ``files``  -- relative path -> text, written before the job runs;
* ``check``  -- what ``checks.py`` needs to verify the job's output.

The job list has a fixed length for a given ``--seconds``: it holds as many
jobs as take about that long on the seed code (``JOB_COST_S`` below), so a
faster program finishes the same list sooner and every commit runs the
same work.  Job kinds cycle in a fixed order; the seed only picks the
values inside each kind, so the cost mix of a list does not depend on the
seed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

WORKLOADS = ("series_rational", "series_symbolic", "simulate_modified", "field_text")

# Run budget per job, in seconds of --seconds: about the mean job time on
# the seed code (2-core x86-64 VM, Python 3.11, pure-Python kernels) when
# that machine runs at middling speed.  At 15 s a list holds 5 rational,
# 10 symbolic, 22 simulate and 6 field jobs, simulate has enough jobs for a
# tail percentile, and a whole run, calibrations and checks included, takes
# 23-35 s.  Only used to size the job list, so every commit runs the same
# list.
JOB_COST_S = {
    "series_rational": 2.75,
    "series_symbolic": 1.45,
    "simulate_modified": 0.667,
    "field_text": 2.5,
}

OSCILLATOR = "vars p, q; p' = -q/(p^2 + q^2); q' = p/(p^2 + q^2)"

_ME, _MI, _BS = "modified-equation", "modifying-integrator", "bseries"


def job_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / JOB_COST_S[workload]))


def make_jobs(workload: str, seed: int, seconds: float) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for i in range(job_count(workload, seconds)):
        files: dict[str, str] = {}
        argv, check = _JOB_MAKERS[workload](rng, i, files)
        jobs.append({"id": f"{workload}/{i:03d}", "argv": argv, "files": files, "check": check})
    return jobs


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------

def _fraction(rng: random.Random) -> Fraction:
    # small numerators and denominators: the size of the entries drives the
    # cost of exact arithmetic, and it should not depend on the seed
    return Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4)))


# entries of the random rational tableaux: the seed places and orders them,
# so their sizes, which drive the cost of the exact solves, are the same for
# every seed
_A_VALUES = tuple(Fraction(x) for x in ("1/2", "-1/3", "2/3", "1/4", "3/2", "-1/4"))
_B_VALUES = tuple(Fraction(x) for x in ("1/3", "1/4", "-1/6"))


def random_tableau(rng: random.Random, stages: int, zero_density: float) -> dict:
    """Explicit tableau with rational entries and sum(b) = 1.

    ``zero_density`` is the share of the strictly lower entries of A set to
    zero; above 1/3 one entry of b is zero too.  Zero entries make
    elementary weights vanish, which is what ``skip_zero`` in the solves
    acts on.
    """
    lower = [(i, j) for i in range(stages) for j in range(i)]
    zeros = set(rng.sample(lower, round(zero_density * len(lower))))
    values = iter(rng.sample(_A_VALUES, len(lower) - len(zeros)))
    A = [[Fraction(0)] * stages for _ in range(stages)]
    for i, j in lower:
        if (i, j) not in zeros:
            A[i][j] = next(values)
    free = stages - 1 - (zero_density > 1 / 3)
    b = rng.sample(_B_VALUES[:free], free) + [Fraction(0)] * (stages - 1 - free)
    rng.shuffle(b)
    b.append(1 - sum(b))
    c = [sum(row, Fraction(0)) for row in A]
    return {
        "A": [[str(x) for x in row] for row in A],
        "b": [str(x) for x in b],
        "c": [str(x) for x in c],
    }


def symbolic_tableau(rng: random.Random, params: tuple[str, ...]) -> dict:
    """Explicit tableau whose entries are polynomials in ``params``.

    One parameter: three stages, a21 = p, the rest seeded rationals.  Two
    parameters: the two-stage family a21 = r*p, b = (1 - q, q).
    """
    if len(params) == 1:
        (p,) = params
        r1, r2 = _fraction(rng), _fraction(rng)
        b1, b2 = _fraction(rng), _fraction(rng)
        b3 = 1 - b1 - b2
        if not b3:
            b2 += 1
            b3 = -b1 - b2 + 1
        return {
            "A": [["0", "0", "0"], [p, "0", "0"], [str(r1), str(r2), "0"]],
            "b": [str(b1), str(b2), str(b3)],
            "c": ["0", p, str(r1 + r2)],
            "symbols": [p],
        }
    p, q = params
    r = _fraction(rng)
    a21 = f"{r}*{p}"
    return {
        "A": [["0", "0"], [a21, "0"]],
        "b": [f"1 - {q}", q],
        "c": ["0", a21],
        "symbols": sorted(params),
    }


def _tableau_file(files: dict, i: int, tableau: dict) -> str:
    path = f"tableau-{i:03d}.json"
    files[path] = json.dumps(tableau, indent=1) + "\n"
    return path


# ---------------------------------------------------------------------------
# ODE systems
# ---------------------------------------------------------------------------

# one-letter variable names the seed picks from ("h" is the step symbol)
_NAMES = ("a", "b", "c", "d", "u", "v", "w", "x", "y", "z")


def variable_names(rng: random.Random, dim: int) -> tuple[str, ...]:
    return tuple(rng.sample(_NAMES, dim))


def polynomial_system(names: tuple[str, ...], degree: int) -> str:
    """y' = L y + N(y) with a fixed pattern and fixed coefficients.

    Component i couples linearly (+-1/2, alternating) to the next variable
    and has one monomial (-+1/3) y_i*y_{i+2}, times y_{i+1} in the first
    component when ``degree`` is 3.  Systems of one dimension and degree
    differ only in their variable names, so they all cost the same.  The
    signs are not seeded because they decide how many terms cancel, which
    moves the cost of a job by up to a quarter.
    """
    dim = len(names)
    equations = []
    for i, name in enumerate(names):
        monomial = [names[i], names[(i + 2) % dim]]
        if degree == 3 and i == 0:
            monomial.append(names[(i + 1) % dim])
        terms = [
            (Fraction((-1) ** i, 2), names[(i + 1) % dim]),
            (Fraction((-1) ** (i + 1), 3), "*".join(monomial)),
        ]
        rhs = " + ".join(f"{c}*{m}" for c, m in terms).replace("+ -", "- ")
        equations.append(f"{name}' = {rhs}")
    return f"vars {', '.join(names)}; " + "; ".join(equations)


# ---------------------------------------------------------------------------
# job makers, one per workload
# ---------------------------------------------------------------------------

# series_rational cycles through these (tableau, command) kinds; a
# (stages, zero density) pair draws a fresh seeded tableau for each job
_RATIONAL_KINDS = (
    ("midpoint", _ME),
    ("rk4", _MI),
    ((3, 0.0), _ME),
    ((4, 0.5), _MI),
    ("midpoint", _MI),
    ("rk4", _ME),
    ((3, 0.5), _MI),
    ((4, 0.0), _ME),
)


def _rational_job(rng: random.Random, i: int, files: dict):
    kind, command = _RATIONAL_KINDS[i % len(_RATIONAL_KINDS)]
    order = 9
    if isinstance(kind, tuple):
        tableau = random_tableau(rng, *kind)
        spec = _tableau_file(files, i, tableau)
    else:
        tableau = spec = kind
    argv = [command, "--tableau", spec, "--order", str(order), "--format", "json"]
    return argv, {"type": "series", "command": command, "tableau": tableau, "order": order}


_PARAM_NAMES = ("p", "q", "s", "u", "beta", "theta", "kappa")

# series_symbolic kinds: the built-in rk22(alpha), or a seeded tableau with
# one (3 stages) or two (2 stages) parameters
_SYMBOLIC_KINDS = (
    ("rk22", _ME),
    ("rk22", _MI),
    ("rk22", _BS),
    (1, _ME),
    (1, _BS),
    (2, _MI),
    (2, _BS),
)


def _symbolic_job(rng: random.Random, i: int, files: dict):
    kind, command = _SYMBOLIC_KINDS[i % len(_SYMBOLIC_KINDS)]
    order = 8
    if kind == "rk22":
        tableau = spec = "rk22(alpha)"
        params: tuple[str, ...] = ("alpha",)
    else:
        params = tuple(rng.sample(_PARAM_NAMES, kind))
        tableau = symbolic_tableau(rng, params)
        spec = _tableau_file(files, i, tableau)
    # a seeded rational point at which the symbolic output is checked
    bindings = {p: str(Fraction(rng.randint(2, 13), rng.randint(3, 17))) for p in params}
    argv = [command, "--tableau", spec, "--order", str(order), "--format", "json"]
    return argv, {"type": "series", "command": command, "tableau": tableau, "order": order,
                  "bindings": bindings}


def _bounded(ode: str, initial: list[float], t_max: float) -> bool:
    """Crude float RK4 check that the trajectory stays small up to t_max."""
    from checks import compile_rhs  # deferred: checks imports sympy

    f = compile_rhs(ode)
    y = list(initial)
    h = t_max / 400
    for _ in range(400):
        k1 = f(y)
        k2 = f([a + h / 2 * b for a, b in zip(y, k1)])
        k3 = f([a + h / 2 * b for a, b in zip(y, k2)])
        k4 = f([a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6 * (p + 2 * q + 2 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        if not all(math.isfinite(v) and abs(v) < 4 for v in y):
            return False
    return True


# (system, tableau, K) kinds for simulate_modified; 0 is the oscillator,
# 2 and 3 cubic systems of that dimension.  rk4 has order 4, so its
# modified field up to K = 4 is the field itself and its jobs cost a third
# of a midpoint job.  A 22-job list holds the first four kinds four times
# and the last two three times, which puts the median (jobs 11 and 12 by
# time) inside the oscillator/midpoint kind; a median between two kinds
# would move with the noise of both.
_SIMULATE_KINDS = (
    (3, "rk4", 4),
    (0, "midpoint", 3),
    (3, "midpoint", 3),
    (2, "midpoint", 4),
    (0, "rk4", 3),
    (2, "rk4", 3),
)


def _simulate_job(rng: random.Random, i: int, files: dict):
    dim, tableau, K = _SIMULATE_KINDS[i % len(_SIMULATE_KINDS)]
    step, t_max = 0.1, 2.0
    if dim == 0:
        theta = rng.randrange(16) * math.pi / 8
        ode, initial = OSCILLATOR, [math.cos(theta), math.sin(theta)]
    else:
        while True:
            ode = polynomial_system(variable_names(rng, dim), degree=3)
            initial = [rng.randint(-4, 4) / 8 for _ in range(dim)]
            if _bounded(ode, initial, t_max):
                break
    argv = [
        "simulate", "--tableau", tableau, "--ode-text", ode,
        "--step", repr(step), "--t-max", repr(t_max),
        "--initial=" + ",".join(repr(v) for v in initial),
        "--modified-order", str(K),
    ]
    return argv, {"type": "simulate", "tableau": tableau, "ode": ode, "step": step,
                  "t_max": t_max, "initial": initial, "modified_order": K}


# (dimension, polynomial degree, command, tableau, output format) kinds
_FIELD_KINDS = (
    (3, 3, _ME, "midpoint", "text"),
    (4, 2, _MI, "rk4", "json"),
    (3, 2, _MI, "rk4", "text"),
    (4, 3, _ME, "midpoint", "json"),
)


def _field_job(rng: random.Random, i: int, files: dict):
    dim, degree, command, tableau, fmt = _FIELD_KINDS[i % len(_FIELD_KINDS)]
    order = 8
    names = variable_names(rng, dim)
    ode = polynomial_system(names, degree)
    # a seeded rational point (y0, h0) at which the printed field is checked
    point = {v: str(Fraction(rng.randint(-7, 7), rng.randint(2, 9))) for v in names}
    point["h"] = str(Fraction(rng.randint(1, 9), rng.randint(10, 19)))
    argv = [command, "--tableau", tableau, "--order", str(order), "--ode-text", ode,
            "--format", fmt]
    return argv, {"type": "field", "command": command, "tableau": tableau, "order": order,
                  "ode": ode, "format": fmt, "point": point}


_JOB_MAKERS = {
    "series_rational": _rational_job,
    "series_symbolic": _symbolic_job,
    "simulate_modified": _simulate_job,
    "field_text": _field_job,
}
