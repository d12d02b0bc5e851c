"""Output checks for benchmark jobs, independent of the code they check.

Nothing here calls bsharp's series solves, split tables, elementary
weights, elementary differentials or expression printer.  The references
are built from:

* ``tests/oracles.py`` -- tree shapes, brute-force partition multisets,
  densities and brute-force elementary differentials;
* sympy -- parsing of the ODE texts, partial derivatives and float
  right-hand sides;
* a small infix evaluator in this file, used to read symbolic coefficients
  and the printed vector fields at a seeded point.

Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# criterion 14 of the acceptance suite: the coefficients of the midpoint
# modified equation through order 9 sum to this value
MIDPOINT_ORDER9_SUM = Fraction(19063, 26880)

# built-in tableaux, restated from the method definitions
BUILTIN_TABLEAUX = {
    "midpoint": {"A": [["0", "0"], ["1/2", "0"]], "b": ["0", "1"]},
    "rk4": {
        "A": [["0", "0", "0", "0"], ["1/2", "0", "0", "0"],
              ["0", "1/2", "0", "0"], ["0", "0", "1", "0"]],
        "b": ["1/6", "1/3", "1/3", "1/6"],
    },
    "rk22(alpha)": {"A": [["0", "0"], ["1/(2*alpha)", "0"]], "b": ["1 - alpha", "alpha"]},
}

# simulate_modified: the modified trajectory of order K may leave the
# method's own trajectory by at most SIM_TOLERANCE * h^K * t (plus rounding)
SIM_TOLERANCE = 2.0

_P = (1 << 61) - 1  # prime modulus for evaluating large printed fields


def _load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


# ---------------------------------------------------------------------------
# infix arithmetic: + - * / ^ (integer exponents), parentheses, names
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\^-?\d+)|(\S))")
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}


def evaluate(text: str, values: dict, modulus: int | None = None):
    """Evaluate infix text exactly: in Fractions, or in integers modulo the
    prime ``modulus`` (fast enough for megabytes of printed field).

    ``values`` maps names to Fractions (or residues).  Exponents are
    integer literals, possibly negative, as bsharp prints them.
    """
    if modulus is None:
        num = Fraction
        binary = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
        neg, power = operator.neg, pow
    else:
        m = modulus
        num = int
        binary = {
            "+": lambda a, b: (a + b) % m,
            "-": lambda a, b: (a - b) % m,
            "*": lambda a, b: a * b % m,
            "/": lambda a, b: a * pow(b, -1, m) % m,
        }

        def neg(a):
            return -a % m

        def power(a, e):
            return pow(a, e, m)

    vals: list = []
    ops: list = []
    push, pop = vals.append, vals.pop

    def reduce_top():
        op = ops.pop()
        if op == "neg":
            push(neg(pop()))
        else:
            b = pop()
            push(binary[op](pop(), b))

    operand_next = True
    for number, name, exponent, sym in _TOKEN.findall(text):
        if number:
            push(num(int(number)))
            operand_next = False
        elif name:
            push(values[name])
            operand_next = False
        elif exponent:
            push(power(pop(), int(exponent[1:])))
        elif sym == "(":
            ops.append("(")
            operand_next = True
        elif sym == ")":
            while ops[-1] != "(":
                reduce_top()
            ops.pop()
            operand_next = False
        elif operand_next:
            if sym != "-":
                raise ValueError(f"unexpected {sym!r}")
            ops.append("neg")
        else:
            if sym not in _PREC:
                raise ValueError(f"unexpected {sym!r}")
            while ops and ops[-1] != "(" and _PREC[ops[-1]] >= _PREC[sym]:
                reduce_top()
            ops.append(sym)
            operand_next = True
    while ops:
        reduce_top()
    if len(vals) != 1:
        raise ValueError("malformed expression")
    return vals[0]


def _mod(x: Fraction, m: int = _P) -> int:
    return x.numerator % m * pow(x.denominator, -1, m) % m


# ---------------------------------------------------------------------------
# trees as oracle shapes
# ---------------------------------------------------------------------------

def shape_of(key: str) -> tuple:
    """Tree notation ``[0,1,2,1]`` -> canonical nested-tuple shape."""
    return oracles.levels_to_shape([int(x) for x in key.strip("[]").split(",")])


@lru_cache(maxsize=None)
def shapes_up_to(order: int) -> tuple:
    return tuple(s for n in range(1, order + 1) for s in oracles.shapes_of_order(n))


@lru_cache(maxsize=None)
def size(shape: tuple) -> int:
    return 1 + sum(size(c) for c in shape)


@lru_cache(maxsize=None)
def density(shape: tuple) -> int:
    return oracles.density_direct(oracles.shape_to_levels(shape))


@lru_cache(maxsize=None)
def symmetry(shape: tuple) -> int:
    out = 1
    for child in set(shape):
        k = shape.count(child)
        out *= symmetry(child) ** k * math.factorial(k)
    return out


@lru_cache(maxsize=None)
def partition_rows(shape: tuple) -> tuple:
    """Distinct (skeleton, forest, multiplicity) rows, brute force."""
    counts = oracles.partition_splits_bruteforce(oracles.shape_to_levels(shape))
    return tuple((skel, forest, mult) for (skel, forest), mult in counts.items())


def substitute(flow: dict, outer, shape: tuple):
    """Coefficient of ``shape`` in substitute(flow, outer); ``outer`` maps a
    skeleton shape to its coefficient."""
    total = Fraction(0)
    for skel, forest, mult in partition_rows(shape):
        term = mult * outer(skel)
        for component in forest:
            term *= flow[component]
        total += term
    return total


@lru_cache(maxsize=None)
def builtin_flow(tableau: str, order: int, kind: str) -> dict:
    A, b = tableau_entries(tableau, {})
    return solve_flow(elementary_weights(A, b, order), order, kind)


def solve_flow(method: dict, order: int, kind: str) -> dict:
    """Triangular solve on the oracle tables: the modified equation
    (``kind="modified"``) or modifying integrator of ``method``."""
    v: dict = {}
    one = method[()]
    for shape in shapes_up_to(order):
        rest = Fraction(0)
        for skel, forest, mult in partition_rows(shape):
            if forest == (shape,):
                continue
            term = mult * (Fraction(1, density(skel)) if kind == "modified" else method[skel])
            for component in forest:
                term *= v[component]
            rest += term
        if kind == "modified":
            v[shape] = method[shape] - rest
        else:
            v[shape] = (Fraction(1, density(shape)) - rest) / one
    return v


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------

def tableau_entries(tableau, bindings: dict) -> tuple[list, list]:
    """(A, b) as Fractions; ``tableau`` is a built-in name or a JSON dict."""
    data = BUILTIN_TABLEAUX[tableau] if isinstance(tableau, str) else tableau
    A = [[evaluate(x, bindings) for x in row] for row in data["A"]]
    b = [evaluate(x, bindings) for x in data["b"]]
    return A, b


def elementary_weights(A: list, b: list, order: int) -> dict:
    """Phi(shape) for every shape up to ``order``, bottom-up."""
    s = len(b)
    stage: dict = {}  # shape -> (A . Psi(shape))_i

    def propagated(shape):
        if shape not in stage:
            psi = [math.prod((propagated(c)[j] for c in shape), start=Fraction(1)) for j in range(s)]
            stage[shape] = [sum((A[i][j] * psi[j] for j in range(s)), Fraction(0)) for i in range(s)]
        return stage[shape]

    out = {}
    for shape in shapes_up_to(order):
        kids = [propagated(c) for c in shape]
        out[shape] = sum(
            (b[i] * math.prod((k[i] for k in kids), start=Fraction(1)) for i in range(s)),
            Fraction(0),
        )
    return out


# ---------------------------------------------------------------------------
# series jobs
# ---------------------------------------------------------------------------

def check_series(spec: dict, output: str) -> str | None:
    """bseries: the method's weights.  modified-equation: substitute(v,
    exact flow) = method.  modifying-integrator: substitute(v, method) =
    exact flow.  Symbolic coefficients are read at the seeded point."""
    order = spec["order"]
    bindings = {k: Fraction(v) for k, v in spec.get("bindings", {}).items()}
    try:
        data = json.loads(output)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    command = spec["command"]
    want_kind = "map" if command == "bseries" else "flow"
    if data.get("kind") != want_kind or data.get("max_order") != order:
        return f"header {data.get('kind')!r}/{data.get('max_order')!r}, expected {want_kind}/{order}"
    if evaluate(str(data["empty"]), bindings) != (1 if want_kind == "map" else 0):
        return "wrong empty coefficient"
    coeffs = {}
    for key, text in data["coefficients"].items():
        coeffs[shape_of(key)] = evaluate(str(text), bindings)
    if set(coeffs) != set(shapes_up_to(order)) or len(coeffs) != len(data["coefficients"]):
        return "coefficient table does not cover exactly the trees up to the order"

    A, b = tableau_entries(spec["tableau"], bindings)
    weights = elementary_weights(A, b, order)
    for shape in shapes_up_to(order):
        if command == "bseries":
            got, want = coeffs[shape], weights[shape]
        elif command == "modified-equation":
            got = substitute(coeffs, lambda s: Fraction(1, density(s)), shape)
            want = weights[shape]
        else:
            got = substitute(coeffs, weights.__getitem__, shape)
            want = Fraction(1, density(shape))
        if got != want:
            levels = oracles.shape_to_levels(shape)
            return f"identity fails at tree {levels}: {got} != {want}"
    if spec["tableau"] == "midpoint" and command == "modified-equation" and order == 9:
        if sum(coeffs.values()) != MIDPOINT_ORDER9_SUM:
            return "midpoint order-9 checksum differs from 19063/26880"
    return None


# ---------------------------------------------------------------------------
# ODE systems through sympy
# ---------------------------------------------------------------------------

def parse_system(text: str):
    """(variable names, sympy right-hand sides) of an ODE text."""
    import sympy

    statements = [s.strip() for s in re.split(r"[;\n]", text) if s.strip()]
    names = [n.strip() for n in statements[0][len("vars"):].split(",")]
    symbols = {n: sympy.Symbol(n) for n in names}
    rhs = {}
    for stmt in statements[1:]:
        lhs, expr = stmt.split("=", 1)
        rhs[lhs.strip().rstrip("'").strip()] = sympy.sympify(
            expr.replace("^", "**"), locals=symbols, rational=True
        )
    return names, [symbols[n] for n in names], [rhs[n] for n in names]


def compile_rhs(text: str):
    """Float right-hand side y -> y' of an ODE text."""
    import sympy

    _, syms, rhs = parse_system(text)
    fn = sympy.lambdify(syms, rhs, modules="math")
    return lambda y: [float(v) for v in fn(*y)]


# ---------------------------------------------------------------------------
# field_text jobs
# ---------------------------------------------------------------------------

def elementary_differentials(text: str, point: dict, order: int) -> dict:
    """F(shape)(point) for every shape up to ``order``, exactly.

    The partial-derivative tensors come from sympy.  Trees up to order 3 are
    compared with the brute-force elementary differentials of
    ``tests/oracles.py``, so the contraction below is itself checked on
    every run.
    """
    import sympy

    names, syms, rhs = parse_system(text)
    n = len(names)
    at = {s: sympy.Rational(str(point[name])) for s, name in zip(syms, names)}
    degrees = [sympy.Poly(f, *syms).total_degree() for f in rhs]
    tensors: dict = {}

    def tensor(j: int, idx: tuple) -> Fraction:
        key = (j, idx)
        if key not in tensors:
            value = sympy.diff(rhs[j], *[syms[i] for i in idx]).subs(at) if idx else rhs[j].subs(at)
            tensors[key] = Fraction(int(value.p), int(value.q))
        return tensors[key]

    values: dict = {}

    def F(shape: tuple) -> list:
        if shape in values:
            return values[shape]
        kids = [F(c) for c in shape]
        out = []
        for j in range(n):
            total = Fraction(0)
            if len(shape) <= degrees[j]:
                for assign in product(range(n), repeat=len(shape)):
                    term = tensor(j, tuple(sorted(assign)))
                    if term:
                        for kid, i in zip(kids, assign):
                            term *= kid[i]
                        total += term
            out.append(total)
        values[shape] = out
        return out

    for shape in shapes_up_to(order):
        F(shape)
    _compare_with_oracle(text, point, names, values, min(order, 3))
    return values


def _compare_with_oracle(text, point, names, values, order) -> None:
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    from bsharp.expressions import eval_expression
    from bsharp.odes import parse_ode

    system = parse_ode(text)
    y = [Fraction(point[name]) for name in names]
    for shape in shapes_up_to(order):
        exprs = oracles.elementary_differential_bruteforce(system, oracles.shape_to_levels(shape))
        brute = [Fraction(eval_expression(e, y)) for e in exprs]
        if brute != values[shape]:
            raise AssertionError(f"tensor contraction disagrees with the oracle at {shape}")


def check_field(spec: dict, output: str) -> str | None:
    """Each printed component, read at a seeded point (y0, h0), equals
    sum over trees of h0^(|t|-1) v(t)/sigma(t) F(t)(y0)."""
    order = spec["order"]
    point = {k: Fraction(v) for k, v in spec["point"].items()}
    names, _, _ = parse_system(spec["ode"])
    if spec["format"] == "json":
        try:
            data = json.loads(output)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if data.get("variables") != names or data.get("step_symbol") != "h":
            return "wrong variables or step symbol"
        printed = data["equations"]
    else:
        printed = {}
        for line in output.splitlines():
            name, sep, body = line.partition("' = ")
            if not sep:
                return f"unexpected line {line[:40]!r}"
            printed[name] = body
    if list(printed) != names:
        return f"equations for {list(printed)}, expected {names}"

    kind = "modified" if spec["command"] == "modified-equation" else "modifying"
    v = builtin_flow(spec["tableau"], order, kind)
    F = elementary_differentials(spec["ode"], point, order)
    h = point["h"]
    mod_point = {k: _mod(x) for k, x in point.items()}
    for j, name in enumerate(names):
        want = sum(
            (h ** (size(s) - 1) * v[s] / symmetry(s) * F[s][j] for s in shapes_up_to(order)),
            Fraction(0),
        )
        if evaluate(printed[name], mod_point, _P) != _mod(want):
            return f"{name}' differs from the oracle sum at the seeded point"
    return None


# ---------------------------------------------------------------------------
# simulate_modified jobs
# ---------------------------------------------------------------------------

def direct_trajectory(spec: dict, rows: int) -> list[list[float]]:
    """The method itself, stepped in floats with a sympy right-hand side."""
    A, b = tableau_entries(spec["tableau"], {})
    A = [[float(x) for x in row] for row in A]
    b = [float(x) for x in b]
    f = compile_rhs(spec["ode"])
    h = spec["step"]
    y = [float(v) for v in spec["initial"]]
    out = [y]
    for _ in range(rows - 1):
        k = []
        for i in range(len(b)):
            yi = [y[m] + h * sum(A[i][j] * k[j][m] for j in range(i)) for m in range(len(y))]
            k.append(f(yi))
        y = [y[m] + h * sum(b[i] * k[i][m] for i in range(len(b))) for m in range(len(y))]
        out.append(y)
    return out


def check_simulate(spec: dict, output: str) -> str | None:
    names, _, _ = parse_system(spec["ode"])
    step, K = spec["step"], spec["modified_order"]
    rows = list(csv.reader(io.StringIO(output)))
    if not rows or rows[0] != ["t", *names]:
        return "wrong CSV header"
    expected_rows = int(math.floor(spec["t_max"] / step + 1e-9)) + 1
    if len(rows) - 1 != expected_rows:
        return f"{len(rows) - 1} rows, expected {expected_rows}"
    direct = direct_trajectory(spec, expected_rows)
    for n, (row, ref) in enumerate(zip(rows[1:], direct)):
        try:
            t, *y = (float(x) for x in row)
        except ValueError:
            return f"row {n} is not numeric"
        if abs(t - n * step) > 1e-9 or len(y) != len(ref):
            return f"row {n} has the wrong time or width"
        err = max(abs(a - r) for a, r in zip(y, ref))
        if not err <= SIM_TOLERANCE * step ** K * t + 1e-12:
            return f"row {n}: |modified - method| = {err:.3g} exceeds {SIM_TOLERANCE}*h^{K}*t"
    return None


def check_trivial(spec: dict, output: str) -> str | None:
    return None if output.strip() == "[0]" else "trees 1 should print [0]"


CHECKS = {
    "series": check_series,
    "field": check_field,
    "simulate": check_simulate,
    "trivial": check_trivial,
}


def check(spec: dict, output: str) -> str | None:
    try:
        return CHECKS[spec["type"]](spec, output)
    except (ArithmeticError, AssertionError, AttributeError, LookupError, TypeError,
            ValueError) as exc:
        return f"check raised {exc!r}"
