"""Exact scalar coefficients: rationals and rational functions.

A coefficient is either a rational number (``int`` or
:class:`fractions.Fraction`) or a :class:`RationalFunction` — a quotient of
multivariate polynomials in named parameters such as ``alpha``.

A rational function is one sorted tuple of symbol names and two term
dicts over it, numerator and denominator, each mapping an exponent vector
(one entry per symbol) to a nonzero Python ``int``.  Every arithmetic
result passes through one normalizer, :func:`_normalize`, which brings it
to this normal form:

* numerator and denominator have no common integer factor (one
  ``math.gcd`` pass, exact ``//`` division) and no common monomial factor;
* the graded-lex leading coefficient of the denominator is positive;
* every symbol in the tuple is used by the numerator or the denominator;
* a constant over a constant collapses to a plain rational.

A binary operation aligns its operands once: nothing to do when their
symbol tuples are equal, a constant term dict for a rational operand, and
otherwise both are widened to the sorted union.  Scalars enter the
arithmetic as their numerator and denominator, so no polynomial operation
ever builds a ``Fraction``.  The public constructor
``RationalFunction(symbols, num, den)`` takes term dicts over one tuple of
symbols, in any order, with int or ``Fraction`` coefficients; it clears
them to integers once and normalizes.

Rational functions are deliberately *not* reduced by a polynomial GCD:
the common monomial step already cancels monomial denominators, the only
kind that ``rk22(alpha)`` produces, and a GCD reduction of the other
denominators would change printed coefficients.
So ``(alpha^2 - 1)/(alpha - 1)`` keeps its unreduced form.  Equality is
decided by cross-multiplication, which sees that it equals ``alpha + 1``.
An unreduced sum prints the same whatever the order of its terms, and
when its terms are scaled by an integer that then divides the sum (the
modified equation's Σ c_j·(n!/j!) / n!); merging equal terms (2·x for
x + x) or a partial sum that is exactly zero changes the printed form.
A value with a monomial denominator is an integer Laurent polynomial over
an integer, so :mod:`bsharp.graded` solves such series over Laurent
polynomials with one :func:`_normalize` per coefficient, and prints what
this arithmetic prints.

Term order everywhere (printing, leading coefficients) is graded
lexicographic, highest degree first, with symbols sorted by name.

Every exact value the package reads from text goes through one grammar,
:func:`parse_arithmetic`: integer literals (as ``Fraction``), names,
``+ - * / ^`` with integer-literal exponents, unary minus and parentheses.
Values combine with Python's own operators, so one parser serves every
value type; the caller only says what a name means.  :func:`coeff_parse`
reads names as symbols, :func:`parse_rational` refuses them, and
:func:`bsharp.odes.parse_ode` reads them as variables and parameters.
:data:`NAME` is the one spelling of a name.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, sub
from typing import Mapping, Union

from .errors import CoefficientError, ParseError, UnboundSymbolError

Coefficient = Union[int, Fraction, "RationalFunction"]

#: how a name is spelled: a coefficient symbol, an ODE variable or parameter
NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(NAME + r"\Z")


def is_rational(value: object) -> bool:
    """True for ints and Fractions, the rational coefficients."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _grlex(exps: tuple[int, ...]):
    return sum(exps), exps


def _prune(symbols: tuple[str, ...], num: dict, den: dict) -> tuple[tuple[str, ...], dict, dict]:
    """Drop the symbols that neither ``num`` nor ``den`` uses."""
    used = tuple(map(any, zip(*num, *den)))
    if all(used):
        return symbols, num, den
    keep = [i for i, u in enumerate(used) if u]
    return (
        tuple(symbols[i] for i in keep),
        {tuple(e[i] for i in keep): c for e, c in num.items()},
        {tuple(e[i] for i in keep): c for e, c in den.items()},
    )


def _widen(symbols: tuple[str, ...], terms: dict, wider: tuple[str, ...]) -> dict:
    """``terms`` over ``symbols`` rewritten over ``wider``, which holds
    every one of them."""
    if symbols == wider:
        return terms
    idx = [wider.index(s) for s in symbols]
    out = {}
    for exps, c in terms.items():
        vec = [0] * len(wider)
        for k, e in zip(idx, exps):
            vec[k] = e
        out[tuple(vec)] = c
    return out


# Term-dict arithmetic.  Both sides are over the same symbols; results hold
# no zero coefficient and are new dicts, never an operand's own.

def _poly_add(ta: dict, tb: dict, negate: bool = False) -> dict:
    """The terms of ``ta + tb``, or of ``ta - tb`` with ``negate``."""
    if len(ta) < len(tb) and not negate:
        ta, tb = tb, ta
    out = dict(ta)
    for e, c in tb.items():
        c = out.get(e, 0) - c if negate else c + out.get(e, 0)
        if c:
            out[e] = c
        else:
            del out[e]
    return out


def _poly_scale(t: dict, shift: tuple[int, ...], factor: int) -> dict:
    """``t`` times the monomial ``factor * x^shift``."""
    if any(shift):
        return {tuple(map(add, e, shift)): c * factor for e, c in t.items()}
    return {e: c * factor for e, c in t.items()}


def _poly_mul(ta: dict, tb: dict) -> dict:
    if len(ta) < len(tb):
        ta, tb = tb, ta
    if len(tb) == 1:
        (e, c), = tb.items()
        return _poly_scale(ta, e, c)
    out: dict = {}
    get = out.get
    for eb, cb in tb.items():
        for ea, ca in ta.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _poly_pow(t: dict, k: int, width: int) -> dict:
    """``t`` to the power ``k >= 0`` by repeated squaring."""
    result = {(0,) * width: 1}
    while k:
        if k & 1:
            result = _poly_mul(result, t)
        k >>= 1
        if k:
            t = _poly_mul(t, t)
    return result


def _normalize(symbols: tuple[str, ...], num: dict, den: dict) -> Coefficient:
    """The normal form of ``num/den``: integer term dicts over ``symbols``
    with no zero coefficient, ``den`` not empty."""
    if not num:
        return Fraction(0)
    shift = tuple(map(min, map(min, zip(*num)), map(min, zip(*den))))
    if any(shift):
        num = {tuple(map(sub, e, shift)): c for e, c in num.items()}
        den = {tuple(map(sub, e, shift)): c for e, c in den.items()}
    g = gcd(*num.values(), *den.values())  # skips the rest once it reaches 1
    lead = den[max(den, key=_grlex)]
    if lead < 0:
        g = -g
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den = {e: c // g for e, c in den.items()}
    symbols, num, den = _prune(symbols, num, den)
    if not symbols:
        return Fraction(num[()], den[()])
    rf = object.__new__(RationalFunction)
    rf.symbols, rf.num, rf.den = symbols, num, den
    return rf


def _aligned(a: "RationalFunction", b):
    """``(symbols, a.num, a.den, b_num, b_den)`` with all four term dicts
    over one symbol tuple, or None if ``b`` is not a coefficient."""
    if isinstance(b, RationalFunction):
        if a.symbols == b.symbols:
            return a.symbols, a.num, a.den, b.num, b.den
        symbols = tuple(sorted({*a.symbols, *b.symbols}))
        return (
            symbols,
            _widen(a.symbols, a.num, symbols), _widen(a.symbols, a.den, symbols),
            _widen(b.symbols, b.num, symbols), _widen(b.symbols, b.den, symbols),
        )
    if is_rational(b):
        one = (0,) * len(a.symbols)
        return a.symbols, a.num, a.den, {one: b.numerator} if b else {}, {one: b.denominator}
    return None


def _negated(t: dict) -> dict:
    return {e: -c for e, c in t.items()}


def _sum(symbols: tuple[str, ...], a: dict, b: dict, c: dict, d: dict) -> Coefficient:
    """``a/b + c/d``."""
    return _normalize(symbols, _poly_add(_poly_mul(a, d), _poly_mul(c, b)), _poly_mul(b, d))


def _product(symbols: tuple[str, ...], a: dict, b: dict, c: dict, d: dict) -> Coefficient:
    """``(a/b) * (c/d)``."""
    return _normalize(symbols, _poly_mul(a, c), _poly_mul(b, d))


class RationalFunction:
    """Quotient of two integer polynomials over one sorted symbol tuple,
    normalized up to content and a common monomial only (no polynomial GCD:
    see the module docstring).

    ``symbols`` is the tuple; ``num`` and ``den`` are term dicts over it,
    mapping exponent vectors to nonzero ints.
    """

    __slots__ = ("symbols", "num", "den")

    def __init__(self, symbols: tuple[str, ...], num: Mapping, den: Mapping):
        """``num/den``, term dicts over ``symbols`` (any order) with int or
        ``Fraction`` coefficients; zero terms are dropped."""
        num = {e: c for e, c in num.items() if c}
        den = {e: c for e, c in den.items() if c}
        if not den:
            raise CoefficientError("zero denominator in rational function")
        ordered = tuple(sorted(symbols))
        if len(set(ordered)) != len(ordered):
            raise CoefficientError(f"repeated symbol in {symbols!r}")
        num, den = _widen(symbols, num, ordered), _widen(symbols, den, ordered)
        scale = lcm(*(c.denominator for t in (num, den) for c in t.values()))
        value = _normalize(
            ordered,
            {e: c.numerator * (scale // c.denominator) for e, c in num.items()},
            {e: c.numerator * (scale // c.denominator) for e, c in den.items()},
        )
        if isinstance(value, RationalFunction):
            self.symbols, self.num, self.den = value.symbols, value.num, value.den
        else:
            n = value.numerator
            self.symbols, self.num, self.den = (), {(): n} if n else {}, {(): value.denominator}

    def __bool__(self) -> bool:
        return bool(self.num)

    def eval(self, bindings: Mapping[str, Fraction]) -> Fraction:
        for name in self.symbols:
            if name not in bindings:
                raise UnboundSymbolError(f"no value bound for symbol '{name}'")
        values = [Fraction(bindings[name]) for name in self.symbols]

        def at(terms: dict) -> Fraction:
            return sum(
                (c * prod(v ** e for v, e in zip(values, exps) if e) for exps, c in terms.items()),
                Fraction(0),
            )

        den = at(self.den)
        if den == 0:
            raise CoefficientError("denominator vanishes at the evaluation point")
        return at(self.num) / den

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        ops = _aligned(self, other)
        return NotImplemented if ops is None else _sum(*ops)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        ops = _aligned(self, other)
        if ops is None:
            return NotImplemented
        symbols, a, b, c, d = ops
        return _sum(symbols, a, b, _negated(c), d)

    def __rsub__(self, other):
        ops = _aligned(self, other)
        if ops is None:
            return NotImplemented
        symbols, a, b, c, d = ops
        return _sum(symbols, c, d, _negated(a), b)

    def __mul__(self, other):
        ops = _aligned(self, other)
        return NotImplemented if ops is None else _product(*ops)

    __rmul__ = __mul__

    def __truediv__(self, other):
        ops = _aligned(self, other)
        if ops is None:
            return NotImplemented
        symbols, a, b, c, d = ops
        if not c:
            raise CoefficientError("division by zero coefficient")
        return _product(symbols, a, b, d, c)

    def __rtruediv__(self, other):
        ops = _aligned(self, other)
        if ops is None:
            return NotImplemented
        symbols, a, b, c, d = ops
        if not a:
            raise CoefficientError("division by zero coefficient")
        return _product(symbols, c, d, b, a)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        num, den = self.num, self.den
        if k < 0:
            if not num:
                raise CoefficientError("zero coefficient raised to a negative power")
            num, den, k = den, num, -k
        width = len(self.symbols)
        return _normalize(self.symbols, _poly_pow(num, k, width), _poly_pow(den, k, width))

    def __eq__(self, other: object) -> bool:
        ops = _aligned(self, other)
        if ops is None:
            return NotImplemented
        # cross-multiplication: no GCDs anywhere
        _, a, b, c, d = ops
        return _poly_mul(a, d) == _poly_mul(c, b)

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return _rf_text(self)

    def __repr__(self) -> str:
        return f"<RationalFunction {_rf_text(self)}>"


def symbol(name: str) -> RationalFunction:
    """The coefficient consisting of a bare named parameter."""
    if not _NAME_RE.match(name):
        raise CoefficientError(f"invalid symbol name {name!r}")
    return _normalize((name,), {(1,): 1}, {(0,): 1})


# ---------------------------------------------------------------------------
# coefficient-level helpers (work on int | Fraction | RationalFunction)
# ---------------------------------------------------------------------------


def coeff_div(a: Coefficient, b: Coefficient) -> Coefficient:
    if not b:
        raise CoefficientError("division by zero coefficient")
    if isinstance(a, RationalFunction) or isinstance(b, RationalFunction):
        return a / b
    return Fraction(a) / b


def coeff_pow(c: Coefficient, k: int) -> Coefficient:
    if isinstance(c, RationalFunction):
        return c ** k
    if k < 0 and c == 0:
        raise CoefficientError("zero coefficient raised to a negative power")
    return Fraction(c) ** k


def coeff_eval(c: Coefficient, bindings: Mapping[str, Fraction]) -> Fraction:
    """Evaluate to an exact rational; every symbol must be bound."""
    if isinstance(c, RationalFunction):
        return c.eval(bindings)
    return Fraction(c)


def coeff_symbols(c: Coefficient) -> frozenset[str]:
    if isinstance(c, RationalFunction):
        return frozenset(c.symbols)
    return frozenset()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_GREEK = {
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lambda", "mu", "nu", "xi", "pi", "rho", "sigma",
    "tau", "upsilon", "phi", "chi", "psi", "omega",
}

# a base that starts with a letter, then ``_rest`` or trailing digits
_LATEX_NAME_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*?)(?:_(\w+)|(\d+))?\Z")


def latex_name(name: str) -> str:
    """LaTeX form of a symbol or variable name.

    A Greek base becomes a command (``theta`` -> ``\\theta``), ``a_rest``
    becomes ``a_{rest}`` and trailing digits a subscript (``x12`` ->
    ``x_{12}``).  Every other underscore is a literal one, ``\\_``
    (``a_b_c`` -> ``a_{b\\_c}``, ``y_`` -> ``y\\_``); so is each underscore
    of a name that does not start with a letter (``_x`` -> ``\\_x``).
    """
    m = _LATEX_NAME_RE.match(name)
    if m is None:
        return _literal_underscores(name)
    base, sub = m.group(1), m.group(2) or m.group(3)
    out = f"\\{base}" if base in _GREEK else _literal_underscores(base)
    return f"{out}_{{{_literal_underscores(sub)}}}" if sub else out


def _literal_underscores(text: str) -> str:
    return text.replace("_", r"\_")


def _rat_latex(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def _term_body(exps, coeff_abs: int, symbols, latex: bool) -> str:
    if latex:
        factors = [
            latex_name(s) + (f"^{{{e}}}" if e > 1 else "")
            for s, e in zip(symbols, exps) if e
        ]
    else:
        factors = [f"{s}^{e}" if e > 1 else s for s, e in zip(symbols, exps) if e]
    if coeff_abs != 1 or not factors:
        factors.insert(0, str(coeff_abs))
    return (" " if latex else "*").join(factors)


def _poly_render(symbols: tuple[str, ...], terms: dict, latex: bool) -> str:
    if not terms:
        return "0"
    parts = []
    for exps, c in sorted(terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True):
        body = _term_body(exps, abs(c), symbols, latex)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(parts)


def _is_atomic(den: dict) -> bool:
    # renders without any operator: a bare integer or a bare symbol (the
    # leading coefficient of a denominator is positive)
    if len(den) != 1:
        return False
    (exps, c), = den.items()
    return not any(exps) or (c == 1 and sum(exps) == 1)


def _rf_text(rf: RationalFunction) -> str:
    num_str = _poly_render(rf.symbols, rf.num, False)
    if rf.den == {(0,) * len(rf.symbols): 1}:
        return num_str
    if len(rf.num) > 1:
        num_str = f"({num_str})"
    den_str = _poly_render(rf.symbols, rf.den, False)
    if not _is_atomic(rf.den):
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


def _rf_latex(rf: RationalFunction) -> str:
    num_str = _poly_render(rf.symbols, rf.num, True)
    if rf.den == {(0,) * len(rf.symbols): 1}:
        return num_str
    return f"\\frac{{{num_str}}}{{{_poly_render(rf.symbols, rf.den, True)}}}"


def coeff_print(c: Coefficient, fmt: str = "text") -> str:
    """Render a coefficient; ``fmt`` is ``"text"`` or ``"latex"``.

    Text output parses back through :func:`coeff_parse` to an equal value.
    """
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown coefficient format {fmt!r}")
    if isinstance(c, RationalFunction):
        return _rf_text(c) if fmt == "text" else _rf_latex(c)
    return str(Fraction(c)) if fmt == "text" else _rat_latex(c)


# ---------------------------------------------------------------------------
# parsing: one grammar for every exact value read from text
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(rf"\s*(?:(\d+)|({NAME})|([-+*/^()]))")


def tokenize(text: str, *, line: int | None = None, col_offset: int = 0):
    """Split arithmetic text into (kind, text, column) tokens."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            ws = len(text[pos:]) - len(text[pos:].lstrip())
            if pos + ws >= len(text):
                break
            raise ParseError(
                f"unexpected character {text[pos + ws]!r}",
                line=line, column=col_offset + pos + ws + 1,
            )
        col = col_offset + m.start(m.lastindex) + 1
        if m.group(1) is not None:
            digits = m.group(1)
            limit = sys.get_int_max_str_digits()
            if limit and len(digits) > limit:
                raise ParseError(
                    f"integer literal of {len(digits)} digits exceeds the limit of {limit}",
                    line=line, column=col,
                )
            tokens.append(("int", digits, col))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), col))
        else:
            tokens.append(("op", m.group(3), col))
        pos = m.end()
    tokens.append(("end", "", col_offset + len(text) + 1))
    return tokens


class _Parser:
    """Precedence-climbing parser.

    Integer literals become Fractions; values combine with Python's own
    ``+ - * / **`` and unary minus, so the result is whatever the operands'
    types make of it.  ``name(text, line, column)`` gives each name its
    value.  Exponents are integer literals only.
    """

    def __init__(self, tokens, name, line):
        self.tokens = tokens
        self.name = name
        self.line = line
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "end":  # never advance past end-of-input
            self.i += 1
        return tok

    def error(self, message: str, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, line=self.line, column=tok[2])

    def parse(self):
        value = self.expr()
        kind, text, _ = self.peek()
        if kind != "end":
            self.error(f"unexpected {text!r}")
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                tok = self.next()
                rhs = self.factor()
                if text == "*":
                    value = value * rhs
                else:
                    try:
                        value = value / rhs
                    except (CoefficientError, ZeroDivisionError):
                        self.error("division by zero", tok)
            else:
                return value

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return -self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            tok = self.next()
            exponent = self.exponent()
            try:
                return base ** exponent
            except (CoefficientError, ZeroDivisionError):
                self.error("zero raised to a negative power", tok)
        return base

    def exponent(self) -> int:
        kind, text, _ = self.peek()
        if kind == "op" and text == "(":
            self.next()
            value = self.exponent()
            kind, text, _ = self.next()
            if (kind, text) != ("op", ")"):
                self.error("expected ')' after exponent")
            return value
        sign = 1
        if kind == "op" and text == "-":
            self.next()
            sign = -1
            kind, text, _ = self.peek()
        if kind != "int":
            self.error("exponent must be an integer literal")
        self.next()
        return sign * int(text)

    def atom(self):
        kind, text, col = self.next()
        if kind == "int":
            return Fraction(int(text))
        if kind == "name":
            return self.name(text, self.line, col)
        if kind == "op" and text == "(":
            value = self.expr()
            kind, text, _ = self.next()
            if (kind, text) != ("op", ")"):
                self.error("expected ')'")
            return value
        self.error("expected a number, name, or '('", (kind, text, col))


def parse_arithmetic(text: str, name, *, line: int | None = None, col_offset: int = 0):
    """Read ``text`` in the one input grammar; ``name(text, line, column)``
    is the value of a name, or raises :class:`ParseError`."""
    tokens = tokenize(text, line=line, col_offset=col_offset)
    if tokens[0][0] == "end":
        raise ParseError("empty expression", line=line, column=col_offset + 1)
    return _Parser(tokens, name, line).parse()


def coeff_parse(text: str) -> Coefficient:
    """Parse ``"1/2"``, ``"1 - alpha"``, ``"1/(8*alpha^2)"``, ...; every
    name is a :func:`symbol`."""
    return parse_arithmetic(text, lambda name, line, column: symbol(name))


def _no_names(name: str, line: int | None, column: int):
    raise ParseError(f"expected a rational number, found {name!r}", line=line, column=column)


def parse_rational(text: str, *, line: int | None = None, col_offset: int = 0) -> Fraction:
    """Parse a rational such as ``"3/4"`` or ``"2^-1 - 1/3"``: the grammar
    of :func:`coeff_parse` without names."""
    return parse_arithmetic(text, _no_names, line=line, col_offset=col_offset)
