"""Exact scalar coefficients: rationals, and the dispatch to rational
functions.

A coefficient is either a rational number (``int`` or
:class:`fractions.Fraction`) or a
:class:`~bsharp.symbolic.RationalFunction`, a quotient of multivariate
polynomials in named parameters such as ``alpha``.  Rational functions,
their normal form and their printing live in :mod:`bsharp.symbolic`,
which is loaded the first time a coefficient has a symbol: the helpers
here (:func:`coeff_div`, :func:`coeff_pow`, :func:`coeff_eval`,
:func:`coeff_symbols`, :func:`coeff_print`) branch on
:func:`is_rational` and hand anything else to the value's own methods,
so a command whose coefficients are all rational never compiles the
symbolic layer.

Every exact value the package reads from text goes through one grammar,
:func:`parse_arithmetic`: integer literals (as ``Fraction``), names,
``+ - * / ^`` with integer-literal exponents, unary minus and parentheses.
Values combine with Python's own operators, so one parser serves every
value type; the caller only says what a name means.  :func:`coeff_parse`
reads names as symbols, :func:`parse_rational` refuses them, and
:func:`bsharp.odes.parse_ode` reads them as variables and parameters.
:data:`NAME` is the one spelling of a name.  The LaTeX spelling of names
and rationals and the size check of a power live in
:mod:`bsharp.coefficients_extra`, which only LaTeX output and powers load.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Union

from . import _forward
from .errors import CoefficientError, ParseError

__getattr__ = _forward(globals(), "coefficients_extra")

if TYPE_CHECKING:
    from .symbolic import RationalFunction

Coefficient = Union[int, Fraction, "RationalFunction"]

#: how a name is spelled: a coefficient symbol, an ODE variable or parameter
NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(NAME + r"\Z")


def is_rational(value: object) -> bool:
    """True for ints and Fractions, the rational coefficients."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# coefficient-level helpers (work on int | Fraction | RationalFunction)
# ---------------------------------------------------------------------------


def coeff_div(a: Coefficient, b: Coefficient) -> Coefficient:
    if not b:
        raise CoefficientError("division by zero coefficient")
    if is_rational(a) and is_rational(b):
        return Fraction(a) / b
    return a / b


def coeff_pow(c: Coefficient, k: int) -> Coefficient:
    if not is_rational(c):
        return c ** k
    if k < 0 and c == 0:
        raise CoefficientError("zero coefficient raised to a negative power")
    from .coefficients_extra import check_power

    check_power(c, k)
    return Fraction(c) ** k


def coeff_eval(c: Coefficient, bindings: Mapping[str, Fraction]) -> Fraction:
    """Evaluate to an exact rational; every symbol must be bound."""
    if is_rational(c):
        return Fraction(c)
    return c.eval(bindings)


def coeff_symbols(c: Coefficient) -> frozenset[str]:
    if is_rational(c):
        return frozenset()
    return frozenset(c.symbols)


# ---------------------------------------------------------------------------
# printing; the LaTeX spelling of names and rationals is in coefficients_extra
# ---------------------------------------------------------------------------

def coeff_print(c: Coefficient, fmt: str = "text") -> str:
    """Render a coefficient; ``fmt`` is ``"text"`` or ``"latex"``.

    Text output parses back through :func:`coeff_parse` to an equal value.
    """
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown coefficient format {fmt!r}")
    if fmt == "text":
        return str(c)  # an int prints as the Fraction of it does
    if not is_rational(c):
        return c._latex()
    from .coefficients_extra import _rat_latex

    return _rat_latex(c)


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
    ``+ - * /`` and unary minus, and ``^`` is :func:`coeff_pow`, so the
    result is whatever the operands' types make of it.  A
    :class:`CoefficientError` of a power, such as one too large to compute,
    is a :class:`ParseError` at its ``^``.  ``name(text, line, column)``
    gives each name its value.  Exponents are integer literals only.
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
            try:
                return coeff_pow(base, self.exponent())
            except CoefficientError as exc:
                self.error(str(exc), tok)
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
    try:
        return _Parser(tokens, name, line).parse()
    except RecursionError:  # the parser recurses once per level of parentheses
        raise ParseError("expression nested too deeply", line=line, column=col_offset + 1) from None


def coeff_parse(text: str) -> Coefficient:
    """Parse ``"1/2"``, ``"1 - alpha"``, ``"1/(8*alpha^2)"``, ...; every
    name is a :func:`bsharp.symbolic.symbol`."""
    return parse_arithmetic(text, _symbol)


def coeff_from_json(value, where: str, error: type[Exception]) -> Coefficient:
    """The coefficient of a JSON string or integer; ``error`` naming ``where`` otherwise."""
    if isinstance(value, str) or isinstance(value, int) and not isinstance(value, bool):
        return coeff_parse(str(value))
    shown = "null" if value is None else str(value).lower() if isinstance(value, bool) else value
    raise error(f"{where} must be a coefficient string or an integer, got {shown}")


def _symbol(name: str, line: int | None, column: int):
    from .symbolic import _named

    return _named(name)


def _no_names(name: str, line: int | None, column: int):
    raise ParseError(f"expected a rational number, found {name!r}", line=line, column=column)


def parse_rational(text: str, *, line: int | None = None, col_offset: int = 0) -> Fraction:
    """Parse a rational such as ``"3/4"`` or ``"2^-1 - 1/3"``: the grammar
    of :func:`coeff_parse` without names."""
    return parse_arithmetic(text, _no_names, line=line, col_offset=col_offset)
