"""Exact scalar coefficients: rationals and rational functions.

A coefficient is either a rational number (``int`` or
:class:`fractions.Fraction`) or a :class:`RationalFunction` — a quotient of
multivariate polynomials in named parameters such as ``alpha``.

The numerator and denominator of a rational function hold Python ``int``
coefficients.  Every arithmetic result passes through one normalizer,
:func:`_normalize`, which brings it to this normal form:

* numerator and denominator have no common integer factor (one
  ``math.gcd`` pass, exact ``//`` division) and no common monomial factor;
* the graded-lex leading coefficient of the denominator is positive;
* a constant over a constant collapses to a plain rational.

Scalars enter the arithmetic as their numerator and denominator, so no
polynomial operation ever builds a ``Fraction``.  A public
:class:`MultiPoly` may still hold rational coefficients; the public
:class:`RationalFunction` constructor clears them to integers once.

Rational functions are deliberately *not* reduced by a polynomial GCD:
the common monomial step already cancels monomial denominators, the only
kind that ``rk22(alpha)`` produces, and a GCD reduction of the other
denominators would change printed coefficients.
So ``(alpha^2 - 1)/(alpha - 1)`` keeps its unreduced form.  Equality is
decided by cross-multiplication, which sees that it equals ``alpha + 1``.

Term order everywhere (printing, leading coefficients) is graded
lexicographic, highest degree first, with symbols sorted by name.

Every exact value the package reads from text goes through one grammar,
:func:`parse_arithmetic`: integer literals (as :class:`Rat`), names,
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
from math import gcd, lcm
from operator import add, sub
from typing import Mapping, Union

from .errors import CoefficientError, ParseError, UnboundSymbolError
from .rationals import ZERO, Rat, is_rational, rat, rat_str

Coefficient = Union[int, Rat, "RationalFunction"]

#: how a name is spelled: a coefficient symbol, an ODE variable or parameter
NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(NAME + r"\Z")


class MultiPoly:
    """Multivariate polynomial over the rationals.

    ``symbols`` is a sorted tuple of names; ``terms`` maps exponent vectors
    (one entry per symbol) to nonzero coefficients, held as ``int`` wherever
    they are integral.  Symbols that no term actually uses are pruned, so a
    constant polynomial always has an empty symbol tuple.
    """

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols: tuple[str, ...], terms: dict[tuple[int, ...], Rat]):
        terms = {
            e: c.numerator if c.denominator == 1 else c
            for e, c in terms.items() if c != 0
        }
        self.symbols, self.terms = _prune(symbols, terms)

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        return cls((), {(): rat(value)})

    @classmethod
    def symbol(cls, name: str) -> "MultiPoly":
        return _poly((name,), {(1,): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.symbols

    def constant_value(self) -> Rat:
        return rat(self.terms.get((), 0))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Rat]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True)

    def eval(self, bindings: Mapping[str, Rat]) -> Rat:
        for name in self.symbols:
            if name not in bindings:
                raise UnboundSymbolError(f"no value bound for symbol '{name}'")
        total = rat(0)
        for exps, c in self.terms.items():
            value = rat(c)
            for name, e in zip(self.symbols, exps):
                if e:
                    value *= rat(bindings[name]) ** e
            total += value
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        symbols = _union(self, other)
        return _terms(self, symbols) == _terms(other, symbols)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<MultiPoly {_poly_text(self)}>"


def _poly(symbols: tuple[str, ...], terms: dict) -> MultiPoly:
    """A MultiPoly from pruned symbols and nonzero terms, taken as they are."""
    p = object.__new__(MultiPoly)
    p.symbols = symbols
    p.terms = terms
    return p


def _const(value: int) -> MultiPoly:
    return _poly((), {(): value} if value else {})


def _grlex(exps: tuple[int, ...]):
    return sum(exps), exps


def _prune(symbols: tuple[str, ...], terms: dict) -> tuple[tuple[str, ...], dict]:
    """Drop the symbols that no term uses: all of them if there are no terms."""
    if not terms:
        return (), terms
    used = tuple(map(any, zip(*terms)))
    if all(used):
        return symbols, terms
    keep = [i for i, u in enumerate(used) if u]
    return (
        tuple(symbols[i] for i in keep),
        {tuple(e[i] for i in keep): c for e, c in terms.items()},
    )


def _union(*polys: MultiPoly) -> tuple[str, ...]:
    """The sorted symbols of all ``polys`` together."""
    symbols: tuple[str, ...] = ()
    for p in polys:
        if p.symbols and p.symbols != symbols:
            if symbols:
                return tuple(sorted({s for q in polys for s in q.symbols}))
            symbols = p.symbols
    return symbols


def _terms(p: MultiPoly, symbols: tuple[str, ...]) -> dict:
    """The terms of ``p`` with exponent vectors over ``symbols``, a superset
    of its own."""
    if p.symbols == symbols:
        return p.terms
    idx = [symbols.index(s) for s in p.symbols]
    width = len(symbols)
    out = {}
    for exps, c in p.terms.items():
        vec = [0] * width
        for k, e in zip(idx, exps):
            vec[k] = e
        out[tuple(vec)] = c
    return out


# Term-dict arithmetic.  Both sides are over the same symbols; results hold
# no zero coefficient and are new dicts, never an operand's own.

def _poly_add(ta: dict, tb: dict) -> dict:
    if len(ta) < len(tb):
        ta, tb = tb, ta
    out = dict(ta)
    for e, c in tb.items():
        c += out.get(e, 0)
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
    result = {(0,) * width: 1}
    for _ in range(k):
        result = _poly_mul(result, t)
    return result


def _normalize(symbols: tuple[str, ...], num: dict, den: dict) -> Coefficient:
    """The normal form of ``num/den``: integer term dicts over ``symbols``
    with no zero coefficient, ``den`` not empty."""
    if not num:
        return ZERO
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
    num_symbols, num = _prune(symbols, num)
    den_symbols, den = _prune(symbols, den)
    if not (num_symbols or den_symbols):
        return Rat(num[()], den[()])
    rf = object.__new__(RationalFunction)
    rf.num = _poly(num_symbols, num)
    rf.den = _poly(den_symbols, den)
    return rf


def _parts(value) -> tuple[MultiPoly, MultiPoly] | None:
    """Numerator and denominator of an operand, or None for a non-coefficient."""
    if isinstance(value, RationalFunction):
        return value.num, value.den
    if is_rational(value):
        return _const(value.numerator), _const(value.denominator)
    return None


def _quotient_sum(a: MultiPoly, b: MultiPoly, c: MultiPoly, d: MultiPoly) -> Coefficient:
    """``a/b + c/d``."""
    symbols = _union(a, b, c, d)
    ta, tb, tc, td = (_terms(p, symbols) for p in (a, b, c, d))
    num = _poly_add(_poly_mul(ta, td), _poly_mul(tc, tb))
    return _normalize(symbols, num, _poly_mul(tb, td))


def _quotient_product(a: MultiPoly, b: MultiPoly, c: MultiPoly, d: MultiPoly) -> Coefficient:
    """``(a/b) * (c/d)``."""
    symbols = _union(a, b, c, d)
    ta, tb, tc, td = (_terms(p, symbols) for p in (a, b, c, d))
    return _normalize(symbols, _poly_mul(ta, tc), _poly_mul(tb, td))


def _negated(p: MultiPoly) -> MultiPoly:
    return _poly(p.symbols, {e: -c for e, c in p.terms.items()})


class RationalFunction:
    """Quotient of two integer polynomials, normalized up to content and a
    common monomial only."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero:
            raise CoefficientError("zero denominator in rational function")
        symbols = _union(num, den)
        tn, td = _terms(num, symbols), _terms(den, symbols)
        scale = lcm(*(c.denominator for t in (tn, td) for c in t.values()))
        tn = {e: c.numerator * (scale // c.denominator) for e, c in tn.items()}
        td = {e: c.numerator * (scale // c.denominator) for e, c in td.items()}
        value = _normalize(symbols, tn, td)
        if isinstance(value, RationalFunction):
            self.num, self.den = value.num, value.den
        else:
            self.num, self.den = _const(value.numerator), _const(value.denominator)

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(self.num.symbols) | frozenset(self.den.symbols)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def eval(self, bindings: Mapping[str, Rat]) -> Rat:
        den = self.den.eval(bindings)
        if den == 0:
            raise CoefficientError("denominator vanishes at the evaluation point")
        return self.num.eval(bindings) / den

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _quotient_sum(self.num, self.den, *parts)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        c, d = parts
        return _quotient_sum(self.num, self.den, _negated(c), d)

    def __rsub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        c, d = parts
        return _quotient_sum(c, d, _negated(self.num), self.den)

    def __mul__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _quotient_product(self.num, self.den, *parts)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        c, d = parts
        if c.is_zero:
            raise CoefficientError("division by zero coefficient")
        return _quotient_product(self.num, self.den, d, c)

    def __rtruediv__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        if self.num.is_zero:
            raise CoefficientError("division by zero coefficient")
        c, d = parts
        return _quotient_product(c, d, self.den, self.num)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        num, den = self.num, self.den
        if k < 0:
            if num.is_zero:
                raise CoefficientError("zero coefficient raised to a negative power")
            num, den, k = den, num, -k
        symbols = _union(num, den)
        width = len(symbols)
        return _normalize(
            symbols,
            _poly_pow(_terms(num, symbols), k, width),
            _poly_pow(_terms(den, symbols), k, width),
        )

    def __eq__(self, other: object) -> bool:
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        c, d = parts
        # cross-multiplication: no GCDs anywhere
        symbols = _union(self.num, self.den, c, d)
        ta, tb, tc, td = (_terms(p, symbols) for p in (self.num, self.den, c, d))
        return _poly_mul(ta, td) == _poly_mul(tc, tb)

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
# coefficient-level helpers (work on int | Rat | RationalFunction)
# ---------------------------------------------------------------------------


def coeff_add(a: Coefficient, b: Coefficient) -> Coefficient:
    return a + b


def coeff_sub(a: Coefficient, b: Coefficient) -> Coefficient:
    return a - b


def coeff_mul(a: Coefficient, b: Coefficient) -> Coefficient:
    return a * b


def coeff_div(a: Coefficient, b: Coefficient) -> Coefficient:
    if coeff_is_zero(b):
        raise CoefficientError("division by zero coefficient")
    if isinstance(a, RationalFunction) or isinstance(b, RationalFunction):
        return a / b
    return rat(a) / rat(b)


def coeff_pow(c: Coefficient, k: int) -> Coefficient:
    if isinstance(c, RationalFunction):
        return c ** k
    if k < 0 and c == 0:
        raise CoefficientError("zero coefficient raised to a negative power")
    return rat(c) ** k


def coeff_is_zero(c: Coefficient) -> bool:
    if isinstance(c, RationalFunction):
        return c.is_zero
    return c == 0


def coeff_eq(a: Coefficient, b: Coefficient) -> bool:
    if isinstance(a, RationalFunction):
        return a == b
    if isinstance(b, RationalFunction):
        return b == a
    return rat(a) == rat(b)


def coeff_eval(c: Coefficient, bindings: Mapping[str, Rat]) -> Rat:
    """Evaluate to an exact rational; every symbol must be bound."""
    if isinstance(c, RationalFunction):
        return c.eval(bindings)
    return rat(c)


def coeff_symbols(c: Coefficient) -> frozenset[str]:
    if isinstance(c, RationalFunction):
        return c.symbols
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


def _rat_text(value: Rat) -> str:
    return rat_str(rat(value))


def _rat_latex(value: Rat) -> str:
    value = rat(value)
    if value.denominator == 1:
        return str(value)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def _term_body(exps, coeff_abs: Rat, symbols, latex: bool) -> str:
    if latex:
        factors = [
            latex_name(s) + (f"^{{{e}}}" if e > 1 else "")
            for s, e in zip(symbols, exps) if e
        ]
        if not factors:
            return _rat_latex(coeff_abs)
        body = " ".join(factors)
        if coeff_abs != 1:
            body = f"{_rat_latex(coeff_abs)} {body}"
        return body
    factors = [f"{s}^{e}" if e > 1 else s for s, e in zip(symbols, exps) if e]
    if not factors:
        return _rat_text(coeff_abs)
    body = "*".join(factors)
    if coeff_abs != 1:
        body = f"{_rat_text(coeff_abs)}*{body}"
    return body


def _poly_render(p: MultiPoly, latex: bool) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for exps, c in p.sorted_terms():
        body = _term_body(exps, abs(c), p.symbols, latex)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(parts)


def _poly_text(p: MultiPoly) -> str:
    return _poly_render(p, latex=False)


def _is_atomic_poly(p: MultiPoly) -> bool:
    # renders without any operator: a bare integer or a bare symbol
    if len(p.terms) != 1:
        return False
    (exps, c), = p.terms.items()
    if not any(exps):
        return c >= 0 and rat(c).denominator == 1
    return c == 1 and sum(exps) == 1


def _rf_text(rf: RationalFunction) -> str:
    num, den = rf.num, rf.den
    if den.is_constant and den.constant_value() == 1:
        return _poly_text(num)
    num_str = _poly_text(num)
    if len(num.terms) > 1:
        num_str = f"({num_str})"
    den_str = _poly_text(den)
    if not _is_atomic_poly(den):
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


def _rf_latex(rf: RationalFunction) -> str:
    num, den = rf.num, rf.den
    if den.is_constant and den.constant_value() == 1:
        return _poly_render(num, latex=True)
    return f"\\frac{{{_poly_render(num, latex=True)}}}{{{_poly_render(den, latex=True)}}}"


def coeff_print(c: Coefficient, fmt: str = "text") -> str:
    """Render a coefficient; ``fmt`` is ``"text"`` or ``"latex"``.

    Text output parses back through :func:`coeff_parse` to an equal value.
    """
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown coefficient format {fmt!r}")
    if isinstance(c, RationalFunction):
        return _rf_text(c) if fmt == "text" else _rf_latex(c)
    return _rat_text(c) if fmt == "text" else _rat_latex(c)


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

    Integer literals become :class:`Rat`; values combine with Python's own
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
            return Rat(int(text))
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


def parse_rational(text: str, *, line: int | None = None, col_offset: int = 0) -> Rat:
    """Parse a rational such as ``"3/4"`` or ``"2^-1 - 1/3"``: the grammar
    of :func:`coeff_parse` without names."""
    return parse_arithmetic(text, _no_names, line=line, col_offset=col_offset)
