"""Exact scalar coefficients: rationals and rational functions.

A coefficient is either a rational number (``int`` or
:class:`fractions.Fraction`) or a :class:`RationalFunction` — a quotient of
multivariate polynomials over the rationals in named parameters such as
``alpha``.

Rational functions are deliberately *not* reduced: computing multivariate
GCDs costs more than it saves at the sizes that occur here, so ``num/den``
is normalized only up to content — numerator and denominator have integer
coefficients with no common integer factor, no common monomial factor, and
the graded-lex leading coefficient of the denominator is positive.
Equality is decided by cross-multiplication, e.g.
``(alpha^2 - 1)/(alpha - 1) == alpha + 1`` holds even though the left side
keeps its unreduced form.

Term order everywhere (printing, leading coefficients) is graded
lexicographic, highest degree first, with symbols sorted by name.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Union

from .errors import CoefficientError, ParseError, UnboundSymbolError
from .rationals import Rat, is_rational, rat, rat_str

Coefficient = Union[int, Rat, "RationalFunction"]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class MultiPoly:
    """Multivariate polynomial over the rationals.

    ``symbols`` is a sorted tuple of names; ``terms`` maps exponent vectors
    (one entry per symbol) to nonzero rational coefficients.  Symbols that
    no term actually uses are pruned, so a constant polynomial always has an
    empty symbol tuple.
    """

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols: tuple[str, ...], terms: dict[tuple[int, ...], Rat]):
        terms = {e: c for e, c in terms.items() if c != 0}
        if symbols and terms:
            used = [any(e[i] for e in terms) for i in range(len(symbols))]
            if not all(used):
                keep = [i for i, u in enumerate(used) if u]
                symbols = tuple(symbols[i] for i in keep)
                terms = {tuple(e[i] for i in keep): c for e, c in terms.items()}
        elif not terms:
            symbols = ()
        self.symbols = symbols
        self.terms = terms

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        value = rat(value)
        return cls((), {(): value} if value != 0 else {})

    @classmethod
    def symbol(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): rat(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.symbols

    def constant_value(self) -> Rat:
        return self.terms.get((), rat(0))

    def scaled(self, factor: Rat) -> "MultiPoly":
        return MultiPoly(self.symbols, {e: c * factor for e, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Rat]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def leading_coefficient(self) -> Rat:
        if not self.terms:
            return rat(0)
        return self.sorted_terms()[0][1]

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
        _, a, b = _align(self, other)
        return a == b

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<MultiPoly {_poly_text(self)}>"


def _align(a: MultiPoly, b: MultiPoly):
    if a.symbols == b.symbols:
        return a.symbols, a.terms, b.terms
    symbols = tuple(sorted(set(a.symbols) | set(b.symbols)))
    return symbols, _embed(a, symbols), _embed(b, symbols)


def _embed(p: MultiPoly, symbols: tuple[str, ...]) -> dict[tuple[int, ...], Rat]:
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


def _poly_add(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    symbols, ta, tb = _align(a, b)
    out = dict(ta)
    for e, c in tb.items():
        out[e] = out.get(e, rat(0)) + c
    return MultiPoly(symbols, out)


def _poly_neg(a: MultiPoly) -> MultiPoly:
    return MultiPoly(a.symbols, {e: -c for e, c in a.terms.items()})


def _poly_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    symbols, ta, tb = _align(a, b)
    out: dict[tuple[int, ...], Rat] = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, rat(0)) + ca * cb
    return MultiPoly(symbols, out)


def _poly_pow(a: MultiPoly, k: int) -> MultiPoly:
    result = MultiPoly.constant(1)
    for _ in range(k):
        result = _poly_mul(result, a)
    return result


class RationalFunction:
    """Quotient of two polynomials, normalized up to rational content only."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero:
            raise CoefficientError("zero denominator in rational function")
        if num.is_zero:
            den = MultiPoly.constant(1)
        else:
            num, den = _clear_content(num, den)
        self.num = num
        self.den = den

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
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        num = _poly_add(_poly_mul(self.num, other.den), _poly_mul(other.num, self.den))
        return _collapse(RationalFunction(num, _poly_mul(self.den, other.den)))

    __radd__ = __add__

    def __neg__(self):
        return _collapse(RationalFunction(_poly_neg(self.num), self.den))

    def __sub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return _collapse(
            RationalFunction(_poly_mul(self.num, other.num), _poly_mul(self.den, other.den))
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero:
            raise CoefficientError("division by zero coefficient")
        return _collapse(
            RationalFunction(_poly_mul(self.num, other.den), _poly_mul(self.den, other.num))
        )

    def __rtruediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k >= 0:
            return _collapse(RationalFunction(_poly_pow(self.num, k), _poly_pow(self.den, k)))
        if self.num.is_zero:
            raise CoefficientError("zero coefficient raised to a negative power")
        return _collapse(RationalFunction(_poly_pow(self.den, -k), _poly_pow(self.num, -k)))

    def __eq__(self, other: object) -> bool:
        rf = _as_rf(other)
        if rf is None:
            return NotImplemented
        # cross-multiplication: no GCDs anywhere
        return _poly_mul(self.num, rf.den) == _poly_mul(rf.num, self.den)

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return _rf_text(self)

    def __repr__(self) -> str:
        return f"<RationalFunction {_rf_text(self)}>"


def _strip_common_monomial(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Divide both sides by their largest common monomial (not a GCD pass:
    per-symbol minimum exponents only, so e.g. alpha^7/alpha^9 collapses
    but (alpha^2-1)/(alpha-1) is left alone)."""
    common = set(num.symbols) & set(den.symbols)
    if not common:
        return num, den
    shift: dict[str, int] = {}
    for name in common:
        i = num.symbols.index(name)
        j = den.symbols.index(name)
        m = min(min(e[i] for e in num.terms), min(e[j] for e in den.terms))
        if m > 0:
            shift[name] = m
    if not shift:
        return num, den
    return _shift_exponents(num, shift), _shift_exponents(den, shift)


def _shift_exponents(p: MultiPoly, shift: dict[str, int]) -> MultiPoly:
    offsets = [shift.get(s, 0) for s in p.symbols]
    return MultiPoly(
        p.symbols,
        {
            tuple(e - o for e, o in zip(exps, offsets)): c
            for exps, c in p.terms.items()
        },
    )


def _clear_content(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    num, den = _strip_common_monomial(num, den)
    coeffs = list(num.terms.values()) + list(den.terms.values())
    lcm = 1
    for c in coeffs:
        lcm = math.lcm(lcm, int(c.denominator))
    gcd = 0
    for c in coeffs:
        gcd = math.gcd(gcd, abs(int(c.numerator)) * (lcm // int(c.denominator)))
    scale = rat(lcm, gcd)
    if den.leading_coefficient() < 0:
        scale = -scale
    return num.scaled(scale), den.scaled(scale)


def _collapse(rf: RationalFunction) -> Coefficient:
    if rf.num.is_constant and rf.den.is_constant:
        return rf.num.constant_value() / rf.den.constant_value()
    return rf


def _as_rf(value) -> RationalFunction | None:
    if isinstance(value, RationalFunction):
        return value
    if is_rational(value):
        return RationalFunction(MultiPoly.constant(value), MultiPoly.constant(1))
    return None


def symbol(name: str) -> RationalFunction:
    """The coefficient consisting of a bare named parameter."""
    if not _NAME_RE.match(name):
        raise CoefficientError(f"invalid symbol name {name!r}")
    return RationalFunction(MultiPoly.symbol(name), MultiPoly.constant(1))


# ---------------------------------------------------------------------------
# coefficient-level helpers (work on int | Rat | RationalFunction)
# ---------------------------------------------------------------------------


def coeff_add(a: Coefficient, b: Coefficient) -> Coefficient:
    return a + b


def coeff_sub(a: Coefficient, b: Coefficient) -> Coefficient:
    return a - b


def coeff_mul(a: Coefficient, b: Coefficient) -> Coefficient:
    return a * b


def coeff_neg(a: Coefficient) -> Coefficient:
    return -a


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
    ``x_{12}``).  Names that do not start with a letter print as they are.
    """
    m = _LATEX_NAME_RE.match(name)
    if m is None:
        return name
    base, sub = m.group(1), m.group(2) or m.group(3)
    out = f"\\{base}" if base in _GREEK else base
    return f"{out}_{{{sub}}}" if sub else out


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
# parsing (shared by coefficient strings and ODE right-hand sides)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def tokenize(text: str, *, line: int | None = None, col_offset: int = 0):
    """Split arithmetic text into (kind, value, column) tokens."""
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
            tokens.append(("int", m.group(1), col))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), col))
        else:
            tokens.append(("op", m.group(3), col))
        pos = m.end()
    tokens.append(("end", "", col_offset + len(text) + 1))
    return tokens


class _Parser:
    """Precedence-climbing parser over an algebra of callbacks.

    The algebra supplies ``from_int``, ``from_name(name, line, column)``,
    ``add/sub/mul/div/neg`` and ``pow(value, int_exponent)``; exponents are
    integer literals only.
    """

    def __init__(self, tokens, algebra, line):
        self.tokens = tokens
        self.algebra = algebra
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
                value = self.algebra.add(value, rhs) if text == "+" else self.algebra.sub(value, rhs)
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
                    value = self.algebra.mul(value, rhs)
                else:
                    try:
                        value = self.algebra.div(value, rhs)
                    except CoefficientError as exc:
                        self.error(str(exc), tok)
            else:
                return value

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return self.algebra.neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            tok = self.next()
            exponent = self.exponent()
            try:
                return self.algebra.pow(base, exponent)
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
            return self.algebra.from_int(int(text))
        if kind == "name":
            return self.algebra.from_name(text, self.line, col)
        if kind == "op" and text == "(":
            value = self.expr()
            kind, text, _ = self.next()
            if (kind, text) != ("op", ")"):
                self.error("expected ')'")
            return value
        self.error("expected a number, name, or '('", (kind, text, col))


def parse_arithmetic(text: str, algebra, *, line: int | None = None, col_offset: int = 0):
    tokens = tokenize(text, line=line, col_offset=col_offset)
    if tokens[0][0] == "end":
        raise ParseError("empty expression", line=line, column=col_offset + 1)
    return _Parser(tokens, algebra, line).parse()


class _CoeffAlgebra:
    @staticmethod
    def from_int(i: int):
        return rat(i)

    @staticmethod
    def from_name(name: str, line, column):
        return symbol(name)

    add = staticmethod(coeff_add)
    sub = staticmethod(coeff_sub)
    mul = staticmethod(coeff_mul)
    div = staticmethod(coeff_div)
    neg = staticmethod(coeff_neg)
    pow = staticmethod(coeff_pow)


def coeff_parse(text: str) -> Coefficient:
    """Parse ``"1/2"``, ``"1 - alpha"``, ``"1/(8*alpha^2)"``, ..."""
    return parse_arithmetic(text, _CoeffAlgebra())
