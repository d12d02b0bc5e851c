"""Symbolic coefficients: rational functions of named parameters, and the
integer Laurent polynomials that :mod:`bsharp.graded` solves them over.

This module is loaded the first time a coefficient has a symbol: when
:func:`bsharp.coefficients.coeff_parse` reads a name, or when a caller
builds a :class:`RationalFunction` or a :func:`symbol`.  Rational
coefficients never load it; :mod:`bsharp.coefficients` tells the two
kinds apart with :func:`~bsharp.coefficients.is_rational`.  What no
symbolic series solve runs lives in :mod:`bsharp.symbolic_extra`, from
which this module reads a public name it lacks.

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
an integer, so :mod:`bsharp.graded` solves symbolic series over
:class:`_Laurent` polynomials, lifted by :func:`_lift_laurent`, with one
:func:`_normalize` per coefficient at the end (:func:`_lower_laurent`),
and prints what this arithmetic prints.  The domain owns the kernels a
solve accumulates with, :func:`_laurent_lie` and :func:`_laurent_dot`,
which :func:`bsharp.graded._domain` hands out.  A denominator
content·x^m·Q whose rest Q is not 1 lifts to a product of Laurent
symbols, named ``~k`` (no parameter name can be), each of which stands
for the reciprocal of one of the factors of Q that
:func:`bsharp.graded._graded_denominator` registered
(:func:`bsharp.symbolic_extra._factors`); lowering puts them back.

Term order everywhere (printing, leading coefficients) is graded
lexicographic, highest degree first, with symbols sorted by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, sub
from typing import Mapping

from . import _forward
from .coefficients import Coefficient, is_rational
from .errors import CoefficientError

__getattr__ = _forward(globals(), "symbolic_extra")


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
        from .symbolic_extra import _terms

        self.symbols, self.num, self.den = _terms(symbols, num, den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def eval(self, bindings: Mapping[str, Fraction]) -> Fraction:
        from .symbolic_extra import _eval

        return _eval(self, bindings)

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
        from .symbolic_extra import _power

        return _power(self, k)

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

    def _latex(self) -> str:
        from .symbolic_extra import _rf_latex

        return _rf_latex(self)


def _named(name: str) -> RationalFunction:
    """The coefficient of the bare parameter ``name``, spelled as
    :data:`bsharp.coefficients.NAME` says (:func:`symbol` checks that)."""
    return _normalize((name,), {(1,): 1}, {(0,): 1})


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _term_body(exps, coeff_abs: int, symbols, latex: bool) -> str:
    """A term's text; with ``latex``, ``symbols`` are the LaTeX names."""
    if latex:
        factors = [s + (f"^{{{e}}}" if e > 1 else "") for s, e in zip(symbols, exps) if e]
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


# ---------------------------------------------------------------------------
# integer Laurent polynomials, the values of a graded symbolic solve
# ---------------------------------------------------------------------------


class _Laurent:
    """An integer Laurent polynomial over the symbols of one solve: ``terms``
    maps a packed exponent tuple (see :func:`_pack`), negative entries
    allowed, to a nonzero int.  It adds, subtracts and multiplies with an
    int (a constant, which a solve may hold as a value too) or with itself,
    is false without terms, and divides by an int term by term with
    ``divmod``."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other, negate: bool = False):
        if not other:
            return self
        if not self.terms:
            return -other if negate else other
        return _Laurent(_poly_add(self.terms, _terms_of(other), negate))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, negate=True)

    def __rsub__(self, other):  # other, an int, minus self
        if not self.terms:
            return other
        if not other:
            return -self
        return _Laurent(_poly_add(_terms_of(other), self.terms, negate=True))

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if not isinstance(other, _Laurent):
            if other == 1:
                return self
            return _Laurent({e: c * other for e, c in self.terms.items()} if other else {})
        ta, tb = self.terms, other.terms
        if len(ta) < len(tb):
            ta, tb = tb, ta
        if len(tb) == 1:
            ((shift, factor),) = tb.items()
            return _Laurent({e + shift: c * factor for e, c in ta.items()})
        out: dict = {}
        get = out.get
        for eb, cb in tb.items():
            for ea, ca in ta.items():
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        if 0 in out.values():  # a term that cancelled
            out = {e: c for e, c in out.items() if c}
        return _Laurent(out)

    __rmul__ = __mul__

    def __divmod__(self, other: int) -> tuple["_Laurent", "_Laurent"]:
        pairs = [(e, divmod(c, other)) for e, c in self.terms.items()]
        quotient = _Laurent({e: q for e, (q, _) in pairs if q})
        return quotient, _Laurent({e: r for e, (_, r) in pairs if r})


def _terms_of(value) -> dict:
    """The terms of a :class:`_Laurent` or of an int, a constant."""
    return value.terms if isinstance(value, _Laurent) else {0: value}


# The kernels multiply the terms of each pair of values straight into one
# term dict per sum (Monagan and Pearce, "Sparse polynomial multiplication
# and division in Maple 14", 2009): no pair builds a product value, and no
# addition copies the sum so far.  They skip the zeros the int kernels skip.

def _summed(out: dict) -> _Laurent:
    """The value of the accumulated terms ``out``, its zeros dropped."""
    if 0 in out.values():  # a term that cancelled
        out = {e: c for e, c in out.items() if c}
    return _Laurent(out)


def _laurent_lie(rows: dict, branch: list, lists: list, width: int):
    """:func:`bsharp.graded._lie` of Laurent values: Σ over the edge cuts
    ``rows``, {(trunk θ, branch β): k}, of k·branch[β]·lists[θ][j], for
    each j < ``width``, and the number of zero factors skipped."""
    skips = 0
    sums: list = [{} for _ in range(width)]
    for (trunk, b), k in rows.items():
        w = branch[b]
        tw = w.terms if w.__class__ is _Laurent else {0: w} if w else {}
        if not tw:
            skips += 1
            continue
        if k != 1:
            tw = {e: c * k for e, c in tw.items()}
        tw = tw.items()
        for c, out in zip(lists[trunk], sums):
            tc = c.terms if c.__class__ is _Laurent else {0: c} if c else {}
            if not tc:
                skips += 1
                continue
            get = out.get
            tc = tc.items()
            for ew, cw in tw:
                for ec, cc in tc:
                    e = ec + ew
                    out[e] = get(e, 0) + cc * cw
    return [_summed(out) for out in sums], skips


def _laurent_dot(values, weights) -> _Laurent:
    """Σ values[i]·weights[i] over Laurent values and ints, to the
    shorter of the two; a zero on either side is skipped."""
    out: dict = {}
    get = out.get
    for v, w in zip(values, weights):
        if not (v and w):
            continue
        tv = _terms_of(v).items()
        if w.__class__ is int:
            for e, c in tv:
                out[e] = get(e, 0) + c * w
            continue
        for ew, cw in w.terms.items():
            for ev, cv in tv:
                e = ev + ew
                out[e] = get(e, 0) + cv * cw
    return _summed(out)


# A Laurent term's exponent tuple is one int, Σ e_i·2^(32·i), so that the
# product of two terms adds two ints and a term dict hashes ints.  Each e_i
# is a balanced digit, |e_i| < 2^31, and a sum of exponents stays far
# below that, so a packed int has one unpacking and packing is additive.
_DIGIT = 32
_HALF = 1 << (_DIGIT - 1)
_MASK = (1 << _DIGIT) - 1


def _pack(exponents) -> int:
    return sum(e << _DIGIT * i for i, e in enumerate(exponents))


class _Unpacked(dict):
    """Packed exponent -> its tuple over ``width`` symbols, unpacked once
    per solve, which lowers thousands of terms over a few dozen monomials."""

    def __init__(self, width: int):
        super().__init__()
        self.width = width

    def __missing__(self, packed: int) -> tuple[int, ...]:
        exponents, key = [], packed
        for _ in range(self.width):
            e = ((key + _HALF) & _MASK) - _HALF
            exponents.append(e)
            key = (key - e) >> _DIGIT
        value = self[packed] = tuple(exponents)
        return value


def _lift_laurent(symbols: tuple[str, ...], rests: tuple, div, c, scale: int):
    """``scale``·c over ``symbols`` for a rational function c; an int, a
    constant, for a rational c.  A denominator content·x^low·Q whose Q is
    not 1 is a product of ``rests``
    (:func:`bsharp.symbolic_extra._factors`), each of which multiplies by
    the symbol of ``symbols`` that stands for its reciprocal: the symbols
    of ``rests`` end ``symbols``, in order.  Either must be exact: ``div``
    is the exact int division of the solve.  A numerator that a factor
    divides is divided instead."""
    if is_rational(c):
        return c.numerator * div(scale, c.denominator)
    num = _widen(c.symbols, c.num, symbols)
    if len(c.den) == 1:
        (low, den), = _widen(c.symbols, c.den, symbols).items()
        shift = _pack(low)
    else:
        named = len(symbols) - len(rests)
        from .symbolic_extra import _factors, _quotient, _rest

        den, low, rest = _rest(_widen(c.symbols, c.den, symbols[:named]))
        shift = _pack(low)
        for k, e in enumerate(_factors(rest, rests)[0]):
            factor = _widen(symbols[:named], rests[k], symbols)
            for _ in range(e):
                quotient = _quotient(num, factor)
                if quotient is None:
                    shift -= 1 << _DIGIT * (named + k)
                else:
                    num = quotient
    q = div(scale, den)
    return _Laurent({_pack(e) - shift: k * q for e, k in num.items()})


def _lower_laurent(symbols: tuple[str, ...], rests: tuple, unpacked: _Unpacked, value, power: int):
    """The coefficient ``value``/``power`` in its normal form, its packed
    exponents read through the solve's ``unpacked``.  With K_Q the highest
    power of each inverse symbol 1/Q in ``value``, that is Σ
    c·x^e·Π Q^(K_Q - e_Q) over its terms, divided by ``power``·Π Q^K_Q."""
    if isinstance(value, int):
        return Fraction(value, power)
    width = len(symbols)
    terms = {unpacked[e]: c for e, c in value.terms.items()}
    if not rests:
        return _normalize(symbols, terms, {(0,) * width: power})
    from .symbolic_extra import _poly_pow

    named = width - len(rests)
    tops = tuple(map(max, zip(*terms)))[named:]
    parts: dict = {}  # the terms of each inverse exponent vector
    for e, c in terms.items():
        parts.setdefault(e[named:], {})[e[:named]] = c
    num: dict = {}
    for inverse, part in parts.items():
        for q, top, k in zip(rests, tops, inverse):
            part = _poly_mul(part, _poly_pow(q, top - k, named))
        num = _poly_add(num, part)
    den = {(0,) * named: power}
    for q, top in zip(rests, tops):
        den = _poly_mul(den, _poly_pow(q, top, named))
    return _normalize(symbols[:named], num, den)
