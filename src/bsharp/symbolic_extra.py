"""The parts of the symbolic layer that a symbolic series solve does not run.

The companion of :mod:`bsharp.symbolic`, which reads a public name it
lacks from here: :func:`symbol`, which checks a name (one that the
parser read is spelled right already), the public constructor,
evaluation and powers of a
:class:`~bsharp.symbolic.RationalFunction`, its LaTeX, and the
denominator factors Q that are not monomials, which
:func:`bsharp.graded._graded_denominator` registers and a Laurent lift
and lower divide out and put back.  A tableau whose denominators are all
monomials, as those of ``rk22(alpha)`` are, never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import sub
from typing import Mapping

from .coefficients import _NAME_RE
from .errors import CoefficientError, UnboundSymbolError
from .symbolic import (
    RationalFunction, _grlex, _named, _normalize, _poly_add, _poly_mul, _poly_render, _poly_scale,
    _widen,
)


def symbol(name: str) -> RationalFunction:
    """The coefficient consisting of a bare named parameter."""
    if not _NAME_RE.match(name):
        raise CoefficientError(f"invalid symbol name {name!r}")
    return _named(name)


def _terms(symbols: tuple[str, ...], num: Mapping, den: Mapping) -> tuple:
    """``(symbols, num, den)`` of ``RationalFunction(symbols, num, den)``:
    term dicts over ``symbols`` (any order) with int or ``Fraction``
    coefficients, cleared to integers once and normalized."""
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
        return value.symbols, value.num, value.den
    n = value.numerator
    return (), {(): n} if n else {}, {(): value.denominator}


def _eval(rf: RationalFunction, bindings: Mapping[str, Fraction]) -> Fraction:
    """``rf`` at the values ``bindings`` gives its symbols."""
    for name in rf.symbols:
        if name not in bindings:
            raise UnboundSymbolError(f"no value bound for symbol '{name}'")
    values = [Fraction(bindings[name]) for name in rf.symbols]

    def at(terms: dict) -> Fraction:
        return sum(
            (c * prod(v ** e for v, e in zip(values, exps) if e) for exps, c in terms.items()),
            Fraction(0),
        )

    den = at(rf.den)
    if den == 0:
        raise CoefficientError("denominator vanishes at the evaluation point")
    return at(rf.num) / den


def _power(rf: RationalFunction, k: int):
    """``rf`` to the int power ``k``."""
    from .coefficients_extra import check_power

    num, den = rf.num, rf.den
    check_power((num, den), k)
    if k < 0:
        if not num:
            raise CoefficientError("zero coefficient raised to a negative power")
        num, den, k = den, num, -k
    width = len(rf.symbols)
    return _normalize(rf.symbols, _poly_pow(num, k, width), _poly_pow(den, k, width))


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


def _rf_latex(rf: RationalFunction) -> str:
    from .coefficients_extra import latex_name

    names = tuple(map(latex_name, rf.symbols))
    num_str = _poly_render(names, rf.num, True)
    if rf.den == {(0,) * len(rf.symbols): 1}:
        return num_str
    return f"\\frac{{{num_str}}}{{{_poly_render(names, rf.den, True)}}}"


# -- denominator factors that are not monomials -------------------------------

def _rest(den: dict) -> tuple[int, tuple[int, ...], dict]:
    """The denominator ``den`` as content·x^low·Q: ``(content, low, Q)``,
    Q with coprime integer coefficients, a positive lead and no symbol
    dividing it; Q is 1 for a one-term ``den``."""
    low = tuple(map(min, zip(*den)))
    content = gcd(*den.values())
    return content, low, {tuple(map(sub, e, low)): c // content for e, c in den.items()}


def _quotient(num: dict, q: dict) -> dict | None:
    """``num``/``q`` if ``q`` divides the polynomial ``num`` exactly, else
    None: division by leading terms in graded-lex order."""
    lead = max(q, key=_grlex)
    out: dict = {}
    while num:
        e = max(num, key=_grlex)
        shift = tuple(map(sub, e, lead))
        if min(shift) < 0 or num[e] % q[lead]:
            return None
        out[shift] = factor = num[e] // q[lead]
        num = _poly_add(num, _poly_scale(q, shift, factor), negate=True)
    return out


def _degree(terms: dict) -> int:
    """The total degree of a polynomial."""
    return max(map(sum, terms))


def _factors(q: dict, rests) -> tuple[list[int], dict]:
    """``([e_0, e_1, ...], left)`` with q = Π rests[k]^e_k · left: each
    of ``rests`` in turn divided out of the polynomial ``q`` as often as
    it goes in."""
    exponents = []
    for rest in rests:
        e = 0
        quotient = _quotient(q, rest)
        while quotient is not None:
            q, e = quotient, e + 1
            quotient = _quotient(q, rest)
        exponents.append(e)
    return exponents, q
