"""Arbitrary-precision rational numbers.

Every rational is a :class:`fractions.Fraction`; it exposes ``.numerator``
and ``.denominator`` and prints as ``p/q`` (or ``p`` for integers).
Exactness is never traded away: the only float conversions in the package
happen at the numeric-integration boundary.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from typing import Union

# read by perfbench/run.py, which records it as "rationals"
BACKEND = "fractions"

RatLike = Union[int, Rat]


def rat(numerator: RatLike = 0, denominator: RatLike = 1) -> Rat:
    """Build a rational.  ``rat(2, 6)`` == 1/3; ``rat(5)`` == 5."""
    return Rat(numerator, denominator) if denominator != 1 else Rat(numerator)

ZERO = rat(0)


def is_rational(value: object) -> bool:
    """True for ints and rationals (the scalar coefficient types)."""
    return isinstance(value, (int, Rat)) and not isinstance(value, bool)


def rat_str(value: Rat) -> str:
    """Canonical text form: ``"p/q"`` in lowest terms, ``"p"`` for integers."""
    return str(Rat(value))
