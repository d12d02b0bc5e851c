"""The LaTeX spelling of names and rationals, and the size check of a power.

The companion of :mod:`bsharp.coefficients`, loaded only by LaTeX output
(:func:`bsharp.coefficients.coeff_print` with ``fmt="latex"``, LaTeX
series and fields, and the LaTeX form of a rational function) and by a
power of a rational or of a rational function.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb, log10, prod

from .coefficients import is_rational
from .errors import CoefficientError

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


def check_power(base, exponent: int) -> None:
    """Refuse, before any work, a power past 10·``sys.get_int_max_str_digits()``
    (0: no limit), which starts to take time: a rational ``base`` to the k
    with more digits (m-bit ints give > (m - 1)·k·log10(2)), or the term
    dicts ``base`` of a numerator and a denominator to the k with more terms
    (at most C(k + t - 1, t - 1) for t terms, and Π (k·(max - min) + 1) over
    the exponents of each symbol), a coefficient of more digits (at most
    k·log10(Σ|c|)), or more than ten times the limit in all (terms times
    digits, summed over both dicts)."""
    limit, k = 10 * sys.get_int_max_str_digits(), abs(exponent)
    if is_rational(base):
        bits = max(base.numerator.bit_length(), base.denominator.bit_length()) - 1
        # bits·k·0.30103 in ints: bits·k overflows a float past 10^308
        large, verb = bits * k * 30103 > limit * 100000, "has"
    else:
        large, verb, total = False, "may have", 0.0
        for t in filter(None, base):
            spans = prod(k * (max(e) - min(e)) + 1 for e in zip(*t))
            # spans > k when t > 1, so past the limit the costly C(...) can wait
            terms = spans if k > limit else min(comb(k + len(t) - 1, len(t) - 1), spans)
            size = log10(sum(map(abs, t.values())))
            large = large or terms > limit or size and k > limit / size
            if not large and size:
                total += terms * k * size
        if not large and total > 10 * limit:
            limit *= 10
            large, verb = True, "may have, in all,"
    if limit and large:
        shown = f"exponent {exponent}"
        if k >= 10**40:  # a digit count, not the digits
            digits = int(log10(k))  # floor(log10(k)), up to rounding
            digits += (k >= 10 ** (digits + 1)) - (k < 10**digits) + 1
            shown = f"a {'negative ' * (exponent < 0)}{digits}-digit exponent"
        raise CoefficientError(f"a power with {shown} {verb} more than {limit} digits")
