"""The LaTeX spelling of names and rationals.

The companion of :mod:`bsharp.coefficients`, loaded only by LaTeX output:
:func:`bsharp.coefficients.coeff_print` with ``fmt="latex"``, LaTeX
series and fields, and the LaTeX form of a rational function.
"""

from __future__ import annotations

import re
from fractions import Fraction

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
