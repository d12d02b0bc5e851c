"""One grammar for exact input, checked against Python's own parser.

Coefficients, ODE right-hand sides, ``param`` values and ``--bind`` values
are all read by ``coefficients.parse_arithmetic``.  Random texts built from
integers, names, ``+ - * / ^``, unary minus and parentheses are evaluated
at random rational points three ways (``coeff_parse`` + ``coeff_eval``,
``parse_ode`` + exact ``eval_expression``, and ``parse_rational`` when the
text has no names) and compared with Python evaluating the same text over
``Fraction`` literals, where ``^`` is ``**``.  Python and the grammar agree
on precedence: unary minus binds looser than a power (``-3^2 == -9``), and
``*`` and ``/`` bind left to right.
"""

import re
import sys
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bsharp.coefficients import coeff_eval, coeff_parse, coeff_print, parse_rational
from bsharp.errors import ParseError
from bsharp.expressions import eval_expression
from bsharp.odes import parse_ode
from bsharp.series import series_to_json_dict
from bsharp.tableaux import builtin_tableau, rk_series

NAMES = ("a", "b_1")

_ATOM_RE = re.compile(r"\d+|[A-Za-z_]\w*")


def _power(base: str, exponent: int, spelling: int) -> str:
    # the base of ^ is an atom; the exponent an integer literal, maybe
    # negative, maybe parenthesized
    if not _ATOM_RE.fullmatch(base):
        base = f"({base})"
    text = str(exponent)
    return f"{base}^({text})" if spelling else f"{base}^{text}"


def _grow(children):
    return st.one_of(
        st.builds("{} {} {}".format, children, st.sampled_from("+-*/"), children),
        st.builds("-{}".format, children),
        st.builds("({})".format, children),
        st.builds(_power, children, st.integers(-3, 3), st.integers(0, 1)),
    )


texts = st.recursive(
    st.one_of(st.integers(0, 12).map(str), st.sampled_from(NAMES)),
    _grow,
    max_leaves=8,
)
points = st.fixed_dictionaries(
    {name: st.fractions(min_value=-5, max_value=5, max_denominator=7) for name in NAMES}
)

_PY_TOKEN_RE = re.compile(r"\d+|[A-Za-z_]\w*|\^|[^\s]")


def python_value(text: str, point: dict):
    """``text`` evaluated by Python: integers as Fractions, ``^`` as ``**``."""
    out = []
    for tok in _PY_TOKEN_RE.findall(text):
        if tok.isdigit():
            out.append(f"F({int(tok)})")
        elif tok in NAMES:
            out.append(f"V[{tok!r}]")
        else:
            out.append("**" if tok == "^" else tok)
    return eval(" ".join(out), {"F": Fraction, "V": point})


@settings(max_examples=300, deadline=None)
@given(texts, points)
def test_every_reader_agrees_with_python(text, point):
    try:
        expected = python_value(text, point)
    except ZeroDivisionError:
        assume(False)

    assert coeff_eval(coeff_parse(text), point) == expected

    system = parse_ode(f"vars a, b_1; a' = {text}; b_1' = 0")
    assert eval_expression(system.rhs[0], (point["a"], point["b_1"])) == expected

    if not any(name in text for name in NAMES):
        assert parse_rational(text) == expected
        assert parse_ode(f"vars y; param k = {text}; y' = k").parameters["k"] == expected


_FUZZ = st.text(alphabet="0123ab_+-*/^() .#@", max_size=12)


@settings(max_examples=300, deadline=None)
@given(_FUZZ)
def test_malformed_text_raises_only_parse_errors(text):
    # no exponent of three or more digits: 3^333 is valid and slow to print
    assume(not re.search(r"\d{3}", text))
    for read in (
        coeff_parse,
        parse_rational,
        lambda t: parse_ode(f"vars a, b_; a' = {t}; b_' = 1"),
    ):
        try:
            read(text)
        except ParseError:
            pass


def test_rk22_takes_any_coefficient_text():
    def series(spec):
        return series_to_json_dict(rk_series(builtin_tableau(spec), 4))

    assert series("rk22(alpha+1)") == series("rk22(1+alpha)")
    assert series("rk22(2^-1)") == series("rk22(1/2)")
    # the argument is everything between "rk22(" and the last ")"
    assert series("rk22((1+alpha)/2)") == series("rk22(1/2+alpha/2)")


@pytest.mark.parametrize("spec", ["rk22(()", "rk22()", "rk22(1))"])
def test_rk22_argument_errors_are_parse_errors(spec):
    with pytest.raises(ParseError):
        builtin_tableau(spec)


@pytest.mark.parametrize(
    "text",
    ["0.5", "1e3", "a", "1/0", "0^-1", "", "1" * 5000],
    ids=["decimal", "exponent", "name", "div0", "pow0", "empty", "long"],
)
def test_parse_rational_refuses_what_coefficients_refuse(text):
    with pytest.raises(ParseError):
        parse_rational(text)


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no integer digit limit")
def test_over_long_literals_are_refused_with_a_position():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError, match=f"{limit + 1} digits") as exc_info:
        coeff_parse("2 + " + "9" * (limit + 1))
    assert exc_info.value.column == 5
    # at the limit a literal still reads
    assert coeff_parse("1" * limit) == int("1" * limit)


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no integer digit limit")
@pytest.mark.parametrize(
    "text,line,column",
    [
        ("vars x; param a = 10^5000; x' = a*x", 1, 32),
        ("vars x; x' = 10^5000", 1, 13),
        ("vars x\nx' = x*10^5000 + 1", 2, 5),
    ],
    ids=["param", "constant", "product"],
)
def test_constants_too_long_to_print_are_parse_errors(text, line, column):
    # a valid value whose integer has more digits than CPython writes out
    with pytest.raises(ParseError, match="digits") as exc_info:
        parse_ode(text)
    assert (exc_info.value.line, exc_info.value.column) == (line, column)


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no integer digit limit")
@pytest.mark.parametrize(
    "parse,text",
    [
        (coeff_parse, "2^99999999999"),
        (coeff_parse, "1 + (3/2)^-99999999999"),
        (parse_rational, "10^(99999999999)"),
        (parse_ode, "vars y\nparam p = 2^99999999999\ny' = p*y"),
        (parse_ode, "vars y\nparam p = 2\ny' = p^99999999999*y"),
        (parse_ode, "vars y\ny' = (2*y)^99999999999"),
    ],
)
def test_a_numeric_power_past_the_digit_limit_is_refused_before_it_is_computed(parse, text):
    # computing 2^99999999999 runs for minutes; the refusal reads bit lengths
    start = perf_counter()
    with pytest.raises(ParseError, match="exponent -?99999999999 has more than"):
        parse(text)
    assert perf_counter() - start < 0.5


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no integer digit limit")
@pytest.mark.parametrize(
    "text,column",
    [
        ("(2*alpha)^99999999999", 10),
        ("(1 + alpha)^99999999999", 12),
        ("1 + (alpha - beta)^-99999999999", 19),
    ],
)
def test_a_symbolic_power_too_large_to_expand_is_refused_at_its_caret(text, column):
    # the expansion is bounded from the base's terms before it is computed;
    # each of these never returned
    start = perf_counter()
    with pytest.raises(ParseError, match="exponent -?[0-9]+ may have more than") as exc_info:
        coeff_parse(text)
    assert perf_counter() - start < 0.5
    assert (exc_info.value.line, exc_info.value.column) == (None, column)


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no integer digit limit")
@pytest.mark.parametrize(
    "text,column",
    [
        ("vars y\nparam a = 2^99999999999\ny' = a*y", 12),
        ("vars y\ny' = (2*y)^99999999999", 11),
    ],
    ids=["param", "right-hand side"],
)
def test_a_huge_constant_power_in_an_ode_is_refused_at_its_caret(text, column):
    with pytest.raises(ParseError, match="exponent 99999999999 has more than") as exc_info:
        parse_ode(text)
    assert (exc_info.value.line, exc_info.value.column) == (2, column)


def test_a_symbol_to_a_huge_power_is_still_read():
    assert coeff_print(coeff_parse("alpha^99999999999")) == "alpha^99999999999"
    assert coeff_parse("1^99999999999 + (-1)^99999999999") == 0


def test_a_power_is_refused_past_ten_times_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        # 2^20000 has 6,021 digits, 2^22000 has 6,623: the first is computed
        # (and refused where it is printed), the second never is
        assert coeff_parse("2^20000") == 2**20000
        with pytest.raises(ParseError, match="more than 6400 digits"):
            coeff_parse("2^22000")
    finally:
        sys.set_int_max_str_digits(limit)
