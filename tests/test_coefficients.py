import operator
import sys
from fractions import Fraction
from math import gcd, log10
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import bsharp.symbolic as symbolic_module
from bsharp.coefficients import (
    coeff_div,
    coeff_eval,
    coeff_parse,
    coeff_pow,
    coeff_print,
    coeff_symbols,
)
from bsharp.errors import CoefficientError, ParseError, UnboundSymbolError
from bsharp.symbolic import RationalFunction, symbol

ALPHA = symbol("alpha")
BETA = symbol("beta")


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

rationals = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 20)
)


@st.composite
def coefficients(draw):
    """Small rational functions in alpha and beta."""
    c = draw(rationals)
    value = c
    for _ in range(draw(st.integers(0, 3))):
        sym = draw(st.sampled_from([ALPHA, BETA]))
        op = draw(st.sampled_from([operator.add, operator.mul, operator.sub]))
        value = op(value, sym * draw(rationals))
    if draw(st.booleans()):
        den = coeff_pow(ALPHA, 2) + draw(st.integers(1, 5))
        value = coeff_div(value, den)
    return value


@given(coefficients(), coefficients(), coefficients())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert not a + -a
    assert a - b == a + -b


@given(coefficients(), coefficients())
def test_division_inverts_multiplication(a, b):
    if not b:
        with pytest.raises(CoefficientError):
            coeff_div(a, b)
    else:
        assert coeff_div(a, b) * b == a


@given(coefficients())
def test_pow_matches_repeated_product(a):
    assert coeff_pow(a, 0) == 1
    assert coeff_pow(a, 3) == a * (a * a)
    if a:
        assert coeff_pow(a, -2) * coeff_pow(a, 2) == 1


def test_plain_rationals_stay_plain():
    # arithmetic on symbol-free coefficients never wraps them
    out = coeff_div(Fraction(1, 3) + Fraction(1, 6), 2)
    assert out == Fraction(1, 4)
    assert not isinstance(out, RationalFunction)
    # and collapsing works: alpha/alpha is the plain 1
    assert coeff_div(ALPHA, ALPHA) == 1


def test_equality_ignores_unreduced_form():
    # numerator and denominator share the factor (alpha - 1); the printed
    # form keeps it, equality sees through it
    q = coeff_div(coeff_pow(ALPHA, 2) - 1, ALPHA - 1)
    assert coeff_print(q) == "(alpha^2 - 1)/(alpha - 1)"
    assert q == ALPHA + 1
    assert coeff_eval(q, {"alpha": Fraction(3)}) == 4


def test_common_monomial_factor_is_stripped():
    # denominators built from repeated symbol multiplication shed the shared
    # monomial: (2a^9 - 3a^8 + a^7) / 48a^9 -> (2a^2 - 3a + 1) / 48a^2
    num = coeff_pow(ALPHA, 7) * (2 * coeff_pow(ALPHA, 2) - 3 * ALPHA + 1)
    q = coeff_div(num, 48 * coeff_pow(ALPHA, 9))
    assert coeff_print(q) == "(2*alpha^2 - 3*alpha + 1)/(48*alpha^2)"


def test_symbols_and_eval():
    q = coeff_div(BETA, 8 * ALPHA)
    assert coeff_symbols(q) == {"alpha", "beta"}
    assert coeff_symbols(Fraction(5)) == frozenset()
    assert coeff_eval(q, {"alpha": Fraction(1, 2), "beta": Fraction(3)}) == Fraction(3, 4)
    with pytest.raises(UnboundSymbolError):
        coeff_eval(q, {"alpha": Fraction(1)})
    with pytest.raises(CoefficientError):
        coeff_eval(coeff_div(1, ALPHA), {"alpha": Fraction(0)})


# ---------------------------------------------------------------------------
# integer arithmetic against the Fraction-coefficient oracle
# ---------------------------------------------------------------------------

# An operand is a bare symbol, a rational scalar, or a polynomial with more
# than one term (so that denominators stop being monomials).
def operands_over(names):
    return st.one_of(
        st.tuples(st.just("symbol"), st.sampled_from(names)),
        st.tuples(st.just("scalar"), st.integers(-9, 9), st.integers(1, 6)),
        st.tuples(
            st.just("binomial"), st.sampled_from(names),
            st.integers(1, 2), st.integers(-3, 3).filter(bool),
        ),
    )


def chains_over(names):
    steps = st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), operands_over(names), st.booleans()),
        st.tuples(st.just("pow"), st.integers(-2, 3), st.just(False)),
    )
    return st.tuples(operands_over(names), st.lists(steps, max_size=6))


def _operand(spec, sym, scalar):
    """Build ``spec`` from a symbol constructor and a scalar constructor."""
    if spec[0] == "symbol":
        return sym(spec[1])
    if spec[0] == "scalar":
        return scalar(spec[1], spec[2])
    _, name, degree, k = spec
    return sym(name) ** degree + k


_OLD_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}
_NEW_OPS = {**_OLD_OPS, "div": coeff_div}


def run_chain(start, chain):
    """Apply ``chain`` to the package arithmetic and to the oracle side by
    side; yield both values after every step.  Steps that would divide by
    zero are skipped on both sides."""
    new = _operand(start, symbol, Fraction)
    old = _operand(start, oracles.oracle_symbol, Fraction)
    yield new, old
    for op, arg, swap in chain:
        if op == "pow":
            if arg < 0 and not new:
                continue
            new, old = coeff_pow(new, arg), old ** arg
        else:
            b_new = _operand(arg, symbol, Fraction)
            b_old = _operand(arg, oracles.oracle_symbol, Fraction)
            a_new, a_old = new, old
            if swap:
                a_new, b_new, a_old, b_old = b_new, a_new, b_old, a_old
            if op == "div" and not b_new:
                continue
            new, old = _NEW_OPS[op](a_new, b_new), _OLD_OPS[op](a_old, b_old)
        yield new, old


# with three symbols, operands over different symbol tuples meet more often
chains = st.one_of(chains_over(["alpha", "beta"]), chains_over(["alpha", "beta", "gamma"]))


@settings(max_examples=150, deadline=None)
@given(chains)
def test_arithmetic_matches_the_fraction_oracle(chain):
    for new, old in run_chain(*chain):
        assert isinstance(new, RationalFunction) == isinstance(old, oracles.RationalFunction)
        text = oracles.oracle_print(old)
        assert coeff_print(new) == text
        assert coeff_print(new, "latex") == oracles.oracle_print(old, "latex")
        assert new == coeff_parse(text)


def _leading(terms):
    return terms[max(terms, key=lambda e: (sum(e), e))]


def assert_normal_form(rf):
    symbols, num, den = rf.symbols, rf.num, rf.den
    coeffs = list(num.values()) + list(den.values())
    assert all(type(c) is int for c in coeffs)
    assert gcd(*coeffs) == 1
    assert _leading(den) > 0
    # one sorted symbol tuple, each symbol used by the numerator or the
    # denominator, and both term dicts over all of it
    assert list(symbols) == sorted(set(symbols))
    assert all(len(e) == len(symbols) for e in [*num, *den])
    assert all(any(e[i] for e in [*num, *den]) for i in range(len(symbols)))
    for i in range(len(symbols)):  # no common monomial
        assert min(e[i] for e in num) == 0 or min(e[i] for e in den) == 0
    assert symbols  # constant over constant collapses


@settings(max_examples=150, deadline=None)
@given(chains)
def test_every_result_is_in_integer_normal_form(chain):
    for new, _ in run_chain(*chain):
        if isinstance(new, RationalFunction):
            assert_normal_form(new)
        else:
            assert type(new) in (int, Fraction)


def test_results_share_no_term_dict_with_an_operand():
    x = coeff_div(ALPHA + BETA, ALPHA + 1)
    held = [dict(x.num), dict(x.den)]
    for y in (x * 1, 1 * x, x / 1, x ** 1, x + 0, x - 0, x * (ALPHA / ALPHA)):
        assert y.num is not x.num and y.den is not x.den
        y.num.clear()
        y.den.clear()
    assert [x.num, x.den] == held


def test_public_constructors_accept_rational_coefficients():
    rf = RationalFunction(("a",), {(1,): Fraction(1, 3)}, {(0,): Fraction(2, 5)})
    old = oracles.RationalFunction(
        oracles.MultiPoly(("a",), {(1,): Fraction(1, 3)}),
        oracles.MultiPoly.constant(Fraction(2, 5)),
    )
    assert coeff_print(rf) == oracles.oracle_print(old) == "5*a/6"
    assert coeff_print(rf, "latex") == oracles.oracle_print(old, "latex")
    assert_normal_form(rf)
    # constant over constant stays a RationalFunction when built directly
    pair = RationalFunction((), {(): Fraction(1, 3)}, {(): Fraction(2, 5)})
    assert (pair.symbols, pair.num, pair.den) == ((), {(): 5}, {(): 6})
    assert pair == Fraction(5, 6)
    assert not RationalFunction(("a",), {}, {(0,): Fraction(1, 3)})
    # symbols may come in any order; zero terms are dropped and the symbols
    # no remaining term uses are pruned
    only_a = RationalFunction(("c", "b", "a"), {(0, 0, 1): 1, (0, 1, 0): 0}, {(0, 0, 0): 2})
    assert (only_a.symbols, only_a.num, only_a.den) == (("a",), {(1,): 1}, {(0,): 2})
    with pytest.raises(CoefficientError, match="zero denominator"):
        RationalFunction(("a",), {(1,): 1}, {(0,): 0})
    with pytest.raises(CoefficientError, match="repeated symbol"):
        RationalFunction(("a", "a"), {(1, 1): 1}, {(0, 0): 1})


def test_truth_value_and_equality_across_scalar_types():
    zero = RationalFunction(("a",), {}, {(0,): 3})
    assert not zero
    half = RationalFunction((), {(): Fraction(1, 2)}, {(): 1})
    one = RationalFunction((), {(): 2}, {(): 2})
    assert half and one and ALPHA
    values = [
        (0, "0"), (Fraction(0), "0"), (zero, "0"),
        (1, "1"), (Fraction(1), "1"), (one, "1"),
        (Fraction(1, 2), "1/2"), (half, "1/2"),
        (ALPHA, "alpha"), (coeff_parse("alpha^2/alpha"), "alpha"),
        (coeff_parse("(alpha^2 - 1)/(alpha - 1)"), "alpha + 1"), (ALPHA + 1, "alpha + 1"),
        (BETA, "beta"),
    ]
    for a, key_a in values:
        assert (not a) == (key_a == "0")
        for b, key_b in values:
            assert (a == b) is (b == a) is (key_a == key_b)


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no integer digit limit")
@pytest.mark.parametrize(
    "base",
    [2 * ALPHA, 1 + ALPHA, 1 / (ALPHA - BETA), (1 + ALPHA + BETA + symbol("gamma")) ** 12],
    ids=["2*alpha", "1+alpha", "1/(alpha-beta)", "455 terms"],
)
def test_a_power_too_large_to_expand_is_refused_before_it_is_computed(base):
    # the bound itself stays cheap: C(k + 454, 454) for a 4000-digit k took
    # seconds to compute
    start = perf_counter()
    for k, shown in (
        (99999999999, "exponent 99999999999"),
        (-99999999999, "exponent -99999999999"),
        (10**4000 - 1, "a 4000-digit exponent"),  # a digit count, not 4000 digits
    ):
        with pytest.raises(CoefficientError, match=f"{shown} may have more than"):
            base**k
    assert perf_counter() - start < 0.5


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no integer digit limit")
def test_a_power_too_large_in_all_is_refused_before_it_is_computed():
    # (1 + alpha)^3000 passes the bounds on its terms and on each
    # coefficient, yet has 3,001 terms of 1,950,728 digits in all and took
    # 6-8 s; terms times digits, (k + 1)·k·log10(2), bounds it at ten
    # times the limit
    bound = 100 * sys.get_int_max_str_digits()
    k = max(k for k in range(1, 10**4) if (k + 1) * k * log10(2) <= bound)
    start = perf_counter()
    for text in ("(1 + alpha)^3000", f"(1 + alpha)^{k + 1}"):
        with pytest.raises(ParseError, match=f"may have, in all, more than {bound} digits"):
            coeff_parse(text)
    assert perf_counter() - start < 0.1
    # just below the bound: k + 1 terms of up to k·log10(2) digits
    assert len(coeff_parse(f"(1 + alpha)^{k}").num) == k + 1


def test_a_power_of_many_terms_in_few_symbols_is_still_computed():
    # 28 terms to the 7 could give C(34, 7) = 5,379,616 terms, past the
    # limit, but two symbols of degree up to 42 allow 43^2 at most
    base = (ALPHA + BETA + 2) ** 6
    assert len(base.num) == 28
    assert base**7 == (ALPHA + BETA + 2) ** 42
    # and the other way round: exponents 0..50,000 apart, but two terms to
    # the 50 make 51
    assert len(((ALPHA**1000 + 1) ** 50).num) == 51


@pytest.mark.parametrize(
    "build,k",
    [
        (lambda s: s("alpha") + s("beta"), 100),
        (lambda s: (s("alpha") - 2 * s("beta")) / s("alpha"), 77),
        (lambda s: 1 / (s("alpha") + 1), -45),
        (lambda s: (s("alpha") + 1) / 3, 1),
        (lambda s: s("alpha") - 1, 0),
        (lambda s: s("alpha"), 3000000),
    ],
)
def test_powers_are_taken_by_repeated_squaring(monkeypatch, build, k):
    # numerator and denominator each take at most 2*k.bit_length() term-dict
    # products: multiplying k times made coeff_parse("alpha^3000000") take
    # seconds
    value = build(symbol)
    calls = []
    mul, power = symbolic_module._poly_mul, symbolic_module._poly_pow

    def counting_mul(a, b):
        calls[-1] += 1
        return mul(a, b)

    def counting_pow(t, k, width):
        calls.append(0)
        return power(t, k, width)

    monkeypatch.setattr(symbolic_module, "_poly_mul", counting_mul)
    monkeypatch.setattr(symbolic_module, "_poly_pow", counting_pow)
    got = coeff_pow(value, k)
    assert len(calls) == 2 and max(calls) <= 2 * k.bit_length()
    if k < 1000:
        assert coeff_print(got) == oracles.oracle_print(build(oracles.oracle_symbol) ** k)
    else:
        assert coeff_print(got) == f"alpha^{k}"


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "build,text",
    [
        (lambda: 1 - ALPHA, "-alpha + 1"),
        (lambda: coeff_div(1, 8 * ALPHA), "1/(8*alpha)"),
        (lambda: coeff_div(1, 48 * coeff_pow(ALPHA, 2)), "1/(48*alpha^2)"),
        (lambda: Fraction(-7, 2) * ALPHA, "-7*alpha/2"),
        (lambda: Fraction(-7, 2), "-7/2"),
        (lambda: Fraction(0), "0"),
        (lambda: coeff_pow(ALPHA - BETA, 2), "alpha^2 - 2*alpha*beta + beta^2"),
    ],
)
def test_text_rendering(build, text):
    assert coeff_print(build()) == text


@pytest.mark.parametrize(
    "source,latex",
    [
        ("1/(8*alpha)", r"\frac{1}{8 \alpha}"),
        ("-7/2", r"-\frac{7}{2}"),
        ("(3/4)/(alpha + 2)", r"\frac{3}{4 \alpha + 8}"),
        ("alpha*beta^2", r"\alpha \beta^{2}"),
        ("x1 + 2", r"x_{1} + 2"),
        ("alpha_1 + beta_x", r"\alpha_{1} + \beta_{x}"),
        ("h_step*theta2", r"h_{step} \theta_{2}"),
        ("x1y2 + chi", r"\chi + x1y_{2}"),
        ("_x*y_ + alpha_", r"\_x y\_ + alpha\_"),
        ("a_b_c + x__y", r"a_{b\_c} + x_{\_y}"),
    ],
)
def test_latex_rendering(source, latex):
    assert coeff_print(coeff_parse(source), "latex") == latex


def test_print_rejects_unknown_format():
    with pytest.raises(ValueError):
        coeff_print(Fraction(1), "html")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

@given(coefficients())
def test_print_parse_round_trip(c):
    assert coeff_parse(coeff_print(c)) == c


def test_parse_precedence_and_unary():
    assert coeff_parse("1 + 2*3^2") == 19
    assert coeff_parse("-3^2") == -9  # unary minus binds looser than ^
    assert coeff_parse("2^-2") == Fraction(1, 4)
    assert coeff_parse("2^(3)") == 8
    assert coeff_parse("alpha^2/alpha") == ALPHA
    assert coeff_parse("1/2/2") == Fraction(1, 4)  # left associative


@pytest.mark.parametrize(
    "text,column",
    [
        ("1 + @ + 2", 5),
        ("1/(8*", 6),
        ("(1+2", 5),
        ("2^alpha", 3),
        ("1//2", 3),
        ("3.5", 2),
    ],
)
def test_parse_errors_carry_positions(text, column):
    with pytest.raises(ParseError) as exc_info:
        coeff_parse(text)
    assert exc_info.value.column == column


def test_parse_empty_input():
    with pytest.raises(ParseError, match="empty"):
        coeff_parse("   ")


def test_symbol_names_are_validated():
    with pytest.raises(CoefficientError):
        symbol("2bad")
    with pytest.raises(CoefficientError):
        symbol("")
