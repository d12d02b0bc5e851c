import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsharp.coefficients import (
    RationalFunction,
    coeff_add,
    coeff_div,
    coeff_eq,
    coeff_eval,
    coeff_is_zero,
    coeff_mul,
    coeff_neg,
    coeff_parse,
    coeff_pow,
    coeff_print,
    coeff_sub,
    coeff_symbols,
    symbol,
)
from bsharp.errors import CoefficientError, ParseError, UnboundSymbolError
from bsharp.rationals import rat

ALPHA = symbol("alpha")
BETA = symbol("beta")


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

rationals = st.builds(
    rat, st.integers(-50, 50), st.integers(1, 20)
)


@st.composite
def coefficients(draw):
    """Small rational functions in alpha and beta."""
    c = draw(rationals)
    value = c
    for _ in range(draw(st.integers(0, 3))):
        sym = draw(st.sampled_from([ALPHA, BETA]))
        op = draw(st.sampled_from([coeff_add, coeff_mul, coeff_sub]))
        value = op(value, coeff_mul(sym, draw(rationals)))
    if draw(st.booleans()):
        den = coeff_add(coeff_pow(ALPHA, 2), rat(draw(st.integers(1, 5))))
        value = coeff_div(value, den)
    return value


@given(coefficients(), coefficients(), coefficients())
def test_ring_axioms(a, b, c):
    assert coeff_eq(coeff_add(a, b), coeff_add(b, a))
    assert coeff_eq(coeff_mul(a, b), coeff_mul(b, a))
    assert coeff_eq(coeff_add(coeff_add(a, b), c), coeff_add(a, coeff_add(b, c)))
    assert coeff_eq(coeff_mul(coeff_mul(a, b), c), coeff_mul(a, coeff_mul(b, c)))
    assert coeff_eq(
        coeff_mul(a, coeff_add(b, c)),
        coeff_add(coeff_mul(a, b), coeff_mul(a, c)),
    )
    assert coeff_is_zero(coeff_add(a, coeff_neg(a)))
    assert coeff_eq(coeff_sub(a, b), coeff_add(a, coeff_neg(b)))


@given(coefficients(), coefficients())
def test_division_inverts_multiplication(a, b):
    if coeff_is_zero(b):
        with pytest.raises(CoefficientError):
            coeff_div(a, b)
    else:
        assert coeff_eq(coeff_mul(coeff_div(a, b), b), a)


@given(coefficients())
def test_pow_matches_repeated_product(a):
    assert coeff_eq(coeff_pow(a, 0), rat(1))
    assert coeff_eq(coeff_pow(a, 3), coeff_mul(a, coeff_mul(a, a)))
    if not coeff_is_zero(a):
        assert coeff_eq(coeff_mul(coeff_pow(a, -2), coeff_pow(a, 2)), rat(1))


def test_plain_rationals_stay_plain():
    # arithmetic on symbol-free coefficients never wraps them
    out = coeff_div(coeff_add(rat(1, 3), rat(1, 6)), rat(2))
    assert out == rat(1, 4)
    assert not isinstance(out, RationalFunction)
    # and collapsing works: alpha/alpha is the plain 1
    assert coeff_div(ALPHA, ALPHA) == rat(1)


def test_equality_ignores_unreduced_form():
    # numerator and denominator share the factor (alpha - 1); the printed
    # form keeps it, equality sees through it
    q = coeff_div(coeff_sub(coeff_pow(ALPHA, 2), rat(1)), coeff_sub(ALPHA, rat(1)))
    assert coeff_print(q) == "(alpha^2 - 1)/(alpha - 1)"
    assert coeff_eq(q, coeff_add(ALPHA, rat(1)))
    assert coeff_eval(q, {"alpha": rat(3)}) == rat(4)


def test_common_monomial_factor_is_stripped():
    # denominators built from repeated symbol multiplication shed the shared
    # monomial: (2a^9 - 3a^8 + a^7) / 48a^9 -> (2a^2 - 3a + 1) / 48a^2
    num = coeff_mul(
        coeff_pow(ALPHA, 7),
        coeff_add(coeff_sub(coeff_mul(rat(2), coeff_pow(ALPHA, 2)), coeff_mul(rat(3), ALPHA)), rat(1)),
    )
    q = coeff_div(num, coeff_mul(rat(48), coeff_pow(ALPHA, 9)))
    assert coeff_print(q) == "(2*alpha^2 - 3*alpha + 1)/(48*alpha^2)"


def test_symbols_and_eval():
    q = coeff_div(BETA, coeff_mul(rat(8), ALPHA))
    assert coeff_symbols(q) == {"alpha", "beta"}
    assert coeff_symbols(rat(5)) == frozenset()
    assert coeff_eval(q, {"alpha": rat(1, 2), "beta": rat(3)}) == rat(3, 4)
    with pytest.raises(UnboundSymbolError):
        coeff_eval(q, {"alpha": rat(1)})
    with pytest.raises(CoefficientError):
        coeff_eval(coeff_div(rat(1), ALPHA), {"alpha": rat(0)})


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "build,text",
    [
        (lambda: coeff_sub(rat(1), ALPHA), "-alpha + 1"),
        (lambda: coeff_div(rat(1), coeff_mul(rat(8), ALPHA)), "1/(8*alpha)"),
        (lambda: coeff_div(rat(1), coeff_mul(rat(48), coeff_pow(ALPHA, 2))), "1/(48*alpha^2)"),
        (lambda: coeff_mul(rat(-7, 2), ALPHA), "-7*alpha/2"),
        (lambda: rat(-7, 2), "-7/2"),
        (lambda: rat(0), "0"),
        (lambda: coeff_pow(coeff_sub(ALPHA, BETA), 2), "alpha^2 - 2*alpha*beta + beta^2"),
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
    ],
)
def test_latex_rendering(source, latex):
    assert coeff_print(coeff_parse(source), "latex") == latex


def test_print_rejects_unknown_format():
    with pytest.raises(ValueError):
        coeff_print(rat(1), "html")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

@given(coefficients())
def test_print_parse_round_trip(c):
    assert coeff_eq(coeff_parse(coeff_print(c)), c)


def test_parse_precedence_and_unary():
    assert coeff_parse("1 + 2*3^2") == rat(19)
    assert coeff_parse("-3^2") == rat(-9)  # unary minus binds looser than ^
    assert coeff_parse("2^-2") == rat(1, 4)
    assert coeff_parse("2^(3)") == rat(8)
    assert coeff_eq(coeff_parse("alpha^2/alpha"), ALPHA)
    assert coeff_parse("1/2/2") == rat(1, 4)  # left associative


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
