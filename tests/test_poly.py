import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import coefficient_form, ref_poly_to_string, subs
from lra.algebra import AlgebraPres, Derivation
from lra.groebner import IdealPres, buchberger, normal_form
from lra.poly import (
    MPoly,
    _add_product,
    _Sum,
    PolyParseError,
    grevlex_key,
    lex_key,
    monomials_up_to,
    parse_poly,
    poly_to_string,
)

NAMES = ("x", "y", "z")


def small_polys(arity=2, max_terms=5, max_exp=4):
    coeffs = st.fractions(
        min_value=-6, max_value=6, max_denominator=4
    )
    exps = st.tuples(*([st.integers(0, max_exp)] * arity))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: MPoly(arity, terms)
    )


def test_zero_terms_dropped():
    p = MPoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p == MPoly(2, {(0, 1): 2})


@pytest.mark.parametrize(
    "value, expected", [(7, 7), (True, 1), (Fraction(4, 2), 2), (Fraction(-6, 4), Fraction(-3, 2))]
)
def test_coefficients_take_one_form(value, expected):
    """An integral coefficient is stored as an int, never as a bool or an integral Fraction."""
    (coeff,) = MPoly(1, {(1,): value}).terms.values()
    assert coeff == expected and type(coeff) is type(expected)


@pytest.mark.parametrize(
    "exp", [(1.5, 0), (2.0, 1), (Fraction(1), 0), ("1", 0), (None, 0), (1, -1)], ids=repr
)
def test_exponents_must_be_nonnegative_ints(exp):
    with pytest.raises(ValueError, match="exponent"):
        MPoly(2, {exp: 1})


def test_bool_exponents_are_stored_as_ints():
    p = MPoly(2, {(True, False): 3})
    ((exp, _),) = p.terms.items()
    assert exp == (1, 0) and [type(e) for e in exp] == [int, int]
    assert p == MPoly(2, {(1, 0): 3})


def test_arithmetic_basics():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x ** 2 - y ** 2
    assert (x - x).is_zero()
    assert (2 * x).terms[(1, 0)] == 2
    assert x * 0 == MPoly.zero(2)


def test_pow_and_partial():
    x = MPoly.variable(1, 0)
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    p = MPoly(2, {(2, 1): 1})  # x^2 y
    assert p.partial(0) == MPoly(2, {(1, 1): 2})
    assert p.partial(1) == MPoly(2, {(2, 0): 1})
    assert MPoly.one(2).partial(0).is_zero()


def test_subs_is_ring_morphism():
    """The substitution reference of ``conftest`` is a ring morphism."""
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    t = MPoly.variable(1, 0)
    images = [t, t ** 2]
    p, q = x * y + 1, x - y
    assert subs(p * q, images) == subs(p, images) * subs(q, images)
    assert subs(p + q, images) == subs(p, images) + subs(q, images)
    assert subs(MPoly.const(2, 3), images) == MPoly.const(1, 3)


def test_subs_reaches_powers_past_the_recursion_limit():
    x, y = MPoly.variable(1, 0), MPoly.variable(2, 1)
    image = Fraction(-1, 2) * y
    assert subs(x ** 1500, [image]) == image ** 1500
    assert subs(x ** 1500 + 3 * x ** 1499, [image]) == image ** 1500 + 3 * image ** 1499


def test_grevlex_order():
    # x^2 > xy > y^2 > x > y > 1 in two variables
    ranked = sorted([(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)], key=grevlex_key)
    assert ranked == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert lex_key((1, 0)) > lex_key((0, 5))


def test_monomials_up_to():
    monos = monomials_up_to(2, 2)
    assert len(monos) == 6
    assert set(monos) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


def test_parse_examples():
    p = parse_poly("2*x^2*y - 3/2*y + 1", NAMES[:2])
    assert p == MPoly(2, {(2, 1): 2, (0, 1): Fraction(-3, 2), (0, 0): 1})
    assert parse_poly("0", NAMES[:2]).is_zero()
    assert parse_poly("-x", ("x",)) == -MPoly.variable(1, 0)
    assert parse_poly("x*x", ("x",)) == MPoly.variable(1, 0) ** 2


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("2*x^", ("x",))
    assert err.value.column == 5
    with pytest.raises(PolyParseError, match="unknown variable"):
        parse_poly("q + 1", ("x",))
    with pytest.raises(PolyParseError):
        parse_poly("x 2", ("x",))
    with pytest.raises(PolyParseError):
        parse_poly("1/0", ("x",))


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("q + 1", "unknown variable 'q'", 1, 1),
        ("x*w", "unknown variable 'w'", 1, 3),
        ("x +\n  q", "unknown variable 'q'", 2, 3),
        ("1/0", "zero denominator", 1, 4),
        ("2/0*x", "zero denominator", 1, 4),
        ("x + 3/0", "zero denominator", 1, 8),
        ("x +\n\n  3/0*y", "zero denominator", 3, 6),
        ("2/x", "expected denominator", 1, 3),
        ("x^", "expected exponent", 1, 3),
        ("2*x^", "expected exponent", 1, 5),
        ("x^y", "expected exponent", 1, 3),
        ("x^-1", "expected exponent", 1, 3),
        ("x\n+ y^", "expected exponent", 2, 5),
        ("x + * y", "expected a coefficient or variable", 1, 5),
        ("x * + y", "expected a coefficient or variable", 1, 5),
        ("+x", "expected a coefficient or variable", 1, 1),
        ("*x", "expected a coefficient or variable", 1, 1),
        ("x +", "expected a coefficient or variable", 1, 4),
        ("x -- y", "expected a coefficient or variable", 1, 4),
        ("- -x", "expected a coefficient or variable", 1, 3),
        ("-", "expected a coefficient or variable", 1, 2),
        ("x / y", "expected '+' or '-'", 1, 3),
        ("x/2", "expected '+' or '-'", 1, 2),
        ("x^2^3", "expected '+' or '-'", 1, 4),
        ("1/2/3", "expected '+' or '-'", 1, 4),
        ("x 2", "expected '+' or '-'", 1, 3),
        ("2 x", "expected '+' or '-'", 1, 3),
        ("x $ y", "unexpected character '$'", 1, 3),
        ("x + 1.5", "unexpected character '.'", 1, 6),
        ("x\n\ny\t$", "unexpected character '$'", 3, 3),
        ("x + * $", "unexpected character '$'", 1, 7),
        ("\u0663*x", "unexpected character '\u0663'", 1, 1),
        ("x^\u0662", "unexpected character '\u0662'", 1, 3),
        ("x +\n\uff13", "unexpected character '\uff13'", 2, 1),
        ("x\u00a0+ y", "unexpected character '\\xa0'", 1, 2),
        ("x +\u2003y", "unexpected character '\\u2003'", 1, 4),
        ("x\x1c+ y", "unexpected character '\\x1c'", 1, 2),
        ("", "expected a coefficient or variable", 1, 1),
        ("   ", "expected a coefficient or variable", 1, 4),
    ],
)
def test_parse_error_text_and_position(text, message, line, column):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, NAMES)
    assert str(err.value) == "%s (line %d, column %d)" % (message, line, column)
    assert (err.value.line, err.value.column) == (line, column)


def _factor():
    """(text, polynomial) of one factor of the grammar, over NAMES."""
    number = st.tuples(st.integers(0, 5), st.sampled_from([None, 1, 2, 3])).map(
        lambda nd: ("%d" % nd[0], MPoly.const(3, nd[0]))
        if nd[1] is None
        else ("%d/%d" % nd, MPoly.const(3, Fraction(*nd)))
    )
    power = st.tuples(st.integers(0, 2), st.sampled_from([None, 0, 1, 2, 3])).map(
        lambda ve: (NAMES[ve[0]], MPoly.variable(3, ve[0]))
        if ve[1] is None
        else ("%s^%d" % (NAMES[ve[0]], ve[1]), MPoly.variable(3, ve[0]) ** ve[1])
    )
    return st.one_of(number, power)


@st.composite
def _term_strings(draw):
    """Random grammar text and the same polynomial built with MPoly arithmetic."""
    expected = MPoly.zero(3)
    pieces = []
    for n in range(draw(st.integers(1, 4))):
        factors = draw(st.lists(_factor(), min_size=1, max_size=4))
        term = MPoly.one(3)
        for _, value in factors:
            term = term * value
        sign = draw(st.sampled_from("+-"))
        body = "*".join(text for text, _ in factors)
        if n == 0:
            pieces.append(("-" if sign == "-" else "") + body)
        else:
            pieces.append(" %s %s" % (sign, body))
        expected = expected - term if sign == "-" else expected + term
        if draw(st.booleans()):  # the same term again with the other sign cancels it
            pieces.append(" %s %s" % ("+" if sign == "-" else "-", body))
            expected = expected + term if sign == "-" else expected - term
    return "".join(pieces), expected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_term_strings())
def test_parse_equals_arithmetic(case):
    text, expected = case
    assert parse_poly(text, NAMES) == expected


def test_parse_term_shapes():
    x, y = MPoly.variable(3, 0), MPoly.variable(3, 1)
    assert parse_poly("x*x^2*y", NAMES) == x ** 3 * y
    assert parse_poly("2*3/4*x", NAMES) == MPoly(3, {(1, 0, 0): Fraction(3, 2)})
    assert parse_poly("x^0", NAMES) == MPoly.one(3)
    assert parse_poly("0*x", NAMES).is_zero()
    assert parse_poly("x - x", NAMES).is_zero()
    assert parse_poly("-x^2 + y", NAMES) == y - x ** 2


def test_render_is_canonical():
    p = parse_poly("y + x^2 - 1/2", NAMES[:2])
    assert poly_to_string(p, NAMES[:2]) == "x^2 + y - 1/2"
    assert poly_to_string(MPoly.zero(2), NAMES[:2]) == "0"
    assert poly_to_string(-MPoly.one(2), NAMES[:2]) == "-1"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_polys(arity=3, max_exp=12), st.sampled_from(["grevlex", "grlex", "lex"]))
def test_render_matches_the_reference(p, order):
    assert poly_to_string(p, NAMES, order) == ref_poly_to_string(p, NAMES, order)


@given(small_polys())
def test_parse_render_round_trip(p):
    names = NAMES[:2]
    again = parse_poly(poly_to_string(p, names), names)
    assert again == p
    assert all(map(coefficient_form, again.terms.values()))


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@pytest.mark.parametrize("operand", [1.5, "x", None])
def test_non_exact_operands_raise_type_error(operand):
    p = MPoly.variable(2, 0)
    for op in (
        lambda: p + operand,
        lambda: operand + p,
        lambda: p - operand,
        lambda: operand - p,
        lambda: p * operand,
    ):
        with pytest.raises(TypeError, match="coefficients must be integers or Fractions"):
            op()


def test_exact_scalar_operands_work_on_both_sides():
    x = MPoly.variable(2, 0)
    half = Fraction(1, 2)
    assert x + 1 == 1 + x == MPoly(2, {(1, 0): 1, (0, 0): 1})
    assert x - half == -(half - x) == MPoly(2, {(1, 0): 1, (0, 0): -half})
    assert x * 3 == 3 * x == MPoly(2, {(1, 0): 3})
    assert x * half == half * x == MPoly(2, {(1, 0): half})
    assert x * 0 == 0 * x == MPoly.zero(2)


def _assert_trusted_result(result, *operands):
    """``result`` is what the validating constructor would build, and owns its dict."""
    assert result == MPoly(result.arity, result.terms)
    for exp, coeff in result.terms.items():
        assert type(exp) is tuple and len(exp) == result.arity
        assert all(e >= 0 for e in exp)
        assert coefficient_form(coeff) and coeff != 0
    for operand in operands:
        assert result.terms is not operand.terms


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    small_polys(max_terms=4, max_exp=3),
    small_polys(max_terms=4, max_exp=3),
    st.sampled_from([0, 1, -2, Fraction(3, 2)]),
    st.integers(0, 3),
)
def test_trusted_results_are_valid_and_fresh(p, q, scalar, power):
    checks = [
        (p + q, p, q), (p - q, p, q), (-p, p), (p * q, p, q),
        (p + scalar, p), (scalar + p, p), (p - scalar, p), (scalar - p, p),
        (p * scalar, p), (scalar * p, p), (p.scale(scalar), p),
        (p.partial(0), p), (p.partial(1), p), (p ** power, p),
        (p.lift(4, 1), p), (p.lift(2), p),
    ]
    x, y = MPoly.variable(2, 0), MPoly.variable(2, 1)
    ideal = IdealPres(2, [x ** 2 + y ** 2 - 1])
    checks.append((ideal.normal_form(p), p) + ideal.groebner)
    non_monic = [3 * x ** 2 + y, Fraction(2, 3) * x * y - 5]
    checks.append((normal_form(p, ideal.groebner), p) + ideal.groebner)
    checks.append((normal_form(p, non_monic), p, *non_monic))
    checks.append((normal_form(p, [MPoly.zero(2)]), p))
    # the integer completion kernel must leave its coefficients in the one form
    completed = buchberger([p, q, x * q - 1]) + buchberger([x ** 2 + y ** 2 - 1, x * y - p])
    checks += [(element, p, q) for element in completed]
    names = ("x", "y")
    checks.append((parse_poly(poly_to_string(p, names), names), p))
    for algebra in (AlgebraPres(("x", "y")), AlgebraPres(("x", "y"), ideal)):
        rotation = Derivation(algebra, [-y * q, x * q])
        for _ in range(2):  # the second reads the table
            image = rotation.apply(p)
            if list(p.terms.values()) == [1]:  # one monomial: the stored entry itself
                assert image is rotation._table[next(iter(p.terms))]
            else:
                checks.append((image, p, q) + rotation.images)
    # the kernel: a _Sum takes out += sign*a*b, onto an empty and a non-empty
    # sum, and its finished terms are start + sign*p*q
    one = {(0, 0): 1}
    for sign in (1, -1):
        for start in (MPoly.zero(2), p + q):
            out = _Sum()
            if start.terms:
                _add_product(out, one, start.terms)
            _add_product(out, p.terms, q.terms, sign)
            result = MPoly._raw(2, out.finish())
            assert result == start + (p * q).scale(sign)
            checks.append((result, p, q, start))
    out = _Sum()
    _add_product(out, p.terms, q.terms)
    _add_product(out, p.terms, q.terms, -1)
    assert out == {} and out.finish() == {}
    for result, *operands in checks:
        _assert_trusted_result(result, *operands)


def _rational_terms(arity=2):
    """Term dicts whose coefficients are ints and fractions over coprime
    denominators 2, 3, 5 and 7 and their products, in the coefficient form."""
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 5, 6, 7, 35]))
    exps = st.tuples(*([st.integers(0, 2)] * arity))
    return st.dictionaries(exps, coeffs, max_size=4).map(lambda terms: MPoly(arity, terms).terms)


# the scale of a product: a sign, as in most sums, or any nonzero rational,
# as a table sum uses to carry a term's coefficient; the kernel takes it as
# its numerator and denominator
_SCALES = st.sampled_from([1, -1, 3, Fraction(-2, 3), Fraction(5, 4)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(_rational_terms(), _rational_terms(), _SCALES), max_size=6), st.data())
def test_sum_of_products_matches_fraction_arithmetic(products, data):
    """A _Sum of scaled products equals the same sum taken term by term in
    Fraction arithmetic; each product may be followed by its negative, so
    whole sums cancel exactly."""
    sums = []
    for a, b, scale in products:
        sums.append((a, b, scale))
        if data.draw(st.booleans()):
            sums.append((a, b, -scale))
    out, expected, lcms = _Sum(), {}, {}
    for a, b, scale in sums:
        if a and b:
            _add_product(out, a, b, scale.numerator, scale.denominator)
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                expected[exp] = expected.get(exp, Fraction(0)) + scale * Fraction(c1) * Fraction(c2)
                lcms[exp] = math.lcm(lcms.get(exp, 1), c1.denominator * c2.denominator * scale.denominator)
    finished = out.finish()
    assert finished == {exp: c for exp, c in expected.items() if c}
    assert all(map(coefficient_form, finished.values()))
    for exp, (n, d) in out.items():  # an unreduced pair stays over the lcm of its terms
        assert n and d > 0 and lcms[exp] % d == 0


def test_integers_of_any_length_round_trip():
    """Digit strings past CPython's 4,300-digit conversion limit, on both sides
    of the 4,000-digit pieces the parser and the renderer split them into."""
    for digits in (3999, 4000, 4001, 4300, 4301, 9001):
        big = 10 ** (digits - 1) + 7
        p = MPoly(1, {(2,): -big, (1,): Fraction(3, big), (0,): Fraction(big, 11)})
        text = poly_to_string(p, ("x",))
        assert text.count("0") >= 3 * (digits - 2)
        assert parse_poly(text, ("x",)) == p
