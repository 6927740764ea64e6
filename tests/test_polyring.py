import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatobs.polyring import (
    MultiPoly,
    ParseError,
    PolyringError,
    _coerce_scalar,
    clear_denominators,
    dehomogenize,
    monomial_divides,
    monomials_of_degree,
    parse_poly,
    restrict_to_hyperplane,
)

from oracles import (
    expand_linear_power,
    naive_add,
    naive_evaluate,
    naive_mul,
    zip_monomial_divides,
    zip_monomial_mul,
)


def x(arity, i):
    return parse_poly(f"x{i}", arity)


# -- strategies -------------------------------------------------------

coefficients = st.fractions(
    min_value=-9, max_value=9, max_denominator=7
).filter(lambda f: f != 0)


def monomials(arity, max_exp=3):
    return st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * arity)


def polys(arity, max_terms=5):
    return st.dictionaries(monomials(arity), coefficients, max_size=max_terms).map(
        lambda d: MultiPoly(arity, d)
    )


def homogeneous_polys(arity, degree, max_terms=4):
    monos = monomials_of_degree(arity, degree)
    return st.dictionaries(st.sampled_from(monos), coefficients, max_size=max_terms).map(
        lambda d: MultiPoly(arity, d)
    )


points = st.fractions(min_value=-5, max_value=5, max_denominator=4)

monomial_pairs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(monomials(n, 4), monomials(n, 4))
)


# -- monomial helpers -------------------------------------------------

@given(monomial_pairs)
@settings(max_examples=200, deadline=None)
def test_monomial_helpers_match_zip_oracles(pair):
    a, b = pair
    product = zip_monomial_mul(a, b)
    for x, y in ((a, b), (b, a), (a, product), (b, product), (product, a)):
        assert monomial_divides(x, y) is zip_monomial_divides(x, y)
    assert monomial_divides(a, product) and monomial_divides(b, product)


# -- parsing ----------------------------------------------------------

def test_parse_two_term_cubic():
    p = parse_poly("x0^3 + x1^3", 2)
    assert p.terms == {(3, 0): 1, (0, 3): 1}
    assert p.is_homogeneous and p.degree == 3


def test_parse_zero():
    p = parse_poly("0", 3)
    assert p.is_zero
    assert str(p) == "0"


def test_parse_segre_source():
    p = parse_poly("x0^3+x1^3+x2^3+x3^3+x4^3+x5^3", 6)
    assert len(p.terms) == 6
    assert all(c == 1 for c in p.terms.values())
    assert p.degree == 3 and p.is_homogeneous


def test_parse_rational_coefficients_and_separators():
    p = parse_poly("2/3*x0*x1^2 - x2 + 5", 3)
    assert p.terms == {(1, 2, 0): Fraction(2, 3), (0, 0, 1): -1, (0, 0, 0): 5}


def test_parse_implicit_multiplication_and_repeats():
    assert parse_poly("2x0x1", 2) == parse_poly("2*x0*x1", 2)
    assert parse_poly("x0x0", 1) == parse_poly("x0^2", 1)


def test_parse_leading_sign():
    assert parse_poly("-x0 + x1", 2) == parse_poly("x1 - x0", 2)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("x0 $ x1", "unexpected character"),
        ("x5", "out of range"),
        ("x0/2", "division is only allowed"),
        ("1/x0", "denominator"),
        ("1/0", "positive"),
        ("x0 + ", "expected a term"),
        ("", "empty"),
        ("x0^", "exponent"),
        ("2*3", "variable after '*'"),
        ("x0 x1 4", "expected '+' or '-'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_poly(text, 2)
    assert fragment in str(err.value)
    assert err.value.position >= 0


def test_parse_error_position_is_reported():
    with pytest.raises(ParseError) as err:
        parse_poly("x0 + x9", 2)
    assert err.value.position == 5


# -- arithmetic -------------------------------------------------------

def test_partial_derivative_power_rule():
    p = parse_poly("x0^2*x1", 2)
    assert p.partial_derivative(0) == parse_poly("2*x0*x1", 2)


def test_product_of_conjugates():
    p = naive_mul(parse_poly("x0+x1", 2), parse_poly("x0-x1", 2))
    assert p == parse_poly("x0^2-x1^2", 2)


def test_derivative_of_absent_variable():
    p = parse_poly("x0^3+x1^3", 3)
    assert p.partial_derivative(2).is_zero


def test_float_coefficients_rejected():
    with pytest.raises(PolyringError, match="floating-point"):
        MultiPoly(1, {(1,): 0.5})


@given(st.integers(min_value=1, max_value=4).flatmap(lambda d: homogeneous_polys(3, d)))
@settings(max_examples=60, deadline=None)
def test_euler_identity(p):
    # sum_i x_i * dp/dx_i == deg(p) * p for homogeneous p
    if p.is_zero:
        return
    total = MultiPoly(3)
    for i in range(3):
        total = naive_add(total, naive_mul(x(3, i), p.partial_derivative(i)))
    assert total == naive_add(MultiPoly(3), p, p.degree)


@given(polys(2))
@settings(max_examples=80, deadline=None)
def test_print_parse_round_trip(p):
    assert parse_poly(str(p), 2) == p
    assert str(parse_poly(str(p), 2)) == str(p)


# -- evaluation -------------------------------------------------------

def test_evaluate_pythagorean():
    p = parse_poly("x0^2+x1^2", 2)
    assert p.evaluate([3, 4]) == 25


def test_evaluate_origin_gives_constant_term():
    p = parse_poly("x0^2 + 7*x1 - 3/2", 2)
    assert p.evaluate([0, 0]) == Fraction(-3, 2)


def test_evaluate_length_mismatch():
    with pytest.raises(PolyringError, match="length"):
        parse_poly("x0", 2).evaluate([1])


def test_evaluate_accepts_strings():
    p = parse_poly("x0*x1", 2)
    assert p.evaluate(["2/3", "3"]) == 2


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), "-2/3", 0, 5]) == ([3, -4, 0, 30], 6)
    assert clear_denominators([1, -1]) == ([1, -1], 1)


def test_fraction_scalars_are_not_rewrapped():
    c = Fraction(-2, 3)
    assert _coerce_scalar(c) is c
    assert _coerce_scalar("-2/3") == c


@pytest.mark.parametrize("bad", ["abc", "1/0", None], ids=["text", "zero-denominator", "none"])
def test_evaluate_rejects_non_rational_coordinates(bad):
    with pytest.raises(PolyringError, match="not a rational number"):
        parse_poly("x0 + x1", 2).evaluate([bad, 1])


def test_evaluate_rejects_float_coordinates():
    with pytest.raises(PolyringError, match="floating-point"):
        parse_poly("x0 + x1", 2).evaluate([0.5, 1])


def wide_fractions(max_denominator):
    return st.fractions(min_value=-10**6, max_value=10**6, max_denominator=max_denominator)


coordinates = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=0, max_denominator=9),
    wide_fractions(10**15),
    wide_fractions(10**6).map(str),
)


@st.composite
def evaluation_cases(draw):
    """(p, point): p of arity 1-6 and degree <= 5, homogeneous or not, maybe 0."""
    arity = draw(st.integers(min_value=1, max_value=6))
    degree = draw(st.integers(min_value=0, max_value=5))
    low = degree if draw(st.booleans()) else 0
    monos = [m for d in range(low, degree + 1) for m in monomials_of_degree(arity, d)]
    terms = draw(st.dictionaries(st.sampled_from(monos), wide_fractions(10**9), max_size=8))
    point = draw(st.lists(coordinates, min_size=arity, max_size=arity))
    return MultiPoly(arity, terms), point


@given(evaluation_cases())
@example((MultiPoly(3), [Fraction(-2, 7), "1/3", 0]))
@example((MultiPoly(1, {(0,): Fraction(5, 3)}), [Fraction(-2, 7)]))
@example((parse_poly("x0^2 + x1 + 1", 2), [Fraction(1, 2), Fraction(1, 3)]))  # needs q^(top-|m|)
@settings(max_examples=150, deadline=None)
def test_evaluate_matches_naive_fraction_route(case):
    p, point = case
    value = p.evaluate(point)
    assert type(value) is Fraction
    assert value == naive_evaluate(p, point)


# -- restriction ------------------------------------------------------

@st.composite
def restriction_cases(draw):
    """(p, hyperplane coefficients, eliminated index): p homogeneous in arity 3-6."""
    arity = draw(st.integers(min_value=3, max_value=6))
    degree = draw(st.integers(min_value=0, max_value=4))
    monos = st.sampled_from(monomials_of_degree(arity, degree))
    p = MultiPoly(arity, draw(st.dictionaries(monos, coefficients, max_size=6)))
    eliminated = draw(st.integers(min_value=0, max_value=arity - 1))
    hcoeffs = draw(st.lists(st.one_of(st.just(0), coefficients), min_size=arity, max_size=arity))
    hcoeffs[eliminated] = draw(coefficients)
    return p, hcoeffs, eliminated


@given(restriction_cases())
@example((parse_poly("x0^3+x1^3+x2^3+x3^3+x4^3+x5^3", 6), [1] * 6, 5))  # the Segre cubic
@settings(max_examples=100, deadline=None)
def test_restrict_segre_cubic_matches_multinomial_oracle(case):
    # independent oracle: expand each term's power of the substitution by
    # multinomial enumeration and sum the products
    p, hcoeffs, eliminated = case
    arity = p.arity
    hyperplane = MultiPoly(
        arity, {tuple(int(i == j) for i in range(arity)): c for j, c in enumerate(hcoeffs)}
    )
    ce = Fraction(hcoeffs[eliminated])
    substitution = [-Fraction(c) / ce for j, c in enumerate(hcoeffs) if j != eliminated]
    expected = []
    for mono, c in p.terms.items():
        reduced = mono[:eliminated] + mono[eliminated + 1 :]
        for m, v in expand_linear_power(substitution, mono[eliminated]).items():
            expected.append((zip_monomial_mul(reduced, m), c * v))
    got = restrict_to_hyperplane(p, hyperplane, eliminated)
    assert got == MultiPoly(arity - 1, expected)
    assert got.is_homogeneous and got.degree in (None, p.degree)


def test_restrict_high_power_is_fast():
    # L^139 in three variables has C(141, 2) = 9 870 terms
    p = parse_poly("x0^139", 4)
    h = parse_poly("x0+2*x1+3*x2+5*x3", 4)
    start = time.perf_counter()
    got = restrict_to_hyperplane(p, h, 0)
    assert time.perf_counter() - start < 3.0
    assert len(got.terms) == 9870


def test_restrict_untouched_variable():
    p = parse_poly("x0^2", 2)
    h = parse_poly("x1", 2)
    assert restrict_to_hyperplane(p, h, 1) == parse_poly("x0^2", 1)


def test_restrict_single_substitution():
    p = parse_poly("x0*x5", 6)
    h = parse_poly("x5 + x0", 6)  # x5 = -x0
    assert restrict_to_hyperplane(p, h, 5) == parse_poly("-x0^2", 5)


def test_restrict_rejects_bad_hyperplanes():
    p = parse_poly("x0^2", 3)
    with pytest.raises(PolyringError, match="arity mismatch"):
        restrict_to_hyperplane(p, parse_poly("x0+x1", 2), 0)
    with pytest.raises(PolyringError, match="zero coefficient"):
        restrict_to_hyperplane(p, parse_poly("x0+x1", 3), 2)
    with pytest.raises(PolyringError, match="linear"):
        restrict_to_hyperplane(p, parse_poly("x0^2", 3), 0)
    with pytest.raises(PolyringError, match="linear"):
        restrict_to_hyperplane(p, parse_poly("x0+1", 3), 0)


@given(polys(3), st.tuples(coefficients, coefficients, coefficients), points, points)
@settings(max_examples=50, deadline=None)
def test_restrict_commutes_with_evaluate(p, hcoeffs, a, b):
    arity = 3
    eliminated = 2
    h = MultiPoly(
        arity,
        {tuple(1 if i == j else 0 for i in range(arity)): c for j, c in enumerate(hcoeffs)},
    )
    restricted = restrict_to_hyperplane(p, h, eliminated)
    # lift (a, b) to the hyperplane: solve for the eliminated coordinate
    ce = hcoeffs[2]
    lifted = [a, b, (-hcoeffs[0] * a - hcoeffs[1] * b) / ce]
    assert restricted.evaluate([a, b]) == p.evaluate(lifted)


# -- dehomogenize -----------------------------------------------------

def test_dehomogenize_basic():
    p = parse_poly("x0^2 + x0*x1 + x1^2", 2)
    assert dehomogenize(p, 0) == parse_poly("x0^2 + x0 + 1", 1)


def test_dehomogenize_collision_accumulates():
    p = parse_poly("x0^2*x1 + x0*x1", 2)  # inhomogeneous: both map to x1 coeff 2
    assert dehomogenize(p, 0) == parse_poly("2*x0", 1)


# -- monomial enumeration --------------------------------------------

def test_monomials_of_degree_order_and_count():
    ms = monomials_of_degree(2, 2)
    assert ms == [(2, 0), (1, 1), (0, 2)]
    assert len(monomials_of_degree(5, 1)) == 5
    assert len(monomials_of_degree(5, 3)) == 35  # C(3+4, 4)
