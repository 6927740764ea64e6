from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatobs.idealcalc import (
    GroebnerBasis,
    IdealError,
    _Kernel,
    _Reducers,
    buchberger,
    projective_dimension,
    standard_monomials,
)
from flatobs.polyring import MultiPoly, dehomogenize, monomials_of_degree, parse_poly

from corpus import hypersurface_corpus, ideal_corpus, segre_cubic
from oracles import (
    brute_standard_monomials,
    naive_add,
    naive_groebner,
    naive_lead,
    naive_mul,
    naive_normal_form,
    naive_quotient_dimension,
    naive_s_polynomial,
    subset_scan_dimension,
)

PRIME = 2**31 - 1


def P(text, arity):
    return parse_poly(text, arity)


# -- buchberger -------------------------------------------------------

def test_already_reduced_basis_of_variables():
    gb = buchberger([P("x0", 2), P("x1", 2)])
    assert set(gb.generators) == {P("x0", 2), P("x1", 2)}


def test_binomial_ideal_membership():
    # membership certificate: x0^4 = (x0^2-x1)(x0^2+x1) + x1^2
    f, g = P("x0^2-x1", 2), P("x1^2", 2)
    assert naive_add(naive_mul(f, P("x0^2+x1", 2)), g) == P("x0^4", 2)
    gb = buchberger([f, g])
    assert naive_normal_form(P("x0^4", 2), gb.generators).is_zero


def test_monomial_ideal_is_its_own_basis():
    gb = buchberger([P("x0^2", 2), P("x0*x1", 2)])
    assert set(gb.generators) == {P("x0^2", 2), P("x0*x1", 2)}


def test_rejects_zero_input():
    with pytest.raises(IdealError):
        buchberger([MultiPoly(2)])
    with pytest.raises(IdealError):
        buchberger([])


def test_mixed_arity_rejected():
    with pytest.raises(IdealError):
        buchberger([P("x0", 1), P("x0", 2)])


def assert_reduced(gb):
    leads = gb.leads
    assert leads == tuple(naive_lead(g) for g in gb.generators)
    for idx, g in enumerate(gb.generators):
        lm = leads[idx]
        assert g.terms[lm] == 1  # monic
        for mono in g.terms:
            assert not any(
                other != idx and all(l <= e for l, e in zip(leads[other], mono))
                for other in range(len(leads))
            )


def check_reduced_groebner(gens, modulus):
    gb = buchberger(gens, modulus=modulus)
    assert_reduced(gb)
    # Buchberger postcondition: every S-polynomial reduces to zero
    for i in range(len(gb.generators)):
        for j in range(i):
            s = naive_s_polynomial(gb.generators[i], gb.generators[j], modulus)
            if not s.is_zero:
                assert naive_normal_form(s, gb.generators, modulus).is_zero
    # idempotence
    gb2 = buchberger(list(gb.generators), modulus=modulus)
    assert gb2.generators == gb.generators
    # original generators are members
    for g in gens:
        assert naive_normal_form(g, gb.generators, modulus).is_zero


@pytest.mark.parametrize("name, gens", ideal_corpus())
def test_corpus_bases_are_reduced_groebner(name, gens):
    check_reduced_groebner(gens, None)


@pytest.mark.parametrize("name, gens", ideal_corpus())
def test_corpus_bases_mod_p_are_reduced_groebner(name, gens):
    check_reduced_groebner(gens, PRIME)


@pytest.mark.parametrize("name, gens", ideal_corpus())
def test_corpus_bases_match_naive_buchberger(name, gens):
    for modulus in (None, PRIME):
        expected = tuple(naive_groebner(gens, modulus))
        assert buchberger(gens, modulus).generators == expected


@pytest.mark.parametrize("modulus", [None, PRIME])
def test_jacobian_basis_matches_naive_buchberger(modulus):
    # the extendability ideal of a dense cubic surface; a criterion B that
    # drops pairs it must keep fails here, and only now and then on the
    # small draws below
    f = P("x0^3+x1^3+x2^3+x3^3+x0*x1*x2-2x1*x2*x3+x0^2*x3", 4)
    gens = [f.partial_derivative(i) for i in range(4)] + [f]
    expected = tuple(naive_groebner(gens, modulus))
    assert buchberger(gens, modulus).generators == expected


@st.composite
def small_ideals(draw):
    """1-3 generators in 2 or 3 variables, homogeneous or not, with a field."""
    arity = draw(st.integers(2, 3))
    homogeneous = draw(st.booleans())
    coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if homogeneous:
            support = monomials_of_degree(arity, draw(st.integers(1, 3)))
        else:  # degree <= 3 in 2 variables, <= 2 in 3
            support = [m for d in range(6 - arity) for m in monomials_of_degree(arity, d)]
        terms = draw(
            st.dictionaries(st.sampled_from(support), coefficients, min_size=1, max_size=3)
        )
        gens.append(MultiPoly(arity, terms))
    modulus = draw(st.sampled_from([None, 5, PRIME]))
    return gens, modulus


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_buchberger_matches_naive_buchberger(ideal):
    gens, modulus = ideal
    expected = tuple(naive_groebner(gens, modulus))
    if not expected:
        with pytest.raises(IdealError, match="vanishes"):
            buchberger(gens, modulus)
        return
    assert buchberger(gens, modulus).generators == expected


def test_divisor_memo_rechecks_misses_against_later_reducers():
    kernel = _Kernel(None)
    reducers = _Reducers()
    first = P("x0^2-x1", 2)
    reducers.append(dict(first.terms), (2, 0))
    f = P("x0^2*x1+x1^2+x0*x1", 2)
    before = kernel.reduce(f.terms, reducers)
    # x1^2 and x0*x1 have no divisor among the one reducer so far
    assert before == naive_normal_form(f, [first]).terms
    assert (0, 2) in before
    # the new reducer divides the cached miss x1^2
    second = P("x1^2-x0", 2)
    reducers.append(dict(second.terms), (0, 2))
    after = kernel.reduce(f.terms, reducers)
    assert (0, 2) not in after
    assert after == naive_normal_form(f, [first, second]).terms


KNOWN_BASES = [
    # (generators, arity, modulus, reduced basis, largest lead first)
    (["x0^2+x1^2-1", "x0-x1"], 2, None, ["x1^2-1/2", "x0-x1"]),
    (["x0^2+x1^2-1", "x0-x1"], 2, PRIME, ["x1^2+1073741823", "x0+2147483646x1"]),
    # determinant -3: two independent lines over Q, one line mod 3
    (["x0+x1", "x0-2x1"], 2, None, ["x0", "x1"]),
    (["x0+x1", "x0-2x1"], 2, 3, ["x0+x1"]),
    (["x0^2-x1", "x0^3-x1"], 2, 3, ["x0^2+2x1", "x0*x1+2x1", "x1^2+2x1"]),
    (["x0^2+x1*x2", "x1^2-x0*x2"], 3, None, ["x0^2+x1*x2", "x1^2-x0*x2"]),
]


@pytest.mark.parametrize("gens, arity, modulus, expected", KNOWN_BASES)
def test_known_reduced_bases(gens, arity, modulus, expected):
    gb = buchberger([P(g, arity) for g in gens], modulus=modulus)
    assert gb.generators == tuple(P(g, arity) for g in expected)
    assert gb.modulus == modulus


def test_modular_basis_rejects_prime_in_denominator():
    with pytest.raises(IdealError, match="denominator"):
        buchberger([P("1/3*x0+x1", 2)], modulus=3)
    with pytest.raises(IdealError, match="vanishes"):
        buchberger([P("3x0+6x1", 2)], modulus=3)


def test_modular_normal_form_reduces_input_mod_p():
    gb = buchberger([P("x0^2-x1", 2)], modulus=3)
    assert naive_normal_form(P("x0^3+1/2*x1", 2), gb.generators, 3) == P("x0*x1+2x1", 2)


# -- normal forms modulo a basis (the oracle's division algorithm) -----

def test_normal_form_single_division_step():
    gb = buchberger([P("x0^2-x1", 2)])
    assert naive_normal_form(P("x0^2*x1", 2), gb.generators) == P("x1^2", 2)


def test_normal_form_of_generators_is_zero():
    gens = [P("x0^2-x1", 2), P("x1^2", 2)]
    gb = buchberger(gens)
    for g in gb.generators:
        assert naive_normal_form(naive_mul(g, P("x0*x1", 2)), gb.generators).is_zero


def test_unit_not_in_maximal_ideal():
    gb = buchberger([P("x0", 3), P("x1", 3), P("x2", 3)])
    one = P("1", 3)
    assert naive_normal_form(one, gb.generators) == one


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
        max_size=4,
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
        max_size=4,
    ),
)
@settings(max_examples=40, deadline=None)
def test_normal_form_is_linear(t1, t2):
    gb = buchberger([P("x0^2-x1", 2), P("x1^3", 2)])
    p, q = MultiPoly(2, t1), MultiPoly(2, t2)
    lhs = naive_normal_form(naive_add(p, q, 3), gb.generators)
    rhs = naive_add(naive_normal_form(p, gb.generators), naive_normal_form(q, gb.generators), 3)
    assert lhs == rhs


# -- standard monomials ----------------------------------------------

def test_standard_monomials_box_staircase():
    gb = buchberger([P("x0^2", 2), P("x1^2", 2)])
    sm = standard_monomials(gb)
    assert sm == brute_standard_monomials([(2, 0), (0, 2)], 2, 4)
    assert len(sm) == 4


def test_standard_monomials_maximal_ideal():
    gb = buchberger([P("x0", 3), P("x1", 3), P("x2", 3)])
    assert standard_monomials(gb) == [(0, 0, 0)]


def test_standard_monomials_infinite_staircase_rejected():
    gb = buchberger([P("x0*x1", 2)])
    with pytest.raises(IdealError, match="infinite"):
        standard_monomials(gb)


def test_standard_monomials_unit_ideal_empty():
    gb = buchberger([P("x0-1", 1)])
    # gb of <x0 - 1> in one variable is not the unit ideal; use a real unit ideal
    gb = buchberger([P("x0", 1), P("x0-1", 1)])
    assert standard_monomials(gb) == []


# -- Artinian quotient dimension: a second route ----------------------

def segre_chart_ideals():
    """The dehomogenized Jacobian ideal of the Segre cubic in each of its 5 charts."""
    f = segre_cubic()
    partials = [f.partial_derivative(i) for i in range(5)]
    return [[dehomogenize(g, chart) for g in partials] for chart in range(5)]


@pytest.mark.parametrize("modulus", [None, PRIME])
@pytest.mark.parametrize("name, gens", ideal_corpus())
def test_corpus_quotient_dimension_matches_naive_staircase(name, gens, modulus):
    expected = naive_quotient_dimension(gens, modulus)
    gb = buchberger(gens, modulus)
    if expected is None:
        with pytest.raises(IdealError, match="infinite"):
            standard_monomials(gb)
    else:
        assert len(standard_monomials(gb)) == expected


@pytest.mark.parametrize("chart", range(5))
def test_segre_chart_degrees_match_naive_staircase(chart):
    # the numbers behind `chart_degrees` of the segre golden
    gens = segre_chart_ideals()[chart]
    assert len(standard_monomials(buchberger(gens))) == naive_quotient_dimension(gens) == 10


# -- projective dimension --------------------------------------------

def test_fermat_cubic_jacobian_is_empty_projectively():
    gens = [P(f"x{i}^2", 5) for i in range(5)]
    assert projective_dimension(buchberger(gens)) == -1


def test_linear_section_is_a_line():
    gens = [P("x0", 5), P("x1", 5), P("x2", 5)]
    assert projective_dimension(buchberger(gens)) == 1


def test_segre_jacobian_dimension_zero():
    f = segre_cubic()
    gens = [f.partial_derivative(i) for i in range(5)] + [f]
    gb = buchberger(gens)
    assert projective_dimension(gb) == 0
    # cross-check: in every affine chart the Jacobian quotient is Artinian
    for gens in segre_chart_ideals():
        standard_monomials(buchberger(gens))  # raises if the staircase were infinite


def test_projective_dimension_requires_homogeneous():
    gb = buchberger([P("x0^2-x1", 2)])
    with pytest.raises(IdealError, match="homogeneous"):
        projective_dimension(gb)


@pytest.mark.parametrize("arity, text", [(3, "x0^2+x1*x2"), (4, "x0^3"), (5, "x0*x1+x2*x3")])
def test_single_hypersurface_dimension(arity, text):
    gb = buchberger([P(text, arity)])
    assert projective_dimension(gb) == arity - 2


def lead_ideal(arity, leads):
    """The monomial ideal of `leads` as a basis, for `projective_dimension`."""
    return GroebnerBasis(tuple(MultiPoly(arity, {m: 1}) for m in leads), tuple(leads))


@st.composite
def lead_sets(draw):
    arity = draw(st.integers(1, 9))
    monomial = st.tuples(*[st.integers(0, 2)] * arity)
    return arity, draw(st.lists(monomial, min_size=1, max_size=8))


@given(lead_sets())
@settings(max_examples=300, deadline=None)
def test_projective_dimension_matches_subset_scan(lead_set):
    arity, leads = lead_set
    assert projective_dimension(lead_ideal(arity, leads)) == subset_scan_dimension(leads, arity)


def corpus_bases():
    """Every basis of the two corpora, over Q and mod p: ideals, and loci [df, f]."""
    ideals = [gens for _, gens in ideal_corpus()]
    ideals += [[*(f.partial_derivative(i) for i in range(f.arity)), f]
               for _, f in hypersurface_corpus()]
    return [buchberger(gens, modulus=p) for gens in ideals for p in (None, PRIME)]


def test_projective_dimension_matches_subset_scan_on_corpus_bases():
    bases = corpus_bases()
    assert len(bases) == 64
    for gb in bases:
        expected = subset_scan_dimension(gb.leads, gb.arity)
        assert projective_dimension(lead_ideal(gb.arity, gb.leads)) == expected
        if all(g.is_homogeneous for g in gb):
            assert projective_dimension(gb) == expected


# -- linalg cross-check -----------------------------------------------

@given(
    st.lists(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_exact_rank_matches_fraction_elimination(rows):
    from flatobs.linalg import exact_rank
    from oracles import brute_rank

    assert exact_rank(rows) == brute_rank(rows)


def test_exact_rank_rank_deficient_with_dependencies():
    from flatobs.linalg import exact_rank

    rows = [
        [1, 2, 3],
        [2, 4, 6],
        [Fraction(1, 2), 1, Fraction(3, 2)],
        [0, 1, 1],
    ]
    assert exact_rank(rows) == 2
