import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatobs import singular
from flatobs.idealcalc import buchberger, projective_dimension
from flatobs.polyring import MultiPoly, monomials_of_degree, parse_poly, restrict_to_hyperplane
from flatobs.singular import (
    CERTIFICATE_PRIME,
    NODE,
    NON_NODE_ISOLATED,
    UNVERIFIED,
    ProjectivePoint,
    SingularError,
    analyze_singularities,
    extendability,
    jacobian_ideal,
)

from corpus import hypersurface_corpus, load_bench_module, segre_cubic, segre_nodes
from oracles import brute_rank, expand_linear_power, naive_chart_degrees


def P(text, arity):
    return parse_poly(text, arity)


# -- ProjectivePoint ---------------------------------------------------

def test_point_normalization_and_equality():
    p = ProjectivePoint([0, 2, -4])
    assert p == (0, 1, -2)
    assert p == ProjectivePoint(["0", "-1/2", "1"])
    assert len({p, ProjectivePoint([0, 2, -4])}) == 1
    assert str(ProjectivePoint(["-2", "1", "0"])) == "(1 : -1/2 : 0)"


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@given(
    st.lists(rationals, min_size=1, max_size=5).filter(any),
    rationals.filter(bool),
)
@settings(max_examples=100, deadline=None)
def test_point_is_its_normalized_tuple(v, c):
    p = ProjectivePoint(v)
    assert ProjectivePoint([c * x for x in v]) == p
    pivot = next(x for x in v if x)
    normalized = tuple(x / pivot for x in v)
    assert p == normalized and hash(p) == hash(normalized)
    assert next(x for x in p if x) == 1
    assert str(p) == "(" + " : ".join(str(x) for x in normalized) + ")"


def test_point_rejects_zero_vector():
    with pytest.raises(SingularError):
        ProjectivePoint([0, 0, 0])


def test_point_accepts_rational_strings():
    p = ProjectivePoint(["2/3", "1", "-1"])
    assert p == (1, Fraction(3, 2), Fraction(-3, 2))


@pytest.mark.parametrize("bad", ["abc", "1/0", None], ids=["text", "zero-denominator", "none"])
def test_point_rejects_non_rational_coordinates(bad):
    with pytest.raises(SingularError, match="rational numbers"):
        ProjectivePoint([bad, "1"])


def test_point_rejects_float_coordinates():
    # a float would become a binary fraction: 0.1 is 3602879701896397/2^55
    with pytest.raises(SingularError, match=r"floating-point value 0\.1 is not allowed") as err:
        ProjectivePoint([0.1, 1])
    assert err.value.code == "singular.invalid"


# -- jacobian ideal ----------------------------------------------------

def test_fermat_jacobian():
    f = P("x0^3+x1^3+x2^3+x3^3+x4^3", 5)
    partials = jacobian_ideal(f)
    assert partials == [P(f"3x{i}^2", 5) for i in range(5)]


def test_segre_jacobian_matches_independent_expansion():
    f = segre_cubic()
    partials = jacobian_ideal(f)
    # oracle: d/dxi [sum xj^3 - (sum xj)^3] = 3xi^2 - 3*(sum xj)^2
    square = expand_linear_power([1] * 5, 2)
    for i, g in enumerate(partials):
        expected_terms = {m: -3 * c for m, c in square.items()}
        mono = tuple(2 if j == i else 0 for j in range(5))
        expected_terms[mono] = expected_terms.get(mono, Fraction(0)) + 3
        assert g == MultiPoly(5, expected_terms)
        assert g.degree == 2


def test_linear_form_jacobian_is_constants():
    partials = jacobian_ideal(P("x0+2x1", 2))
    assert partials == [P("1", 2), P("2", 2)]


def test_jacobian_rejects_bad_input():
    with pytest.raises(SingularError):
        jacobian_ideal(MultiPoly(2))
    with pytest.raises(SingularError):
        jacobian_ideal(P("x0^2+x1", 2))


# -- analyze_singularities ----------------------------------------------

def test_segre_ten_nodes_complete():
    report = analyze_singularities(segre_cubic(), segre_nodes())
    assert report.locus_dimension == 0
    assert len(report.points) == 10
    assert all(cls == NODE for _, cls in report.points)
    assert report.complete is True
    assert report.jacobian_quotient_degree == 10
    # every node is visible in every chart, so each chart accounts for all 10
    assert report.chart_degrees == (10, 10, 10, 10, 10)


def test_segre_node_certificate_is_exact():
    # re-verify the certificate ingredients directly
    f = segre_cubic()
    partials = jacobian_ideal(f)
    for pt in segre_nodes():
        assert f.evaluate(pt) == 0
        assert all(g.evaluate(pt) == 0 for g in partials)


def test_fermat_smooth():
    f = P("x0^3+x1^3+x2^3+x3^3+x4^3", 5)
    report = analyze_singularities(f)
    assert report.locus_dimension == -1
    assert report.points == ()
    assert report.complete is True
    assert report.jacobian_quotient_degree == 0


def test_cone_is_singular_along_a_line():
    f = P("x0^3+x1^3+x2^3", 5)
    report = analyze_singularities(f)
    assert report.locus_dimension == 1
    assert report.jacobian_quotient_degree is None
    assert report.complete is False


def test_cone_candidates_left_unverified():
    f = P("x0^3+x1^3+x2^3", 5)
    on_line = ProjectivePoint([0, 0, 0, 1, 1])
    report = analyze_singularities(f, [on_line])
    assert report.points == ((on_line, UNVERIFIED),)


def test_candidate_off_hypersurface_is_an_error():
    with pytest.raises(SingularError, match="does not lie"):
        analyze_singularities(segre_cubic(), [ProjectivePoint([1, 1, 1, 1, 1])])


@pytest.mark.parametrize("f, nodes", [
    (segre_cubic(), []),
    (segre_cubic(), segre_nodes()),
    (P("x0^3+x1^3+x2^3+x3^3+x4^3", 5), []),
], ids=["alone", "with-nodes", "smooth-hypersurface"])
def test_smooth_candidate_is_an_error(f, nodes):
    # (1 : -1 : 0 : 0 : 0) lies on both cubics but is a smooth point; it must
    # not leave a complete node list uncertified
    pt = ProjectivePoint([1, -1, 0, 0, 0])
    assert f.evaluate(pt) == 0
    with pytest.raises(SingularError, match="smooth point"):
        analyze_singularities(f, [*nodes, pt])


def test_missing_node_detected():
    report = analyze_singularities(segre_cubic(), segre_nodes()[:9])
    assert report.complete is False
    assert report.locus_dimension == 0
    # chart degrees still see all ten singular points
    assert report.chart_degrees == (10,) * 5
    # the length is not claimed without a complete certificate
    assert report.jacobian_quotient_degree is None


@pytest.mark.parametrize("listed", range(4))
def test_triangle_scheme_length_only_when_complete(listed):
    # three nodes, one at each vertex; each chart sees only its own vertex,
    # so no chart tells how many nodes lie off it, and the scheme length
    # (3) is reported only once all three are listed
    f = P("x0*x1*x2", 3)
    vertices = [ProjectivePoint(v) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    report = analyze_singularities(f, vertices[:listed])
    assert report.chart_degrees == (1, 1, 1)
    assert report.complete is (listed == 3)
    assert report.jacobian_quotient_degree == (3 if listed == 3 else None)


def test_non_node_isolated_classification():
    # x0^3 + x1^3 + x2^3 in 3 variables: singular only at... nowhere (smooth curve);
    # use a cusp-like surface instead: x0^2*x2 + x1^3 has a non-node at (0:0:1)
    f = P("x0^2*x2 + x1^3", 3)
    pt = ProjectivePoint([0, 0, 1])
    report = analyze_singularities(f, [pt])
    assert report.locus_dimension == 0
    assert report.points == ((pt, NON_NODE_ISOLATED),)
    assert report.complete is False


def test_node_hessian_invariant():
    # every reported node satisfies the exact definition; the chart Hessian
    # is built here entry by entry from f and ranked by the oracle, not by the
    # matrix and rank routine the analysis uses
    f = segre_cubic()
    report = analyze_singularities(f, segre_nodes())
    for pt, cls in report.points:
        assert cls == NODE
        c = next(i for i, v in enumerate(pt) if v)  # the chart
        chart_hessian = [
            [
                f.partial_derivative(j).partial_derivative(k).evaluate(pt)
                for k in range(5)
                if k != c
            ]
            for j in range(5)
            if j != c
        ]
        assert brute_rank(chart_hessian) == 4


def sections_round_forms(seed):
    """The smooth ops and the first nodal op of one bench `sections` round."""
    ops = next(load_bench_module("workloads").rounds_for("sections", seed))
    picked = [op for op in ops if op.cls == "smooth"]
    picked.append(next(op for op in ops if op.cls == "nodal"))
    forms = []
    for op in picked:
        data, arity = op.scenario, op.scenario["ambient_arity"]
        variety, hyperplane = P(data["variety"], arity), P(data["hyperplane"], arity)
        forms.append((op.cls, restrict_to_hyperplane(variety, hyperplane, data["eliminate"])))
    return forms


def test_chart_degrees_match_naive_route():
    # an empty locus gets zero chart degrees with no basis computed; the
    # oracle builds and counts every chart ideal
    rounds = sections_round_forms(1)
    assert [cls for cls, _ in rounds] == ["smooth"] * 3 + ["nodal"]
    loci = set()
    for name, f in [*hypersurface_corpus(), *rounds]:
        report = analyze_singularities(f)
        if report.locus_dimension <= 0:
            loci.add(report.locus_dimension)
            assert report.chart_degrees == naive_chart_degrees(f), name
    assert loci == {-1, 0}


def dense_quartic_surface(seed):
    rng = random.Random(seed)
    return MultiPoly(4, {m: rng.randint(-9, 9) for m in monomials_of_degree(4, 4)})


@pytest.mark.parametrize("f, locus, calls", [
    (dense_quartic_surface(0), -1, 1),  # the locus basis only
    (segre_cubic(), 0, 6),  # the locus basis and one basis per chart
    (P("x0^3+x1^3+x2^3", 5), 1, 1),  # a cone: no chart degrees at all
], ids=["dense-quartic", "segre", "cone"])
def test_chart_bases_only_for_isolated_points(f, locus, calls, monkeypatch):
    moduli = recorded_moduli(monkeypatch)
    report = analyze_singularities(f)
    assert report.locus_dimension == locus
    assert moduli == [None] * calls  # every basis over Q
    if locus < 0:
        assert report.chart_degrees == (0,) * f.arity


def test_ordinary_quadric_node():
    # quadric cone in P^3 with apex (0:0:0:1): one ordinary double point
    f = P("x0^2+x1^2-x2^2", 4)
    report = analyze_singularities(f)
    assert report.locus_dimension == 0
    pt = ProjectivePoint([0, 0, 0, 1])
    report = analyze_singularities(f, [pt])
    assert report.points == ((pt, NODE),)
    assert report.complete is True
    assert report.jacobian_quotient_degree == 1


# -- extendability ------------------------------------------------------

def test_segre_extendable():
    assert extendability(segre_cubic()) is True


def test_cone_not_extendable():
    assert extendability(P("x0^3+x1^3+x2^3", 5)) is False


def test_smooth_extendable():
    assert extendability(P("x0^3+x1^3+x2^3+x3^3+x4^3", 5)) is True


def test_extendability_agrees_with_report():
    for f in [segre_cubic(), P("x0^3+x1^3+x2^3", 5), P("x0^2+x1^2+x2^2", 3)]:
        assert extendability(f) == (analyze_singularities(f).locus_dimension <= 0)


# -- the mod-p certificate -----------------------------------------------

PRIME = CERTIFICATE_PRIME


def exact_extendability(f):
    return projective_dimension(buchberger([*jacobian_ideal(f), f])) <= 0


def recorded_moduli(monkeypatch):
    """Patch the basis routine of `singular` and record each call's modulus."""
    moduli = []

    def recording(gens, *args, **kwargs):
        moduli.append(kwargs.get("modulus"))
        return buchberger(gens, *args, **kwargs)

    monkeypatch.setattr(singular, "buchberger", recording)
    return moduli


_coefficient = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([PRIME, -PRIME, Fraction(1, PRIME), Fraction(2, 3 * PRIME)]),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)


@st.composite
def homogeneous_forms(draw):
    """Diagonal forms plus a few cross terms; a cone when some variable is unused."""
    arity = draw(st.integers(3, 4))
    degree = draw(st.integers(2, 3))
    used = draw(st.integers(arity - 2, arity))
    monomials = [m for m in monomials_of_degree(arity, degree) if not any(m[used:])]
    terms = {}
    for i in range(used):
        terms[tuple(degree if j == i else 0 for j in range(arity))] = draw(_coefficient)
    for m in draw(st.lists(st.sampled_from(monomials), max_size=3)):
        terms[m] = draw(_coefficient)
    f = MultiPoly(arity, terms)
    assume(not f.is_zero)
    return f


@given(homogeneous_forms())
@settings(max_examples=40, deadline=None)
def test_extendability_matches_exact_route(f):
    assert extendability(f) == exact_extendability(f)


def test_bad_reduction_falls_back_to_q(monkeypatch):
    # smooth quadric over Q; mod p it is x0^2 + x1^2, singular along a line
    f = MultiPoly(4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): PRIME, (0, 0, 0, 2): PRIME})
    gens = [*jacobian_ideal(f), f]
    assert projective_dimension(buchberger(gens, modulus=PRIME)) == 1
    moduli = recorded_moduli(monkeypatch)
    assert extendability(f) is True
    assert moduli == [PRIME, None]


def test_prime_in_a_denominator_skips_the_certificate(monkeypatch):
    f = P(f"x0^2+x1^2+1/{PRIME}*x2^2", 3)
    moduli = recorded_moduli(monkeypatch)
    assert extendability(f) is True
    assert moduli == [None]


def test_certificate_confirms_without_q(monkeypatch):
    moduli = recorded_moduli(monkeypatch)
    assert extendability(P("x0^3+x1^3+x2^3+x3^3", 4)) is True
    assert moduli == [PRIME]
