import random
from fractions import Fraction

import pytest

from flatobs.bettisng import (
    BettiComputationError,
    betti_vector_nodal,
    conditions_degree,
    defect,
    evaluation_matrix,
    gram_matrix,
    quadric_analysis,
)
from flatobs.linalg import matrix_to_csv
from flatobs.obstruct import UNKNOWN, BettiVector, Hypotheses, verdict_report
from flatobs.polyring import MultiPoly, monomials_of_degree, parse_poly
from flatobs.singular import ProjectivePoint

from corpus import segre_nodes
from oracles import brute_rank, is_weakly_palindromic, naive_add, naive_evaluate, naive_mul


def P(text, arity):
    return parse_poly(text, arity)


# -- conditions degree --------------------------------------------------

def test_conditions_degree_threefold_formula():
    assert conditions_degree(3, 3) == 1  # 2d - 5 for cubic threefolds
    assert conditions_degree(3, 4) == 3
    assert conditions_degree(5, 3) == 2
    with pytest.raises(BettiComputationError, match="odd"):
        conditions_degree(4, 3)


def test_negative_conditions_degree_rejected_by_defect():
    assert conditions_degree(3, 2) == -1
    with pytest.raises(BettiComputationError, match="nonnegative"):
        defect(segre_nodes(), conditions_degree(3, 2))


# -- defect ----------------------------------------------------------------

def test_segre_defect():
    report = defect(segre_nodes(), 1)
    assert report.node_count == 10
    assert report.t == 1
    # independent rank oracle on the explicit 10x5 sign matrix
    matrix = evaluation_matrix(segre_nodes(), 1)
    assert len(matrix) == 10 and len(matrix[0]) == 5
    assert report.imposed_rank == brute_rank(matrix) == 5
    assert report.defect == 5
    assert report.b_above_middle == 6


def test_single_node_imposes_one_condition():
    report = defect([ProjectivePoint([1, 2, 3, 4, 5])], 1)
    assert report.imposed_rank == 1
    assert report.defect == 0
    assert report.b_above_middle == 1


def test_general_position_nodes_have_zero_defect():
    rng = random.Random(20260808)
    for _ in range(10):
        mu = rng.randint(1, 5)  # mu <= C(4+1, 1) = 5 columns
        nodes = []
        while len(nodes) < mu:
            candidate = ProjectivePoint(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
                + [1]
            )
            if candidate not in nodes:
                nodes.append(candidate)
        matrix = evaluation_matrix(nodes, 1)
        if brute_rank(matrix) == mu:  # general position check via the oracle
            report = defect(nodes, 1)
            assert report.defect == 0


def test_defect_monotone_under_added_nodes():
    nodes = segre_nodes()
    previous = defect(nodes[:1], 1)
    for mu in range(2, 11):
        current = defect(nodes[:mu], 1)
        assert current.defect >= previous.defect
        assert current.imposed_rank >= previous.imposed_rank
        previous = current


def test_defect_input_validation():
    with pytest.raises(BettiComputationError, match="at least one"):
        defect([], 1)
    with pytest.raises(BettiComputationError, match="duplicate"):
        defect([ProjectivePoint([1, 1]), ProjectivePoint([2, 2])], 1)
    with pytest.raises(BettiComputationError, match="inconsistent"):
        defect([ProjectivePoint([1, 1]), ProjectivePoint([1, 1, 1])], 1)


def test_evaluation_matrix_matches_naive_evaluation():
    rng = random.Random(20261019)

    def coordinate():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 10**6))

    for t in range(4):
        nodes = [ProjectivePoint([coordinate() for _ in range(3)]) for _ in range(3)]
        monos = monomials_of_degree(3, t)
        expected = [[naive_evaluate(MultiPoly(3, {m: 1}), node) for m in monos]
                    for node in nodes]
        assert evaluation_matrix(nodes, t) == expected


def test_evaluation_matrix_csv_dump():
    nodes = [ProjectivePoint([1, Fraction(-1, 2)])]
    text = matrix_to_csv(evaluation_matrix(nodes, 2))
    assert text == "1,-1/2,1/4\n"


# -- nodal betti vectors -------------------------------------------------------

def test_segre_nodal_vector():
    smooth = BettiVector(3, (1, 0, 1, 10, 1, 0, 1))
    vector = betti_vector_nodal(smooth, defect(segre_nodes(), 1))
    assert vector.entries == (1, 0, 1, UNKNOWN, 6, 0, 1)


def test_zero_defect_keeps_palindromic_shape():
    smooth = BettiVector(3, (1, 0, 1, 10, 1, 0, 1))
    vector = betti_vector_nodal(smooth, defect([ProjectivePoint([1, 2, 3, 4, 5])], 1))
    assert vector.entries == (1, 0, 1, UNKNOWN, 1, 0, 1)


def test_even_dimension_rejected():
    smooth = BettiVector(2, (1, 0, 7, 0, 1))
    with pytest.raises(BettiComputationError, match="odd"):
        betti_vector_nodal(smooth, defect([ProjectivePoint([1, 1, 1])], 1))


def test_nodal_vector_weakly_palindromic_in_high_degrees():
    rng = random.Random(7)
    smooth = BettiVector(3, (1, 0, 1, 10, 1, 0, 1))
    for _ in range(20):
        mu = rng.randint(1, 10)
        vector = betti_vector_nodal(smooth, defect(segre_nodes()[:mu], 1))
        assert is_weakly_palindromic(vector)
        report = verdict_report(vector, Hypotheses(H_nonconstant=True, abelian_scheme=True))
        assert report["weakly_palindromic"]
        assert report["verdict"] != "NO_FLAT_COMPACTIFICATION"


# -- quadric analysis -------------------------------------------------------------

def test_rank_two_pair_of_hyperplanes():
    qa = quadric_analysis(P("x0*x1", 6), components_smooth_and_distinct=True)
    assert qa.rank == 2
    assert qa.reduced
    assert qa.components_of_section == 2


def test_rank_two_without_assertion_is_undetermined():
    qa = quadric_analysis(P("x0*x1", 6))
    assert qa.rank == 2 and qa.components_of_section is None


def test_rank_one_double_hyperplane():
    qa = quadric_analysis(P("x0^2", 6))
    assert qa.rank == 1
    assert not qa.reduced
    assert qa.components_of_section is None


def test_full_rank_diagonal_irreducible():
    qa = quadric_analysis(P("x0^2+x1^2+x2^2+x3^2+x4^2+x5^2", 6))
    assert qa.rank == 6
    assert qa.components_of_section == "irreducible"


def test_quadric_input_validation():
    with pytest.raises(BettiComputationError):
        quadric_analysis(P("x0^3", 2))
    with pytest.raises(BettiComputationError):
        quadric_analysis(P("x0^2+x1", 2))
    with pytest.raises(BettiComputationError):
        quadric_analysis(MultiPoly(2))


def test_gram_matrix_entries():
    g = gram_matrix(P("x0^2 + 3*x0*x1 - x1^2", 2))
    assert g == [[1, Fraction(3, 2)], [Fraction(3, 2), -1]]


def test_gram_rank_invariant_under_coordinate_change():
    rng = random.Random(99)
    q = P("x0*x1 + x2^2", 4)
    base_rank = quadric_analysis(q).rank
    for _ in range(8):
        # random unimodular integer change of coordinates via elementary steps
        arity = 4
        images = [parse_poly(f"x{i}", arity) for i in range(arity)]
        for _ in range(6):
            i, j = rng.sample(range(arity), 2)
            images[i] = naive_add(images[i], images[j], rng.choice([-2, -1, 1, 2]))
        transformed = MultiPoly(arity)
        for mono, coeff in q.terms.items():
            term = MultiPoly(arity, {(0,) * arity: coeff})
            for idx, e in enumerate(mono):
                for _ in range(e):
                    term = naive_mul(term, images[idx])
            transformed = naive_add(transformed, term)
        assert quadric_analysis(transformed).rank == base_rank
