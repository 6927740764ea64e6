from fractions import Fraction
from math import factorial

import pytest

from flatobs.hodgeci import (
    HodgeError,
    Multidegree,
    betti_vector_smooth,
    euler_characteristic,
    griffiths_middle_hodge,
    hodge_diamond,
    scan_level1,
)
from flatobs.hodgeci import _line_bundle_expansion

from oracles import (
    chi_y_middle_hodge,
    coniveau_level,
    count_bounded_monomials,
    exterior_chern_characters,
)


def md(n, *degrees):
    return Multidegree(n, tuple(degrees))


# -- multidegree type --------------------------------------------------

def test_degrees_are_sorted_and_validated():
    m = md(3, 3, 2)
    assert m.degrees == (2, 3)
    assert m.k == 2 and m.ambient == 5
    assert m.label() == "V_3(2,3)"


def test_degree_one_rejected():
    with pytest.raises(HodgeError, match="rejected"):
        md(3, 1, 2)


def test_bad_dimension_rejected():
    with pytest.raises(HodgeError):
        md(0, 2)


# -- hodge diamonds -----------------------------------------------------

def test_cubic_threefold():
    dia = hodge_diamond(md(3, 3))
    assert dia.middle == (0, 5, 5, 0)
    assert dia.betti(3) == 10


def test_quadric_cubic_intersection_betti_40():
    assert hodge_diamond(md(3, 2, 3)).betti(3) == 40


def test_quartic_threefold():
    dia = hodge_diamond(md(3, 4))
    assert dia.middle == (0, 30, 30, 0)
    assert dia.betti(3) == 60
    # oracle: degree-3 monomials with exponents <= 2 in 5 variables
    assert count_bounded_monomials(5, 3, 2) == 30


def test_cubic_fivefold():
    dia = hodge_diamond(md(5, 3))
    assert dia.middle == (0, 0, 21, 21, 0, 0)
    assert dia.betti(5) == 42
    # oracle: squarefree degree-2 monomials in 7 variables = C(7,2)
    assert count_bounded_monomials(7, 2, 1) == 21


def test_off_middle_rule():
    # off the middle row b_m is 1 in even and 0 in odd degree (h^{p,p} = 1)
    dia = hodge_diamond(md(4, 3))
    assert [dia.betti(m) for m in (0, 1, 2, 3, 5, 6, 7, 8)] == [1, 0, 1, 0, 0, 1, 0, 1]
    assert dia.betti(4) == sum(dia.middle)
    assert dia.primitive_middle()[2] == dia.middle[2] - 1


# -- griffiths oracle ----------------------------------------------------

def test_griffiths_cubic_threefold_count():
    prim = griffiths_middle_hodge(3, 3)
    assert prim == (0, 5, 5, 0)
    # direct count: degree-1 monomials in 5 variables with exponents <= 1
    assert prim[2] == count_bounded_monomials(5, 1, 1) == 5


def test_griffiths_negative_degree_is_zero():
    assert griffiths_middle_hodge(3, 3)[3] == 0  # target degree is negative


def test_griffiths_quadric_threefold_has_no_middle():
    prim = griffiths_middle_hodge(2, 3)
    assert prim == (0, 0, 0, 0)
    assert hodge_diamond(md(3, 2)).betti(3) == 0


@pytest.mark.parametrize("d", range(2, 5))
@pytest.mark.parametrize("n", range(1, 4))
def test_griffiths_matches_brute_force_enumeration(d, n):
    prim = griffiths_middle_hodge(d, n)
    for p in range(n + 1):
        target = (n + 1 - p) * d - (n + 2)
        assert prim[p] == count_bounded_monomials(n + 2, target, d - 2)


def test_oracle_agreement_hypersurfaces():
    # HRR route vs Griffiths-residue route on a sample grid (full grid runs
    # in the acceptance suite)
    for d in range(2, 6):
        for n in range(1, 5):
            dia = hodge_diamond(md(n, d))
            assert dia.primitive_middle() == griffiths_middle_hodge(d, n), (d, n)


# -- levels ---------------------------------------------------------------

def test_levels():
    assert hodge_diamond(md(3, 2, 3)).level() == 1
    assert hodge_diamond(md(3, 2)).level() is None
    assert hodge_diamond(md(3, 5)).level() == 3
    assert hodge_diamond(md(2, 3)).level() == 0
    assert hodge_diamond(md(4, 3)).level() == 2


def test_level_matches_coniveau_closed_form():
    # every multidegree of every bench scan box, against Deligne's coniveau
    cases = list(box_multidegrees(n_max=9, d_max=6, k_max=4))
    assert len(cases) == 1125
    for m in cases:
        assert hodge_diamond(m).level() == coniveau_level(m), m.label()


def test_quadric_intersections_level_pattern():
    # all-quadric families with odd n: level 1 exactly when k in {2, 3}
    for n in (3, 5):
        assert hodge_diamond(md(n, 2)).level() is None
        assert hodge_diamond(md(n, 2, 2)).level() == 1
        assert hodge_diamond(md(n, 2, 2, 2)).level() == 1
    assert hodge_diamond(md(3, 2, 2, 2, 2)).level() == 3


# -- scan -------------------------------------------------------------------

def test_scan_small_boxes():
    assert scan_level1(3, 2, 1) == []
    assert scan_level1(3, 3, 1) == [md(3, 3)]


def test_scan_requires_n_max_at_least_3():
    with pytest.raises(HodgeError):
        scan_level1(1, 6, 4)


def test_scan_box_n5():
    found = scan_level1(5, 3, 2)
    assert found == sorted([md(3, 2, 2), md(3, 3), md(3, 2, 3), md(5, 2, 2), md(5, 3)])


# -- betti vectors -------------------------------------------------------------

def test_betti_vector_cubic_threefold():
    assert betti_vector_smooth(hodge_diamond(md(3, 3))).entries == (1, 0, 1, 10, 1, 0, 1)


def test_betti_vector_v3_23():
    assert betti_vector_smooth(hodge_diamond(md(3, 2, 3))).entries == (1, 0, 1, 40, 1, 0, 1)


def test_betti_vector_elliptic_curve():
    assert betti_vector_smooth(hodge_diamond(md(1, 3))).entries == (1, 2, 1)


def test_betti_vector_even_dimension_includes_diagonal_class():
    assert betti_vector_smooth(hodge_diamond(md(2, 3))).entries == (1, 0, 7, 0, 1)


# -- consistency invariants ------------------------------------------------------

def box_multidegrees(n_max=5, d_max=4, k_max=3):
    from itertools import combinations_with_replacement

    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            for degrees in combinations_with_replacement(range(2, d_max + 1), k):
                yield Multidegree(n, degrees)


def test_euler_consistency_and_positivity_in_box():
    for m in box_multidegrees():
        dia = hodge_diamond(m)
        assert dia.euler() == euler_characteristic(m), m.label()
        assert all(h >= 0 for h in dia.middle), m.label()
        assert dia.middle == tuple(reversed(dia.middle)), m.label()


def test_intermediate_jacobian_dimensions():
    # level-1 families have even middle Betti number; V_3(2,3) gives dimension 20
    for m in scan_level1(5, 4, 3):
        b_mid = hodge_diamond(m).betti(m.n)
        assert b_mid % 2 == 0, m.label()
    assert hodge_diamond(md(3, 2, 3)).betti(3) // 2 == 20


# -- chi_y oracle ---------------------------------------------------------------

def test_chi_y_oracle_agreement_complete_intersections():
    # HRR route vs Hirzebruch's chi_y generating function, every k >= 2 case
    # with n <= 5 and degrees <= 4
    cases = [m for m in box_multidegrees(n_max=5, d_max=4, k_max=4) if m.k >= 2]
    assert len(cases) == 155
    for m in cases:
        assert chi_y_middle_hodge(m) == hodge_diamond(m).middle, m.label()


def test_chi_y_oracle_v3_23_anchor():
    assert sum(chi_y_middle_hodge(md(3, 2, 3))) == 40


# -- line-bundle expansion against the Chern-character series ---------------------

def test_line_bundle_expansion_matches_chern_character_oracle():
    # sum_e a_{p,e} e^{-e h}, truncated at h^n, is ch(Lambda^p Omega_X)
    cases = list(box_multidegrees(n_max=7, d_max=5, k_max=3))
    assert len(cases) == 238
    for m in cases:
        prec = m.n + 1
        expected = exterior_chern_characters(m, prec)
        expansion = _line_bundle_expansion(m)
        assert len(expansion) == len(expected) == prec
        for p, row in enumerate(expansion):
            series = [
                sum(Fraction(a * (-e) ** s, factorial(s)) for e, a in row.items())
                for s in range(prec)
            ]
            assert series == expected[p], (m.label(), p)
