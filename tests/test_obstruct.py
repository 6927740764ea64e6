from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatobs.obstruct import (
    UNKNOWN,
    BettiVector,
    Hypotheses,
    InputInconsistentError,
    ObstructError,
    corob_check,
    ih_from_betti,
    verdict_report,
)
from flatobs.obstruct import HypothesisError

from oracles import expected_verdict, is_palindromic, is_weakly_palindromic

BOTH = Hypotheses(H_nonconstant=True, abelian_scheme=True)

SEGRE = BettiVector(3, (1, 0, 1, UNKNOWN, 6, 0, 1))
SMOOTH_23 = BettiVector(3, (1, 0, 1, 40, 1, 0, 1))
TWO_COMPONENT = BettiVector(3, (1, 0, 1, UNKNOWN, 1, 0, 2))


# -- BettiVector --------------------------------------------------------

def test_betti_vector_validation():
    with pytest.raises(ObstructError):
        BettiVector(3, (1, 0, 1))  # wrong length
    with pytest.raises(ObstructError):
        BettiVector(3, (0, 0, 1, 0, 1, 0, 1))  # b_0 < 1
    with pytest.raises(ObstructError):
        BettiVector(3, (1, 0, UNKNOWN, 0, 1, 0, 1))  # UNKNOWN off middle
    with pytest.raises(ObstructError):
        BettiVector(3, (1, 0, 1, 0, -1, 0, 1))  # negative


def test_betti_out_of_range_reads_zero():
    assert SEGRE.b(-1) == 0
    assert SEGRE.b(7) == 0
    assert SEGRE.b(6) == 1


# -- ih_from_betti -------------------------------------------------------

def test_segre_profile():
    ih = ih_from_betti(SEGRE, True)
    assert ih == (None, 5, 0, 0)


def test_symmetric_vector_gives_zero_profile():
    assert ih_from_betti(SMOOTH_23, True) == (None, 0, 0, 0)


def test_two_component_profile():
    assert ih_from_betti(TWO_COMPONENT, True) == (None, 0, 0, 1)


def test_negative_difference_is_error_never_clamped():
    b = BettiVector(3, (2, 0, 1, UNKNOWN, 1, 0, 1))  # b_6 - b_0 = -1
    with pytest.raises(InputInconsistentError):
        ih_from_betti(b, True)


def test_nonconstancy_hypothesis_required():
    with pytest.raises(HypothesisError):
        ih_from_betti(SEGRE, False)


# -- palindromicity --------------------------------------------------------

def test_palindromic_vector():
    b = BettiVector(3, (1, 0, 1, 10, 1, 0, 1))
    assert is_palindromic(b) and is_weakly_palindromic(b)
    report = verdict_report(b, BOTH)
    assert report["palindromic"] and report["weakly_palindromic"]


def test_segre_weakly_but_not_palindromic():
    assert is_weakly_palindromic(SEGRE)
    assert not is_palindromic(SEGRE)
    report = verdict_report(SEGRE, BOTH)
    assert report["weakly_palindromic"] and not report["palindromic"]


def test_two_component_not_weakly():
    assert not is_weakly_palindromic(TWO_COMPONENT)
    assert not verdict_report(TWO_COMPONENT, BOTH)["weakly_palindromic"]


# -- verdicts -----------------------------------------------------------------

def assert_matches_oracle(b):
    """verdict_report agrees with the naive comparison of Betti entries."""
    expected = expected_verdict(b)
    if expected is None:
        with pytest.raises(InputInconsistentError):
            verdict_report(b, BOTH)
        return None
    report = verdict_report(b, BOTH)
    assert {key: report[key] for key in expected} == expected, b
    assert report["ih_dims"] == [None] + [
        b.b(b.n + k) - b.b(b.n - k) for k in range(1, b.n + 1)
    ]
    return report


def test_segre_verdict():
    report = assert_matches_oracle(SEGRE)
    assert report["verdict"] == "NO_IRREDUCIBLE_FIBER_COMPACTIFICATION"
    assert report["witnesses"] == [{"k": 1, "b_plus": 6, "b_minus": 1}]


def test_two_component_verdict():
    report = assert_matches_oracle(TWO_COMPONENT)
    assert report["verdict"] == "NO_FLAT_COMPACTIFICATION"
    assert {"k": 3, "b_plus": 2, "b_minus": 1} in report["witnesses"]


def test_palindromic_verdict():
    report = assert_matches_oracle(SMOOTH_23)
    assert report["verdict"] == "NO_OBSTRUCTION_FOUND"
    assert report["witnesses"] == []
    assert "does not assert" in report["disclaimer"]


def test_verdict_refuses_unasserted_hypotheses():
    with pytest.raises(HypothesisError, match="missing: abelian_scheme$"):
        verdict_report(SEGRE, Hypotheses(H_nonconstant=True, abelian_scheme=False))
    with pytest.raises(HypothesisError, match="missing: H_nonconstant$"):
        verdict_report(SEGRE, Hypotheses(H_nonconstant=False, abelian_scheme=True))
    # the hypotheses are checked before the Betti data
    inconsistent = BettiVector(3, (2, 0, 1, UNKNOWN, 1, 0, 1))
    with pytest.raises(HypothesisError, match="missing: H_nonconstant, abelian_scheme$"):
        verdict_report(inconsistent, Hypotheses(H_nonconstant=False, abelian_scheme=False))


def test_verdict_report_schema():
    report = verdict_report(SEGRE, BOTH)
    assert set(report) == {
        "verdict",
        "weakly_palindromic",
        "palindromic",
        "ih_dims",
        "witnesses",
        "hypotheses",
        "disclaimer",
    }
    assert report["verdict"] == "NO_IRREDUCIBLE_FIBER_COMPACTIFICATION"
    assert report["ih_dims"] == [None, 5, 0, 0]
    assert report["witnesses"] == [{"k": 1, "b_plus": 6, "b_minus": 1}]


def test_verdict_report_exhaustive_small_vectors():
    # every Betti vector with n <= 3 and entries in 0..2 (b_0 >= 1)
    count = 0
    for n in (1, 2, 3):
        for entries in product(range(3), repeat=2 * n + 1):
            if entries[0] < 1:
                continue
            b = BettiVector(n, entries)
            assert_matches_oracle(b)
            for hypotheses in (
                Hypotheses(H_nonconstant=True, abelian_scheme=False),
                Hypotheses(H_nonconstant=False, abelian_scheme=True),
            ):
                with pytest.raises(HypothesisError):
                    verdict_report(b, hypotheses)
            count += 1
    assert count == 2 * (3**2 + 3**4 + 3**6)


# -- corob_check ------------------------------------------------------------

def test_corob_flat_exclusion():
    n = 5
    result = corob_check({(2, 2 * n): 1}, n)
    assert result.flat_excluded and result.irreducible_excluded


def test_corob_irreducible_only():
    n = 5
    table = {(1, 2 * n - 1): 1, (2, 2 * n - 1): 0, (0, 2 * n): 1}
    result = corob_check(table, n)
    assert not result.flat_excluded
    assert result.irreducible_excluded
    assert any(w.j == 1 for w in result.witnesses)


def test_corob_nothing_excluded():
    n = 5
    table = {(1, 2 * n - 1): 0, (0, 2 * n): 1}
    result = corob_check(table, n)
    assert not result.flat_excluded and not result.irreducible_excluded
    assert result.witnesses == ()


def test_corob_wrong_top_invariants():
    n = 2
    result = corob_check({(0, 2 * n): 2}, n)
    assert not result.flat_excluded
    assert result.irreducible_excluded


def test_corob_absent_top_entry_not_asserted():
    result = corob_check({(1, 1): 0}, 2)
    assert not result.irreducible_excluded


def test_level1_smooth_sections_have_zero_profile():
    # smooth members of level-1 families carry symmetric Betti vectors,
    # so the derived local IH dimensions all vanish
    from flatobs.hodgeci import betti_vector_smooth, hodge_diamond, scan_level1

    for md in scan_level1(5, 4, 3):
        ih = ih_from_betti(betti_vector_smooth(hodge_diamond(md)), True)
        assert all(d == 0 for d in ih[1:]), md.label()


# -- property suite ---------------------------------------------------------------

def betti_vectors(n=3):
    entry = st.integers(min_value=0, max_value=9)
    return st.tuples(*([st.integers(1, 9)] + [entry] * (2 * n))).map(
        lambda e: BettiVector(n, e)
    )


def with_middle(b, value):
    entries = list(b.entries)
    entries[b.n] = value
    return BettiVector(b.n, tuple(entries))


@given(betti_vectors(), st.one_of(st.none(), st.integers(0, 99)))
@settings(max_examples=150, deadline=None)
def test_middle_entry_never_consulted(b, fuzzed_middle):
    fuzzed = with_middle(b, fuzzed_middle)
    report = assert_matches_oracle(b)
    assert assert_matches_oracle(fuzzed) == report


@given(betti_vectors())
@settings(max_examples=150, deadline=None)
def test_verdict_monotone_in_evidence(b):
    assert_matches_oracle(b)
    # strengthen the evidence: add a fresh k=2 mismatch; the verdict becomes
    # the strongest one whatever it was before
    entries = list(b.entries)
    entries[b.n + 2] = entries[b.n - 2] + 1
    worse = assert_matches_oracle(BettiVector(b.n, tuple(entries)))
    if worse is not None:
        assert worse["verdict"] == "NO_FLAT_COMPACTIFICATION"


@given(betti_vectors())
@settings(max_examples=150, deadline=None)
def test_ih_nonnegative_or_error(b):
    try:
        ih = ih_from_betti(b, True)
    except InputInconsistentError:
        return
    assert all(d >= 0 for d in ih[1:])


@given(betti_vectors())
@settings(max_examples=150, deadline=None)
def test_corob_consistency_with_ih(b):
    try:
        ih = ih_from_betti(b, True)
    except InputInconsistentError:
        return
    g = 5  # fiber dimension of the associated family; any g >= n works here
    table = {(j, 2 * g - 1): ih[j] for j in range(1, b.n + 1)}
    result = corob_check(table, g)
    if is_weakly_palindromic(b) and not is_palindromic(b):
        assert result.irreducible_excluded and not result.flat_excluded
    if is_palindromic(b):
        assert not result.irreducible_excluded and not result.flat_excluded
    if not is_weakly_palindromic(b):
        assert result.flat_excluded
