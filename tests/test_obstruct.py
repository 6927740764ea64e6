import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatobs.obstruct import (
    UNKNOWN,
    BettiVector,
    Hypotheses,
    InputInconsistentError,
    ObstructError,
    Outcome,
    corob_check,
    ih_from_betti,
    is_palindromic,
    is_weakly_palindromic,
    verdict,
    verdict_report,
)
from flatobs.obstruct import HypothesisError

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
    assert ih.dims == (None, 5, 0, 0)


def test_symmetric_vector_gives_zero_profile():
    assert ih_from_betti(SMOOTH_23, True).dims == (None, 0, 0, 0)


def test_two_component_profile():
    assert ih_from_betti(TWO_COMPONENT, True).dims == (None, 0, 0, 1)


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


def test_segre_weakly_but_not_palindromic():
    assert is_weakly_palindromic(SEGRE)
    assert not is_palindromic(SEGRE)


def test_two_component_not_weakly():
    assert not is_weakly_palindromic(TWO_COMPONENT)


# -- verdicts -----------------------------------------------------------------

def test_segre_verdict():
    v = verdict(SEGRE, BOTH)
    assert v.verdict == Outcome.NO_IRREDUCIBLE_FIBER_COMPACTIFICATION
    assert v.weakly_palindromic and not v.palindromic
    assert v.evidence == ((1, 6, 1),)


def test_two_component_verdict():
    v = verdict(TWO_COMPONENT, BOTH)
    assert v.verdict == Outcome.NO_FLAT_COMPACTIFICATION
    assert (3, 2, 1) in v.evidence


def test_palindromic_verdict():
    v = verdict(SMOOTH_23, BOTH)
    assert v.verdict == Outcome.NO_OBSTRUCTION_FOUND
    assert v.evidence == ()
    assert "does not assert" in v.disclaimer


def test_verdict_refuses_unasserted_hypotheses():
    with pytest.raises(HypothesisError, match="abelian_scheme"):
        verdict(SEGRE, Hypotheses(H_nonconstant=True, abelian_scheme=False))
    with pytest.raises(HypothesisError, match="H_nonconstant"):
        verdict(SEGRE, Hypotheses(H_nonconstant=False, abelian_scheme=True))


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
        assert all(d == 0 for d in ih.dims[1:]), md.label()


# -- property suite ---------------------------------------------------------------

def betti_vectors(n=3):
    entry = st.integers(min_value=0, max_value=9)
    return st.tuples(*([st.integers(1, 9)] + [entry] * (2 * n))).map(
        lambda e: BettiVector(n, e)
    )


@given(betti_vectors(), st.one_of(st.none(), st.integers(0, 99)))
@settings(max_examples=150, deadline=None)
def test_middle_entry_never_consulted(b, fuzzed_middle):
    fuzzed = b.with_middle(fuzzed_middle)
    assert is_palindromic(b) == is_palindromic(fuzzed)
    assert is_weakly_palindromic(b) == is_weakly_palindromic(fuzzed)
    try:
        v1 = verdict(b, BOTH)
        v2 = verdict(fuzzed, BOTH)
        assert v1.verdict == v2.verdict and v1.evidence == v2.evidence
    except InputInconsistentError:
        pass


@given(betti_vectors())
@settings(max_examples=150, deadline=None)
def test_verdict_monotone_in_evidence(b):
    v = verdict(b, BOTH)
    # strengthen the evidence: add a fresh k=2 mismatch
    entries = list(b.entries)
    entries[b.n + 2] = entries[b.n - 2] + 1
    worse = verdict(BettiVector(b.n, tuple(entries)), BOTH)
    assert worse.verdict.strength >= v.verdict.strength
    assert worse.verdict == Outcome.NO_FLAT_COMPACTIFICATION


@given(betti_vectors())
@settings(max_examples=150, deadline=None)
def test_ih_nonnegative_or_error(b):
    try:
        ih = ih_from_betti(b, True)
    except InputInconsistentError:
        return
    assert all(d >= 0 for d in ih.dims[1:])


@given(betti_vectors())
@settings(max_examples=150, deadline=None)
def test_corob_consistency_with_ih(b):
    try:
        ih = ih_from_betti(b, True)
    except InputInconsistentError:
        return
    g = 5  # fiber dimension of the associated family; any g >= n works here
    table = {(j, 2 * g - 1): ih.dims[j] for j in range(1, b.n + 1)}
    result = corob_check(table, g)
    if is_weakly_palindromic(b) and not is_palindromic(b):
        assert result.irreducible_excluded and not result.flat_excluded
    if is_palindromic(b):
        assert not result.irreducible_excluded and not result.flat_excluded
    if not is_weakly_palindromic(b):
        assert result.flat_excluded
