"""Acceptance suite: one test per criterion, exact equalities, timed budgets.

Every criterion prints one `ACCEPTANCE <n>: PASS/FAIL` line (visible with
`pytest -rA` or `-s`).  All comparisons are exact integer/rational
equalities; the stated runtime budgets are asserted, not advisory.
"""

import random
import time
from contextlib import contextmanager

import pytest

from flatobs.bettisng import quadric_analysis
from flatobs.cli import bundled_scenario, run
from flatobs.hodgeci import (
    Multidegree,
    griffiths_middle_hodge,
    hodge_diamond,
    scan_level1,
)
from flatobs.idealcalc import IdealError, buchberger, standard_monomials
from flatobs.obstruct import (
    BettiVector,
    Hypotheses,
    InputInconsistentError,
    corob_check,
    ih_from_betti,
    verdict_report,
)
from flatobs.polyring import parse_poly
from flatobs.singular import extendability

from corpus import ideal_corpus, segre_cubic
from oracles import (
    expected_verdict,
    is_palindromic,
    is_weakly_palindromic,
    naive_normal_form,
    naive_quotient_dimension,
    naive_s_polynomial,
)


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if failed is None and elapsed < budget_seconds else "FAIL"
        print(
            f"ACCEPTANCE {number}: {status} -- {description} "
            f"({elapsed:.2f}s / budget {budget_seconds}s)"
        )
    assert elapsed < budget_seconds, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_segre_pipeline():
    with criterion(1, 10.0, "Segre pipeline: 10 nodes, delta=5, b_4=6, no irreducible-fiber compactification"):
        report = run(bundled_scenario("segre"))
        sing = report["pipeline"]["singularities"]
        assert sing["locus_dimension"] == 0
        assert len(sing["points"]) == 10
        assert all(p["classification"] == "node" for p in sing["points"])
        assert all(
            all("/" not in c for c in p["coordinates"]) for p in sing["points"]
        )  # rational (in fact integral) nodes
        assert sing["complete"] is True
        assert report["pipeline"]["defect"]["defect"] == 5
        assert report["pipeline"]["defect"]["b_above_middle"] == 6
        assert report["pipeline"]["betti_vector"][4] == 6
        assert report["verdict"]["verdict"] == "NO_IRREDUCIBLE_FIBER_COMPACTIFICATION"


def test_criterion_2_degenerate_quadric_pipeline():
    with criterion(2, 1.0, "degenerate quadric: rank 2 => 2 components => b_6=2 => no flat compactification"):
        q = parse_poly("x0*x1", 6)
        analysis = quadric_analysis(q, components_smooth_and_distinct=True)
        assert analysis.rank == 2
        assert analysis.components_of_section == 2
        report = run(bundled_scenario("degenerate_quadric"))
        bv = report["pipeline"]["betti_vector"]
        assert bv[6] == 2
        vector = BettiVector(3, tuple(bv))
        assert not is_weakly_palindromic(vector)
        assert not verdict_report(vector, Hypotheses(True, True))["weakly_palindromic"]
        assert report["verdict"]["verdict"] == "NO_FLAT_COMPACTIFICATION"


def test_criterion_3_hodge_anchors():
    with criterion(3, 1.0, "b_3(V_3(2,3)) = 40; 20-dim intermediate Jacobians"):
        md = Multidegree(3, (2, 3))
        b3 = hodge_diamond(md).betti(3)
        assert b3 == 40
        assert b3 // 2 == 20  # intermediate Jacobian dimension


def test_criterion_4_level1_scan_box():
    with criterion(4, 60.0, "level-1 scan over n<=9, d<=6, k<=4 returns exactly the published families"):
        found = scan_level1(9, 6, 4)
        expected = sorted(
            [Multidegree(n, (2, 2)) for n in (3, 5, 7, 9)]
            + [Multidegree(n, (2, 2, 2)) for n in (3, 5, 7, 9)]
            + [
                Multidegree(3, (3,)),
                Multidegree(3, (2, 3)),
                Multidegree(5, (3,)),
                Multidegree(3, (4,)),
            ]
        )
        assert found == expected


def test_criterion_5_oracle_equivalence():
    with criterion(5, 30.0, "HRR route == Griffiths residue route for all hypersurfaces d<=6, n<=6"):
        cases = 0
        for d in range(2, 7):
            for n in range(1, 7):
                dia = hodge_diamond(Multidegree(n, (d,)))
                assert dia.primitive_middle() == griffiths_middle_hodge(d, n), (d, n)
                cases += 1
        assert cases == 30


def test_criterion_6_extendability():
    with criterion(6, 5.0, "extendability: nodal cubic threefold yes, cubic cone no"):
        assert extendability(segre_cubic()) is True
        assert extendability(parse_poly("x0^3+x1^3+x2^3", 5)) is False


def test_criterion_7_obstruction_property_suite():
    with criterion(7, 5.0, "1000 random Betti vectors: oracle agreement, monotonicity, middle independence, IH sign, corob consistency"):
        rng = random.Random(0xB1107)
        both = Hypotheses(H_nonconstant=True, abelian_scheme=True)
        n = 3

        def checked_report(b):
            """verdict_report of b, checked against the naive oracle; None if inconsistent."""
            expected = expected_verdict(b)
            if expected is None:
                with pytest.raises(InputInconsistentError):
                    verdict_report(b, both)
                return None
            report = verdict_report(b, both)
            assert {key: report[key] for key in expected} == expected, b
            return report

        for _ in range(1000):
            entries = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(2 * n)]
            b = BettiVector(n, tuple(entries))
            report = checked_report(b)

            # middle-entry independence (fuzzed)
            fuzzed_entries = list(entries)
            fuzzed_entries[n] = rng.choice([None, rng.randint(0, 99)])
            assert checked_report(BettiVector(n, tuple(fuzzed_entries))) == report

            # IH nonnegativity or error, never clamped
            try:
                ih = ih_from_betti(b, True)
            except InputInconsistentError:
                ih = None
            assert (ih is None) == (report is None)
            if ih is not None:
                assert all(d >= 0 for d in ih[1:])
                assert all(
                    ih[k] == b.b(n + k) - b.b(n - k) for k in range(1, n + 1)
                )

            # verdict monotonicity: adding a failing witness gives the
            # strongest verdict, whatever the verdict was before
            worse_entries = list(b.entries)
            worse_entries[n + 2] = worse_entries[n - 2] + 1 + rng.randint(0, 3)
            worse = checked_report(BettiVector(n, tuple(worse_entries)))
            if worse is not None:
                assert worse["verdict"] == "NO_FLAT_COMPACTIFICATION"

            # corob_check consistency with the induced table
            if ih is not None:
                g = rng.randint(n, 25)
                table = {(j, 2 * g - 1): ih[j] for j in range(1, n + 1)}
                result = corob_check(table, g)
                if is_weakly_palindromic(b) and not is_palindromic(b):
                    assert result.irreducible_excluded and not result.flat_excluded
                elif is_palindromic(b):
                    assert not result.irreducible_excluded and not result.flat_excluded
                else:
                    assert result.flat_excluded


def test_criterion_8_groebner_property_suite():
    with criterion(8, 10.0, "Groebner suite on >=20 ideals: S-polys reduce to zero, idempotence, Artinian dimensions match a naive basis"):
        corpus = ideal_corpus()
        assert len(corpus) >= 20
        for name, gens in corpus:
            gb = buchberger(gens)
            for i in range(len(gb.generators)):
                for j in range(i):
                    s = naive_s_polynomial(gb.generators[i], gb.generators[j])
                    if not s.is_zero:
                        assert naive_normal_form(s, gb.generators).is_zero, name
            assert buchberger(list(gb.generators)).generators == gb.generators, name
            expected = naive_quotient_dimension(gens)
            if expected is None:
                with pytest.raises(IdealError):
                    standard_monomials(gb)
                continue
            assert len(standard_monomials(gb)) == expected, name


def test_headline_result_not_claimed():
    # the smooth-section outcome is labeled as non-existence-claiming
    report = run(bundled_scenario("smooth_cubic3fold"))
    assert report["verdict"]["verdict"] == "NO_OBSTRUCTION_FOUND"
    assert "does not assert" in report["verdict"]["disclaimer"]
