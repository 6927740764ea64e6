"""Seeded workload generators whose answers are known by construction.

A workload is an endless sequence of *rounds*.  Every round has the same
op-class composition, fixed by the workload's definition; the seed draws
only coefficients, coordinate changes, multidegrees, which node is left out,
which scan box of a cost tier is used, and the order of the ops inside the
round.  Fixing the
composition per round keeps the class shares, and so the percentile each
class sets, the same on every seed.

Every op carries the answer its construction fixes.  `check` compares a
report with that answer using only integer and `Fraction` arithmetic written
here: nothing from `flatobs` is imported by this module, so a defect in the
code under test cannot vouch for itself.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod
from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "flatobs" / "scenarios"

HYPOTHESES = {"H_nonconstant": True, "abelian_scheme": True}


@dataclass(frozen=True)
class Op:
    """One benchmark op: the scenario the program sees and the expected answer."""

    cls: str
    scenario: dict
    expect: dict


# -- polynomial text from exact coefficients -----------------------------


def _monomial_text(exps) -> str:
    return "*".join(
        f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e
    )


def poly_text(terms: dict) -> str:
    """Render {exponent tuple: rational} as text in the scenario grammar."""
    parts = []
    for exps, c in sorted(terms.items(), reverse=True):
        if not c:
            continue
        c = Fraction(c)
        mono = _monomial_text(exps)
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _power_of_linear(coeffs, degree: int) -> dict:
    """(sum_j c_j x_j)^degree expanded by the multinomial theorem."""
    arity = len(coeffs)
    out = {}
    for cut in combinations(range(degree + arity - 1), arity - 1):
        bounds = (-1, *cut, degree + arity - 1)
        exps = tuple(bounds[i + 1] - bounds[i] - 1 for i in range(arity))
        value = factorial(degree) * prod(
            Fraction(c) ** e for c, e in zip(coeffs, exps)
        ) / prod(factorial(e) for e in exps)
        if value:
            out[exps] = value
    return out


def _unit(arity: int, i: int, e: int = 1) -> tuple:
    """Exponent vector of x_i^e."""
    return tuple(e if t == i else 0 for t in range(arity))


def _add_into(acc: dict, terms: dict) -> None:
    for exps, c in terms.items():
        v = acc.get(exps, 0) + c
        if v:
            acc[exps] = v
        else:
            acc.pop(exps, None)


_COEFFICIENT = re.compile(r"(?<![\^x\d])(\d+)(?:/(\d+))?")


def coefficient_height(scenario: dict) -> int:
    """Largest numerator or denominator written in the scenario's polynomials."""
    best = 1
    for key in ("variety", "hyperplane", "polynomial", "quadric"):
        for num, den in _COEFFICIENT.findall(scenario.get(key, "")):
            best = max(best, int(num), int(den or 1))
    return best


def load_golden(name: str) -> dict:
    with open(SCENARIO_DIR / f"{name}.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- sections: hyperplane sections of cubic fourfolds --------------------

SECTION_ARITY = 6
ELIMINATE = 5
LAMBDA_HEIGHT = 5  # numerators and denominators of the Segre rescaling
SMOOTH_ROOT_HEIGHT = 5  # hyperplane coefficients are squares b^2, 1 <= b <= 5


def _normalized_section_point(ambient) -> tuple:
    """Drop the eliminated coordinate and scale the first nonzero one to 1."""
    reduced = [c for i, c in enumerate(ambient) if i != ELIMINATE]
    pivot = next(c for c in reduced if c)
    return tuple(c / pivot for c in reduced)


def _segre_section(lam, drop=None) -> Op:
    """Variety sum lam_i^3 x_i^3, hyperplane sum lam_i x_i: the Segre cubic in y = lam x.

    Its ten nodes are the points y with three coordinates +1 and three -1,
    i.e. x_i = +-1/lam_i.  `drop` leaves one of them out of the candidates.
    """
    arity = SECTION_ARITY
    variety = {_unit(arity, i, 3): lam[i] ** 3 for i in range(arity)}
    hyperplane = {_unit(arity, i): lam[i] for i in range(arity)}
    nodes = []
    for plus in combinations(range(arity), 3):
        if 0 in plus:  # one representative of each +-pair
            nodes.append([Fraction(1 if i in plus else -1) / lam[i] for i in range(arity)])
    candidates = [pt for k, pt in enumerate(nodes) if k != drop]
    scenario = {
        "schema_version": 1,
        "name": "segre-rescaled" if drop is None else "segre-rescaled-missing-node",
        "kind": "hypersurface_section",
        "ambient_arity": arity,
        "variety": poly_text(variety),
        "hyperplane": poly_text(hyperplane),
        "eliminate": ELIMINATE,
        "candidate_singular_points": [[str(c) for c in pt] for pt in candidates],
        "hypotheses": dict(HYPOTHESES),
    }
    expect = {
        "nodes": sorted(_normalized_section_point(pt) for pt in candidates),
        "complete": drop is None,
    }
    return Op("nodal" if drop is None else "incomplete", scenario, expect)


def _draw_lambda(rng: random.Random) -> list:
    return [
        Fraction(rng.choice((-1, 1)) * rng.randint(1, LAMBDA_HEIGHT), rng.randint(1, LAMBDA_HEIGHT))
        for _ in range(SECTION_ARITY)
    ]


def fermat_section_is_smooth(roots) -> bool:
    """Whether sum x_i^3 = sum b_i^2 x_i = 0 is smooth.

    A singular point has 3 x_i^2 proportional to b_i^2, so x_i = s e_i b_i
    with signs e_i; both equations then read s^k sum e_i b_i^3 = 0.  The
    section is smooth iff no signed sum of the cubes b_i^3 vanishes.
    """
    cubes = [b**3 for b in roots]
    first, rest = cubes[0], cubes[1:]
    sums = {first}
    for c in rest:
        sums = {s + c for s in sums} | {s - c for s in sums}
    return 0 not in sums


def _smooth_section(rng: random.Random) -> Op:
    arity = SECTION_ARITY
    while True:
        roots = [rng.randint(1, SMOOTH_ROOT_HEIGHT) for _ in range(arity)]
        if fermat_section_is_smooth(roots):
            break
    scenario = {
        "schema_version": 1,
        "name": "fermat-cubic-smooth-section",
        "kind": "hypersurface_section",
        "ambient_arity": arity,
        "variety": poly_text({_unit(arity, i, 3): 1 for i in range(arity)}),
        "hyperplane": poly_text({_unit(arity, i): b * b for i, b in enumerate(roots)}),
        "eliminate": ELIMINATE,
        "candidate_singular_points": [],
        "hypotheses": dict(HYPOTHESES),
    }
    return Op("smooth", scenario, {})


def sections_round(rng: random.Random) -> list:
    """1 Segre golden, 5 nodal, 2 with a node missing, 3 smooth (11 ops)."""
    ops = [Op("segre", load_golden("segre"), {})]
    ops += [_segre_section(_draw_lambda(rng)) for _ in range(5)]
    ops += [_segre_section(_draw_lambda(rng), drop=rng.randrange(10)) for _ in range(2)]
    ops += [_smooth_section(rng) for _ in range(3)]
    rng.shuffle(ops)
    return ops


# -- extendability: Fermat forms and cones under unimodular changes -------

def _bidiagonal(rng: random.Random, n: int, offset: int) -> list:
    return [[1 if i == j else (rng.choice((-1, 1)) if j == i + offset else 0)
             for j in range(n)] for i in range(n)]


def _unimodular(rng: random.Random, n: int) -> list:
    """L U with unit lower and upper bidiagonal L, U of random signs; det 1.

    The band keeps each new coordinate a mix of neighbouring variables in
    the monomial order.  With full random unitriangular factors instead, the
    Buchberger cost of one class spreads about 5x from form to form, too
    wide for a p90 that holds steady from seed to seed in a 40 s run.
    """
    lower, upper = _bidiagonal(rng, n, -1), _bidiagonal(rng, n, 1)
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _fermat_form(rng: random.Random, cls: str, arity: int, degree: int, used: int) -> Op:
    """sum_{i < used} l_i^degree for the rows l_i of a unimodular matrix.

    used == arity: a Fermat hypersurface in new coordinates, smooth, so
    extendable.  used == arity - 2: a cone whose vertex is a line, so the
    singular locus is positive-dimensional and the answer is false.
    """
    rows = _unimodular(rng, arity)
    terms: dict = {}
    for row in rows[:used]:
        _add_into(terms, _power_of_linear(row, degree))
    scenario = {
        "schema_version": 1,
        "name": f"{cls}-form",
        "kind": "extendability",
        "arity": arity,
        "polynomial": poly_text(terms),
    }
    return Op(cls, scenario, {"extendable": used == arity})


# class -> (arity, degree, forms used, ops per round).  Per op, cubic_p5
# costs about 2.5x quartic_p3, which costs about 2x every other class; the
# counts put p50 near the middle of the quartic_p3 group and p90 near the
# middle of the cubic_p5 group.
EXTENDABILITY_CLASSES = {
    "cubic_p3": (4, 3, 4, 1),
    "cubic_p4": (5, 3, 5, 1),
    "cubic_p5": (6, 3, 6, 4),
    "quartic_p3": (4, 4, 4, 11),
    "cone_cubic_p4": (5, 3, 3, 1),
    "cone_cubic_p5": (6, 3, 4, 1),
    "cone_quartic_p3": (4, 4, 2, 1),
}


def extendability_round(rng: random.Random) -> list:
    """17 Fermat forms (P^3 to P^5) and 3 cones, 20 ops."""
    ops = [
        _fermat_form(rng, cls, arity, degree, used)
        for cls, (arity, degree, used, count) in EXTENDABILITY_CLASSES.items()
        for _ in range(count)
    ]
    rng.shuffle(ops)
    return ops


# -- hodge: smooth complete intersections and level-1 scans -------------

DEGREE_MAX = 6
K_MAX = 4
# Section dimensions of the diamond ops in a round (22 smooth_ci, 6
# quadric_section).  Cost grows steeply with n.  Per round, 5 ops sort below
# the twenty n = 7 smooth_ci ops and 5 diamonds above them, so the median op
# is an n = 7 smooth_ci op both while the 6 scans sort above every diamond
# (today) and once they would sort below every one (a closed-form scan):
# a faster scan moves p50 only within that class's spread.
CI_DIMENSIONS = (3, *(7,) * 20, 9)
QUADRIC_DIMENSIONS = (3, 5, 9, 9, 9, 9)
CI_REFUSED = 2  # smooth_ci ops per round with abelian_scheme = false
QUADRIC_REFUSED = 1
# Scan boxes (n_max, d_max, k_max) in four cost tiers of similar boxes, with
# the number drawn from each per round.  The top 10% of a round's ops are
# the two dearest scans and part of the middle tier, so that tier sets p90.
SCAN_TIERS = (
    (1, ((3, 6, 3), (5, 3, 4), (7, 4, 2), (5, 6, 2), (7, 3, 3))),
    (3, ((9, 4, 2), (7, 6, 2), (7, 5, 3), (9, 3, 3), (5, 5, 4), (7, 4, 4))),
    (1, ((9, 4, 3), (9, 6, 2), (7, 6, 3))),
    (1, ((9, 5, 3), (9, 4, 4))),
)


def coniveau_level(n: int, degrees) -> int:
    """Hodge level n - 2c with c = max(0, ceil((n+k+1-sum d)/max d)); < 0 means constant."""
    k = len(degrees)
    c = max(0, -((sum(degrees) - n - k - 1) // max(degrees)))
    return n - 2 * c


def euler_number(n: int, degrees) -> int:
    """deg * [h^n] (1+h)^(n+k+1) / prod(1 + d_i h), in integers."""
    k = len(degrees)
    inverse = [1] + [0] * n  # prod 1/(1 + d h), truncated at h^n
    for d in degrees:
        for j in range(1, n + 1):
            inverse[j] -= d * inverse[j - 1]
    top = sum(comb(n + k + 1, n - j) * inverse[j] for j in range(n + 1))
    return prod(degrees) * top


def griffiths_counts(d: int, n: int) -> list:
    """Primitive middle Hodge numbers of a degree-d hypersurface (Griffiths residues).

    h^{p,n-p} counts monomials of degree (n+1-p) d - (n+2) in n+2 variables
    with exponents <= d-2.
    """
    coeffs = [1]
    for _ in range(n + 2):
        out = [0] * (len(coeffs) + d - 2)
        for i, a in enumerate(coeffs):
            for j in range(d - 1):
                out[i + j] += a
        coeffs = out
    targets = [(n + 1 - p) * d - (n + 2) for p in range(n + 1)]
    return [coeffs[t] if 0 <= t < len(coeffs) else 0 for t in targets]


def smooth_betti(n: int, degrees) -> list:
    """b_0..b_2n of a smooth complete intersection, b_n from the Euler number."""
    betti = [1 if m % 2 == 0 else 0 for m in range(2 * n + 1)]
    betti[n] = (-1) ** n * (euler_number(n, degrees) - sum(
        (-1) ** m * b for m, b in enumerate(betti) if m != n
    ))
    return betti


def level1_families(n_max: int, d_max: int, k_max: int) -> list:
    """(n, degrees) of level exactly 1 in the scan box, by the closed form."""
    return sorted(
        (n, degrees)
        for n in range(3, n_max + 1, 2)
        for k in range(1, k_max + 1)
        for degrees in combinations_with_replacement(range(2, d_max + 1), k)
        if coniveau_level(n, degrees) == 1
    )


def _draw_degrees(rng: random.Random) -> tuple:
    k = rng.randint(1, K_MAX)
    return tuple(sorted(rng.randint(2, DEGREE_MAX) for _ in range(k)))


def _smooth_ci(rng: random.Random, n: int, asserted: bool) -> Op:
    degrees = _draw_degrees(rng)
    scenario = {
        "schema_version": 1,
        "name": "smooth-ci",
        "kind": "smooth_ci",
        "dimension": n,
        "degrees": list(degrees),
        "hypotheses": {"H_nonconstant": True, "abelian_scheme": asserted},
    }
    return Op("diamond", scenario, {"n": n, "degrees": degrees, "asserted": asserted})


def _independent_forms(rng: random.Random, arity: int) -> tuple:
    while True:
        a = [rng.randint(-3, 3) for _ in range(arity)]
        b = [rng.randint(-3, 3) for _ in range(arity)]
        minors = (a[i] * b[j] - a[j] * b[i] for i in range(arity) for j in range(i + 1, arity))
        if any(minors):
            return a, b


def _quadric_section(rng: random.Random, n: int, asserted: bool) -> Op:
    """A hyperplane pair l1 * l2 (Gram rank 2) sectioning a smooth V_n(d)."""
    degrees = _draw_degrees(rng)
    arity = n + len(degrees) + 1
    a, b = _independent_forms(rng, arity)
    quadric: dict = {}
    for i in range(arity):
        for j in range(arity):
            if a[i] * b[j]:
                key = tuple(x + y for x, y in zip(_unit(arity, i), _unit(arity, j)))
                _add_into(quadric, {key: a[i] * b[j]})
    scenario = {
        "schema_version": 1,
        "name": "hyperplane-pair-section",
        "kind": "quadric_section",
        "arity": arity,
        "quadric": poly_text(quadric),
        "smooth_family": {"dimension": n, "degrees": list(degrees)},
        "section_smooth_flags": {"components_smooth_and_distinct": True},
        "hypotheses": {"H_nonconstant": True, "abelian_scheme": asserted},
    }
    return Op("quadric", scenario, {"n": n, "degrees": degrees, "asserted": asserted})


def _scan(box) -> Op:
    n_max, d_max, k_max = box
    scenario = {
        "schema_version": 1,
        "name": f"scan-n{n_max}-d{d_max}-k{k_max}",
        "kind": "level1_scan",
        "n_max": n_max,
        "d_max": d_max,
        "k_max": k_max,
    }
    return Op("scan", scenario, {"families": level1_families(*box)})


def hodge_round(rng: random.Random) -> list:
    """22 smooth_ci, 6 quadric_section, 6 scans, 2 goldens (36 ops)."""
    ops = [Op("golden", load_golden("degenerate_quadric"), {}),
           Op("golden", load_golden("smooth_cubic3fold"), {})]
    ops += [_smooth_ci(rng, n, i >= CI_REFUSED) for i, n in enumerate(CI_DIMENSIONS)]
    ops += [_quadric_section(rng, n, i >= QUADRIC_REFUSED) for i, n in enumerate(QUADRIC_DIMENSIONS)]
    ops += [_scan(rng.choice(boxes)) for count, boxes in SCAN_TIERS for _ in range(count)]
    rng.shuffle(ops)
    return ops


ROUNDS = {
    "sections": sections_round,
    "extendability": extendability_round,
    "hodge": hodge_round,
}


def rounds_for(workload: str, seed: int):
    """Endless stream of a workload's rounds; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    make_round = ROUNDS[workload]
    while True:
        yield make_round(rng)


def ops_for(workload: str, seed: int):
    for ops in rounds_for(workload, seed):
        yield from ops


def multidegree_of(op: Op):
    """(n, degrees) of an op's smooth family, or None for scans."""
    s = op.scenario
    if s["kind"] == "smooth_ci":
        return s["dimension"], tuple(sorted(s["degrees"]))
    if s["kind"] == "quadric_section":
        fam = s["smooth_family"]
        return fam["dimension"], tuple(sorted(fam["degrees"]))
    return None


# -- answer checks --------------------------------------------------------

CLASSES = ("segre", "nodal", "incomplete", "smooth", *EXTENDABILITY_CLASSES,
           "diamond", "quadric", "scan", "golden")


def _verdict_name(report):
    return report["verdict"]["verdict"] if report["verdict"] else None


def _check_segre_golden(report):
    p = report["pipeline"]
    ok = (
        _verdict_name(report) == "NO_IRREDUCIBLE_FIBER_COMPACTIFICATION"
        and p["defect"]["defect"] == 5
        and p["defect"]["b_above_middle"] == 6
        and p["singularities"]["complete"] is True
        and len(p["singularities"]["points"]) == 10
    )
    return None if ok else "segre golden anchors differ"


def _check_nodal(report, expect):
    sing = report["pipeline"]["singularities"]
    if sing["locus_dimension"] != 0:
        return f"locus dimension {sing['locus_dimension']}, expected 0"
    got = sorted(tuple(Fraction(c) for c in pt["coordinates"]) for pt in sing["points"])
    if got != expect["nodes"]:
        return "verified points differ from the constructed nodes"
    if any(pt["classification"] != "node" for pt in sing["points"]):
        return "a constructed node was not classified as a node"
    if sing["complete"] is not expect["complete"]:
        return f"complete={sing['complete']}, expected {expect['complete']}"
    if not expect["complete"]:
        return None if report["verdict"] is None else "verdict emitted without a certificate"
    p = report["pipeline"]
    if (p["defect"]["node_count"], p["defect"]["defect"]) != (10, 5):
        return f"defect {p['defect']}, expected 10 nodes and defect 5"
    if p["betti_vector"] != [1, 0, 1, None, 6, 0, 1]:
        return f"betti vector {p['betti_vector']}"
    if _verdict_name(report) != "NO_IRREDUCIBLE_FIBER_COMPACTIFICATION":
        return f"verdict {_verdict_name(report)}"
    return None


def _check_smooth_section(report):
    p = report["pipeline"]
    if p["singularities"]["locus_dimension"] != -1:
        return f"locus dimension {p['singularities']['locus_dimension']}, expected -1"
    if p["betti_vector"] != [1, 0, 1, 10, 1, 0, 1]:
        return f"betti vector {p['betti_vector']}"
    if _verdict_name(report) != "NO_OBSTRUCTION_FOUND":
        return f"verdict {_verdict_name(report)}"
    return None


def _check_extendability(report, expect):
    got = report["pipeline"]["extendable"]
    return None if got is expect["extendable"] else f"extendable={got}, expected {expect['extendable']}"


def _label(n, degrees):
    return f"V_{n}({','.join(str(d) for d in degrees)})"


def _check_refusal(report, asserted, verdict):
    if asserted:
        return None if _verdict_name(report) == verdict else f"verdict {_verdict_name(report)}"
    if report["verdict"] is not None:
        return "verdict emitted although abelian_scheme is false"
    if not any(note.startswith("verdict refused") for note in report["annotations"]):
        return "refusal is not annotated"
    return None


def _check_diamond(report, expect):
    n, degrees = expect["n"], expect["degrees"]
    h = report["pipeline"]["hodge"]
    betti = smooth_betti(n, degrees)
    level = coniveau_level(n, degrees)
    if h["label"] != _label(n, degrees):
        return f"label {h['label']}"
    if h["level"] != (level if level >= 0 else "constant"):
        return f"level {h['level']}, closed form gives {level}"
    if h["euler"] != euler_number(n, degrees):
        return f"euler {h['euler']}, expected {euler_number(n, degrees)}"
    if sum(h["middle"]) != betti[n] or report["pipeline"]["betti_vector"] != betti:
        return "betti vector disagrees with the Euler number"
    if len(degrees) == 1 and h["middle"] != griffiths_counts(degrees[0], n):
        return "middle Hodge numbers disagree with the Griffiths count"
    return _check_refusal(report, expect["asserted"], "NO_OBSTRUCTION_FOUND")


def _check_quadric(report, expect):
    n, degrees = expect["n"], expect["degrees"]
    p = report["pipeline"]
    if p["quadric"] != {"rank": 2, "reduced": True, "components_of_section": 2}:
        return f"quadric analysis {p['quadric']}"
    betti = smooth_betti(n, degrees)
    if p["smooth_family"] != {"label": _label(n, degrees), "betti": betti}:
        return "smooth family Betti vector disagrees with the Euler number"
    section = list(betti)
    section[n], section[2 * n] = None, 2
    if p["betti_vector"] != section:
        return f"section betti vector {p['betti_vector']}"
    if expect["asserted"] and report["verdict"]["witnesses"] != [{"k": n, "b_plus": 2, "b_minus": 1}]:
        return f"witnesses {report['verdict']['witnesses']}"
    return _check_refusal(report, expect["asserted"], "NO_FLAT_COMPACTIFICATION")


def _check_scan(report, expect):
    got = [(f["n"], tuple(f["degrees"])) for f in report["pipeline"]["families"]]
    return None if got == expect["families"] else "scan families differ from the closed form"


def _check_hodge_golden(report):
    p = report["pipeline"]
    if report["scenario"]["kind"] == "quadric_section":
        ok = (
            _verdict_name(report) == "NO_FLAT_COMPACTIFICATION"
            and p["quadric"]["rank"] == 2
            and p["betti_vector"][6] == 2
        )
    else:
        ok = (
            _verdict_name(report) == "NO_OBSTRUCTION_FOUND"
            and p["betti_vector"] == [1, 0, 1, 10, 1, 0, 1]
        )
    return None if ok else "golden anchors differ"


def check(op: Op, report: dict):
    """None when the report carries the constructed answer, else the reason."""
    cls = op.cls
    if cls == "segre":
        return _check_segre_golden(report)
    if cls in ("nodal", "incomplete"):
        return _check_nodal(report, op.expect)
    if cls == "smooth":
        return _check_smooth_section(report)
    if cls in EXTENDABILITY_CLASSES:
        return _check_extendability(report, op.expect)
    if cls == "diamond":
        return _check_diamond(report, op.expect)
    if cls == "quadric":
        return _check_quadric(report, op.expect)
    if cls == "scan":
        return _check_scan(report, op.expect)
    if cls == "golden":
        return _check_hodge_golden(report)
    raise ValueError(f"unknown op class {cls!r}")
