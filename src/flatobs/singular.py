"""Singularity analysis of projective hypersurfaces over Q.

Computes the singular-locus dimension from the Jacobian ideal, verifies and
classifies user-supplied rational singular points, and certifies completeness
of the point list by exact degree accounting: in every affine chart, the
Artinian quotient degree of the dehomogenized Jacobian ideal must equal the
number of verified nodes visible there.  Points are verified, never
discovered; a missing or irrational singular point shows up as a chart-count
mismatch and yields complete=False.

An empty locus needs no chart basis.  Over Q, Euler's relation
d f = sum x_i f_i puts f in the Jacobian ideal J, so V(J) is empty in P^n
and no dehomogenized chart ideal has a zero over the algebraic closure.  By
the Nullstellensatz each chart ideal is then (1), and every chart degree is
0 (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, section 4.1).

A node is a point with a nondegenerate chart Hessian.  By Euler's relation
H(p) p = (d-1) grad f(p) = 0 at a singular point p, and H is symmetric, so
the full projective Hessian has the same rank as the chart Hessian: a node
is a point where it has rank arity - 1.

Only `extendability` uses modular arithmetic, as a one-way certificate: a
singular locus of dimension <= 0 mod p = 2^31 - 1 proves the answer True,
and every other case is decided over Q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ToolError
from .idealcalc import buchberger, projective_dimension, standard_monomials
from .linalg import exact_rank
from .polyring import MultiPoly, dehomogenize

__all__ = [
    "CERTIFICATE_PRIME",
    "NODE",
    "NON_NODE_ISOLATED",
    "UNVERIFIED",
    "ProjectivePoint",
    "SingularError",
    "SingularityReport",
    "analyze_singularities",
    "extendability",
    "jacobian_ideal",
]


class SingularError(ToolError):
    code = "singular.invalid"


NODE = "node"
NON_NODE_ISOLATED = "non-node-isolated"
UNVERIFIED = "unverified"

#: Prime of the one-way mod-p certificate in `extendability`.
CERTIFICATE_PRIME = 2**31 - 1


class ProjectivePoint(tuple):
    """Point of projective space: a tuple of `Fraction`s, first nonzero = 1."""

    __slots__ = ()

    def __new__(cls, coordinates):
        coordinates = tuple(coordinates)
        for c in coordinates:
            if isinstance(c, float):
                raise SingularError(f"floating-point value {c!r} is not allowed")
        try:
            vals = tuple(Fraction(c) for c in coordinates)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise SingularError(
                f"projective coordinates must be rational numbers ({exc})"
            ) from None
        if not vals:
            raise SingularError("projective point needs at least one coordinate")
        pivot = next((v for v in vals if v), None)
        if pivot is None:
            raise SingularError("projective point must have a nonzero coordinate")
        return super().__new__(cls, (v / pivot for v in vals))

    def __str__(self) -> str:
        return "(" + " : ".join(map(str, self)) + ")"

    def __repr__(self) -> str:
        return f"ProjectivePoint{self}"


class SingularityReport(NamedTuple):
    """Outcome of analyze_singularities, as a plain tuple of its fields.

    `complete` certifies that the listed nodes account for the entire
    Jacobian scheme (each with local multiplicity 1); `chart_degrees` are the
    per-chart Artinian quotient degrees backing that certificate; for an
    empty locus they are all 0 by Euler's relation, with no basis computed.
    `jacobian_quotient_degree` is the length of the Jacobian scheme, known
    only when `complete` (it is then the node count) and None otherwise: a
    chart degree misses the points on that chart's hyperplane at infinity,
    so with unlisted points it only bounds the length from below.
    """

    locus_dimension: int
    jacobian_quotient_degree: int | None
    points: tuple
    complete: bool
    chart_degrees: tuple | None = None
    notes: tuple = ()

    def nodes(self) -> list:
        return [pt for pt, cls in self.points if cls == NODE]

    def to_json_dict(self) -> dict:
        return {
            "locus_dimension": self.locus_dimension,
            "jacobian_quotient_degree": self.jacobian_quotient_degree,
            "points": [
                {"coordinates": [str(c) for c in pt], "classification": cls}
                for pt, cls in self.points
            ],
            "complete": self.complete,
            "chart_degrees": list(self.chart_degrees) if self.chart_degrees else None,
            "notes": list(self.notes),
        }


def _validate_hypersurface(f: MultiPoly) -> None:
    if f.is_zero:
        raise SingularError("the zero polynomial does not define a hypersurface")
    if not f.is_homogeneous:
        raise SingularError("hypersurface equation must be homogeneous")
    if f.degree < 1:
        raise SingularError("hypersurface equation must have degree >= 1")


def jacobian_ideal(f: MultiPoly) -> list:
    """All first partial derivatives of f, in variable order."""
    _validate_hypersurface(f)
    return [f.partial_derivative(i) for i in range(f.arity)]


def analyze_singularities(f: MultiPoly, candidate_points=()) -> SingularityReport:
    """Locus dimension, point verification/classification, completeness.

    Candidates must be singular points of V(f): a candidate off V(f), or
    one where some partial is nonzero, is an error.  Node classification
    requires the projective Hessian to have rank arity - 1, exactly over Q.
    """
    partials = jacobian_ideal(f)
    arity = f.arity
    locus = projective_dimension(buchberger([*partials, f]))

    upper = None  # second partials f_jk, j <= k; built at the first candidate that needs them
    classified = []
    notes = []
    for pt in sorted(set(candidate_points)):
        if len(pt) != arity:
            raise SingularError(
                f"candidate {pt} has {len(pt)} coordinates, expected {arity}"
            )
        if f.evaluate(pt) != 0:
            raise SingularError(f"candidate {pt} does not lie on the hypersurface")
        if any(g.evaluate(pt) for g in partials):
            raise SingularError(f"candidate {pt} is a smooth point of the hypersurface")
        if locus > 0:
            classified.append((pt, UNVERIFIED))
            continue
        if upper is None:
            upper = [[g.partial_derivative(k) for k in range(j, arity)]
                     for j, g in enumerate(partials)]
        rows = [[h.evaluate(pt) for h in row] for row in upper]
        hessian = [[rows[min(j, k)][abs(k - j)] for k in range(arity)] for j in range(arity)]
        rank = exact_rank(hessian)
        classified.append((pt, NODE if rank == arity - 1 else NON_NODE_ISOLATED))

    if locus > 0:
        if candidate_points:
            notes.append(
                "singular locus is positive-dimensional; no point classification attempted"
            )
        return SingularityReport(
            locus_dimension=locus,
            jacobian_quotient_degree=None,
            points=tuple(classified),
            complete=False,
            chart_degrees=None,
            notes=tuple(notes),
        )

    # degree accounting per affine chart; an empty locus has unit chart ideals
    chart_degrees = [0] * arity
    if locus == 0:
        for chart in range(arity):
            chart_gens = [dehomogenize(g, chart) for g in partials if not g.is_zero]
            chart_degrees[chart] = len(standard_monomials(buchberger(chart_gens)))

    nodes = [pt for pt, cls in classified if cls == NODE]
    visible = [sum(1 for pt in nodes if pt[c]) for c in range(arity)]
    complete = all(cls == NODE for _, cls in classified) and all(
        d == v for d, v in zip(chart_degrees, visible)
    )
    return SingularityReport(
        locus_dimension=locus,
        jacobian_quotient_degree=len(nodes) if complete else None,
        points=tuple(classified),
        complete=complete,
        chart_degrees=tuple(chart_degrees),
        notes=tuple(notes),
    )


def extendability(f: MultiPoly) -> bool:
    """Whether V(f) in P^{N-1} is a hyperplane section of a smooth hypersurface.

    Equivalent criterion: the singular locus has dimension <= 0 (isolated
    singularities or smooth).  Only the locus dimension is computed here;
    use analyze_singularities for the full certificate.

    The same generators are first reduced mod p = CERTIFICATE_PRIME, when p
    divides no coefficient denominator of f and f is not 0 mod p.  The locus
    over F_p is then at least as large as over Q, so dimension <= 0 mod p
    proves the answer True; any other mod-p outcome proves nothing, and the
    exact computation over Q decides.
    """
    partials = jacobian_ideal(f)
    gens = [*partials, f]
    p = CERTIFICATE_PRIME
    reducible = all(c.denominator % p for c in f.terms.values()) and any(
        c.numerator % p for c in f.terms.values()
    )
    if reducible and projective_dimension(buchberger(gens, modulus=p)) <= 0:
        return True
    return projective_dimension(buchberger(gens)) <= 0
