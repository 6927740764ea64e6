"""Betti vectors of singular sections.

Two mechanisms from the worked scenarios:

* nodal odd-dimensional hypersurface sections: the defect of the node set
  (failure to impose independent conditions on forms of the conditions
  degree t) gives b_{n+1} = 1 + defect, with the middle entry left UNKNOWN;
* quadric sections: the exact Gram rank decides reducibility (rank <= 2
  means a union of hyperplanes), and a two-component section has b_{2n} = 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple

from .errors import ToolError
from .linalg import exact_rank
from .obstruct import UNKNOWN, BettiVector
from .polyring import MultiPoly, clear_denominators, monomials_of_degree

__all__ = [
    "BettiComputationError",
    "DefectReport",
    "QuadricAnalysis",
    "betti_vector_nodal",
    "conditions_degree",
    "defect",
    "evaluation_matrix",
    "gram_matrix",
    "quadric_analysis",
]


class BettiComputationError(ToolError):
    code = "bettisng.invalid"


class DefectReport(NamedTuple):
    """Defect of a node set with respect to degree-t forms."""

    t: int
    node_count: int
    imposed_rank: int
    defect: int
    b_above_middle: int


def conditions_degree(n: int, d: int) -> int:
    """Conditions degree t for nodes on a degree-d section of odd dimension n.

    t = ((n+1)/2) d - n - 2, specializing to 2d - 5 for threefolds.  A
    negative result signals an unsupported (n, d) combination; `defect`
    rejects it.
    """
    if n % 2 == 0:
        raise BettiComputationError(f"conditions degree needs odd dimension, got n={n}")
    return ((n + 1) // 2) * d - n - 2


def evaluation_matrix(nodes, t: int) -> list:
    """mu x C(N+t, t) matrix of all degree-t monomials evaluated at each node.

    A node a / q (integers over one common denominator) gives the entry
    a^m / q^t for the monomial x^m: integer products, one `Fraction` each.
    """
    arity = len(nodes[0])
    monos = monomials_of_degree(arity, t)
    rows = []
    for node in nodes:
        ints, q = clear_denominators(node)
        denominator = q**t
        rows.append([Fraction(prod(map(pow, ints, mono)), denominator) for mono in monos])
    return rows


def defect(nodes, t: int) -> DefectReport:
    """Defect report for a verified node set in P^N.

    Callers are responsible for the node certificate (see the pipeline in
    `cli`, which refuses incomplete or non-node certificates).
    """
    if not isinstance(t, int) or t < 0:
        raise BettiComputationError(
            f"conditions degree must be a nonnegative integer, got {t!r} "
            "(negative values signal an unsupported dimension/degree combination)"
        )
    nodes = list(nodes)
    if not nodes:
        raise BettiComputationError("need at least one node")
    arity = len(nodes[0])
    if any(len(node) != arity for node in nodes):
        raise BettiComputationError("nodes have inconsistent coordinate lengths")
    if len(set(nodes)) != len(nodes):
        raise BettiComputationError("duplicate nodes in input")
    rank = exact_rank(evaluation_matrix(nodes, t))
    delta = len(nodes) - rank
    return DefectReport(
        t=t,
        node_count=len(nodes),
        imposed_rank=rank,
        defect=delta,
        b_above_middle=1 + delta,
    )


def betti_vector_nodal(smooth: BettiVector, report: DefectReport) -> BettiVector:
    """Betti vector of the nodal section from the smooth member's vector.

    Only b_n (set to UNKNOWN; no verdict consumes it) and b_{n+1} (set to
    1 + defect) change.
    """
    n = smooth.n
    if n % 2 == 0:
        raise BettiComputationError(f"nodal Betti vectors need odd dimension, got n={n}")
    entries = list(smooth.entries)
    entries[n] = UNKNOWN
    entries[n + 1] = report.b_above_middle
    return BettiVector(n, tuple(entries))


class QuadricAnalysis(NamedTuple):
    """Gram-rank classification of a quadric hypersurface.

    components_of_section is 2 (hyperplane pair, given the user-asserted
    smooth/distinct sections), "irreducible" (rank >= 3), or None when
    undetermined (rank 1, or rank 2 without the assertion).
    """

    rank: int
    reduced: bool
    components_of_section: object


def gram_matrix(q: MultiPoly) -> list:
    """Symmetric Gram matrix: G_ii = coeff of x_i^2, G_ij = half of x_i x_j."""
    if q.is_zero or not q.is_homogeneous or q.degree != 2:
        raise BettiComputationError("quadric analysis needs a nonzero homogeneous quadratic")
    arity = q.arity
    g = [[Fraction(0)] * arity for _ in range(arity)]
    for mono, coeff in q.terms.items():
        support = [i for i, e in enumerate(mono) if e]
        if len(support) == 1:
            i = support[0]
            g[i][i] = coeff
        else:
            i, j = support
            g[i][j] = g[j][i] = coeff / 2
    return g


def quadric_analysis(q: MultiPoly, *, components_smooth_and_distinct: bool = False) -> QuadricAnalysis:
    """Classify a quadric by exact Gram rank.

    rank 1: a double hyperplane (non-reduced); rank 2: a pair of distinct
    hyperplanes, so the section has two components when the caller asserts
    the two hyperplane sections are smooth and distinct; rank >= 3: the
    quadric is irreducible.
    """
    rank = exact_rank(gram_matrix(q))
    if rank == 1:
        return QuadricAnalysis(rank=1, reduced=False, components_of_section=None)
    if rank == 2:
        components = 2 if components_smooth_and_distinct else None
        return QuadricAnalysis(rank=2, reduced=True, components_of_section=components)
    return QuadricAnalysis(rank=rank, reduced=True, components_of_section="irreducible")
