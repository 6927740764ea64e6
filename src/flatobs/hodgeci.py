"""Hodge diamonds, Betti vectors, and Hodge levels of smooth complete intersections.

Every characteristic class here comes from one K-theory class.  For an
n-dimensional complete intersection X of degrees d_1..d_k in P^N, N = n + k,
the Euler sequence and the conormal sequence give

    [Omega_X] = (N+1)[O(-1)] - [O] - sum_i [O(-d_i)].

Primary route: that class expanded into line bundles in integers.  With
L = [O(-1)],

    sum_p [Lambda^p Omega_X] t^p = (1 + t L)^{N+1} / ((1 + t) prod_i (1 + t L^{d_i}))
                                 = sum_{p,e} a_{p,e} t^p L^e,

so chi_p = chi(Omega^p_X) = sum_e a_{p,e} chi(X, O(-e)).  Exact
Hirzebruch-Riemann-Roch is needed only for the line bundles (Hirzebruch,
Topological Methods in Algebraic Geometry, section 22):

    chi(X, O(-e)) = deg(X) [h^n] e^{-e h} td(T_X),
    td(T_X) = B(h)^{N+1} / prod_i B(d_i h),  with B(h) = h / (1 - e^{-h}),

one dot product with the Todd series in Q[h]/(h^{n+1}) per distinct e,
each required to be an integer.  Middle Hodge numbers are recovered from
the chi_p together with the hyperplane-section shape of the off-middle
cohomology.

The Euler characteristic takes a second route, deg(X) * [h^n] of the total
Chern class (1+h)^{N+1} / prod_i (1 + d_i h) expanded in integers; it shares
only the K-class with the Hodge route.

Independent oracle (hypersurfaces only): the Griffiths residue description,
counting bounded-exponent monomials in the graded pieces of the Jacobian
ring of the Fermat-type member.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod
from typing import NamedTuple

from .errors import ToolError
from .obstruct import BettiVector

__all__ = [
    "HodgeDiamond",
    "HodgeError",
    "Multidegree",
    "betti_vector_smooth",
    "euler_characteristic",
    "griffiths_middle_hodge",
    "hodge_diamond",
    "scan_level1",
]


class HodgeError(ToolError):
    code = "hodgeci.invalid"


_MultidegreeFields = NamedTuple("_MultidegreeFields", [("n", int), ("degrees", tuple)])


class Multidegree(_MultidegreeFields):
    """Smooth complete intersection V_n(degrees) in P^{n+k}: the tuple (n, sorted degrees)."""

    __slots__ = ()

    def __new__(cls, n: int, degrees):
        if not isinstance(n, int) or n < 1:
            raise HodgeError(f"dimension must be a positive integer, got {n!r}")
        degrees = tuple(degrees)
        if not degrees:
            raise HodgeError("at least one degree is required")
        for d in degrees:
            if not isinstance(d, int) or d < 2:
                raise HodgeError(
                    f"degrees must be integers >= 2 (degree-1 factors are rejected), got {d!r}"
                )
        return super().__new__(cls, n, tuple(sorted(degrees)))

    @property
    def k(self) -> int:
        return len(self.degrees)

    @property
    def ambient(self) -> int:
        return self.n + self.k

    def label(self) -> str:
        return f"V_{self.n}({','.join(str(d) for d in self.degrees)})"


# -- truncated power series over Q ------------------------------------

def _ser_mul(a, b):
    prec = len(a)
    out = [Fraction(0)] * prec
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(prec - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def _ser_inv(a):
    if not a[0]:
        raise HodgeError("series inverse needs a nonzero constant term")
    prec = len(a)
    out = [Fraction(0)] * prec
    out[0] = 1 / a[0]
    for m in range(1, prec):
        acc = Fraction(0)
        for j in range(1, m + 1):
            if a[j]:
                acc += a[j] * out[m - j]
        out[m] = -acc / a[0]
    return out


# -- the Hodge pipeline ------------------------------------------------

def _factorials(prec):
    f = [1]
    for i in range(1, prec):
        f.append(f[-1] * i)
    return f


def _chern_total(md: Multidegree, prec: int) -> list:
    """Total Chern class of T_X as an integer series in the hyperplane class h.

    (1+h)^{N+1} has coefficients C(N+1, j); dividing by 1 + d h is the
    recurrence c_j <- c_j - d c_{j-1} in increasing j.
    """
    c = [comb(md.ambient + 1, j) for j in range(prec)]
    for d in md.degrees:
        for j in range(1, prec):
            c[j] -= d * c[j - 1]
    return c


def _line_bundle_expansion(md: Multidegree):
    """[Lambda^p Omega_X] = sum_e a_{p,e} [O(-e)] for p = 0..n, as {e: a_{p,e}} dicts.

    With L = [O(-1)], the coefficient of t^p in (1 + t L)^{N+1} is
    C(N+1, p) L^p.  Dividing by 1 + c t, for c = 1 and then c = L^d per
    degree d, is the recurrence a_p <- a_p - c a_{p-1} in increasing p;
    multiplying by L^d shifts e by d.
    """
    a = [{p: comb(md.ambient + 1, p)} for p in range(md.n + 1)]
    for shift in (0, *md.degrees):
        for p in range(1, md.n + 1):
            row = a[p]
            for e, c in a[p - 1].items():
                row[e + shift] = row.get(e + shift, 0) - c
    return [{e: c for e, c in row.items() if c} for row in a]


def _todd_class(md: Multidegree, prec: int):
    """td(T_X) = B(h)^{N+1} / prod_i B(d_i h), with B(h) = h / (1 - e^{-h}).

    B(h)^{N+1} is taken by repeated squaring.  1 / B(d h) = (1 - e^{-d h}) / (d h)
    is the series of 1 / B(h) with coefficient s scaled by d^s.
    """
    fact = _factorials(prec + 1)
    inverse_b = [Fraction((-1) ** s, fact[s + 1]) for s in range(prec)]
    power = _ser_inv(inverse_b)
    td = [Fraction(1)] + [Fraction(0)] * (prec - 1)
    exponent = md.ambient + 1
    while exponent:
        if exponent & 1:
            td = _ser_mul(td, power)
        exponent >>= 1
        if exponent:
            power = _ser_mul(power, power)
    for d in md.degrees:
        td = _ser_mul(td, [c * d**s for s, c in enumerate(inverse_b)])
    return td


class HodgeDiamond(NamedTuple):
    """Hodge numbers of a smooth complete intersection.

    `middle` lists h^{p, n-p} for p = 0..n (totals: for even n the diagonal
    entry includes the hyperplane-power class).  Off the middle row,
    h^{p,q} = 1 if p == q else 0.
    """

    n: int
    middle: tuple

    def primitive_middle(self) -> tuple:
        out = list(self.middle)
        if self.n % 2 == 0:
            out[self.n // 2] -= 1
        return tuple(out)

    def betti(self, m: int) -> int:
        if m < 0 or m > 2 * self.n:
            return 0
        if m == self.n:
            return sum(self.middle)
        return 1 if m % 2 == 0 else 0

    def betti_list(self) -> list:
        return [self.betti(m) for m in range(2 * self.n + 1)]

    def euler(self) -> int:
        return sum((-1) ** m * self.betti(m) for m in range(2 * self.n + 1))

    def level(self) -> int | None:
        """Max |p - q| over nonzero primitive middle Hodge numbers; None = constant."""
        prim = self.primitive_middle()
        spreads = [abs(2 * p - self.n) for p, h in enumerate(prim) if h]
        return max(spreads) if spreads else None


def hodge_diamond(md: Multidegree) -> HodgeDiamond:
    """Middle Hodge numbers from chi(Omega^p_X) = sum_e a_{p,e} chi(X, O(-e))."""
    n = md.n
    degree = prod(md.degrees)
    fact = _factorials(n + 1)
    todd = _todd_class(md, n + 1)
    expansion = _line_bundle_expansion(md)
    line_chi = {}  # e -> chi(X, O(-e)) = deg(X) [h^n] e^{-e h} td(T_X)
    for e in sorted(set().union(*expansion)):
        chi = degree * sum(Fraction((-e) ** s, fact[s]) * todd[n - s] for s in range(n + 1))
        if chi.denominator != 1:
            raise HodgeError(f"chi(O({-e})) is not an integer for {md.label()}: {chi}")
        line_chi[e] = int(chi)
    middle = []
    for p, row in enumerate(expansion):
        chi = sum(a * line_chi[e] for e, a in row.items())
        chi_trivial = (-1) ** p if 2 * p != n else 0
        h = (-1) ** (n - p) * (chi - chi_trivial)
        if h < 0:
            raise HodgeError(f"negative Hodge number h^{p},{n - p} = {h} for {md.label()}")
        middle.append(h)
    diamond = HodgeDiamond(n, tuple(middle))
    if diamond.middle != tuple(reversed(diamond.middle)):
        raise HodgeError(f"Hodge symmetry violated for {md.label()}: {diamond.middle}")
    return diamond


def euler_characteristic(md: Multidegree) -> int:
    """Topological Euler characteristic: deg(X) * [h^n] c(T_X)."""
    return prod(md.degrees) * _chern_total(md, md.n + 1)[md.n]


def griffiths_middle_hodge(d: int, n: int) -> tuple:
    """Primitive middle Hodge numbers of a smooth degree-d hypersurface of dim n.

    h^{p, n-p}_prim counts monomials of total degree (n+1-p)d - (n+2) in
    n+2 variables with every exponent <= d-2 (a graded piece of the Milnor
    algebra of the Fermat member).  Hypersurface case only.
    """
    if not isinstance(d, int) or d < 2:
        raise HodgeError(f"hypersurface degree must be an integer >= 2, got {d!r}")
    if not isinstance(n, int) or n < 1:
        raise HodgeError(f"dimension must be a positive integer, got {n!r}")
    variables = n + 2
    max_exp = d - 2
    # coefficient list of (1 + z + ... + z^{d-2})^{n+2}
    coeffs = [1]
    block = [1] * (max_exp + 1)
    for _ in range(variables):
        out = [0] * (len(coeffs) + max_exp)
        for i, a in enumerate(coeffs):
            if a:
                for j, b in enumerate(block):
                    out[i + j] += a * b
        coeffs = out
    counts = []
    for p in range(n + 1):
        target = (n + 1 - p) * d - (n + 2)
        counts.append(coeffs[target] if 0 <= target < len(coeffs) else 0)
    return tuple(counts)


def betti_vector_smooth(diamond: HodgeDiamond) -> BettiVector:
    """Full Betti vector b_0..b_{2n} of the smooth family member."""
    return BettiVector(diamond.n, tuple(diamond.betti_list()))


def scan_level1(n_max: int, d_max: int, k_max: int) -> list:
    """All multidegrees of level exactly 1 in the box: n odd <= n_max, k <= k_max, 2 <= d <= d_max.

    Box-relative by construction; curves (n = 1) are excluded and degree-1
    factors are rejected at the type level.
    """
    if not isinstance(n_max, int) or n_max < 3:
        raise HodgeError(f"n_max must be an integer >= 3, got {n_max!r}")
    if d_max < 2 or k_max < 1:
        raise HodgeError(f"empty scan box: d_max={d_max!r}, k_max={k_max!r}")
    found = []
    for n in range(3, n_max + 1, 2):
        for k in range(1, k_max + 1):
            for degrees in combinations_with_replacement(range(2, d_max + 1), k):
                md = Multidegree(n, degrees)
                if hodge_diamond(md).level() == 1:
                    found.append(md)
    return sorted(found)
