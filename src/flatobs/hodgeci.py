"""Hodge diamonds, Betti vectors, and Hodge levels of smooth complete intersections.

Primary route: exact Hirzebruch-Riemann-Roch in the truncated series ring
Q[h]/(h^{n+1}).  The tangent bundle of an n-dimensional complete
intersection X of degrees d_1..d_k in P^{n+k} is, in K-theory,
T_P|X - O - (O(d_1) + ... + O(d_k)), so the power sums of its formal Chern
roots have the closed form p_s = (n+k+1 - sum_j d_j^s) h^s for s >= 1
(Hirzebruch, Topological Methods in Algebraic Geometry, section 22).  Chern
characters of exterior powers of the cotangent bundle and the Todd class
come from these power sums; chi_p = deg(X) * [h^n] ch(Lambda^p Omega) * td(T).
Middle Hodge numbers are recovered from the chi_p together with the
hyperplane-section shape of the off-middle cohomology.

The Euler characteristic takes a second route, deg(X) * [h^n] of the total
Chern class (1+h)^{n+k+1} / prod_j (1 + d_j h), which shares no code with
the power sums.

Independent oracle (hypersurfaces only): the Griffiths residue description,
counting bounded-exponent monomials in the graded pieces of the Jacobian
ring of the Fermat-type member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

from .errors import ToolError
from .obstruct import BettiVector

__all__ = [
    "HodgeDiamond",
    "HodgeError",
    "HodgeLevel",
    "Multidegree",
    "betti_vector_smooth",
    "euler_characteristic",
    "griffiths_middle_hodge",
    "hodge_diamond",
    "linear_system_dim",
    "scan_level1",
]


class HodgeError(ToolError):
    code = "hodgeci.invalid"


@dataclass(frozen=True, order=True)
class Multidegree:
    """Smooth complete intersection of dimension n and the given degrees in P^{n+k}."""

    n: int
    degrees: tuple

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise HodgeError(f"dimension must be a positive integer, got {self.n!r}")
        degrees = tuple(self.degrees)
        if not degrees:
            raise HodgeError("at least one degree is required")
        for d in degrees:
            if not isinstance(d, int) or d < 2:
                raise HodgeError(
                    f"degrees must be integers >= 2 (degree-1 factors are rejected), got {d!r}"
                )
        object.__setattr__(self, "degrees", tuple(sorted(degrees)))

    @property
    def k(self) -> int:
        return len(self.degrees)

    @property
    def ambient(self) -> int:
        return self.n + self.k

    def label(self) -> str:
        return f"V_{self.n}({','.join(str(d) for d in self.degrees)})"


# -- truncated power series over Q ------------------------------------

def _ser(prec, const=0):
    s = [Fraction(0)] * prec
    if const:
        s[0] = Fraction(const)
    return s


def _ser_add(a, b):
    return [x + y for x, y in zip(a, b)]


def _ser_scale(a, c):
    c = Fraction(c)
    return [x * c for x in a]


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


def _ser_exp(a):
    if a[0]:
        raise HodgeError("series exp needs a zero constant term")
    prec = len(a)
    out = [Fraction(0)] * prec
    out[0] = Fraction(1)
    for m in range(1, prec):
        acc = Fraction(0)
        for j in range(1, m + 1):
            if a[j]:
                acc += j * a[j] * out[m - j]
        out[m] = acc / m
    return out


def _ser_log(a):
    if a[0] != 1:
        raise HodgeError("series log needs constant term 1")
    prec = len(a)
    # log(a) = integral of a'/a
    deriv = [(i + 1) * a[i + 1] for i in range(prec - 1)] + [Fraction(0)]
    ratio = _ser_mul(deriv, _ser_inv(a))
    out = [Fraction(0)] * prec
    for m in range(1, prec):
        out[m] = ratio[m - 1] / m
    return out


# -- the HRR pipeline --------------------------------------------------

def _factorials(prec):
    f = [1]
    for i in range(1, prec):
        f.append(f[-1] * i)
    return f


def _chern_total(md: Multidegree, prec: int):
    """Total Chern class of T_X as a series in the hyperplane class h."""
    amb = md.ambient
    c = [Fraction(comb(amb + 1, i)) if i <= amb + 1 else Fraction(0) for i in range(prec)]
    for d in md.degrees:
        line = _ser(prec, 1)
        if prec > 1:
            line[1] = Fraction(d)
        c = _ser_mul(c, _ser_inv(line))
    return c


def _todd_class(power_sums, prec: int):
    """td(T_X) = exp(sum_i q(a_i)) with q = -log((1 - e^{-a})/a)."""
    fact = _factorials(prec + 1)
    u = [Fraction((-1) ** j, fact[j + 1]) for j in range(prec)]  # (1-e^{-a})/a
    q = _ser_scale(_ser_log(u), -1)
    total = _ser(prec)
    for s in range(1, prec):
        if s <= len(power_sums) - 1 and q[s]:
            total[s] += q[s] * power_sums[s]
    return _ser_exp(total)


def _exterior_chern_characters(power_sums, n: int, prec: int):
    """ch(Lambda^p Omega_X) for p = 0..n, as series in h.

    The roots of Omega are the negated Chern roots; elementary symmetric
    functions of their exponentials are rebuilt from power sums by Newton's
    identities in the truncated series ring.
    """
    fact = _factorials(prec)
    # t_r = sum_i exp(-r a_i) = n + sum_s (-r)^s p_s h^s / s!
    t = [None] * (n + 1)
    for r in range(1, n + 1):
        series = _ser(prec, n)
        for s in range(1, prec):
            if s <= n and power_sums[s]:
                series[s] += Fraction((-r) ** s, fact[s]) * power_sums[s]
        t[r] = series
    e = [_ser(prec, 1)]
    for m in range(1, n + 1):
        acc = _ser(prec)
        for r in range(1, m + 1):
            term = _ser_mul(e[m - r], t[r])
            acc = _ser_add(acc, _ser_scale(term, Fraction(-1) ** (r - 1)))
        e.append(_ser_scale(acc, Fraction(1, m)))
    return e


@dataclass(frozen=True)
class HodgeDiamond:
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

    def level(self) -> "HodgeLevel":
        prim = self.primitive_middle()
        spreads = [abs(2 * p - self.n) for p, h in enumerate(prim) if h]
        return HodgeLevel(max(spreads) if spreads else None)


@dataclass(frozen=True)
class HodgeLevel:
    """Max |p - q| over nonzero primitive middle Hodge numbers; None = constant."""

    value: object

    @property
    def is_constant(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "constant" if self.is_constant else str(self.value)


def hodge_diamond(md: Multidegree) -> HodgeDiamond:
    """Middle Hodge numbers via exact power-series Hirzebruch-Riemann-Roch."""
    n = md.n
    prec = n + 1
    degree = prod(md.degrees)
    # p_s of the Chern roots for s >= 1; p_0 is the rank n
    p_sums = [n] + [md.ambient + 1 - sum(d**s for d in md.degrees) for s in range(1, n + 1)]
    todd = _todd_class(p_sums, prec)
    exterior = _exterior_chern_characters(p_sums, n, prec)
    middle = []
    for p in range(n + 1):
        chi = degree * _ser_mul(exterior[p], todd)[n]
        if chi.denominator != 1:
            raise HodgeError(f"chi_{p} is not an integer for {md.label()}: {chi}")
        chi = int(chi)
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
    chern = _chern_total(md, md.n + 1)
    value = prod(md.degrees) * chern[md.n]
    if value.denominator != 1:
        raise HodgeError(f"non-integer Euler characteristic for {md.label()}")
    return int(value)


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


def linear_system_dim(N: int, d: int) -> int:
    """Projective dimension of the degree-d linear system on P^N: C(N+d, d) - 1."""
    if not isinstance(N, int) or not isinstance(d, int) or N < 1 or d < 1:
        raise HodgeError(f"need positive integers, got ({N!r}, {d!r})")
    return comb(N + d, d) - 1


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
                level = hodge_diamond(md).level()
                if not level.is_constant and level.value == 1:
                    found.append(md)
    return sorted(found)
