"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares only the `MultiPoly`
container with the package, not its arithmetic: sums and products term by
term through the constructor, multinomial expansion by enumeration,
rank by plain fraction Gaussian elimination, monomial counting by direct
iteration, Gröbner bases by Buchberger's algorithm with every pair reduced,
the projective dimension of a lead set by scanning every variable subset,
exponent arithmetic by generators over `zip`, point evaluation term by term
in `Fraction`s, Hodge numbers of complete intersections from Hirzebruch's
chi_y generating function, the Chern characters ch(Lambda^p Omega_X) as
`Fraction` series in h, and the Hodge level from the coniveau formula.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial
from operator import neg

from flatobs.polyring import MultiPoly


def expand_linear_power(coeffs, power):
    """Expand (sum_i coeffs[i]*x_i)**power by raw multinomial enumeration.

    Returns {exponent tuple: Fraction}.
    """
    arity = len(coeffs)
    acc = {}
    for combo in combinations_with_replacement(range(arity), power):
        exps = [0] * arity
        for i in combo:
            exps[i] += 1
        multinomial = factorial(power)
        for e in exps:
            multinomial //= factorial(e)
        value = Fraction(multinomial)
        for i, e in zip(range(arity), exps):
            value *= Fraction(coeffs[i]) ** e
        if value:
            key = tuple(exps)
            acc[key] = acc.get(key, Fraction(0)) + value
    return {k: v for k, v in acc.items() if v}


def brute_rank(rows):
    """Rank of a rational matrix by plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def count_bounded_monomials(num_vars, degree, max_exponent):
    """Count exponent tuples with given total degree, each entry <= max_exponent.

    Direct product iteration; only usable for small instances.
    """
    if degree < 0 or max_exponent < 0:
        return 0
    return sum(
        1
        for exps in product(range(max_exponent + 1), repeat=num_vars)
        if sum(exps) == degree
    )


def brute_standard_monomials(lead_monomials, arity, max_degree):
    """All monomials of degree <= max_degree not divisible by any lead monomial.

    Listed by total degree, descending lex within a degree (the package's
    canonical enumeration order).
    """
    out = []
    for degree in range(max_degree + 1):
        level = []
        for exps in product(range(degree + 1), repeat=arity):
            if sum(exps) != degree:
                continue
            if any(all(l <= e for l, e in zip(lead, exps)) for lead in lead_monomials):
                continue
            level.append(exps)
        out.extend(sorted(level, reverse=True))
    return out


def is_palindromic(b):
    """b_{n+k} == b_{n-k} for every k >= 1; the middle entry is not read."""
    e, n = b.entries, b.n
    return all(e[n + k] == e[n - k] for k in range(1, n + 1))


def is_weakly_palindromic(b):
    """b_{n+k} == b_{n-k} for every k >= 2."""
    e, n = b.entries, b.n
    return all(e[n + k] == e[n - k] for k in range(2, n + 1))


def expected_verdict(b):
    """The verdict fields a Betti vector fixes, by direct comparison of entries.

    None when some b_{n+k} < b_{n-k}, which contradicts the hypotheses.
    Otherwise the verdict, both palindromicity flags and the witnesses: the
    failed comparisons with k >= 2 if there are any, else all failed ones.
    """
    e, n = b.entries, b.n
    if any(e[n + k] < e[n - k] for k in range(1, n + 1)):
        return None
    failed = [
        {"k": k, "b_plus": e[n + k], "b_minus": e[n - k]}
        for k in range(1, n + 1)
        if e[n + k] != e[n - k]
    ]
    if not is_weakly_palindromic(b):
        name = "NO_FLAT_COMPACTIFICATION"
        failed = [w for w in failed if w["k"] >= 2]
    elif not is_palindromic(b):
        name = "NO_IRREDUCIBLE_FIBER_COMPACTIFICATION"
    else:
        name = "NO_OBSTRUCTION_FOUND"
    return {
        "verdict": name,
        "weakly_palindromic": is_weakly_palindromic(b),
        "palindromic": is_palindromic(b),
        "witnesses": failed,
    }


# -- exponent-vector helpers --------------------------------------------------
#
# Generators over `zip`: the product of monomials for `naive_mul`, and
# `polyring.monomial_divides` in its first form.


def zip_monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def zip_monomial_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


# -- ring arithmetic ----------------------------------------------------------
#
# `MultiPoly` has no ring operators; these build each sum or product from its
# terms with one constructor call, which sums repeated monomials.


def naive_add(f, g, scale=1):
    """f + scale * g."""
    return MultiPoly(f.arity, [*f.terms.items(), *((m, scale * c) for m, c in g.terms.items())])


def naive_mul(f, g):
    """f * g, one term per pair of terms."""
    return MultiPoly(
        f.arity,
        [(zip_monomial_mul(a, b), c * d) for a, c in f.terms.items() for b, d in g.terms.items()],
    )


# -- point evaluation ---------------------------------------------------------
#
# `MultiPoly.evaluate` in its first form: one `Fraction` power per exponent and
# one `Fraction` sum per term.


def naive_evaluate(p, point):
    coords = [Fraction(v) for v in point]
    total = Fraction(0)
    for m, c in p.terms.items():
        v = c
        for x, e in zip(coords, m):
            if e:
                v *= x**e
        total += v
    return total


# -- Gröbner bases by plain Buchberger ---------------------------------------
#
# Polynomials are `MultiPoly`s; over F_p their coefficients are the integers
# in [0, p).  The order is grevlex: a larger sort key is a larger monomial.


def _grevlex_key(m):
    return (sum(m), tuple(map(neg, reversed(m))))


def _in_field(p, modulus):
    if modulus is None:
        return p
    return MultiPoly(
        p.arity,
        {m: c.numerator * pow(c.denominator, -1, modulus) % modulus for m, c in p.terms.items()},
    )


def _divide(a, b, modulus):
    return a / b if modulus is None else a * pow(int(b), -1, modulus) % modulus


def naive_lead(p):
    """Grevlex leading monomial of a nonzero polynomial."""
    return max(p.terms, key=_grevlex_key)


def _term(arity, mono, coeff):
    return MultiPoly(arity, {mono: coeff})


def _monic(p, modulus):
    inverse = _divide(1, p.terms[naive_lead(p)], modulus)
    return _in_field(naive_add(MultiPoly(p.arity), p, inverse), modulus)


def _lcm_degree(f, g):
    return sum(map(max, naive_lead(f), naive_lead(g)))


def naive_s_polynomial(f, g, modulus=None):
    """lcm/LT(f) * f - lcm/LT(g) * g for the lcm of the leading monomials."""
    lf, lg = naive_lead(f), naive_lead(g)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    sf = _term(f.arity, tuple(a - b for a, b in zip(lcm, lf)), _divide(1, f.terms[lf], modulus))
    sg = _term(g.arity, tuple(a - b for a, b in zip(lcm, lg)), _divide(1, g.terms[lg], modulus))
    return _in_field(naive_add(naive_mul(sf, f), naive_mul(sg, g), -1), modulus)


def naive_normal_form(f, divisors, modulus=None):
    """Remainder of f by the division algorithm: the largest term first, each
    step by the first divisor in list order whose leading monomial divides it."""
    leads = [(naive_lead(g), g) for g in divisors]
    arity = f.arity
    f = dict(_in_field(f, modulus).terms)
    remainder = {}
    while f:
        m = max(f, key=_grevlex_key)
        c = f.pop(m)
        for lg, g in leads:
            if all(a <= b for a, b in zip(lg, m)):
                q = tuple(a - b for a, b in zip(m, lg))
                k = _divide(c, g.terms[lg], modulus)
                for gm, gc in g.terms.items():
                    if gm != lg:
                        t = tuple(a + b for a, b in zip(q, gm))
                        v = f.get(t, 0) - k * gc
                        v = v if modulus is None else v % modulus
                        if v:
                            f[t] = v
                        else:
                            f.pop(t, None)
                break
        else:
            remainder[m] = c
    return MultiPoly(arity, remainder)


def naive_groebner(gens, modulus=None):
    """Reduced Gröbner basis, largest leading monomial first.

    Buchberger's algorithm with no pair criteria: every pair of the growing
    list is reduced, one of least lcm degree first (the newest among those),
    and a nonzero remainder joins the list.  The result is then minimalized
    and each tail replaced by its normal form.  Empty when every generator
    vanishes (mod p), and [1] as soon as a remainder is a nonzero constant.
    """
    reduced_gens = [_in_field(g, modulus) for g in gens]
    basis = [_monic(g, modulus) for g in reduced_gens if not g.is_zero]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = min(reversed(pairs), key=lambda ij: _lcm_degree(basis[ij[0]], basis[ij[1]]))
        pairs.remove((i, j))
        s = naive_s_polynomial(basis[i], basis[j], modulus)
        r = naive_normal_form(s, basis, modulus)
        if set(r.terms) == {(0,) * r.arity}:  # a unit: the ideal is (1)
            return [_monic(r, modulus)]
        if not r.is_zero:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(_monic(r, modulus))
    minimal = []
    for g in sorted(basis, key=lambda g: _grevlex_key(naive_lead(g))):
        lg = naive_lead(g)
        if not any(all(a <= b for a, b in zip(naive_lead(h), lg)) for h in minimal):
            minimal.append(g)
    reduced = []
    for g in minimal:
        top = _term(g.arity, naive_lead(g), 1)
        reduced.append(naive_add(top, naive_normal_form(naive_add(g, top, -1), minimal, modulus)))
    return sorted(reduced, key=lambda g: _grevlex_key(naive_lead(g)), reverse=True)


def naive_quotient_dimension(gens, modulus=None):
    """dim of the quotient by the ideal, from the naive basis; None if infinite.

    The staircase is finite exactly when every variable has a pure power
    x_i^a_i among the leads.  Every standard monomial then has degree below
    D = sum(a_i), so `brute_standard_monomials` up to D counts all of them.
    """
    leads = [naive_lead(g) for g in naive_groebner(gens, modulus)]
    arity = gens[0].arity
    powers = [min((lm[i] for lm in leads if sum(lm) == lm[i]), default=None)
              for i in range(arity)]
    if None in powers:
        return None
    return len(brute_standard_monomials(leads, arity, sum(powers)))


def subset_scan_dimension(leads, arity):
    """Projective dimension of the zero set of a monomial ideal, by subset scan.

    (size of the largest variable subset containing the support of no lead)
    - 1, trying every subset largest first; -1 for the unit ideal.
    """
    if any(sum(lm) == 0 for lm in leads):
        return -1
    supports = [{i for i, e in enumerate(lm) if e} for lm in leads]
    for size in range(arity, 0, -1):
        for subset in combinations(range(arity), size):
            if all(not s <= set(subset) for s in supports):
                return size - 1
    return -1


def naive_chart_degrees(f):
    """Per-chart quotient degree of the Jacobian ideal of a form f.

    Chart c sets x_c = 1 in every partial of f and drops x_c; its degree is
    `naive_quotient_dimension` of those generators, which is 0 for the unit
    ideal.  Partials and charts are taken here term by term.
    """
    degrees = []
    for chart in range(f.arity):
        gens = []
        for i in range(f.arity):
            terms = {}
            for m, c in f.terms.items():
                if m[i]:
                    key = tuple(e - (j == i) for j, e in enumerate(m) if j != chart)
                    terms[key] = terms.get(key, 0) + m[i] * c
            gens.append(MultiPoly(f.arity - 1, terms))
        degrees.append(naive_quotient_dimension(gens))
    return tuple(degrees)


# -- Hodge numbers from the chi_y genus ----------------------------------------
#
# Hirzebruch, Topological Methods in Algebraic Geometry, section 22: for
# complete intersections V_n(d_1..d_k),
#   sum_n chi_y(V_n(d)) z^{n+k}
#     = 1/((1+zy)(1-z)) * prod_i ((1+zy)^{d_i} - (1-z)^{d_i}) / ((1+zy)^{d_i} + y(1-z)^{d_i}),
# where chi_y = sum_p chi(Omega^p) y^p.


def _chi_y_at(n, degrees, y):
    """chi_y(V_n(degrees)) at one rational y >= 0, from truncated series in z."""
    prec = n + len(degrees) + 1

    def binomial(b, e):  # (1 + b z)^e
        return [Fraction(comb(e, j)) * b**j for j in range(prec)]

    def mul(s, t):
        return [sum(s[i] * t[m - i] for i in range(m + 1)) for m in range(prec)]

    def div(s, t):
        out = []
        for m in range(prec):
            out.append((s[m] - sum(t[i] * out[m - i] for i in range(1, m + 1))) / t[0])
        return out

    one = [Fraction(1)] + [Fraction(0)] * (prec - 1)
    series = div(one, mul(binomial(y, 1), binomial(-1, 1)))
    for d in degrees:
        plus, minus = binomial(y, d), binomial(-1, d)
        numerator = [a - b for a, b in zip(plus, minus)]
        denominator = [a + y * b for a, b in zip(plus, minus)]
        series = mul(series, div(numerator, denominator))
    return series[prec - 1]


def chi_y_middle_hodge(md):
    """h^{p, n-p} for p = 0..n of the smooth complete intersection `md`.

    chi_y is evaluated at y = 0..n and its coefficients chi^p = chi(Omega^p)
    recovered by Lagrange interpolation; off the middle row h^{p,q} is 1 when
    p == q and 0 otherwise, which fixes h^{p, n-p} from chi^p.
    """
    n = md.n
    chi = [Fraction(0)] * (n + 1)
    for j in range(n + 1):
        basis, scale = [Fraction(1)], Fraction(1)  # prod_{m != j} (y - m) / (j - m)
        for m in range(n + 1):
            if m != j:
                basis = [a - m * b for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
                scale /= j - m
        value = _chi_y_at(n, md.degrees, Fraction(j))
        chi = [c + value * scale * b for c, b in zip(chi, basis)]
    trivial = [0 if 2 * p == n else (-1) ** p for p in range(n + 1)]
    return tuple((-1) ** (n - p) * (chi[p] - trivial[p]) for p in range(n + 1))


# -- Chern characters of the exterior powers of Omega_X ------------------------
#
# `hodgeci`'s first K-theory route: the same class
# [Omega_X] = (N+1)[O(-1)] - [O] - sum_i [O(-d_i)], pushed through ch as
# `Fraction` series in the hyperplane class h instead of expanded into line
# bundles.


def exterior_chern_characters(md, prec):
    """ch(Lambda^p Omega_X) for p = 0..n, as series in h truncated at h^{prec-1}.

    The coefficients of y^p in (1 + y e^{-h})^{N+1} are C(N+1, p) e^{-p h}.
    Dividing by 1 + c y, for c = 1 and then c = e^{-d h} per degree d, is
    the recurrence ch_p <- ch_p - c ch_{p-1} in increasing p.
    """

    def exp_neg(a):  # e^{-a h}
        return [Fraction((-a) ** s, factorial(s)) for s in range(prec)]

    def mul(s, t):
        return [sum(s[i] * t[m - i] for i in range(m + 1)) for m in range(prec)]

    ch = [[comb(md.ambient + 1, p) * c for c in exp_neg(p)] for p in range(md.n + 1)]
    for p in range(1, md.n + 1):
        ch[p] = [a - b for a, b in zip(ch[p], ch[p - 1])]
    for d in md.degrees:
        shift = exp_neg(d)
        for p in range(1, md.n + 1):
            ch[p] = [a - b for a, b in zip(ch[p], mul(shift, ch[p - 1]))]
    return ch


# -- Hodge level in closed form -------------------------------------------------


def coniveau_level(md):
    """Hodge level of the smooth complete intersection `md`, or None if constant.

    The coniveau is c = max(0, ceil((n + k + 1 - sum d_i) / max d_i)) and the
    level is n - 2c, constant when that is negative (Deligne, SGA 7 II,
    Exp. XI).
    """
    excess = md.n + md.k + 1 - sum(md.degrees)
    coniveau = max(0, -(-excess // max(md.degrees)))
    level = md.n - 2 * coniveau
    return level if level >= 0 else None
