"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code path with the
package: multinomial expansion by enumeration, rank by plain fraction
Gaussian elimination, monomial counting by direct iteration.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial


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
