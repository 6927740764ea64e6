"""Gröbner bases (Buchberger) and staircase queries over Q or F_p.

Supplies the commutative-algebra engine behind the singularity certificates:
reduced bases, standard-monomial enumeration (Artinian quotient dimensions),
and Krull dimension of projective zero sets via the leading-term ideal.
Every basis is taken in one monomial order, graded reverse lexicographic
(grevlex).  Intended scale is small ideals (a handful of variables, low
degree); no F4/F5.

Buchberger's algorithm takes pairs by lcm degree and prunes them with the
Gebauer–Möller update (criteria B, M and F plus coprime leads).  Every
reduction in one call goes through one divisor memo per reducer list, which
records each monomial's first divisor in list order; the memo changes no
normal form, only how fast the divisor is found.  Monomial arithmetic in the
hot loops maps `operator` functions over the exponent tuples directly
(``tuple(map(add, m, shift))``, ``all(map(le, lead, m))``) rather than
calling `polyring.monomial_divides`, which has the second form.

One Buchberger kernel serves two coefficient fields.  By default it works
over Q with exact `Fraction` coefficients.  With `modulus=p` (a prime) it
reduces the generators modulo p and works over F_p with `int` coefficients
in [0, p).  A basis mod p describes the reduction of the ideal, not the
ideal: Macaulay-matrix ranks can only drop mod p, so the Hilbert function
over F_p is at least the one over Q and the projective dimension over F_p is
an upper bound for the one over Q.  Callers may use a mod-p result only to
confirm a bound of that direction and must fall back to Q otherwise; the
singular-locus certificate in `singular` does so with p = 2^31 - 1.
"""

from __future__ import annotations

import heapq
from operator import add, le, sub

from .errors import ToolError
from .polyring import Monomial, MultiPoly, monomial_divides

__all__ = [
    "GroebnerBasis",
    "IdealError",
    "buchberger",
    "projective_dimension",
    "standard_monomials",
]


class IdealError(ToolError):
    code = "idealcalc.invalid"


def _heap_key(m: Monomial) -> tuple:
    """Grevlex as a heap key: m1 > m2 iff key(m1) < key(m2).

    Graded; on a tie the monomial with the smaller exponent at the last
    differing position is the larger.  The largest monomial is the minimum
    under the key.
    """
    return (-sum(m), *m[::-1])


class _Kernel:
    """State of one call: the field and a cache of heap keys.

    Polynomials are plain {monomial: coefficient} dicts.  A monomial's heap
    key is smaller exactly when the monomial is larger in the order, so
    `heapq` pops the largest pending monomial first.  The key cache lives
    only as long as the call.
    """

    def __init__(self, modulus):
        self.p = modulus
        self.keys: dict = {}

    def key(self, m: Monomial) -> tuple:
        k = self.keys.get(m)
        if k is None:
            k = self.keys[m] = _heap_key(m)
        return k

    def lead(self, terms: dict) -> Monomial:
        return min(terms, key=self.key)

    def coerce(self, terms: dict) -> dict:
        """Coefficients of a MultiPoly as elements of the field."""
        p = self.p
        if p is None:
            return dict(terms)
        out = {}
        for m, c in terms.items():
            if c.denominator % p == 0:
                raise IdealError(f"modulus {p} divides a coefficient denominator")
            v = c.numerator * pow(c.denominator, -1, p) % p
            if v:
                out[m] = v
        return out

    def monic(self, terms: dict):
        """(nonzero dict scaled to leading coefficient 1, its leading monomial)."""
        lm = self.lead(terms)
        c = terms[lm]
        if c != 1:
            p = self.p
            if p is None:
                inv = 1 / c
                terms = {m: v * inv for m, v in terms.items()}
            else:
                inv = pow(c, -1, p)
                terms = {m: v * inv % p for m, v in terms.items()}
        return terms, lm

    def s_polynomial(self, f: dict, lf: Monomial, g: dict, lg: Monomial) -> dict:
        """S-polynomial of two monic dicts; the leading terms cancel unbuilt."""
        p = self.p
        lcm = tuple(map(max, lf, lg))
        sf = tuple(map(sub, lcm, lf))
        sg = tuple(map(sub, lcm, lg))
        out = {tuple(map(add, m, sf)): c for m, c in f.items() if m != lf}
        for m, c in g.items():
            if m == lg:
                continue
            t = tuple(map(add, m, sg))
            old = out.get(t)
            if old is None:
                out[t] = -c if p is None else p - c
                continue
            v = old - c if p is None else (old - c) % p
            if v:
                out[t] = v
            else:
                del out[t]
        return out

    def reduce(self, terms: dict, reducers: _Reducers) -> dict:
        """Full normal form of `terms`, each step by the first reducer that divides.

        Pending monomials sit in a heap; a monomial cancelled to zero leaves a
        stale entry that is skipped when popped.  Reduction only adds terms
        below the one being reduced, so a popped monomial never comes back.
        """
        p = self.p
        keys = self.keys
        heap_key = _heap_key
        heappush = heapq.heappush
        heappop = heapq.heappop
        leads = reducers.leads
        tails = reducers.tails
        memo = reducers.memo
        work = dict(terms)
        heap = [(self.key(m), m) for m in work]
        heapq.heapify(heap)
        remainder = {}
        while heap:
            m = heappop(heap)[1]
            c = work.pop(m, None)
            if c is None:
                continue
            i = memo.get(m, -1)
            if i < 0:
                # a miss among the first ~i reducers: check only the later ones
                n = len(leads)
                for k in range(~i, n):
                    if all(map(le, leads[k], m)):
                        i = k
                        break
                else:
                    i = ~n
                memo[m] = i
                if i < 0:
                    remainder[m] = c
                    continue
            shift = tuple(map(sub, m, leads[i]))
            for gm, gc in tails[i]:
                t = tuple(map(add, gm, shift))
                old = work.get(t)
                if old is None:
                    work[t] = -c * gc if p is None else -c * gc % p
                    k = keys.get(t)
                    if k is None:
                        k = keys[t] = heap_key(t)
                    heappush(heap, (k, t))
                    continue
                v = old - c * gc if p is None else (old - c * gc) % p
                if v:
                    work[t] = v
                else:
                    del work[t]
        return remainder


class _Reducers:
    """Monic reducers in list order, with a memo of first divisors.

    Reducer i is `leads[i]` with the tail items `tails[i]`.  The memo maps a
    monomial to the index of the first reducer whose lead divides it, or to
    ~k when none of the first k reducers does.  Reducers are only appended,
    so a hit stays the first divisor and a miss is re-checked only against
    the reducers appended after it.  The memo lives as long as the list.
    """

    __slots__ = ("leads", "tails", "memo")

    def __init__(self):
        self.leads: list = []
        self.tails: list = []
        self.memo: dict = {}

    def append(self, terms: dict, lm: Monomial) -> None:
        self.leads.append(lm)
        self.tails.append([(m, c) for m, c in terms.items() if m != lm])


class GroebnerBasis:
    """Reduced Gröbner basis: monic generators, no redundant terms.

    `leads[i]` is the grevlex leading monomial of `generators[i]`; iteration
    and `len` go over the generators.  `modulus` is None over Q; otherwise the
    generators are the reduced basis of the ideal's reduction mod that prime,
    with coefficients in [0, p).
    """

    __slots__ = ("generators", "leads", "modulus")

    def __init__(self, generators: tuple, leads: tuple, modulus: int | None = None):
        self.generators = generators
        self.leads = leads
        self.modulus = modulus

    @property
    def arity(self) -> int:
        return self.generators[0].arity

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def buchberger(gens, modulus: int | None = None) -> GroebnerBasis:
    """Reduced grevlex Gröbner basis of the ideal generated by `gens`.

    Over Q by default; with a prime `modulus` p, over F_p after reducing the
    generators mod p (p must divide no coefficient denominator).  Pairs wait
    in a queue sorted by lcm degree and are pruned by the Gebauer–Möller
    update (`_update`).  Every S-polynomial is reduced against the whole
    basis so far, in list order, through one divisor memo per call
    (`_Reducers`).
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise IdealError("need at least one nonzero generator")
    arity = gens[0].arity
    if any(g.arity != arity for g in gens):
        raise IdealError("generators live in different rings")
    if modulus is not None and (not isinstance(modulus, int) or modulus < 2):
        raise IdealError(f"modulus must be a prime, got {modulus!r}")

    kernel = _Kernel(modulus)
    basis: list = []
    leads: list = []
    reducers = _Reducers()
    for g in gens:
        terms = kernel.coerce(g.terms)
        if not terms:
            continue
        terms, lm = kernel.monic(terms)
        if terms not in basis:
            basis.append(terms)
            leads.append(lm)
            reducers.append(terms, lm)
    if not basis:
        raise IdealError(f"every generator vanishes modulo {modulus}")

    active: list = []
    queue: list = []
    for t in range(len(basis)):
        active = _update(leads, active, queue, t)
    while queue:
        _, i, j, _ = heapq.heappop(queue)
        s = kernel.s_polynomial(basis[i], leads[i], basis[j], leads[j])
        r = kernel.reduce(s, reducers)
        if not r:
            continue
        r, lr = kernel.monic(r)
        basis.append(r)
        leads.append(lr)
        reducers.append(r, lr)
        active = _update(leads, active, queue, len(basis) - 1)

    reduced, reduced_leads = _autoreduce(kernel, basis, leads)
    return GroebnerBasis(tuple(MultiPoly(arity, g) for g in reduced), reduced_leads, modulus)


def _update(leads: list, active: list, queue: list, t: int) -> list:
    """Gebauer–Möller update for the new basis element t; returns the active set.

    `queue` is a heap of (lcm degree, i, j, lcm) with i < j, changed in place.
    A new pair (k, t) with k active is dropped when its lcm is a multiple of
    the lcm of another new pair still undecided or kept (criteria M and F:
    of equal lcms one survives).  Kept pairs with coprime leads are dropped
    after that, as their S-polynomials reduce to zero.  An old pair (i, j)
    is dropped when lead t divides its lcm l and lcm(i, t) != l != lcm(j, t)
    (criterion B).  Active elements whose lead is a multiple of lead t leave
    the active set; their queued pairs stay.  Gebauer and Möller, J. Symb.
    Comp. 6 (1988); Becker and Weispfenning, Gröbner Bases (1993), UPDATE.
    """
    h = leads[t]
    new = [(k, tuple(map(max, leads[k], h))) for k in active]
    kept = []
    for n, (k, l) in enumerate(new):
        coprime = l == tuple(map(add, leads[k], h))
        if coprime or not (
            any(all(map(le, other, l)) for _, other in new[n + 1 :])
            or any(all(map(le, other, l)) for _, other, _ in kept)
        ):
            kept.append((k, l, coprime))
    queue[:] = [
        entry
        for entry in queue
        if not all(map(le, h, entry[3]))
        or tuple(map(max, leads[entry[1]], h)) == entry[3]
        or tuple(map(max, leads[entry[2]], h)) == entry[3]
    ]
    heapq.heapify(queue)
    for k, l, coprime in kept:
        if not coprime:
            heapq.heappush(queue, (sum(l), k, t, l))
    return [k for k in active if not all(map(le, h, leads[k]))] + [t]


def _autoreduce(kernel: _Kernel, basis: list, leads: list) -> tuple:
    """Minimalize, then tail-reduce: (generators, their leads), largest lead first."""
    key = kernel.key
    ascending = sorted(range(len(basis)), key=lambda i: key(leads[i]), reverse=True)
    # minimalize: drop generators whose lead is divisible by a smaller lead
    minimal = []
    for i in ascending:
        lm = leads[i]
        if not any(all(map(le, lead, lm)) for lead, _ in minimal):
            minimal.append((lm, basis[i]))
    # Leads are now fixed and a tail term can only be divisible by a smaller
    # lead, so one ascending pass against the already reduced generators
    # leaves no term of any tail divisible by any lead.
    reducers = _Reducers()
    out = []
    for lm, g in minimal:
        tail = kernel.reduce({m: c for m, c in g.items() if m != lm}, reducers)
        g = {lm: g[lm], **tail}
        reducers.append(g, lm)
        out.append(g)
    out.reverse()
    return out, tuple(reversed(reducers.leads))


def standard_monomials(gb: GroebnerBasis) -> list:
    """Monomials under the staircase, by degree: a basis of the quotient.

    The staircase must be finite (an Artinian quotient), or IdealError is
    raised; the list length is then the quotient's vector-space dimension.
    """
    leads = gb.leads
    arity = gb.arity
    if any(sum(lm) == 0 for lm in leads):
        return []  # unit ideal
    finite = all(any(lm[i] and sum(lm) == lm[i] for lm in leads) for i in range(arity))
    if not finite:
        raise IdealError("staircase is infinite: the quotient is not Artinian")
    out = []
    level = [(0,) * arity]
    while level:
        out.extend(level)
        nxt = set()
        for m in level:
            for i in range(arity):
                bumped = m[:i] + (m[i] + 1,) + m[i + 1 :]
                if not any(monomial_divides(lm, bumped) for lm in leads):
                    nxt.add(bumped)
        level = sorted(nxt, reverse=True)
    return out


def projective_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of the projective zero set; -1 when it is empty.

    Computed as (size of the largest variable subset independent modulo the
    leading-term ideal) - 1 by `_largest_independent`.  For a basis mod p
    this is the dimension of the reduced ideal's zero set over the algebraic
    closure of F_p.
    """
    if any(not g.is_homogeneous for g in gb.generators):
        raise IdealError("projective dimension needs homogeneous generators")
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in gb.leads]
    return _largest_independent(frozenset(range(gb.arity)), supports) - 1


def _largest_independent(free: frozenset, supports: list) -> int:
    """Size of the largest subset of `free` that contains no support.

    Such a subset leaves out a variable of every support inside `free`: a
    one-variable support is left out at once, and otherwise the search
    branches on the variables of the smallest support.  An empty support
    (the unit ideal) leaves nothing.  The branching is still exponential on
    adversarial lead sets; a Hilbert series of the leads would bound it.
    """
    inside = [s for s in supports if s <= free]
    while inside:
        smallest = min(inside, key=len)
        if not smallest:
            return 0
        if len(smallest) > 1:
            return max(_largest_independent(free - {v}, inside) for v in smallest)
        free = free - smallest
        inside = [s for s in inside if s <= free]
    return len(free)
