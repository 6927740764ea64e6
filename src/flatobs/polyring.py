"""Sparse multivariate polynomials over Q.

Variables are positional (``x0``, ``x1``, ...); exponent vectors are dense
tuples with one entry per variable.  Coefficients are exact rationals
(`fractions.Fraction`); nothing in this package touches floating point.
`MultiPoly` is a validated container with no ring operators: every
polynomial is built by one constructor call from its (monomial,
coefficient) terms, and the constructor sums repeated monomials.  Monomial
divisibility maps `operator.le` over the exponent tuples
(``all(map(le, a, b))``); `idealcalc` writes the same form inline in the
hot loops of its Gröbner kernel.

Evaluation at a rational point and restriction to a hyperplane run in
integers: the point or the hyperplane is written as an integer vector over
one common denominator (`clear_denominators`), the coefficients as integers
over the lcm of theirs, and `Fraction`s are built only at the end.  This is
the fraction-free idea of Bareiss elimination (Math. Comp. 22 (1968)) that
`linalg.exact_rank` uses.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add, le
from typing import Mapping, Sequence

from .errors import ToolError

__all__ = [
    "Monomial",
    "MultiPoly",
    "ParseError",
    "PolyringError",
    "clear_denominators",
    "dehomogenize",
    "monomial_divides",
    "monomials_of_degree",
    "parse_poly",
    "restrict_to_hyperplane",
]

#: Dense exponent vector, one nonnegative integer per variable.
Monomial = tuple

_ZERO = Fraction(0)


class PolyringError(ToolError):
    code = "polyring.invalid"


class ParseError(PolyringError):
    """Malformed polynomial text; `position` is a 0-based offset into it."""

    code = "polyring.parse"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def monomials_of_degree(arity: int, degree: int) -> list[Monomial]:
    """All exponent vectors of the given total degree, descending lex order."""
    if arity < 1 or degree < 0:
        raise PolyringError(f"bad arity/degree pair ({arity}, {degree})")
    out: list[Monomial] = []

    def emit(prefix: tuple, remaining_vars: int, remaining_deg: int) -> None:
        if remaining_vars == 1:
            out.append(prefix + (remaining_deg,))
            return
        for e in range(remaining_deg, -1, -1):
            emit(prefix + (e,), remaining_vars - 1, remaining_deg - e)

    emit((), arity, degree)
    return out


def _coerce_scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise PolyringError(f"floating-point value {value!r} is not allowed")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise PolyringError(f"{value!r} is not a rational number") from None


def clear_denominators(point: Sequence) -> tuple:
    """(a, q): integers a_i and the lcm q of the denominators, with point = a / q."""
    coords = [_coerce_scalar(v) for v in point]
    q = lcm(*[x.denominator for x in coords])
    return [x.numerator * (q // x.denominator) for x in coords], q


class MultiPoly:
    """Immutable sparse polynomial in Q[x0, ..., x{arity-1}].

    Terms map exponent tuples to nonzero Fractions; repeated monomials in
    the input are summed.  Instances are never mutated after construction;
    all operations return new polynomials.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=()):
        if not isinstance(arity, int) or arity < 1:
            raise PolyringError(f"arity must be a positive integer, got {arity!r}")
        acc: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != arity:
                raise PolyringError(
                    f"exponent vector {mono!r} has length {len(mono)}, expected {arity}"
                )
            if any(not isinstance(e, int) or e < 0 for e in mono):
                raise PolyringError(f"exponents must be nonnegative integers: {mono!r}")
            c = _coerce_scalar(coeff)
            if c:
                acc[mono] = acc.get(mono, _ZERO) + c
        self.arity = arity
        self.terms = {m: c for m, c in acc.items() if c}

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    @property
    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.terms}) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def partial_derivative(self, index: int) -> "MultiPoly":
        if not 0 <= index < self.arity:
            raise PolyringError(f"variable index {index} out of range for arity {self.arity}")
        acc = {}
        for m, c in self.terms.items():
            e = m[index]
            if e:
                dm = m[:index] + (e - 1,) + m[index + 1 :]
                acc[dm] = acc.get(dm, _ZERO) + c * e
        return MultiPoly(self.arity, acc)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point, summed in integers.

        With point = a / q and coefficients c_m = n_m / L over their lcm L,
        the value is sum_m n_m a^m q^(top-|m|) / (L q^top), where top is the
        degree; only that last quotient is a `Fraction`.
        """
        if len(point) != self.arity:
            raise PolyringError(
                f"point has length {len(point)}, expected {self.arity}"
            )
        ints, q = clear_denominators(point)
        if not self.terms:
            return _ZERO
        scale = lcm(*[c.denominator for c in self.terms.values()])
        degrees = [sum(m) for m in self.terms]
        top = max(degrees)
        total = 0
        for (m, c), deg in zip(self.terms.items(), degrees):
            v = c.numerator * (scale // c.denominator)
            for x, e in zip(ints, m):
                if e:
                    v *= x**e
            if deg != top:
                v *= q ** (top - deg)
            total += v
        return Fraction(total, scale * q**top)

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            coeff = self.terms[mono]
            atoms = [
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(mono)
                if e
            ]
            mag = abs(coeff)
            if not atoms:
                body = str(mag)
            elif mag == 1:
                body = "*".join(atoms)
            else:
                body = "*".join([str(mag), *atoms])
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.arity}: {self})"


# -- parsing ---------------------------------------------------------

_TOKEN = re.compile(r"(?P<int>\d+)|x(?P<index>\d+)|(?P<op>[+\-*/^])")
_WS = re.compile(r"\s+")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        ws = _WS.match(text, pos)
        if ws:
            pos = ws.end()
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), pos))
        elif m.lastgroup == "index":
            tokens.append(("var", int(m.group("index")), pos))
        else:
            tokens.append((m.group("op"), None, pos))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the fixed grammar.

    expression := ['+'|'-'] term (('+'|'-') term)*
    term       := [coeff] ('*'? atom)*
    atom       := var ('^' uint)?
    coeff      := uint | uint '/' uint(positive)
    """

    def __init__(self, text: str, arity: int):
        self.text = text
        self.arity = arity
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expression(self) -> MultiPoly:
        if not self.tokens:
            raise ParseError("empty polynomial text", 0)
        sign = 1
        kind, _, _ = self.peek()
        if kind in ("+", "-"):
            self.take()
            sign = -1 if kind == "-" else 1
        terms = [self.term(sign)]
        while True:
            kind, _, pos = self.peek()
            if kind is None:
                return MultiPoly(self.arity, terms)
            if kind == "+":
                self.take()
                terms.append(self.term(1))
            elif kind == "-":
                self.take()
                terms.append(self.term(-1))
            elif kind == "/":
                raise ParseError("division is only allowed inside a rational coefficient", pos)
            else:
                raise ParseError("expected '+' or '-' between terms", pos)

    def term(self, sign: int) -> tuple:
        """One (monomial, coefficient) pair."""
        kind, value, pos = self.peek()
        coeff = Fraction(sign)
        saw_content = False
        if kind == "int":
            self.take()
            numerator = value
            kind2, value2, pos2 = self.peek()
            if kind2 == "/":
                self.take()
                kind3, value3, pos3 = self.peek()
                if kind3 != "int":
                    raise ParseError("expected an integer denominator after '/'", pos3)
                self.take()
                if value3 <= 0:
                    raise ParseError("denominator must be a positive integer", pos3)
                coeff *= Fraction(numerator, value3)
            else:
                coeff *= numerator
            saw_content = True
        exponents = [0] * self.arity
        while True:
            kind, value, pos = self.peek()
            if kind == "*":
                self.take()
                kind, value, pos = self.peek()
                if kind != "var":
                    raise ParseError("expected a variable after '*'", pos)
            elif kind != "var":
                break
            self.take()  # the variable token
            if value >= self.arity:
                raise ParseError(
                    f"variable index {value} out of range for arity {self.arity}", pos
                )
            exp = 1
            kind2, value2, pos2 = self.peek()
            if kind2 == "^":
                self.take()
                kind3, value3, pos3 = self.peek()
                if kind3 != "int":
                    raise ParseError("expected an integer exponent after '^'", pos3)
                self.take()
                exp = value3
            exponents[value] += exp
            saw_content = True
        if not saw_content:
            raise ParseError("expected a term", pos)
        return tuple(exponents), coeff


def parse_poly(text: str, arity: int) -> MultiPoly:
    """Parse polynomial text into canonical form.

    The grammar admits integer or rational coefficients ("2", "2/3"), atoms
    ``x<i>`` with optional ``^<uint>``, optional ``*`` separators, and a
    top-level sign.  Parse/print round-trips are exact.
    """
    if not isinstance(arity, int) or arity < 1:
        raise PolyringError(f"arity must be a positive integer, got {arity!r}")
    return _Parser(text, arity).expression()


# -- coordinate operations -------------------------------------------


def restrict_to_hyperplane(p: MultiPoly, hyperplane: MultiPoly, eliminated: int) -> MultiPoly:
    """Substitute the hyperplane's solution for one variable and drop it.

    `hyperplane` must be a nonzero homogeneous linear form with nonzero
    coefficient on the eliminated variable.  Remaining variables are
    renumbered to close the gap, so the result has arity reduced by one.
    Homogeneity of `p` is preserved.

    With the hyperplane's coefficients cleared to integers a_j, the
    eliminated variable is x_e = L / a_e for the integer form
    L = -sum_{j != e} a_j y_j.  The powers L^k are built in integers, one
    multiplication by L at a time, and the terms c_m L^k / a_e^k are summed
    over the one denominator lcm(c_m denominators) * a_e^top.
    """
    if p.arity != hyperplane.arity:
        raise PolyringError(f"arity mismatch: {p.arity} vs {hyperplane.arity}")
    if not 0 <= eliminated < p.arity:
        raise PolyringError(f"variable index {eliminated} out of range for arity {p.arity}")
    if p.arity < 2:
        raise PolyringError("cannot eliminate the only variable")
    if hyperplane.is_zero or hyperplane.degree != 1 or not hyperplane.is_homogeneous:
        raise PolyringError("hyperplane must be a nonzero homogeneous linear form")
    coeffs = [0] * p.arity
    for mono, c in hyperplane.terms.items():
        coeffs[mono.index(1)] = c
    ints, _ = clear_denominators(coeffs)
    ce = ints.pop(eliminated)
    if ce == 0:
        raise PolyringError("hyperplane has zero coefficient on the eliminated variable")
    linear = [(j, -a) for j, a in enumerate(ints) if a]
    needed = {m[eliminated] for m in p.terms}
    top = max(needed, default=0)
    power = {(0,) * (p.arity - 1): 1}  # L^k, integer coefficients
    powers = {0: power}
    for k in range(1, top + 1):
        acc: dict = {}
        for m, c in power.items():
            for j, a in linear:
                t = m[:j] + (m[j] + 1,) + m[j + 1 :]
                acc[t] = acc.get(t, 0) + c * a
        power = acc
        if k in needed:
            powers[k] = power
    scale = lcm(*[c.denominator for c in p.terms.values()])
    result: dict = {}
    for mono, c in p.terms.items():
        k = mono[eliminated]
        reduced = mono[:eliminated] + mono[eliminated + 1 :]
        v = c.numerator * (scale // c.denominator) * ce ** (top - k)
        for m, pc in powers[k].items():
            t = tuple(map(add, reduced, m))
            result[t] = result.get(t, 0) + v * pc
    denominator = scale * ce**top
    return MultiPoly(p.arity - 1, {m: Fraction(v, denominator) for m, v in result.items()})


def dehomogenize(p: MultiPoly, chart: int) -> MultiPoly:
    """Set x_chart = 1 and drop it: the affine-chart form of a projective p."""
    if not 0 <= chart < p.arity:
        raise PolyringError(f"variable index {chart} out of range for arity {p.arity}")
    if p.arity < 2:
        raise PolyringError("cannot dehomogenize the only variable")
    acc: dict = {}
    for mono, coeff in p.terms.items():
        reduced = mono[:chart] + mono[chart + 1 :]
        acc[reduced] = acc.get(reduced, _ZERO) + coeff
    return MultiPoly(p.arity - 1, acc)
