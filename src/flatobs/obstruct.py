"""Verdict engine: local IH dimensions from Betti differences, obstructions.

The verdict is read off the local intersection cohomology at the section's
parameter point, dim IH^k = b_{n+k} - b_{n-k}.  The logic is strictly
one-directional.  A nonzero IH^k with k >= 2 rules out a flat regular
compactification, and a nonzero IH^1 rules out one with irreducible fibers;
an all-zero profile rules out nothing, and NO_OBSTRUCTION_FOUND never asserts
that a compactification exists.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ToolError

__all__ = [
    "UNKNOWN",
    "BettiVector",
    "CorobResult",
    "DISCLAIMER",
    "Hypotheses",
    "InputInconsistentError",
    "ObstructError",
    "corob_check",
    "ih_from_betti",
    "verdict_report",
]


class ObstructError(ToolError):
    code = "obstruct.invalid"


class HypothesisError(ObstructError):
    code = "obstruct.hypothesis"


class InputInconsistentError(ObstructError):
    """A negative Betti difference contradicts the asserted hypotheses."""

    code = "obstruct.input_inconsistent"


#: Marker for an unknown middle Betti number (never consulted by verdicts).
UNKNOWN = None

DISCLAIMER = (
    "One-directional check: the verdicts rule compactifications out; "
    "NO_OBSTRUCTION_FOUND does not assert that a compactification exists."
)


_BettiFields = NamedTuple("_BettiFields", [("n", int), ("entries", tuple)])


class BettiVector(_BettiFields):
    """b_0..b_{2n} of an n-dimensional section; the middle entry may be UNKNOWN."""

    __slots__ = ()

    def __new__(cls, n: int, entries):
        if not isinstance(n, int) or n < 1:
            raise ObstructError(f"dimension must be a positive integer, got {n!r}")
        entries = tuple(entries)
        if len(entries) != 2 * n + 1:
            raise ObstructError(
                f"expected {2 * n + 1} entries for dimension {n}, got {len(entries)}"
            )
        for m, value in enumerate(entries):
            if value is UNKNOWN:
                if m != n:
                    raise ObstructError("only the middle entry may be UNKNOWN")
                continue
            if not isinstance(value, int) or value < 0:
                raise ObstructError(f"b_{m} must be a nonnegative integer, got {value!r}")
        if entries[0] < 1:
            raise ObstructError("b_0 must be at least 1")
        return super().__new__(cls, n, entries)

    def b(self, m: int):
        """b_m, reading entries outside [0, 2n] as 0."""
        if m < 0 or m > 2 * self.n:
            return 0
        return self.entries[m]

    @property
    def middle(self):
        return self.entries[self.n]

    def to_json(self) -> list:
        return list(self.entries)


class Hypotheses(NamedTuple):
    """Caller-asserted mathematical hypotheses; the tool cannot prove them."""

    H_nonconstant: bool
    abelian_scheme: bool


def ih_from_betti(b: BettiVector, H_nonconstant: bool) -> tuple:
    """Local IH dimensions at the section's parameter point, from Betti differences.

    Returns (None, dim IH^1, ..., dim IH^n) with dim IH^k = b_{n+k} - b_{n-k}.
    Requires the non-constancy hypothesis; any negative difference is an
    inconsistency error, never a clamped value.  IH^0 is not derivable this
    way and is reported as None.
    """
    if not H_nonconstant:
        raise HypothesisError(
            "refusing to apply the Betti-difference formula: "
            "it requires the non-constant variation hypothesis (H_nonconstant=true)"
        )
    dims = [None]
    for k in range(1, b.n + 1):
        diff = b.b(b.n + k) - b.b(b.n - k)
        if diff < 0:
            raise InputInconsistentError(
                f"b_{b.n + k} - b_{b.n - k} = {diff} < 0 contradicts the asserted hypotheses"
            )
        dims.append(diff)
    return tuple(dims)


def verdict_report(b: BettiVector, hypotheses: Hypotheses) -> dict:
    """Obstruction verdict and IH profile in the wire JSON schema.

    Both hypothesis flags must be asserted true by the caller.  Everything
    else is read off dim IH^k = b_{n+k} - b_{n-k}; the middle Betti entry is
    never consulted.  The witnesses are the nonzero IH^k with k >= 2 when
    there are any, else the nonzero IH^1.
    """
    missing = [
        name
        for name, ok in [
            ("H_nonconstant", hypotheses.H_nonconstant),
            ("abelian_scheme", hypotheses.abelian_scheme),
        ]
        if not ok
    ]
    if missing:
        raise HypothesisError(
            "refusing to emit a verdict: the obstruction corollaries require "
            f"hypotheses asserted true, missing: {', '.join(missing)}"
        )
    ih = ih_from_betti(b, True)
    nonzero = [k for k in range(1, b.n + 1) if ih[k]]
    high = [k for k in nonzero if k >= 2]
    if high:
        outcome, evidence = "NO_FLAT_COMPACTIFICATION", high
    elif nonzero:
        outcome, evidence = "NO_IRREDUCIBLE_FIBER_COMPACTIFICATION", nonzero
    else:
        outcome, evidence = "NO_OBSTRUCTION_FOUND", []
    return {
        "verdict": outcome,
        "weakly_palindromic": not high,
        "palindromic": not nonzero,
        "ih_dims": list(ih),
        "witnesses": [
            {"k": k, "b_plus": b.b(b.n + k), "b_minus": b.b(b.n - k)} for k in evidence
        ],
        "hypotheses": hypotheses._asdict(),
        "disclaimer": DISCLAIMER,
    }


class VanishingWitness(NamedTuple):
    """Nonvanishing table entry that triggers an exclusion."""

    j: int
    k: int
    dim: int
    reason: str


class CorobResult(NamedTuple):
    flat_excluded: bool
    irreducible_excluded: bool
    witnesses: tuple


def corob_check(ih_table: dict, n: int) -> CorobResult:
    """Vanishing checks on a table (j, k) -> dim IH^j_s(R^k).

    Flat compactifications force all entries with j+k > 2n to vanish;
    irreducible fibers additionally force IH^j(R^{2n-j}) = 0 for j > 0 and
    IH^0(R^{2n}) = 1.  The (0, 2n) entry is only tested when supplied:
    absence means "not asserted", since the local-invariant dimension is
    always at least 1 and cannot honestly be 0.
    """
    witnesses = []
    flat_excluded = False
    for (j, k), dim in sorted(ih_table.items()):
        if dim < 0:
            raise ObstructError(f"table entry ({j}, {k}) is negative")
        if j + k > 2 * n and dim:
            flat_excluded = True
            witnesses.append(VanishingWitness(j, k, dim, "nonzero with j+k > 2n"))
    irreducible_excluded = flat_excluded
    for (j, k), dim in sorted(ih_table.items()):
        if j > 0 and j + k == 2 * n and dim:
            irreducible_excluded = True
            witnesses.append(
                VanishingWitness(j, k, dim, "nonzero with j > 0 and j+k = 2n")
            )
    top = ih_table.get((0, 2 * n))
    if top is not None and top != 1:
        irreducible_excluded = True
        witnesses.append(
            VanishingWitness(0, 2 * n, top, "local invariants of R^{2n} not 1-dimensional")
        )
    return CorobResult(flat_excluded, irreducible_excluded, tuple(witnesses))

