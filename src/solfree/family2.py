"""Closed-form extremal sets for equations b(x+y) = cz with b > 1, gcd(b,c) = 1.

Three regimes, exhaustive because coprimality rules out c = b and c = 2b:

* c > 2b      hybrid: a top interval plus the non-multiples of b below it,
              size n - floor(2n/c)
* 2 <= c < 2b non-multiples of b, size n - floor(n/b)
* c = 1       top interval (n/(2b), n], size n - floor(n/(2b))
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .constructions import Interval, StructuredSet
from .equations import ThreeVarEquation, require_avoiding
from .errors import AvoidanceCheckFailed, InvariantViolation


@dataclass(frozen=True)
class Family2Extremal:
    b: int
    c: int
    n: int
    case: str  # "i" (c > 2b), "ii" (2 <= c < 2b), "iii" (c = 1)
    structured: StructuredSet

    @property
    def size(self) -> int:
        return self.structured.size

    def equation(self) -> ThreeVarEquation:
        return ThreeVarEquation(self.b, self.b, self.c)


def closed_form_size(b: int, c: int, n: int) -> int:
    """Case-appropriate size formula, dispatching exactly as the constructor does."""
    if c == 1:
        return n - n // (2 * b)
    if c < 2 * b:
        return n - n // b
    return n - 2 * n // c


def family2_extremal(b: int, c: int, n: int) -> Family2Extremal:
    """Build the extremal avoiding set for b(x+y) = cz; verified by the checker."""
    if b < 2:
        raise InvariantViolation(f"b must be at least 2, got {b}")
    if c < 1:
        raise InvariantViolation(f"c must be positive, got {c}")
    if gcd(b, c) != 1:
        raise InvariantViolation(f"gcd({b},{c}) must be 1")
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")

    if c == 1:
        case = "iii"
        lo = n // (2 * b)
        structured = StructuredSet(n, (Interval(lo, n, closed_lo=False),))
    elif c < 2 * b:
        # c = b and c = 2b are impossible under coprimality, so 2 <= c here
        case = "ii"
        removed = tuple(range(b, n + 1, b))
        structured = StructuredSet(n, (Interval(1, n),), removed=removed)
    else:
        case = "i"
        split = 2 * b * n // c  # x in the low part iff c*x <= 2bn
        intervals = []
        removed: tuple[int, ...] = ()
        if split >= 1:
            intervals.append(Interval(1, min(split, n)))
            removed = tuple(range(b, min(split, n) + 1, b))
        if split < n:
            intervals.append(Interval(split, n, closed_lo=False))
        structured = StructuredSet(n, tuple(intervals), removed=removed)

    result = Family2Extremal(b, c, n, case, structured)
    expected = closed_form_size(b, c, n)
    if result.size != expected:  # pragma: no cover - formula bug guard
        raise AvoidanceCheckFailed(
            f"size {result.size} disagrees with the closed form {expected} for (b={b}, c={c}, n={n})"
        )
    require_avoiding(result.equation(), structured.materialize(), AvoidanceCheckFailed,
                     f"family2_extremal({b}, {c}, {n})")
    return result
