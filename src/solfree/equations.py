"""Equations ax+by=cz, their solutions inside [1,n], and the avoidance checker.

Every other module funnels its output through :func:`require_avoiding`, the
one gate in front of :func:`avoids`; this module is deliberately small,
exact (integer arithmetic only) and free of search logic.

Conventions
-----------
* An equation is stored with positive a, c and nonnegative b.  Its
  linear-form view, :class:`LinearForm`, reads the coefficient vector
  (a, b, -c), the zero dropped when b = 0, oriented so that the positive
  coefficients outweigh the negative ones.
* Solutions are ordered triples (x, y, z) with the variables ranging
  independently over the set, so repeated values are allowed.  The constant
  triple x = y = z never solves a valid equation because a + b != c.
* A degenerate two-variable equation a*x = c*z (the y term absent) is carried
  with b = 0 and family ``TWO_VAR``; its solutions use y = 0 as a placeholder.
"""
from __future__ import annotations

import operator
import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice
from math import gcd
from typing import NamedTuple

from .errors import AvoidanceCheckFailed, InvariantViolation, MalformedEquation


class Family(Enum):
    """Coarse classification of ax+by=cz used to route the structure theory."""

    FAMILY_I = "I"  # a = 1 < b
    FAMILY_II = "II"  # a = b with gcd(b, c) = 1
    TWO_VAR = "two-var"  # degenerate pair constraint a*x = c*z
    OTHER = "other"


class Solution(NamedTuple):
    """One solution triple; y = 0 marks the unused slot of a two-variable equation."""

    x: int
    y: int
    z: int


@dataclass(frozen=True)
class LinearForm:
    """The linear-form view of an equation, built by :meth:`ThreeVarEquation.linear_form`.

    ``coeffs`` is (a, b, -c), the zero dropped when b = 0, negated if need be
    so that the positive coefficients outweigh the negative ones; so ``s`` is
    |a + b - c| > 0.
    """

    eq: ThreeVarEquation

    @cached_property
    def coeffs(self) -> tuple[int, ...]:
        a, b, c = self.eq.a, self.eq.b, self.eq.c
        cs = (a, -c) if b == 0 else (a, b, -c)
        return cs if a + b > c else tuple(-v for v in cs)

    @property
    def s_plus(self) -> int:
        return sum(c for c in self.coeffs if c > 0)

    @property
    def s_minus(self) -> int:
        return sum(-c for c in self.coeffs if c < 0)

    @property
    def s(self) -> int:
        return self.s_plus - self.s_minus

    @property
    def a_min(self) -> int:
        """Smallest absolute value among the negative coefficients."""
        return min(-c for c in self.coeffs if c < 0)


@dataclass(frozen=True)
class IntSet:
    """A finite subset of [1, n] with canonical ascending serialization."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvariantViolation(f"bound must be positive, got {self.n}")
        ms = tuple(self.members)
        ascending = all(map(operator.lt, ms, islice(ms, 1, None)))
        # the range is checked first: a sorted set has its bounds at its ends,
        # and an unsorted one, which raises either way, is scanned for them
        if ms and ((ms[0] if ascending else min(ms)) < 1 or (ms[-1] if ascending else max(ms)) > self.n):
            raise InvariantViolation(f"members must lie in [1, {self.n}]")
        if not ascending:
            raise InvariantViolation("members must be strictly ascending")
        object.__setattr__(self, "members", ms)

    @classmethod
    def of(cls, n: int, items) -> "IntSet":
        return cls(n, tuple(sorted(set(map(int, items)))))

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "IntSet":
        items = []
        for tok in filter(str.strip, text.split(",")):
            try:
                items.append(int(tok))
            except ValueError:
                raise InvariantViolation(f"set member {tok.strip()!r} is not an integer") from None
        bound = n if n is not None else (max(items) if items else 1)
        return cls.of(bound, items)

    def to_text(self) -> str:
        return ",".join(str(x) for x in self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.member_set

    def min(self) -> int:
        return self.members[0]


@dataclass(frozen=True)
class ThreeVarEquation:
    """The equation a*x + b*y = c*z with positive a, c and nonnegative b.

    b = 0 encodes the degenerate two-variable equation a*x = c*z.
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if a < 1 or b < 0 or c < 1:
            raise InvariantViolation("coefficients must be positive")
        if gcd(gcd(a, b), c) != 1:
            raise InvariantViolation(f"gcd({a},{b},{c}) must be 1")
        if a + b == c:
            raise InvariantViolation(f"{self} is translation-invariant (a+b=c)")

    @property
    def family(self) -> Family:
        if self.b == 0:
            return Family.TWO_VAR
        if self.a == 1 and self.b > 1:
            return Family.FAMILY_I
        if self.a == self.b and gcd(self.b, self.c) == 1:
            return Family.FAMILY_II
        return Family.OTHER

    def linear_form(self) -> LinearForm:
        """The oriented linear-form view of this equation."""
        return LinearForm(self)

    def __str__(self) -> str:
        def coef(v: int) -> str:
            return "" if v == 1 else str(v)

        if self.b == 0:
            return f"{coef(self.a)}x={coef(self.c)}z"
        return f"{coef(self.a)}x+{coef(self.b)}y={coef(self.c)}z"


_TERM = r"(-?\d*)\s*([xyz])"
_EQ_RE = re.compile(
    rf"^\s*{_TERM}\s*(?:\+\s*{_TERM}\s*)?=\s*{_TERM}\s*$"
)


def _coef(tok: str) -> int:
    if tok == "":
        return 1
    if tok == "-":
        return -1
    return int(tok)


def parse_equation(text: str) -> ThreeVarEquation:
    """Parse ``[k]x + [k]y = [k]z``, each coefficient defaulting to 1.

    A missing middle term, as in ``3x=2z``, yields the degenerate
    two-variable equation (b = 0).  Syntax errors raise
    :class:`MalformedEquation`; structurally valid text with a coefficient
    below 1 raises :class:`InvariantViolation`.
    """
    m = _EQ_RE.match(text)
    if not m:
        raise MalformedEquation(f"cannot parse equation {text!r}")
    c1, v1, c2, v2, c3, v3 = m.groups()
    if v2 is None:
        if v1 == v3:
            raise MalformedEquation(f"repeated variable in {text!r}")
    elif (v1, v2, v3) != ("x", "y", "z"):
        raise MalformedEquation(f"expected variables in x, y, z order in {text!r}")
    a, *b, c = (_coef(tok) for tok in (c1, c2, c3) if tok is not None)  # b == [] without a y term
    if min(a, *b, c) < 1:
        raise InvariantViolation(f"nonpositive coefficient in {text!r}")
    return ThreeVarEquation(a, b[0] if b else 0, c)


def enumerate_solutions(eq: ThreeVarEquation, n: int) -> list[Solution]:
    """All solutions with variables in [1, n], in lexicographic (x, y, z) order."""
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")
    a, b, c = eq.a, eq.b, eq.c
    out: list[Solution] = []
    for x in range(1, n + 1):
        base = a * x
        for y in range(1, n + 1) if b else (0,):
            z, r = divmod(base + b * y, c)
            if r == 0 and 1 <= z <= n:
                out.append(Solution(x, y, z))
    return out


class AvoidanceCheck(NamedTuple):
    ok: bool
    violation: Solution | None


def _dilated_mask(members, k: int) -> int:
    """The integer with bit k*v set for every v in ``members`` (ascending, k >= 1).

    Bits are set in a byte buffer and converted once, so the cost is linear
    in the set size plus the mask length, not one big-int copy per member.
    """
    if not members:
        return 0
    buf = bytearray(k * members[-1] // 8 + 1)
    for v in members:
        i = k * v
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


# the widest c-mask that avoids builds, in bits per pair of members: past it
# the pair scan costs less time and bounded memory.  The benchmark's calls
# (report-sweep, deep-solve and verify-fuzz, seeds 1-10) reach 18 at most
_PAIR_BITS = 64


def avoids(eq: ThreeVarEquation, A: IntSet) -> AvoidanceCheck:
    """True iff no triple from A solves the equation.

    On failure the lexicographically first violating solution is returned.

    Three-variable case: with B the mask of bits b*y and C the mask of bits
    c*z over A, a*x + b*y = c*z holds for some y, z in A exactly when
    ``(C >> a*x) & B`` is nonzero.  Taking x in ascending order, the first
    nonzero test gives the least x; its lowest set bit is b*y for the least
    such y, and z = (a*x + b*y)/c is then determined, so that triple is the
    lexicographic first.  Every solution has c*z = a*x + b*y <= (a+b)*max(A),
    so C holds only the members z that meet that bound: each test then
    costs about (a+b)*max(A) bits however large c is (the top interval of
    x+2y=13z at n = 30 000, 23 077 members, took ~460 ms with C over all
    of A).  Likewise b*y <= c*z - a for the largest such z, so B holds only
    the members y that meet that bound, and a huge b builds no mask wider
    than C (x+100000000y=3z over [1, 5]: no bit at all, where B over all of
    A took 62 MB).  And a*x <= c*z - b, so the tests stop at the last
    member x that meets that bound for the largest such z: past it
    ``C >> a*x`` misses B.  On multi-interval sets and Family I candidates
    that skips part of A, and where c > a + b a top interval has no z at
    all: that of x+2y=13z at n = 30 000 passes in ~1 us, where the tests of
    all its x took ~1 ms.  A huge c still widens C itself, so once C would take more
    than ``_PAIR_BITS`` bits per pair of members the check scans the pairs
    instead (see ``_avoids_by_pairs``), with the same answer:
    100000000x+y=100000002z over [1, 5] peaked at 153 MB with C.
    """
    members = A.members
    if eq.b == 0:
        mset = A.member_set
        a, c = eq.a, eq.c
        for x in members:
            z, r = divmod(a * x, c)
            if r == 0 and z in mset:
                return AvoidanceCheck(False, Solution(x, 0, z))
        return AvoidanceCheck(True, None)
    a, b, c = eq.a, eq.b, eq.c
    reach = (a + b) * members[-1] // c if members else 0  # the largest z any solution can use
    zs = members[:bisect_right(members, reach)]
    if not zs:
        return AvoidanceCheck(True, None)
    top = c * zs[-1]
    if top > _PAIR_BITS * len(members) ** 2:
        return _avoids_by_pairs(eq, A)
    cmask = _dilated_mask(zs, c)
    # b*y = c*z - a*x <= c*max(zs) - a: no larger y is in any solution
    bmask = _dilated_mask(members[:bisect_right(members, (top - a) // b)], b)
    # likewise a*x <= c*max(zs) - b: past that x the shifted c-mask misses B
    for x in members[:bisect_right(members, (top - b) // a)]:
        hits = (cmask >> a * x) & bmask
        if hits:
            by = (hits & -hits).bit_length() - 1
            return AvoidanceCheck(False, Solution(x, by // b, (a * x + by) // c))
    return AvoidanceCheck(True, None)


def _avoids_by_pairs(eq: ThreeVarEquation, A: IntSet) -> AvoidanceCheck:
    """:func:`avoids` for b >= 1 by a scan over the pairs (x, y) of A, x
    ascending and then y ascending, so that the first pair with
    (a*x + b*y)/c in A gives the lexicographically first violation.  It
    takes O(|A|^2) steps and O(|A|) memory, however large the coefficients."""
    a, b, c = eq.a, eq.b, eq.c
    members, mset = A.members, A.member_set
    top = c * members[-1] if members else 0  # no solution has a*x + b*y above c*max(A)
    for x in members:
        for y in members:
            t = a * x + b * y
            if t > top:
                break
            if t % c == 0 and t // c in mset:
                return AvoidanceCheck(False, Solution(x, y, t // c))
    return AvoidanceCheck(True, None)


def require_avoiding(eq: ThreeVarEquation, A: IntSet, what: str) -> IntSet:
    """``A`` itself if it avoids ``eq``; otherwise raise :class:`AvoidanceCheckFailed`,
    naming ``what``, the equation and the lexicographically first solution inside ``A``."""
    result = avoids(eq, A)
    if not result.ok:
        raise AvoidanceCheckFailed(f"{what} contains the solution {tuple(result.violation)} of {eq}")
    return A
