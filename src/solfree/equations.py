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
from enum import Enum
from functools import cached_property
from itertools import islice
from math import gcd
from typing import NamedTuple

from .errors import AvoidanceCheckFailed, InvariantViolation, MalformedEquation


class Family(Enum):
    """Coarse classification of ax+by=cz used to route the structure theory."""

    FAMILY_I = "I"  # a = 1 < b
    # a = b with gcd(b, c) = 1.  That takes in x + y = cz (a = b = 1), which
    # no Family II construction serves: solfree.family2 needs b >= 2
    FAMILY_II = "II"
    TWO_VAR = "two-var"  # degenerate pair constraint a*x = c*z
    OTHER = "other"


def eligible(b: int, c: int) -> bool:
    """True iff c*(b-1) > (b+1)*b^2, the regime of x + b*y = c*z (Family I)
    where the two-interval classification of ``solfree.family1`` applies.
    It lives here, beside ``Family``, so that a caller can ask it without
    loading ``family1``, which imports it from here."""
    if b < 2:
        raise InvariantViolation(f"b must be at least 2, got {b}")
    if c < 1:
        raise InvariantViolation(f"c must be positive, got {c}")
    return c * (b - 1) > (b + 1) * b * b


class Solution(NamedTuple):
    """One solution triple; y = 0 marks the unused slot of a two-variable equation."""

    x: int
    y: int
    z: int


class Value:
    """Base of the validated value types: immutable ``__slots__`` objects,
    not tuples, whose fields are the ``__slots__`` of their classes other
    than ``__dict__``, base classes first.

    A value equals only a value of the same class with equal fields,
    hashes as the tuple of its fields, prints as ``Name(field=value, ...)``
    and raises :class:`AttributeError` when any attribute is assigned or
    deleted.  Pickle and :mod:`copy` rebuild it through the constructor, so
    a copy is validated again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(name for name in vars(cls).get("__slots__", ()) if name != "__dict__")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key()


class LinearForm(Value):
    """The linear-form view of an equation, built by :meth:`ThreeVarEquation.linear_form`.

    ``coeffs`` is (a, b, -c), the zero dropped when b = 0, negated if need be
    so that the positive coefficients outweigh the negative ones; so ``s`` is
    |a + b - c| > 0.
    """

    __slots__ = ("eq", "__dict__")  # __dict__ holds the cached coeffs

    def __init__(self, eq: ThreeVarEquation) -> None:
        object.__setattr__(self, "eq", eq)

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


class IntSet(Value):
    """A finite subset of [1, n] with canonical ascending serialization."""

    __slots__ = ("n", "members", "__dict__")  # __dict__ holds the cached member_set

    def __init__(self, n: int, members: tuple[int, ...]) -> None:
        if n < 1:
            raise InvariantViolation(f"bound must be positive, got {n}")
        ms = tuple(members)
        ascending = all(map(operator.lt, ms, islice(ms, 1, None)))
        # the range is checked first: a sorted set has its bounds at its ends,
        # and an unsorted one, which raises either way, is scanned for them
        if ms and ((ms[0] if ascending else min(ms)) < 1 or (ms[-1] if ascending else max(ms)) > n):
            raise InvariantViolation(f"members must lie in [1, {n}]")
        if not ascending:
            raise InvariantViolation("members must be strictly ascending")
        object.__setattr__(self, "n", n)
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


class ThreeVarEquation(Value):
    """The equation a*x + b*y = c*z with positive a, c and nonnegative b.

    b = 0 encodes the degenerate two-variable equation a*x = c*z.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        # set before the checks: the last message prints the equation
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if a < 1 or b < 0 or c < 1:
            raise InvariantViolation("coefficients must be positive")
        if gcd(gcd(a, b), c) != 1:
            raise InvariantViolation(f"gcd({a},{b},{c}) must be 1")
        if a + b == c:
            raise InvariantViolation(f"{self} is translation-invariant (a+b=c)")

    # the base's __eq__ and __hash__ spelled out, at a quarter of their cost:
    # an equation keys the solver cache, which every solve looks up
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.a == other.a and self.b == other.b and self.c == other.c
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c))

    @property
    def family(self) -> Family:
        """The equation's family.  x + y = cz (a = b = 1) is classified as
        FAMILY_II, but no Family II construction serves it: those need b >= 2."""
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
    """A coefficient's digits as an int, "" reading 1 and "-" reading -1."""
    return int(tok + "1" if tok in ("", "-") else tok)


def parse_equation(text: str) -> ThreeVarEquation:
    """Parse ``[k]x + [k]y = [k]z``, each coefficient defaulting to 1.

    A missing middle term, as in ``3x=2z``, yields the degenerate
    two-variable equation (b = 0).  Syntax errors, and a coefficient of
    more digits than ``int()`` converts, raise
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
    try:
        a, *b, c = (_coef(tok) for tok in (c1, c2, c3) if tok is not None)  # b == [] without a y term
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits())
        raise MalformedEquation(f"coefficient too long in {text!r}") from None
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
