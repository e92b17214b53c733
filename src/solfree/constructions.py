"""Constructive lower bounds: residue classes, top intervals, multi-interval
sets built from the shrinking recurrence, two-variable chain greedy sets, and
the cube-valuation sets that beat the two-interval density at c = b*b.

Every constructor returns its set through :func:`~solfree.equations.require_avoiding`,
so a set that contains a solution raises :class:`~solfree.errors.AvoidanceCheckFailed`
instead of being returned; a broken precondition, such as a modulus q that
divides s, raises :class:`~solfree.errors.InvariantViolation`.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import chain, filterfalse
from math import gcd
from typing import NamedTuple

from .equations import IntSet, LinearForm, ThreeVarEquation, Value, require_avoiding
from .errors import Infeasible, InvariantViolation

_FIXED_POINT_CAP = 1000  # downward iteration shrinks xi every step, so this is generous


class Interval(NamedTuple):
    """Integer interval with inclusive right end; ``closed_lo`` picks [lo, hi] vs (lo, hi]."""

    lo: int
    hi: int
    closed_lo: bool = True

    @property
    def first(self) -> int:
        return self.lo if self.closed_lo else self.lo + 1

    @property
    def length(self) -> int:
        return max(0, self.hi - self.first + 1)

    def members(self) -> range:
        return range(self.first, self.hi + 1)

    def to_json_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "closed_lo": self.closed_lo}


class StructuredSet(Value):
    """Symbolic union of disjoint intervals minus removed singletons."""

    __slots__ = ("n", "intervals", "removed")

    def __init__(self, n: int, intervals: tuple[Interval, ...], removed: tuple[int, ...] = ()) -> None:
        ordered = tuple(sorted(intervals, key=lambda iv: iv.first))
        removed = tuple(sorted(set(removed)))
        spans = [iv for iv in ordered if iv.length]
        end = 0  # the largest member of the intervals checked so far
        for iv in spans:
            if iv.first < 1 or iv.hi > n:
                raise InvariantViolation(f"interval {iv} escapes [1, {n}]")
            if iv.first <= end:
                raise InvariantViolation("intervals must be pairwise disjoint")
            end = iv.hi
        inside = sum(bisect_right(removed, iv.hi) - bisect_left(removed, iv.first) for iv in spans)
        if inside != len(removed):
            raise InvariantViolation("removed singletons must lie inside the intervals")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "intervals", ordered)
        object.__setattr__(self, "removed", removed)

    def __contains__(self, x: int) -> bool:
        return x not in self.removed and any(iv.first <= x <= iv.hi for iv in self.intervals)

    def materialize(self) -> IntSet:
        members = chain.from_iterable(iv.members() for iv in self.intervals)
        if self.removed:
            members = filterfalse(set(self.removed).__contains__, members)
        return IntSet(self.n, tuple(members))

    @property
    def size(self) -> int:
        return sum(iv.length for iv in self.intervals) - len(self.removed)

    def to_json_dict(self) -> dict:
        return {
            "intervals": [iv.to_json_dict() for iv in self.intervals],
            "removed": list(self.removed),
            "size": self.size,
        }


def residue_set(form: LinearForm, q: int, n: int) -> IntSet:
    """The class {x in [1, n] : x = 1 mod q}; avoiding because the coefficient
    sum s is not divisible by q."""
    if q < 2:
        raise InvariantViolation(f"q must be at least 2, got {q}")
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")
    if form.s % q == 0:
        raise InvariantViolation(f"q={q} divides s={form.s}")
    return require_avoiding(form.eq, IntSet.of(n, range(1, n + 1, q)), f"residue_set(q={q}, n={n})")


def top_interval(form: LinearForm, n: int) -> IntSet:
    """The interval (s_minus/s_plus * n, n]: the k = 1 multi-interval set."""
    return require_avoiding(form.eq, _multi_interval(form, n, 1).materialize(), f"top_interval(n={n})")


def _interval_sequence(form: LinearForm, n: int, k: int, xi: int) -> list[int]:
    """n_1..n_k, each maximal under s_plus^2 * n_{j+1} <= a*s_minus*n_j + (s_minus - a)*xi*s_plus."""
    sp, sm, a = form.s_plus, form.s_minus, form.a_min
    seq = [n]
    for _ in range(k - 1):
        nxt = (a * sm * seq[-1] + (sm - a) * xi * sp) // (sp * sp)
        if nxt < 1:
            raise Infeasible(f"interval sequence dies at length {len(seq)} (k={k}, xi={xi})")
        seq.append(nxt)
    return seq


def _canonical_xi(form: LinearForm, n: int, k: int) -> tuple[int, list[int]]:
    """Greatest fixed point of xi -> 1 + floor(s_minus * n_k(xi) / s_plus).

    The map is monotone, so iterating downward from the k = 1 value converges;
    starting from below can stall on a smaller, worse fixed point.
    """
    sp, sm = form.s_plus, form.s_minus
    xi = 1 + sm * n // sp
    for _ in range(_FIXED_POINT_CAP):
        seq = _interval_sequence(form, n, k, xi)
        nxt = 1 + sm * seq[-1] // sp
        if nxt == xi:
            return xi, seq
        xi = nxt
    raise Infeasible(f"fixed-point iteration did not settle for k={k}")  # pragma: no cover


def multi_interval(form: LinearForm, n: int, k: int, xi: int | None = None) -> StructuredSet:
    """Union of k shrinking intervals: (s_minus/s_plus * n_j, n_j] for j < k
    plus the tail [xi, n_k].  With xi omitted, the canonical fixed-point value
    xi = 1 + floor(s_minus * n_k / s_plus) is used.  A form with two positive
    coefficients (c < a + b) has only k = 1."""
    out = _multi_interval(form, n, k, xi)
    require_avoiding(form.eq, out.materialize(), f"multi_interval(n={n}, k={k})")
    return out


def _multi_interval(form: LinearForm, n: int, k: int, xi: int | None = None) -> StructuredSet:
    """:func:`multi_interval` without the avoidance gate."""
    if k < 1:
        raise InvariantViolation(f"k must be positive, got {k}")
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")
    # the recurrence rules out solutions across the intervals only when one
    # coefficient is positive; with two, the positive side can take members of
    # two intervals, as (1, 5, 10) of 5x+5y=3z does at n = 12, k = 2
    if k > 1 and sum(v > 0 for v in form.coeffs) > 1:
        raise Infeasible(f"k={k} needs one positive coefficient, {form.eq} has two")
    sp, sm = form.s_plus, form.s_minus
    if xi is None:
        xi, seq = _canonical_xi(form, n, k)
    else:
        seq = _interval_sequence(form, n, k, xi)
    nk = seq[-1]
    if not (sm * nk < xi * sp and xi <= nk):
        raise Infeasible(f"xi={xi} violates s_minus*n_k < xi*s_plus <= n_k*s_plus (n_k={nk})")
    intervals = [Interval(xi, nk, closed_lo=True)]
    for nj in reversed(seq[:-1]):
        intervals.append(Interval(sm * nj // sp, nj, closed_lo=False))
    return StructuredSet(n, tuple(intervals))


def best_multi_interval(form: LinearForm, n: int, k_max: int) -> tuple[int, StructuredSet]:
    """Largest canonical-xi multi-interval set over 1 <= k <= k_max; only that
    set goes through the avoidance gate."""
    if k_max < 1:
        raise InvariantViolation(f"k_max must be positive, got {k_max}")
    best = (1, _multi_interval(form, n, 1))  # k = 1 is feasible at every n >= 1
    for k in range(2, k_max + 1):
        try:
            cand = _multi_interval(form, n, k)
        except Infeasible:
            continue  # larger k only shrinks the tail further; keep scanning anyway
        if cand.size > best[1].size:
            best = (k, cand)
    k, out = best
    require_avoiding(form.eq, out.materialize(), f"best_multi_interval(n={n}, k={k})")
    return best


def _chains(a: int, b: int, n: int) -> list[list[int]]:
    """Partition of [1, n] into orbits of x -> (a/b) x for the equation ax = by.

    An element starts a chain iff a does not divide it; the successor of x is
    a*x/b when b divides x.
    """
    chains = []
    for start in range(1, n + 1):
        if start % a == 0:
            continue
        chain = [start]
        x = start
        while x % b == 0:
            x = a * x // b
            if x > n:
                break
            chain.append(x)
        chains.append(chain)
    return chains


def two_var_extremal(a: int, b: int, n: int) -> tuple[int, IntSet]:
    """Extremal size and greedy witness for the two-variable equation ax = by.

    Each chain of length L contributes ceil(L / 2); the witness takes the
    alternating elements starting with the smallest of each chain.
    """
    if not (a > b >= 1):
        raise InvariantViolation(f"need a > b >= 1, got a={a}, b={b}")
    if gcd(a, b) != 1:
        raise InvariantViolation(f"gcd({a},{b}) must be 1")
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")
    members = [x for chain in _chains(a, b, n) for x in chain[::2]]
    A = require_avoiding(ThreeVarEquation(a, 0, b), IntSet.of(n, members), f"two_var_extremal({a}, {b}, {n})")
    return A.size, A


@lru_cache(maxsize=8)
def ab_set(b: int, n: int) -> tuple[IntSet, Fraction]:
    """The set {u * b^(3i) : b does not divide u} inside [1, n], together with
    its asymptotic density b^2 / (b^2 + b + 1).  Avoids x + b y = b^2 z.

    The last few results are kept, gated once, so that certifying many sets
    at one (b, n) builds and checks A_b once (see ``injection_certificate``)."""
    A = _ab_members(b, n)
    require_avoiding(ThreeVarEquation(1, b, b * b), A, f"ab_set({b}, {n})")
    return A, Fraction(b * b, b * b + b + 1)


def _ab_members(b: int, n: int) -> IntSet:
    """The set of :func:`ab_set` without the avoidance gate."""
    if b < 2:
        raise InvariantViolation(f"b must be at least 2, got {b}")
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")
    members: list[int] = []
    power = 1
    step = b ** 3
    while power <= n:
        members.extend(u * power for u in range(1, n // power + 1) if u % b != 0)
        power *= step
    return IntSet.of(n, members)
