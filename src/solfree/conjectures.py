"""The c = b*b regime: density gap, extremality of the cube-valuation sets,
and executable injection certificates for b = 2 and b = 3.

For the equation x + b*y = b^2*z the two-interval density is beaten by the
set A_b = {u * b^(3i) : b does not divide u}.  For b in {2, 3} this is
provably extremal at every n, witnessed by an explicit injection from any
avoiding set's surplus into A_b's surplus; the certificate builder below
follows the case rules of that argument and verifies the result instead of
assuming it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import ab_set
from .equations import IntSet, ThreeVarEquation, require_avoiding
from .errors import BudgetExceeded, InvariantViolation
from .family1 import interval_density
from .search import max_avoiding


def counterexample_equation(b: int) -> ThreeVarEquation:
    """x + b*y = b^2*z, the equation whose extremal sets escape the interval families."""
    if b < 2:
        raise InvariantViolation(f"b must be at least 2, got {b}")
    return ThreeVarEquation(1, b, b * b)


def counterexample_gap(b: int) -> tuple[Fraction, Fraction]:
    """(density of A_b, two-interval density at c = b^2); the first is strictly larger."""
    if b < 2:
        raise InvariantViolation(f"b must be at least 2, got {b}")
    d_ab = Fraction(b * b, b * b + b + 1)
    d_intervals = interval_density(b, b * b)
    if d_ab <= d_intervals:
        raise InvariantViolation(f"the cube-valuation density {d_ab} does not beat {d_intervals} at b={b}")
    return d_ab, d_intervals


@dataclass(frozen=True)
class CubeSetReport:
    b: int
    n: int
    ab_size: int
    exact_size: int

    @property
    def equal(self) -> bool:
        return self.ab_size == self.exact_size


def verify_cube_set_extremal(
    b: int,
    n: int,
    *,
    node_cap: int | None = None,
    time_cap: float | None = None,
) -> CubeSetReport:
    """Compare |A_b intersect [1, n]| against the exact maximum r(n).

    Equality is provable for b in {2, 3} and conjectural for larger b; the
    caller decides whether a mismatch is a failure.
    """
    A, _ = ab_set(b, n)
    result = max_avoiding(counterexample_equation(b), n, node_cap=node_cap, time_cap=time_cap,
                          canonical=False)
    if not result.optimal:
        raise BudgetExceeded(f"exact search for b={b}, n={n} exceeded its budget")
    return CubeSetReport(b, n, A.size, result.size)


def _valuation(x: int, b: int) -> int:
    v = 0
    while x % b == 0:
        x //= b
        v += 1
    return v


@dataclass(frozen=True)
class InjectionCertificate:
    """A verified injection from B \\ A_b into A_b \\ B, certifying |B| <= |A_b|."""

    b: int
    n: int
    B: IntSet
    A: IntSet
    mapping: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "b": self.b,
            "n": self.n,
            "B": list(self.B.members),
            "mapping": [[src, tgt] for src, tgt in self.mapping],
            "valid": True,
        }


def _map_b2(x: int, v: int, b_members: frozenset) -> int:
    if v % 3 == 1:
        return x // 2  # x = 2y maps to y
    return 3 * (x // 4)  # x = 4y maps to 3y


def _map_b3(x: int, v: int, b_members: frozenset) -> int:
    if v % 3 == 1:
        y = x // 3
        return y if y not in b_members else 2 * y
    y = x // 9
    if 12 * y not in b_members:
        if 2 * y in b_members and 6 * y in b_members:
            return y
        return 4 * y
    if 3 * y not in b_members:
        return 2 * y if 6 * y not in b_members else y
    return 8 * y


def injection_certificate(b: int, B: IntSet, n: int | None = None) -> InjectionCertificate:
    """Build and verify the injection certificate for an avoiding set B.

    B must avoid the equation: one that contains a solution raises
    :class:`~solfree.errors.AvoidanceCheckFailed` naming B and the solution.
    Every B is gated, but A_b comes from :func:`ab_set`, which keeps its
    last few results, so many sets certified at one (b, n) build and gate
    A_b once.
    The mapping follows the case rules for b = 2 and b = 3 exactly; totality,
    injectivity and the codomain are then checked, and any divergence raises
    :class:`InvariantViolation` naming the check that failed (release tests
    treat it as a bug signal).
    """
    if b not in (2, 3):
        raise InvariantViolation(f"certificates exist for b in {{2, 3}}, got {b}")
    bound = n if n is not None else B.n
    if bound < B.n and any(x > bound for x in B.members):
        raise InvariantViolation(f"B escapes [1, {bound}]")
    require_avoiding(counterexample_equation(b), B, "B")
    A, _ = ab_set(b, bound)
    a_members = A.member_set
    b_members = B.member_set
    rule = _map_b2 if b == 2 else _map_b3
    mapping: list[tuple[int, int]] = []
    for x in B.members:
        if x in a_members:
            continue
        v = _valuation(x, b)
        target = rule(x, v, b_members)
        mapping.append((x, target))
    # verification pass: the certificate is evidence, not an assumption
    targets = [t for _, t in mapping]
    if len(set(targets)) != len(targets):
        raise InvariantViolation(f"mapping is not injective for b={b}, B={B.to_text()!r}")
    for src, tgt in mapping:
        if tgt not in a_members or tgt in b_members:
            raise InvariantViolation(
                f"target {tgt} of {src} is outside A\\B for b={b}, B={B.to_text()!r}"
            )
    return InjectionCertificate(b, bound, B, A, tuple(mapping))
