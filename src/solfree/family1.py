"""Structure theory for equations x + b*y = c*z with b > 1.

For c large enough (the eligibility bound), the extremal avoiding subsets of
[1, n] collapse onto two intervals.  This module provides:

* the eligibility test and the exact two-interval density,
* the interval-compression transform that pushes an avoiding set into
  canonical interval form, every stage still avoiding; that no stage
  shrinks is the paper's claim for eligible (b, c) only, and is not checked,
* location estimates for the smallest element of an extremal set,
* the finite list of two-interval extremal candidates for a given n,
* the solution-window deficiency count around any member of an avoiding set.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import Interval, StructuredSet
from .equations import Family, IntSet, ThreeVarEquation, avoids, require_avoiding
from .errors import InvariantViolation


def eligible(b: int, c: int) -> bool:
    """True iff c*(b-1) > (b+1)*b^2, the regime where the two-interval
    classification applies."""
    if b < 2:
        raise InvariantViolation(f"b must be at least 2, got {b}")
    if c < 1:
        raise InvariantViolation(f"c must be positive, got {c}")
    return c * (b - 1) > (b + 1) * b * b


def interval_density(b: int, c: int) -> Fraction:
    """Density (c-b-1)(c^2-b^2+1) / (c (c^2 - b(b+1))) of the two-interval family."""
    den = c * (c * c - b * (b + 1))
    if den == 0:
        raise InvariantViolation(f"denominator vanishes for b={b}, c={c}")
    return Fraction((c - b - 1) * (c * c - b * b + 1), den)


def _family1_params(eq: ThreeVarEquation) -> tuple[int, int]:
    if eq.family is not Family.FAMILY_I:
        raise InvariantViolation(f"{eq} is not of the form x+by=cz with b>1")
    return eq.b, eq.c


@dataclass(frozen=True)
class MinElementStats:
    """Scale estimate and scan crossover for the smallest element of an
    extremal set; the crossover always lands in [predicted, predicted + 1]."""

    predicted: int  # floor((b+1)^2 n / (c (c^2 - b(b+1))))
    crossover: int  # least s with l2(s) < s


def min_element_stats(n: int, b: int, c: int) -> MinElementStats:
    if not eligible(b, c):
        raise InvariantViolation(f"(b, c) = ({b}, {c}) is outside the eligible range")
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")
    predicted = (b + 1) * (b + 1) * n // (c * (c * c - b * (b + 1)))
    l1 = (b + 1) * n // c
    for s in range(1, n + 1):
        r2 = (l1 + b * s) // c
        l2 = (b + 1) * r2 // c
        if l2 < s:
            return MinElementStats(predicted, s)
    raise InvariantViolation(f"no crossover for n={n}, b={b}, c={c}")


@dataclass(frozen=True)
class CompressionTrace:
    """Stages of the interval-compression transform.

    r_seq holds r_1..r_{t+1} and l_seq holds l_1..l_t; stages are A_0..A_t.
    The final stage is [alpha, r_t] followed by the blocks (l_j, r_j].
    """

    n: int
    s: int
    r_seq: tuple[int, ...]
    l_seq: tuple[int, ...]
    t: int
    stages: tuple[IntSet, ...]
    alpha: int

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(stage.size for stage in self.stages)


def interval_compression(eq: ThreeVarEquation, A: IntSet) -> CompressionTrace:
    """Push an avoiding set into canonical interval form, stage by stage.

    Stage i replaces everything in (r_{i+1}, r_i] by the block
    [max(l_i + 1, s), r_i]; every stage stays avoiding.  That is checked:
    the input and each stage pass the avoidance gate, and one that contains
    a solution raises :class:`~solfree.errors.AvoidanceCheckFailed` naming
    it ("input" or "compression stage i") and the solution.
    That no stage shrinks is the paper's claim for eligible (b, c) only, and
    it is not checked: outside that bound a stage can lose elements, as the
    extremal set of x+2y=4z at n = 20 does, with sizes (11, 7, 7, 7).
    ``sizes`` reports what each stage holds.
    """
    b, c = _family1_params(eq)
    if c <= b + 1:
        raise InvariantViolation(f"compression needs c > b+1, got b={b}, c={c}")
    if A.size == 0:
        raise InvariantViolation("the transform needs a nonempty set")
    require_avoiding(eq, A, "input")
    n = A.n
    s = A.min()
    r_seq = [n]
    l_seq: list[int] = []
    stages = [A]
    current = set(A.members)
    while True:
        r_i = r_seq[-1]
        l_i = (b + 1) * r_i // c
        r_next = (l_i + b * s) // c
        l_seq.append(l_i)
        r_seq.append(r_next)
        current = {x for x in current if not (r_next < x <= l_i)}
        current.update(range(max(l_i + 1, s), r_i + 1))
        stage = IntSet.of(n, current)
        stages.append(stage)
        if r_next < s:
            break
        if len(l_seq) > n + 1:  # pragma: no cover - cannot happen for c > b+1
            raise InvariantViolation("compression failed to terminate")
    for i, stage in enumerate(stages[1:], 1):
        require_avoiding(eq, stage, f"compression stage {i}")
    alpha = max(l_seq[-1] + 1, s)
    return CompressionTrace(n, s, tuple(r_seq), tuple(l_seq), len(l_seq), tuple(stages), alpha)


@dataclass(frozen=True)
class TwoIntervalCandidate:
    """One candidate extremal set: a low block near s and a high block near n,
    held as two closed intervals with their punctures removed."""

    s: int
    low_variant: str
    high_variant: str
    blocks: StructuredSet
    xi: tuple[tuple[str, int], ...]
    members: IntSet

    @property
    def size(self) -> int:
        return self.members.size

    def to_json_dict(self) -> dict:
        low, high = self.blocks.intervals
        return {
            "s": self.s,
            "I2": {"variant": self.low_variant, "lo": low.lo, "hi": low.hi},
            "I1": {"variant": self.high_variant, "lo": high.lo, "hi": high.hi},
            "xi": dict(self.xi),
            "size": self.size,
            "avoids": True,
        }


def extremal_candidates(n: int, b: int, c: int) -> list[TwoIntervalCandidate]:
    """All consistent two-interval candidates whose least element s lies in
    [max(1, s' - 1), S + 2], with S = ``predicted`` and s' = ``crossover``
    from :func:`min_element_stats`.

    No candidate below that window avoids the equation.  For
    1 <= s <= s' - 2, l2(s+1) >= s+1 and r2(s+1) <= r2(s) + 1 (as b < c) give
    (b+1) r2 >= c s + c - b - 1, so c s has at least floor((c - 2b - 2)/b) >= 3
    representations x + b y with x, y in [s, r2 - 1]: the trimmed block, which
    holds s, holds a solution.  The puncture r2 - xi1 is not s and spoils at
    most two of them, so the punctured block holds one too.  An empty low
    block leaves s to the high block, so s is l1 or l1 + 1, and s' <= l1 + 1.

    The same bounds keep the blocks apart: a nonempty low block ends at or
    below r2 + 1 < l1, so l1 is a member exactly for the closed high
    variants, and where l1 <= 1 a nonempty low block leaves no high variant.
    The top label r2 + 1 and :func:`avoids` are the only filters, so every
    emitted candidate avoids the equation and matches its own labels.
    """
    stats = min_element_stats(n, b, c)
    eq = ThreeVarEquation(1, b, c)
    l1 = (b + 1) * n // c
    xi2 = (b + 1) * n - c * l1  # the closed high interval drops n - xi2; free of s
    high_closes = 1 <= l1 < n - xi2
    out: list[TwoIntervalCandidate] = []
    for s in range(max(1, stats.crossover - 1), stats.predicted + 3):
        if s > n:
            break
        r2 = (l1 + b * s) // c
        l2 = (b + 1) * r2 // c
        low_variants: list[tuple[str, Interval, tuple[int, ...], dict[str, int]]] = []
        if s >= stats.crossover:
            low_variants.append(("closed", Interval(s, r2), (), {}))
            low_variants.append(("extended", Interval(s, r2 + 1), (), {}))
        else:
            low_variants.append(("trimmed", Interval(s, r2 - 1), (), {}))
            xi1 = (b + 1) * r2 - c * l2
            if 1 <= xi1 <= b and s <= r2 - xi1:
                low_variants.append(("punctured", Interval(s, r2), (r2 - xi1,), {"xi1": xi1}))
        for low_variant, low, low_removed, low_xi in low_variants:
            has_top = low.length > 0 and low.hi == r2 + 1
            high_variants: list[tuple[str, Interval, tuple[int, ...], dict[str, int]]] = []
            if not has_top:
                high_variants.append(("open", Interval(l1 + 1, n), (), {}))
                if high_closes:
                    high_variants.append(("closed", Interval(l1, n), (n - xi2,), {"xi2": xi2}))
            else:
                xi3 = c * (r2 + 1) - b * s - l1
                if 1 <= xi3 <= n - l1:
                    high_variants.append(("open-punctured", Interval(l1 + 1, n), (l1 + xi3,), {"xi3": xi3}))
                # labelled xi4 and xi5 in the output, these are the values of xi3 and xi2
                if high_closes and 1 <= xi3 <= b - 1:
                    high_variants.append(
                        ("closed-punctured", Interval(l1, n), (l1 + xi3, n - xi2), {"xi4": xi3, "xi5": xi2})
                    )
            for high_variant, high, high_removed, high_xi in high_variants:
                # the least member must be s: a nonempty low block starts at s, and
                # eligibility keeps its puncture off s; an empty one leaves it to the
                # high block, whose punctures lie above its first member
                if not low.length and high.first != s:
                    continue
                # the top label is read from the blocks, so a candidate it
                # rejects is never materialised
                blocks = StructuredSet(n, (low, high), low_removed + high_removed)
                if ((r2 + 1) in blocks) != has_top:
                    continue
                A = blocks.materialize()
                if not avoids(eq, A).ok:
                    continue
                xi = tuple(sorted({**low_xi, **high_xi}.items()))
                out.append(TwoIntervalCandidate(s, low_variant, high_variant, blocks, xi, A))
    return out


def best_candidate(n: int, b: int, c: int) -> TwoIntervalCandidate | None:
    return max(extremal_candidates(n, b, c), key=lambda cand: (cand.size, -cand.s), default=None)


def solution_window_deficiency(eq: ThreeVarEquation, A: IntSet, z: int, d: int) -> int:
    """Count the elements missing from A in the solution window around c*z/(b+1).

    The window [x_d, y_d] packs d+1 disjoint solution pairs through z, so an
    avoiding set containing z must miss at least d+1 of its elements.  An A
    that contains a solution raises :class:`~solfree.errors.AvoidanceCheckFailed`;
    a window that escapes [1, n] raises :class:`InvariantViolation`.
    """
    b, c = _family1_params(eq)
    if d < 0:
        raise InvariantViolation(f"d must be nonnegative, got {d}")
    if z not in A:
        raise InvariantViolation(f"z={z} is not a member of the set")
    require_avoiding(eq, A, "input")
    y_d = c * z // (b + 1) + 1 + d
    x_d = c * z - b * y_d
    if not (1 <= x_d <= y_d <= A.n):
        raise InvariantViolation(f"window [{x_d}, {y_d}] escapes [1, {A.n}]")
    window = range(x_d, y_d + 1)
    return sum(1 for v in window if v not in A)
