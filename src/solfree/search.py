"""Exact maximum-avoiding-set search.

The solver answers r(n) = max  |A| over A subset of [1, n] avoiding the
equation, by depth-first branch and bound over elements in descending order.
Solving proceeds as a sweep m = 1, 2, ..., n so that every prefix value r(m)
is available; besides being the natural warm start, the prefix table is a
strong admissible bound, because any avoiding subset of [1, n] restricted to
[1, m] is an avoiding subset of [1, m].

The engine grows with the sweep.  Before it solves prefix m it takes in the
cliques (member sets of solutions) whose largest member is m, and that is
the only way a clique ever enters it: the tables for prefix m are those for
m - 1 plus O(m) new entries, and nothing is rebuilt when n grows.  One engine
per equation lives for the whole process, so a later call resumes from the
prefixes already solved.

Each search carries a forced mask: the undecided elements that would
complete a clique whose other members are all included.  Triggers set a
bit as the other members come in, so deciding whether e may be included is
one bit test, and the count of forced elements is also a bound (a forced
element is dead).  Singleton cliques, which ban a residue in the congruence
instances, form the forced mask at the root.

Below the root the prefix table and the forced count are the only bounds.
One more element raises the maximum by at most one, so prefix m asks one
yes/no question: does [1, m] hold an avoiding set of r(m - 1) + 1 elements?
The answer is yes at once when wit[m - 1] plus m avoids the equation, that
is when no clique whose largest member is m has its other members in
wit[m - 1], and the prefix costs one node.  Otherwise the DFS looks for
such a set and ends at its first leaf, and a clique packing can answer no
on the way: k pairwise disjoint cliques in [1, m] each need one member left
out, so r(m) <= m - k, and m - k <= r(m - 1) settles the prefix.  The
packing is one greedy pass over every clique in [1, m] in ascending order
of its members' occurrence counts.  It costs a sort of all cliques, so it
is built at most once per prefix, and only once the m steps of growing to m
and the search's nodes make one per clique: at the root when there are no
more cliques than elements, as with every two-variable equation.  It
settles most stall prefixes (r(m) = r(m - 1)) in the paper's Family I
regime, where m - r(m) disjoint solutions exist.

The lex-least pass decides elements in ascending order, include first, so
its first leaf of size r(m) is the lexicographically least maximum set and
the pass ends there; only ``all_extremal`` goes on to later leaves.  Both
searches (the DFS and the lex-least pass) loop over an explicit stack of
nodes, so a search n elements deep needs no interpreter frames, and one
that an exception unwinds or a caller stops leaves nothing to repair.

The same engine runs three instance kinds: solution triples of ax+by=cz,
pair constraints of a degenerate two-variable equation, and congruence
triples modulo m (used for the modular densities).  ``rho_best`` asks each
modulus only whether it beats the best density so far.  A prime modulus
that divides no coefficient holds at most (m + 1) // 3 residues by
Cauchy-Davenport, so it is skipped before any set-up when that is too few.
Otherwise the sweep can stop early: a second greedy packing, one clique
per smallest member in descending order, packs every suffix (k, m] at
once, and r(m) <= r(k) + (m - k) - rest[k] at each solved prefix k, with
rest[k] the packed cliques inside (k, m].  Once that falls below the
residues the modulus needs, its sweep ends.  A modulus builds no clique
list: from residue tables the packing is built top-down, and the engine
reads the cliques of each prefix the sweep reaches, as for integers.
"""
from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, takewhile

from .equations import IntSet, ThreeVarEquation, require_avoiding
from .errors import AvoidanceCheckFailed, BudgetExceeded, InvariantViolation

_CANONICAL_NODE_CAP = 250_000  # budget for the optional lex-least witness pass


@dataclass
class ExtremalResult:
    """Outcome of one exact solve; ``optimal`` is False only when a budget was hit.

    ``canonical`` is True iff the witness is certified to be the
    lexicographically least maximum set: the lex-least pass ran and finished.
    """

    n: int
    size: int
    witness: IntSet
    optimal: bool
    nodes: int
    millis: int
    canonical: bool = False


@dataclass(frozen=True)
class ModularDensity:
    """Maximum density of residues in [1, m] with no solutions modulo m."""

    m: int
    rho: Fraction
    witness: IntSet  # residues, with m standing in for the zero class


@dataclass
class AllExtremal:
    n: int
    size: int
    sets: list[IntSet]
    truncated: bool


class _RunState:
    __slots__ = ("nodes", "node_cap", "deadline")

    def __init__(self, node_cap: int | None = None, time_cap: float | None = None):
        if time_cap is not None and math.isnan(time_cap):  # no clock reading is ever past a NaN deadline
            raise InvariantViolation(f"time budget must be a number, got {time_cap}")
        self.nodes = 0
        self.node_cap = sys.maxsize if node_cap is None else node_cap
        self.deadline = math.inf if time_cap is None else time.monotonic() + time_cap

    def exceeded(self, where: str) -> BudgetExceeded:
        """The error for a budget hit at ``where``: the node budget if it is
        spent, the time budget otherwise."""
        if self.nodes > self.node_cap:
            return BudgetExceeded(f"node budget {self.node_cap} exceeded at {where}")
        return BudgetExceeded(f"time budget exceeded at {where}")


def _progression(coef: int, rhs: int, mod: int, top: int) -> range:
    """The v in [1, top] with coef * v = rhs (mod ``mod``): one arithmetic
    progression of step mod / gcd(coef, mod), or none."""
    g = math.gcd(coef, mod)
    if rhs % g:
        return range(0)
    step = mod // g
    return range(rhs // g * pow(coef // g, -1, step) % step or step, top + 1, step)


def cliques_for(eq: ThreeVarEquation, m: int) -> list[tuple[int, ...]]:
    """Distinct member sets, of size 2 or 3, of the solutions inside [1, m]
    whose largest member is m, in ascending order.

    m takes each role in turn and the equation fixes the last variable from
    the free one v, so the cost is O(m).  v steps along the progression
    that makes that division exact.  With b = 0, m is x or z.
    """
    a, b, c = eq.a, eq.b, eq.c
    found: set[tuple[int, ...]] = set()
    if b == 0:
        if a * m % c == 0 and a * m // c <= m:  # m as x
            found.add((a * m // c, m))
        if c * m % a == 0 and c * m // a <= m:  # m as z
            found.add((c * m // a, m))
        return sorted(found)
    for v in _progression(b, -a * m, c, m):  # m as x, v as y
        z = (a * m + b * v) // c
        if z <= m:
            found.add(tuple(sorted({m, v, z})))
    for v in _progression(a, -b * m, c, m):  # m as y, v as x
        z = (a * v + b * m) // c
        if z <= m:
            found.add(tuple(sorted({v, m, z})))
    for v in _progression(a, c * m, b, m):  # m as z, v as x
        y = (c * m - a * v) // b
        if 1 <= y <= m:
            found.add(tuple(sorted({v, y, m})))
    return sorted(found)


def _residue_tables(eq: ThreeVarEquation, m: int) -> tuple[list[list[int]], ...]:
    """For each residue t modulo m, the x, the y and the z in [1, m] with
    a*x, b*y and c*z = t (mod m), each list ascending (m is the zero class)."""
    tables = tuple([[] for _ in range(m)] for _ in range(3))
    for coef, table in zip((eq.a, eq.b, eq.c), tables):
        for v in range(1, m + 1):
            table[coef * v % m].append(v)
    return tables


def _congruence_cliques_at(eq: ThreeVarEquation, m: int, k: int, tables) -> list[tuple[int, ...]]:
    """Distinct member sets of the solutions modulo m over residues [1, k]
    whose largest member is k, in ascending order: the congruence version of
    :func:`cliques_for`, read from ``_residue_tables(eq, m)``.

    Unlike the integer case these can be singletons, which simply ban a
    residue.  k takes each role in turn and the table of the last variable
    gives its values from the free one v, so the cost is O(g*k) with g the
    gcd of that variable's coefficient and m.  With a == b the roles of x
    and y give the same sets and only x is taken; with b = 0, k is x or z.
    """
    a, b, c = eq.a, eq.b, eq.c
    xs, ys, zs = tables
    found: set[tuple[int, ...]] = set()
    if not b:
        found.update(tuple(sorted({k, z})) for z in zs[a * k % m] if z <= k)  # k as x
        found.update(tuple(sorted({x, k})) for x in xs[c * k % m] if x <= k)  # k as z
        return sorted(found)
    for v in range(1, k + 1):
        for z in zs[(a * k + b * v) % m]:  # k as x, v as y
            if z <= k:
                found.add(tuple(sorted({k, v, z})))
        if a != b:
            for z in zs[(a * v + b * k) % m]:  # k as y, v as x
                if z <= k:
                    found.add(tuple(sorted({v, k, z})))
        for y in ys[(c * k - a * v) % m]:  # k as z, v as x
            if y <= k:
                found.add(tuple(sorted({v, y, k})))
    return sorted(found)


def congruence_cliques(eq: ThreeVarEquation, m: int) -> list[tuple[int, ...]]:
    """Distinct member sets of the solutions modulo m over residues [1, m]
    (m is the zero class), in ascending order: the union over k of the
    cliques whose largest member is k.  The cost is O(g*m^2) with g the
    largest gcd of m and a coefficient, or O(g*m) with b = 0."""
    tables = _residue_tables(eq, m)
    return sorted(cl for k in range(1, m + 1) for cl in _congruence_cliques_at(eq, m, k, tables))


def _greedy_disjoint(cliques) -> list[tuple[int, ...]]:
    """The cliques, taken in the order given, that share no member with one
    taken before them."""
    packing = []
    used: set[int] = set()
    for cl in cliques:
        if used.isdisjoint(cl):
            used.update(cl)
            packing.append(cl)
    return packing


def _suffix_packing(eq: ThreeVarEquation, m: int, tables) -> list[tuple[int, ...]]:
    """Pairwise disjoint congruence cliques modulo m, singletons included,
    built top-down: for s = m, ..., 1, the least clique (in tuple order)
    whose smallest member is s and none of whose members is used.

    That is the greedy pass over all the cliques in descending order of
    smallest member, ascending within one, but no clique list is built.  s
    itself is never used, as every clique taken so far lies above it.  With
    b = 0 the partners of s are read from ``tables`` in O(g) time.
    Otherwise the other members u < w are found by trying each unused u > s
    in ascending order: the solutions with values s and u in two of the
    roles give w from the third role's table, and {s, u} is a clique when
    some w is s or u.  The first u with a clique ends the scan.

    The packings are nested: for every k, those whose smallest member is
    above k were taken before any other, so they are a greedy packing of
    the cliques inside (k, m] on their own, and an avoiding subset of
    (k, m] leaves out a member of each."""
    a, b, c = eq.a, eq.b, eq.c
    xs, ys, zs = tables
    used = bytearray(m + 1)
    packing = []
    for s in range(m, 0, -1):
        if (a + b - c) * s % m == 0:  # x = y = z = s
            clique: tuple[int, ...] | None = (s,)
        elif not b:
            partners = [u for u in zs[a * s % m] + xs[c * s % m] if u > s and not used[u]]
            clique = (s, min(partners)) if partners else None
        else:
            clique = None
            for u in range(s + 1, m + 1):
                if used[u]:
                    continue
                thirds = (zs[(a * s + b * u) % m] + zs[(a * u + b * s) % m]  # w as z
                          + xs[(c * u - b * s) % m] + xs[(c * s - b * u) % m]  # w as x
                          + ys[(c * u - a * s) % m] + ys[(c * s - a * u) % m])  # w as y
                if s in thirds or u in thirds:
                    clique = (s, u)
                    break
                w = min((w for w in thirds if w > u and not used[w]), default=0)
                if w:
                    clique = (s, u, w)
                    break
        if clique:
            for v in clique:
                used[v] = 1
            packing.append(clique)
    return packing


class _Core:
    """Branch-and-bound engine over forbidden cliques, grown one element at a time.

    ``source(m)`` gives the cliques whose largest member is m, ascending.
    Only :meth:`grow` writes the trigger tables and the clique lists; a
    search keeps its state on its own stack, and the degree packing and the
    lex-least pass only read them.
    """

    where = ""  # what a budget-hit message names before the prefix

    def __init__(self, source):
        self.source = source
        self.grown = 0  # elements taken in; may run one past the solved prefix
        # forced-exclusion triggers: once every member of a clique except the
        # smallest (resp. largest) is included, that last member is dead.  The
        # DFS (resp. lex-least pass) decides elements in descending (resp.
        # ascending) order, so these set the bit of every element that would
        # complete a clique: its forced mask is the legality test.
        self.force_down: list[list[tuple[int, int]]] = [[]]
        self.force_up: list[list[tuple[int, int]]] = [[]]
        self.banned = 0  # singleton cliques: no trigger, forced from the root
        # every clique taken in, in arrival order: the degree packing sorts
        # them when a prefix is not settled at its root (see ``advance``)
        self.cliques: list[tuple[int, ...]] = []
        # the other members of each clique whose largest member is the element
        # taken in last, as masks (0 for a singleton): that element extends an
        # avoiding set of smaller elements iff none of them lies inside it
        self.partners: list[int] = []
        self.r: list[int] = [0]  # r[m] once solved
        self.wit: list[int] = [0]  # witness masks

    def grow(self) -> None:
        """Take in the next element m and the cliques whose largest member is m."""
        m = self.grown + 1
        self.force_down.append([])
        self.force_up.append([])
        partners = self.partners = []
        top = 1 << (m - 1)
        for cl in self.source(m):
            self.cliques.append(cl)
            low = 1 << (cl[0] - 1)
            if len(cl) == 1:
                self.banned |= low
                partners.append(0)
            elif len(cl) == 2:
                self.force_down[m].append((0, low))
                self.force_up[cl[0]].append((0, top))
                partners.append(low)
            else:
                self.force_down[cl[1]].append((top, low))
                self.force_up[cl[1]].append((low, top))
                partners.append(low | 1 << (cl[1] - 1))
        self.grown = m

    def degree_packing(self) -> list[tuple[int, ...]]:
        """Pairwise disjoint cliques from every clique taken in: one greedy
        pass over them in ascending order of the sum of their members'
        occurrence counts (arrival order breaks ties), so cliques of rarely
        used elements, which block few others, come first."""
        count = [0] * (self.grown + 1)
        for cl in self.cliques:
            for v in cl:
                count[v] += 1
        weight = count.__getitem__
        return _greedy_disjoint(sorted(self.cliques, key=lambda cl: sum(map(weight, cl))))

    # -- exact solve of the next prefix -------------------------------------

    def advance(self, state: _RunState) -> None:
        """Solve prefix m = len(r): r(m) is r(m - 1) + 1 iff [1, m] holds an
        avoiding set that large, and r(m - 1) otherwise.  The engine must be
        grown to exactly m, as ``partners`` and the degree packing read the
        cliques in [1, m]."""
        m = len(self.r)
        prev = self.r[m - 1]
        best = self.wit[m - 1]
        if all(p & best != p for p in self.partners):  # wit[m - 1] plus m avoids
            best |= 1 << (m - 1)
        best_size = best.bit_count()

        rt = self.r + [prev + 1]  # index m is the root
        force_down = self.force_down
        node_cap = state.node_cap
        deadline = state.deadline
        # A prefix settled above costs one node: its root's bound is its size.
        # Otherwise the search looks for prev + 1 elements and ends at its first
        # leaf, or right after the degree packing when k disjoint cliques give
        # r(m) <= m - k <= prev.  The packing sorts every clique, so a prefix
        # tries it at most once.  Growing the engine to m took m steps, so the
        # try comes once the search has spent len(cliques) - m nodes, on its
        # first node when there are no more cliques than elements.  The first
        # node count above ``limit`` is that trigger or the one past the node
        # budget, whichever is first.
        limit = node_cap if best_size > prev else min(node_cap, state.nodes + len(self.cliques) - m)

        # Bounds at a node deciding e (undecided region [1, e]):
        #  * prefix table: at most rt[e] more elements;
        #  * forced split: charge [1, j] to the table and (j, e] to the count
        #    of slots not yet provably dead, j = lowest forced element.
        # An explicit stack of (e, size, inc, forced) nodes: the exclude child is
        # pushed first, so the include branch is searched first, depth-first.
        # The clock is read on a call's first node and every 4096th after it;
        # the first read lets a spent budget stop a short search on a warm engine.
        stack = [(m, 0, 0, self.banned)]
        while stack:
            e, size, inc, forced = stack.pop()
            state.nodes += 1
            if state.nodes > limit:
                if state.nodes > node_cap:
                    raise state.exceeded(f"{self.where}prefix {m}")
                limit = node_cap
                if m - len(self.degree_packing()) <= prev:
                    break
            if state.nodes & 4095 == 1 and time.monotonic() > deadline:
                raise state.exceeded(f"{self.where}prefix {m}")
            if forced:
                j = (forced & -forced).bit_length() - 1
                split = rt[j] + (e - j) - forced.bit_count()
                bound = rt[e] if rt[e] < split else split
            else:
                bound = rt[e]
            if size + bound <= best_size:
                continue
            if e == 0:  # a set of prev + 1 elements
                best = inc
                break
            e1 = e - 1
            # drop e's own forced bit: it is decided now, not pending
            stack.append((e1, size, inc, forced & ~(1 << e1)))
            if not forced >> e1 & 1:  # e completes no clique whose smallest member it is
                f2 = forced
                for high, low in force_down[e]:
                    if high & inc == high:
                        f2 |= low
                stack.append((e1, size + 1, inc | (1 << e1), f2))
        self.r.append(best.bit_count())
        self.wit.append(best)

    def solve_to(self, n: int, state: _RunState, low: list[int] | None = None) -> bool:
        """Solve every prefix up to n, checking the deadline before each one.

        ``low[k]`` is the least r(k) that leaves r(n) >= low[n] possible: the
        sweep stops at the first solved prefix k (0 included) with
        r(k) < low[k] and returns False.  Otherwise it returns True."""
        while low is None or self.r[-1] >= low[len(self.r) - 1]:
            if len(self.r) > n:
                return True
            if time.monotonic() > state.deadline:
                raise state.exceeded(f"{self.where}prefix {len(self.r)}")
            if self.grown < len(self.r):
                self.grow()
            self.advance(state)
        return False

    # -- lexicographic enumeration of maximum sets --------------------------

    def enumerate_at(self, m: int, target: int, state: _RunState):
        """Yield each avoiding set of at least ``target`` elements of [1, m], as
        a mask, deciding elements in ascending order, include first; with
        ``target`` = r(m) these are the maximum sets in lexicographic order.

        Each mask is yielded at its leaf, so a caller that takes the first one
        ends the search there; a generator dropped early leaves nothing to
        repair, as the pass only reads the trigger tables.
        """
        force_up = self.force_up
        node_cap = state.node_cap
        deadline = state.deadline
        start = state.nodes  # the clock is read on this pass's first node and every 4096th after it
        # as in ``advance``: include child searched first; the engine may be
        # grown past m, so the root keeps only the banned elements in [1, m]
        stack = [(1, 0, 0, self.banned & ((1 << m) - 1))]
        while stack:
            e, size, inc, forced = stack.pop()
            state.nodes += 1
            if state.nodes > node_cap or (state.nodes - start) & 4095 == 1 and time.monotonic() > deadline:
                raise state.exceeded(f"{self.where}prefix {m}")
            if size + (m - e + 1) - forced.bit_count() < target:
                continue
            if e > m:
                yield inc
                continue
            bit = 1 << (e - 1)
            stack.append((e + 1, size, inc, forced & ~bit))
            if not forced & bit:  # e completes no clique whose largest member it is
                f2 = forced
                # the engine may be grown past m: triggers above m never fire
                for low, high in force_up[e]:
                    if low & inc == low and high >> m == 0:
                        f2 |= high
                stack.append((e + 1, size + 1, inc | bit, f2))

    def lex_least(self, m: int, state: _RunState) -> int:
        """The lexicographically least maximum set of the solved prefix [1, m],
        as a mask: the first leaf of the lex-least pass, within the budget of
        ``state``.  A prefix with no set of size r(m) raises
        :class:`InvariantViolation`, as its r(m) is wrong."""
        mask = next(self.enumerate_at(m, self.r[m], state), None)
        if mask is None:
            raise InvariantViolation(f"{self.where}no avoiding set of size r({m}) = {self.r[m]} in [1, {m}]")
        return mask


# one engine per integer equation, grown as far as any call has needed
_SOLVERS: dict[ThreeVarEquation, _Core] = {}


def _engine_for(eq: ThreeVarEquation) -> _Core:
    engine = _SOLVERS.get(eq)
    if engine is None:
        engine = _SOLVERS[eq] = _Core(lambda m: cliques_for(eq, m))
    return engine


def _mask_to_set(n: int, mask: int) -> IntSet:
    """The set of e in [1, n] with bit e - 1 of ``mask`` set, read from one
    binary string; higher bits are ignored."""
    bits = bin(mask)[:1:-1][:n]  # bit i at index i
    return IntSet(n, tuple(i for i, bit in enumerate(bits, 1) if bit == "1"))


def _checked_witness(eq: ThreeVarEquation, n: int, mask: int) -> IntSet:
    """The witness set of ``mask``, re-verified by the avoidance checker."""
    return require_avoiding(eq, _mask_to_set(n, mask), f"the witness at n={n}")


def _checked_residues(eq: ThreeVarEquation, m: int, mask: int) -> IntSet:
    """The residue set of ``mask``, re-verified on the residues themselves: no
    x, y, z in it with a*x + b*y = c*z (mod m), taking y = 0 when b = 0."""
    witness = _mask_to_set(m, mask)
    zs = {eq.c * z % m: z for z in reversed(witness.members)}  # the least z per class
    for x in witness.members:
        for y in witness.members if eq.b else (0,):
            if z := zs.get((eq.a * x + eq.b * y) % m):
                raise AvoidanceCheckFailed(f"residues for {eq} modulo {m} contain the solution {(x, y, z)}")
    return witness


def max_avoiding(
    eq: ThreeVarEquation,
    n: int,
    *,
    node_cap: int | None = None,
    time_cap: float | None = None,
    canonical: bool = True,
) -> ExtremalResult:
    """Exact r(n) with a witness.

    When a budget is exceeded the best set found so far is returned with
    ``optimal=False``; the answer is then a lower bound, never wrong.  That
    set is the largest of the last solved prefix's witness and the
    descending and ascending greedy sets of [1, n], built without cliques;
    past the deadline a greedy stops and offers the elements it has kept.
    ``time_cap`` bounds the whole call, and ``node_cap`` counts this call's
    nodes only.  The prefixes solved before a budget hit are kept, but the
    search of the prefix it stopped in is not: the next call starts that
    prefix again from its root, so calls with the same ``node_cap`` never
    get past a prefix that needs more nodes than the cap (x+y=3z at n = 50
    with ``node_cap=1500`` stops with prefix 45 solved from the third call
    on, because prefix 46 alone takes 1673 nodes).  With ``canonical``
    the witness is re-derived as the lexicographically least maximum set,
    budget permitting: the lex-least pass ends at its first leaf of size
    r(n), and it gets the nodes the search left of ``node_cap``, at most
    ``_CANONICAL_NODE_CAP``, and the time left of ``time_cap``.  The
    result's ``canonical`` says whether it reached that leaf; if not,
    the witness is the search's, and it is still a maximum set.  Either way
    the witness is re-verified by the avoidance checker before it is
    returned, and a set that contains a solution raises
    :class:`AvoidanceCheckFailed`.
    """
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")
    t0 = time.perf_counter()
    engine = _engine_for(eq)
    state = _RunState(node_cap, time_cap)
    optimal = lex_least = False
    try:
        engine.solve_to(n, state)
    except BudgetExceeded:
        mask = engine.wit[-1]
        for order in (range(n, 0, -1), range(1, n + 1)):
            g = _greedy_mask(eq, n, order, state.deadline)
            if g.bit_count() > mask.bit_count():
                mask = g
    else:
        optimal, mask = True, engine.wit[n]
        if canonical:
            # the call's budgets cover this pass too, and it gets at most
            # _CANONICAL_NODE_CAP nodes more than the search spent
            state.node_cap = min(state.node_cap, state.nodes + _CANONICAL_NODE_CAP)
            try:
                mask, lex_least = engine.lex_least(n, state), True
            except BudgetExceeded:
                pass  # keep the search's witness; size is certified either way
    witness = _checked_witness(eq, n, mask)
    millis = int((time.perf_counter() - t0) * 1000)
    return ExtremalResult(n, witness.size, witness, optimal, state.nodes, millis, canonical=lex_least)


def all_extremal(
    eq: ThreeVarEquation,
    n: int,
    cap: int = 1000,
    *,
    node_cap: int | None = None,
    time_cap: float | None = None,
) -> AllExtremal:
    """All maximum avoiding subsets of [1, n] in lexicographic order, up to cap.

    The lex-least pass runs to its (cap + 1)-th leaf, or to its end if there
    are fewer, so ``truncated`` says whether a set past the cap exists.
    Every set is re-verified by the avoidance checker; one that contains a
    solution raises :class:`AvoidanceCheckFailed`.  A budget hit raises
    :class:`BudgetExceeded`.
    """
    if cap < 1:
        raise InvariantViolation(f"cap must be positive, got {cap}")
    engine = _engine_for(eq)
    state = _RunState(node_cap, time_cap)
    engine.solve_to(n, state)
    size = engine.r[n]
    masks = list(islice(engine.enumerate_at(n, size, state), cap + 1))
    return AllExtremal(n, size, [_checked_witness(eq, n, mk) for mk in masks[:cap]], len(masks) > cap)


def _congruence_engine(eq: ThreeVarEquation, m: int, state: _RunState, need: int = 0) -> _Core | None:
    """The engine over the congruence cliques modulo m, solved to m within the
    budget of ``state``, if r(m) >= ``need``; None once that is ruled out.
    A budget hit raises BudgetExceeded.

    The set-up is the residue tables and one suffix packing, which bounds
    r(m) <= r(k) + (m - k) - rest[k] at every solved prefix k, with rest[k]
    the packed cliques inside (k, m].  So the sweep stops, before any
    search when m - rest[0] < need, as soon as that bound is below need.
    The engine reads the cliques whose largest member is k from the tables
    only when the sweep reaches prefix k."""
    if time.monotonic() > state.deadline:
        raise state.exceeded(f"modulus {m}")  # before the set-up
    tables = _residue_tables(eq, m)
    rest = [0] * (m + 1)
    for cl in _suffix_packing(eq, m, tables):
        rest[cl[0] - 1] += 1
    for k in range(m - 1, -1, -1):  # rest[k]: packed cliques with smallest member above k
        rest[k] += rest[k + 1]
    engine = _Core(lambda k: _congruence_cliques_at(eq, m, k, tables))
    engine.where = f"modulus {m}, "
    if engine.solve_to(m, state, [need - (m - k) + rest[k] for k in range(m + 1)]):
        return engine
    return None


def _residue_cap(eq: ThreeVarEquation, m: int) -> int:
    """An upper bound on r(m) modulo m: (m + 1) // 3 when m is a prime that
    divides none of a, b, c and b >= 1, m otherwise.

    For such m, a residue set S gives |aS| = |bS| = |cS| = |S|, and
    Cauchy-Davenport gives |aS + bS| >= min(m, 2|S| - 1).  cS must miss
    aS + bS, so |S| + 2|S| - 1 <= m."""
    prime = m > 1 and all(m % p for p in range(2, math.isqrt(m) + 1))
    if prime and eq.b and all(v % m for v in (eq.a, eq.b, eq.c)):
        return (m + 1) // 3
    return m


def _density(eq: ThreeVarEquation, engine: _Core, state: _RunState) -> ModularDensity:
    """rho_m of a solved congruence engine, with its lex-least residue set,
    the first leaf of the lex-least pass, as the witness, within the budget
    of ``state``."""
    m = len(engine.r) - 1
    return ModularDensity(m, Fraction(engine.r[m], m), _checked_residues(eq, m, engine.lex_least(m, state)))


def rho_m(
    eq: ThreeVarEquation,
    m: int,
    *,
    node_cap: int | None = None,
    time_cap: float | None = None,
) -> ModularDensity:
    """Exact maximum density of a residue set with no solutions modulo m; a
    witness that contains one raises :class:`AvoidanceCheckFailed`."""
    if m < 1:
        raise InvariantViolation(f"m must be positive, got {m}")
    state = _RunState(node_cap, time_cap)
    return _density(eq, _congruence_engine(eq, m, state), state)


def rho_best(
    eq: ThreeVarEquation,
    m_max: int,
    *,
    node_cap: int | None = None,
    time_cap: float | None = None,
) -> ModularDensity:
    """Best modular density over moduli m <= m_max (a lower bound for rho);
    the first modulus wins a tie.  Each modulus is solved only as far as it
    can still beat the best density so far, that is reach
    floor(rho * m) + 1 residues; a prime modulus that Cauchy-Davenport
    already rules out (see ``_residue_cap``) gets no set-up at all.  Only
    the modulus returned gets a witness, its lex-least residue set.  Both
    budgets cover the whole call."""
    if m_max < 1:
        raise InvariantViolation(f"m_max must be positive, got {m_max}")
    state = _RunState(node_cap, time_cap)  # shared by every modulus
    best = _congruence_engine(eq, 1, state)
    for m in range(2, m_max + 1):
        need = best.r[-1] * m // (len(best.r) - 1) + 1
        if _residue_cap(eq, m) >= need:
            best = _congruence_engine(eq, m, state, need) or best
    return _density(eq, best, state)


def _greedy_mask(eq: ThreeVarEquation, n: int, order, deadline: float | None = None) -> int:
    """Greedy avoiding subset of [1, n] over ``order``, as a mask (bit e - 1 for e).

    An element is kept iff it completes no solution with the elements kept so
    far; in ascending order that is the first leaf of the engine's lex-least
    pass, but with no clique built.
    The kept set K is held as four masks: bits a*v, b*v and c*v and bits
    b*Y - b*v for v in K, so that each role of the new element e is one shift
    and one and; as z, with d = b*Y - c*e, a*x + b*y = c*e reads
    a*x + d = b*Y - b*y.  Each test runs with e already in the masks, which
    catches solutions that repeat e (such as x = y = e).  Every solution has
    c*z = a*x + b*y <= (a+b)*n, so the c-mask keeps only the v up to the
    largest such z, Z.  Then a*x <= c*Z - b and b*y <= c*Z - a, so the a-
    and b-masks keep only the v up to the largest such x and up to Y, the
    largest such y but at most n.  No mask is then wider than
    c*Z <= min(c, a+b)*n bits, so one huge coefficient alone widens none.
    With b = 0 the b-masks are bit 0 alone, and the same tests cover
    a*x = c*z.

    Past ``deadline`` (a ``time.monotonic()`` value) it stops and returns the
    elements kept so far, which avoid the equation too.  The clock is read
    before each element: the pass is quadratic in n, so one element already
    costs 6-15 us at n = 50 000 (a pass over x+2y=13z takes 0.3 s
    descending, 0.7 s ascending).
    """
    a, b, c = eq.a, eq.b, eq.c
    reach = min(n, (a + b) * n // c)  # the largest z any solution can use
    # a*x + b*y = c*z <= c*reach bounds the x and the y of every solution
    xr = (c * reach - b) // a
    yr = min(n, (c * reach - a) // b) if b else n
    am = bm = cm = brev = kept = 0
    if deadline is not None:
        order = takewhile(lambda _: time.monotonic() <= deadline, order)
    for e in order:
        am2 = am | 1 << a * e if e <= xr else am
        bm2, brev2 = (bm | 1 << b * e, brev | 1 << b * (yr - e)) if e <= yr else (bm, brev)
        cm2 = cm | 1 << c * e if e <= reach else cm
        d = b * yr - c * e
        if (
            (cm2 >> a * e) & bm2  # e as x: a*e + b*y = c*z
            or (cm2 >> b * e) & am2  # e as y: a*x + b*e = c*z
            or ((brev2 >> d) & am2 if d >= 0 else (am2 >> -d) & brev2)  # e as z: a*x + b*y = c*e
        ):
            continue
        am, bm, cm, brev = am2, bm2, cm2, brev2
        kept |= 1 << (e - 1)
    return kept


def random_avoiding_sets(eq: ThreeVarEquation, n: int, count: int, seed: int = 0) -> list[IntSet]:
    """``count`` randomized-greedy avoiding subsets of [1, n] (shuffled element
    orders).  Each is re-verified by the avoidance checker, and a set that
    contains a solution raises :class:`AvoidanceCheckFailed`."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        out.append(_checked_witness(eq, n, _greedy_mask(eq, n, order)))
    return out
