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
The root of prefix m, whose table entry would otherwise be m, is bounded by
r(m - 1) + 1.  Prefix m starts from the largest of wit[m - 1] and three
greedy seeds: descending over wit[m - 1] plus m and over all of [1, m], and
ascending over [1, m] (the lex-first avoiding set, the first leaf of the
lex-least enumeration).  A greedy decides each clique at the member it meets
last, which the triggers of its order have forced out if it kept the
others, so the trigger tables are all it needs.  When a seed reaches the
root bound the prefix costs one node.  When none does, a clique packing can
settle the prefix: k pairwise disjoint cliques in [1, m] each need one
member left out, so r(m) <= m - k.  The packing is one greedy pass over
every clique in [1, m] in ascending order of its members' occurrence
counts; if it leaves no more than the incumbent's size, the incumbent is a
maximum and the search stops.  It costs a sort of all cliques, so it is
built at most once per prefix, and only once the seeds' m steps and the
search's nodes make one per clique: at the root when there are no more
cliques than elements, as with every two-variable equation.  It settles
most stall prefixes (r(m) = r(m - 1)) in the paper's Family I regime, where
m - r(m) disjoint solutions exist.

Both searches (the DFS and the lex-least enumeration) loop over an explicit
stack of nodes, so a search n elements deep needs no interpreter frames,
and one that an exception unwinds leaves nothing to repair.

The same engine runs three instance kinds: solution triples of ax+by=cz,
pair constraints of a degenerate two-variable equation, and congruence
triples modulo m (used for the modular densities).
"""
from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from math import gcd

from .equations import IntSet, ThreeVarEquation, require_avoiding
from .errors import BudgetExceeded, InvariantViolation

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
        self.nodes = 0
        self.node_cap = node_cap
        self.deadline = time.monotonic() + time_cap if time_cap is not None else None

    def exceeded(self, where: str) -> BudgetExceeded:
        """The error for a budget hit at ``where``: the node budget if it is
        spent, the time budget otherwise."""
        if self.node_cap is not None and self.nodes > self.node_cap:
            return BudgetExceeded(f"node budget {self.node_cap} exceeded at {where}")
        return BudgetExceeded(f"time budget exceeded at {where}")


def cliques_for(eq: ThreeVarEquation, m: int) -> list[tuple[int, ...]]:
    """Distinct member sets, of size 2 or 3, of the solutions inside [1, m]
    whose largest member is m, in ascending order.

    m takes each role in turn and the equation fixes the last variable from
    the free one, so the cost is O(m).  With b = 0, m is x or z.
    """
    a, b, c = eq.a, eq.b, eq.c
    found: set[tuple[int, ...]] = set()
    if b == 0:
        if a * m % c == 0 and a * m // c <= m:  # m as x
            found.add((a * m // c, m))
        if c * m % a == 0 and c * m // a <= m:  # m as z
            found.add((c * m // a, m))
        return sorted(found)
    for v in range(1, m + 1):
        z, r = divmod(a * m + b * v, c)  # m as x, v as y
        if r == 0 and z <= m:
            found.add(tuple(sorted({m, v, z})))
        z, r = divmod(a * v + b * m, c)  # m as y, v as x
        if r == 0 and z <= m:
            found.add(tuple(sorted({v, m, z})))
        y, r = divmod(c * m - a * v, b)  # m as z, v as x
        if r == 0 and 1 <= y <= m:
            found.add(tuple(sorted({v, y, m})))
    return sorted(found)


def congruence_cliques(eq: ThreeVarEquation, m: int) -> list[tuple[int, ...]]:
    """Distinct member sets of the solutions modulo m over residues [1, m]
    (m is the zero class), in ascending order.

    Unlike the integer case these can be singletons, which simply ban a residue.
    For each x (and y) the congruence c*z = a*x + b*y (mod m) is solved for z:
    with g = gcd(c, m) it has a solution iff g divides the right-hand side,
    and then exactly g of them, m/g apart.  So the cost is O(g*m^2), or
    O(g*m) with b = 0.
    """
    a, b, c = eq.a, eq.b, eq.c
    g = gcd(c, m)
    step = m // g
    inv = pow(c // g, -1, step)  # c/g is a unit modulo m/g
    found: set[tuple[int, ...]] = set()
    ys = range(1, m + 1) if b else (0,)
    for x in range(1, m + 1):
        for y in ys:
            t = (a * x + b * y) % m
            if t % g:
                continue
            for z in range(t // g * inv % step, m, step):
                members = {x, y, z or m} if b else {x, z or m}
                found.add(tuple(sorted(members)))
    return sorted(found)


class _Core:
    """Branch-and-bound engine over forbidden cliques, grown one element at a time.

    ``source(m)`` gives the cliques whose largest member is m, ascending.
    Only :meth:`grow` writes the trigger tables and the clique list; a
    search keeps its state on its own stack, and the seeds and the degree
    packing only read them.
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
        # them when a prefix's seeds miss its root bound (see ``advance``)
        self.cliques: list[tuple[int, ...]] = []
        self.r: list[int] = [0]  # r[m] once solved
        self.wit: list[int] = [0]  # witness masks

    def grow(self) -> None:
        """Take in the next element m and the cliques whose largest member is m."""
        m = self.grown + 1
        self.force_down.append([])
        self.force_up.append([])
        top = 1 << (m - 1)
        for cl in self.source(m):
            self.cliques.append(cl)
            low = 1 << (cl[0] - 1)
            if len(cl) == 1:
                self.banned |= low
            elif len(cl) == 2:
                self.force_down[m].append((0, low))
                self.force_up[cl[0]].append((0, top))
            else:
                self.force_down[cl[1]].append((top, low))
                self.force_up[cl[1]].append((low, top))
        self.grown = m

    # -- seeding -----------------------------------------------------------

    def greedy(self, cand: int, up: bool = False) -> int:
        """Greedy over the mask ``cand`` (grown to its top), descending or, with
        ``up``, ascending: keep each element not forced, firing ``force_down``
        (resp. ``force_up``) as the first dive of the DFS (resp. lex-least pass) does."""
        triggers = self.force_up if up else self.force_down
        inc = 0
        forced = self.banned
        while cand:
            bit = cand & -cand if up else 1 << (cand.bit_length() - 1)
            cand ^= bit
            if not forced & bit:
                inc |= bit
                for need, dead in triggers[bit.bit_length()]:
                    if need & inc == need:
                        forced |= dead
        return inc

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
        packing = []
        used: set[int] = set()
        for cl in sorted(self.cliques, key=lambda cl: sum(map(weight, cl))):
            if used.isdisjoint(cl):
                used.update(cl)
                packing.append(cl)
        return packing

    # -- exact solve of the next prefix -------------------------------------

    def advance(self, state: _RunState) -> None:
        """Solve prefix m = len(r); the engine must be grown to exactly m, as
        the degree packing and the seeds read the cliques in [1, m]."""
        m = len(self.r)
        best_mask = self.wit[m - 1]
        best_size = best_mask.bit_count()
        # the seeds of the module docstring, in order; a tie keeps the earlier
        for g in (self.greedy(best_mask | 1 << (m - 1)), self.greedy((1 << m) - 1),
                  self.greedy((1 << m) - 1, up=True)):
            if g.bit_count() > best_size:
                best_mask, best_size = g, g.bit_count()

        # index m is the root: r(m) <= r(m - 1) + 1
        rt = self.r + [self.r[m - 1] + 1]
        force_down = self.force_down
        node_cap = state.node_cap if state.node_cap is not None else sys.maxsize
        deadline = state.deadline
        # The degree packing sorts every clique, so a prefix tries it at most
        # once, and only if the seeds fell short of the root bound (a seed
        # that meets it ends the search at its first node).  The seeds took m
        # steps, so the try comes once the search has spent len(cliques) - m
        # nodes, on its first node when there are no more cliques than
        # elements.  The incumbent then has r(m - 1) elements, so k disjoint
        # cliques with m - k <= best_size prove it a maximum, and the DFS
        # stops; it only ever replaces the incumbent with a larger set, so
        # stopping changes no answer.  The first node count above ``limit`` is
        # that trigger or the one past the node budget, whichever is first.
        limit = node_cap if best_size >= rt[m] else min(node_cap, state.nodes + len(self.cliques) - m)

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
                if m - len(self.degree_packing()) <= best_size:
                    break
            if deadline is not None and state.nodes & 4095 == 1 and time.monotonic() > deadline:
                raise state.exceeded(f"{self.where}prefix {m}")
            if forced:
                j = (forced & -forced).bit_length() - 1
                split = rt[j] + (e - j) - forced.bit_count()
                bound = rt[e] if rt[e] < split else split
            else:
                bound = rt[e]
            if size + bound <= best_size:
                continue
            if e == 0:
                best_size, best_mask = size, inc
                continue
            e1 = e - 1
            # drop e's own forced bit: it is decided now, not pending
            stack.append((e1, size, inc, forced & ~(1 << e1)))
            if not forced >> e1 & 1:  # e completes no clique whose smallest member it is
                f2 = forced
                for high, low in force_down[e]:
                    if high & inc == high:
                        f2 |= low
                stack.append((e1, size + 1, inc | (1 << e1), f2))
        self.r.append(best_size)
        self.wit.append(best_mask)

    def solve_to(self, n: int, state: _RunState) -> None:
        """Solve every prefix up to n, checking the deadline before each one."""
        while len(self.r) <= n:
            if state.deadline is not None and time.monotonic() > state.deadline:
                raise state.exceeded(f"{self.where}prefix {len(self.r)}")
            if self.grown < len(self.r):
                self.grow()
            self.advance(state)

    # -- lexicographic enumeration of maximum sets --------------------------

    def enumerate_at(self, m: int, target: int, cap: int, state: _RunState):
        """Maximum sets of [1, m] in ascending lexicographic order, up to cap.

        Returns (masks, truncated).  Truncated means at least one more
        maximum set exists beyond the cap.
        """
        out: list[int] = []
        force_up = self.force_up
        node_cap = state.node_cap
        deadline = state.deadline
        # as in ``advance``: include child searched first; the engine may be
        # grown past m, so the root keeps only the banned elements in [1, m]
        stack = [(1, 0, 0, self.banned & ((1 << m) - 1))]
        while stack:
            e, size, inc, forced = stack.pop()
            state.nodes += 1
            if (node_cap is not None and state.nodes > node_cap
                    or deadline is not None and state.nodes & 4095 == 1 and time.monotonic() > deadline):
                raise state.exceeded(f"{self.where}prefix {m}")
            if size + (m - e + 1) - forced.bit_count() < target:
                continue
            if e > m:
                out.append(inc)
                if len(out) > cap:
                    return out[:cap], True
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
        return out, False


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
    return require_avoiding(eq, _mask_to_set(n, mask), InvariantViolation, f"the witness at n={n}")


def _checked_residues(eq: ThreeVarEquation, m: int, mask: int) -> IntSet:
    """The residue set of ``mask``, re-verified on the residues themselves: no
    x, y, z in it with a*x + b*y = c*z (mod m), taking y = 0 when b = 0."""
    witness = _mask_to_set(m, mask)
    zs = {eq.c * z % m: z for z in reversed(witness.members)}  # the least z per class
    for x in witness.members:
        for y in witness.members if eq.b else (0,):
            if z := zs.get((eq.a * x + eq.b * y) % m):
                raise InvariantViolation(f"residues for {eq} modulo {m} contain the solution {(x, y, z)}")
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
    budget permitting: the lex-least pass gets the nodes the search left of
    ``node_cap``, at most ``_CANONICAL_NODE_CAP``, and the time left of
    ``time_cap``.  The result's ``canonical`` says whether it was; if not,
    the witness is the search's, and it is still a maximum set.  Either way
    the witness is re-verified by the avoidance checker before it is
    returned, and a set that contains a solution raises
    :class:`InvariantViolation`.
    """
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")
    t0 = time.perf_counter()
    engine = _engine_for(eq)
    state = _RunState(node_cap, time_cap)
    try:
        engine.solve_to(n, state)
    except BudgetExceeded:
        best = engine.wit[-1]
        for order in (range(n, 0, -1), range(1, n + 1)):
            g = _greedy_mask(eq, n, order, state.deadline)
            if g.bit_count() > best.bit_count():
                best = g
        witness = _checked_witness(eq, n, best)
        millis = int((time.perf_counter() - t0) * 1000)
        return ExtremalResult(n, best.bit_count(), witness, False, state.nodes, millis)
    size = engine.r[n]
    mask = engine.wit[n]
    lex_least = False
    if canonical:
        # the call's budgets cover this pass too: it gets the nodes the search left
        cap = _CANONICAL_NODE_CAP if node_cap is None else min(_CANONICAL_NODE_CAP, node_cap - state.nodes)
        cstate = _RunState(cap)
        cstate.deadline = state.deadline
        try:
            masks, _ = engine.enumerate_at(n, size, 1, cstate)
            if masks:
                mask, lex_least = masks[0], True
        except BudgetExceeded:
            pass  # keep the search incumbent; size is certified either way
        state.nodes += cstate.nodes
    witness = _checked_witness(eq, n, mask)
    millis = int((time.perf_counter() - t0) * 1000)
    return ExtremalResult(n, size, witness, True, state.nodes, millis, canonical=lex_least)


def all_extremal(
    eq: ThreeVarEquation,
    n: int,
    cap: int = 1000,
    *,
    node_cap: int | None = None,
    time_cap: float | None = None,
) -> AllExtremal:
    """All maximum avoiding subsets of [1, n] in lexicographic order, up to cap.

    Every set is re-verified by the avoidance checker; one that contains a
    solution raises :class:`InvariantViolation`.  A budget hit raises
    :class:`BudgetExceeded`.
    """
    if cap < 1:
        raise InvariantViolation(f"cap must be positive, got {cap}")
    engine = _engine_for(eq)
    state = _RunState(node_cap, time_cap)
    engine.solve_to(n, state)
    size = engine.r[n]
    masks, truncated = engine.enumerate_at(n, size, cap, state)
    return AllExtremal(n, size, [_checked_witness(eq, n, mk) for mk in masks], truncated)


def _rho(eq: ThreeVarEquation, m: int, state: _RunState) -> ModularDensity:
    """rho_m within the budget of ``state``; a budget hit raises BudgetExceeded."""
    if state.deadline is not None and time.monotonic() > state.deadline:
        raise state.exceeded(f"modulus {m}")  # before the O(m^2) clique build
    by_max: list[list[tuple[int, ...]]] = [[] for _ in range(m + 1)]
    for cl in congruence_cliques(eq, m):  # ascending, so each group is too
        by_max[cl[-1]].append(cl)
    engine = _Core(lambda k: by_max[k])
    engine.where = f"modulus {m}, "
    engine.solve_to(m, state)
    masks, _ = engine.enumerate_at(m, engine.r[m], 1, state)
    mask = masks[0] if masks else 0
    return ModularDensity(m, Fraction(engine.r[m], m), _checked_residues(eq, m, mask))


def rho_m(
    eq: ThreeVarEquation,
    m: int,
    *,
    node_cap: int | None = None,
    time_cap: float | None = None,
) -> ModularDensity:
    """Exact maximum density of a residue set with no solutions modulo m; a
    witness that contains one raises :class:`InvariantViolation`."""
    if m < 1:
        raise InvariantViolation(f"m must be positive, got {m}")
    return _rho(eq, m, _RunState(node_cap, time_cap))


def rho_best(
    eq: ThreeVarEquation,
    m_max: int,
    *,
    node_cap: int | None = None,
    time_cap: float | None = None,
) -> ModularDensity:
    """Best modular density over moduli m <= m_max (a lower bound for rho);
    the first modulus wins a tie.  Both budgets cover the whole call."""
    if m_max < 1:
        raise InvariantViolation(f"m_max must be positive, got {m_max}")
    state = _RunState(node_cap, time_cap)  # shared by every modulus
    return max((_rho(eq, m, state) for m in range(1, m_max + 1)), key=lambda d: d.rho)


def _greedy_mask(eq: ThreeVarEquation, n: int, order, deadline: float | None = None) -> int:
    """Greedy avoiding subset of [1, n] over ``order``, as a mask (bit e - 1 for e).

    An element is kept iff it completes no solution with the elements kept so
    far: in descending (resp. ascending) order, the engine's greedy over its
    ``force_down`` (resp. ``force_up``) triggers, but with no clique built.
    The kept set K is held as four masks: bits a*v, b*v and c*v and bits
    b*n - b*v for v in K, so that each role of the new element e is one shift
    and one and; as z, with d = b*n - c*e, a*x + b*y = c*e reads
    a*x + d = b*n - b*y.  Each test runs with e already in the masks, which
    catches solutions that repeat e (such as x = y = e).  Every solution has
    c*z = a*x + b*y <= (a+b)*n, so the c-mask keeps only the v that meet that
    bound and no mask is wider than (a+b)*n bits, however large c is.  With
    b = 0 the b-masks are bit 0 alone, and the same tests cover a*x = c*z.

    Past ``deadline`` (a ``time.monotonic()`` value) it stops and returns the
    elements kept so far, which avoid the equation too.  The clock is read
    before each element: the pass is quadratic in n, so one element already
    costs 6-15 us at n = 50 000 (a pass over x+2y=13z takes 0.3 s
    descending, 0.7 s ascending).
    """
    a, b, c = eq.a, eq.b, eq.c
    reach = (a + b) * n // c  # the largest z any solution can use
    am = bm = cm = brev = kept = 0
    if deadline is not None:
        order = takewhile(lambda _: time.monotonic() <= deadline, order)
    for e in order:
        am2 = am | 1 << a * e
        bm2 = bm | 1 << b * e
        cm2 = cm | 1 << c * e if e <= reach else cm
        brev2 = brev | 1 << b * (n - e)
        d = b * n - c * e
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
    orders).  Each is re-verified by :func:`avoids`, and a set that contains
    a solution raises :class:`InvariantViolation`."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        out.append(_checked_witness(eq, n, _greedy_mask(eq, n, order)))
    return out
