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

Element m comes in as records, not clique tuples: whether {m} is a clique
(a banned residue), the mask of its pair partners, and a map from each
middle member v of a triple {u, v, m} to the mask of its smallest members
u.  ``cliques_for`` and ``congruence_cliques`` list the same records as
tuples.  An integer engine takes in only the pairs, O(1) per element, until
a prefix first needs a search (the DFS or the degree packing) or a lex-least
pass runs; then it takes in every triple up to there, in arrival order, and
from then on each element's triples with it.  The switch is one-way.  While
an engine holds no triples its cheap yes (below) reads four shift masks of
wit[m - 1], as ``_greedy_mask`` does, instead of the trigger tables.
x+2y=4z never needs its triples.

Each search carries a forced mask: the undecided elements that would
complete a clique whose other members are all included.  Triggers set
bits as the other members come in: a pair forces its partner by one mask
per element, and the triples of a middle member v and a top w force the
mask of their smallest members by one bit test.  So deciding whether e may
be included is one bit test, and the count of forced elements is also a
bound (a forced element is dead).  Singleton cliques, which ban a residue
in the congruence instances, form the forced mask at the root.

Below the root the prefix table and the forced count are the only bounds.
One more element raises the maximum by at most one, so prefix m asks one
yes/no question: does [1, m] hold an avoiding set of r(m - 1) + 1 elements?
Four tests, in this order, can answer at the root, where the prefix costs
one node:
  * the cheap yes: wit[m - 1] plus m avoids the equation, that is no clique
    whose largest member is m has its other members in wit[m - 1];
  * the warm packing: k pairwise disjoint cliques in [1, m] each need one
    member left out, so r(m) <= m - k, and m - k <= r(m - 1) makes m a stall
    (r(m) = r(m - 1)), whose witness is wit[m - 1].  The engine keeps one
    such packing for ever (a clique inside [1, m'] stays inside [1, m]):
    each element adds the first of its cliques, in arrival order, that
    misses the packing's members, and a larger degree packing (below)
    replaces it;
  * P, the cheap no of the integer engines: the cliques of two members
    (solutions with two equal variables) form the pair graph, whose
    components are small and multiplicative, and r(m) <= P(m), the sum of
    the components' exact independence numbers, so P(m) <= r(m - 1) makes
    m a stall.  A component is solved again only after a merge has touched
    it, and as P never falls, the test does no work while the last P
    computed is above r(m - 1).  With the warm packing it settles every
    stall of x+2y=4z up to m = 20 000, and with b = 0, where every clique is
    a pair, P(m) is r(m) itself;
  * the degree packing: one greedy pass over every clique in [1, m] in
    ascending order of its members' occurrence counts, tried against
    m - k <= r(m - 1) as the warm packing is.  It costs a sort of all
    cliques, so it is built at most once per prefix, and only once the m
    steps of growing to m and the search's nodes make one per clique: at
    the root when there are no more cliques than elements.  The two
    packings settle most stall prefixes in the paper's Family I regime,
    where m - r(m) disjoint solutions exist.
Otherwise the DFS looks for such a set and ends at its first leaf.

The lex-least pass decides elements in ascending order, include first, so
its first leaf of size r(m) is the lexicographically least maximum set and
the pass ends there; only ``all_extremal`` goes on to later leaves.  With no
bound pruning its path, that leaf is the ascending greedy set, so
``max_avoiding`` runs no pass when that set has r(n) elements.  Both
searches (the DFS and the lex-least pass) loop over an explicit stack of
nodes, so a search n elements deep needs no interpreter frames, and one
that an exception unwinds or a caller stops leaves nothing to repair.

The same engine runs three instance kinds: solution triples of ax+by=cz,
pair constraints of a degenerate two-variable equation, and congruence
triples modulo m (used for the modular densities).  ``rho_best`` asks each
modulus only whether it beats the best density so far.  With g_u the gcd
of u and m, Kneser's theorem caps an avoiding residue set at
(m + 1) * g_a*g_b*g_c / (g_b*g_c + g_a*g_c + g_a*g_b) residues (b >= 1),
unless its aS + bS has a nontrivial period, and then it lifts from a
proper divisor of m, whose density is at most the best by the time m
comes up.  So a modulus whose cap is too low is skipped before any
set-up; with b = 0 the cap m * g_a*g_c / (g_a + g_c) holds on its own.
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
from functools import partial
from itertools import islice, takewhile

from .equations import IntSet, ThreeVarEquation, require_avoiding
from .errors import AvoidanceCheckFailed, BudgetExceeded, InvariantViolation

_CANONICAL_NODE_CAP = 250_000  # budget for the optional lex-least witness pass


@dataclass
class ExtremalResult:
    """Outcome of one exact solve; ``optimal`` is False only when a budget was hit.

    ``canonical`` is True iff the witness is certified to be the
    lexicographically least maximum set: the ascending greedy set has r(n)
    elements, or the lex-least pass ran and finished.
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


def _members(mask: int) -> list[int]:
    """The e with bit e - 1 of ``mask`` set, ascending, read from one binary string."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1], 1) if bit == "1"]


def _records(k: int, others) -> tuple[bool, int, dict[int, int]]:
    """The records of the cliques whose largest member is k, from the other
    two values (p, q), both in [1, k], of each solution whose largest value
    is k: whether {k} is a clique (k is banned), the mask of k's pair
    partners, and a map from the middle member of each triple to the mask
    of its smallest members.  A solution found twice sets its bits again."""
    banned, pairs, triples = False, 0, {}
    for p, q in others:
        if p > q:
            p, q = q, p
        if p < q < k:
            triples[q] = triples.get(q, 0) | 1 << (p - 1)
        elif p < k:
            pairs |= 1 << (p - 1)
        else:
            banned = True
    return banned, pairs, triples


def _cliques_of(k: int, banned: bool, pairs: int, triples: dict[int, int]) -> list[tuple[int, ...]]:
    """The cliques of one element's records, as ascending tuples in ascending order."""
    out = [(u, mid, k) for mid, lows in triples.items() for u in _members(lows)]
    out += [(u, k) for u in _members(pairs)]
    out.sort()
    if banned:
        out.append((k,))
    return out


def _pair_partners(eq: ThreeVarEquation, m: int) -> int:
    """The mask of m's pair partners: the u < m with {u, m} the members of a
    solution, which then has two equal variables.  Each such solution reads
    p*v = q*w with {v, w} = {u, m}: ax = cz with b = 0, and otherwise
    (a+b)x = cz, ax = (c-b)y and by = (c-a)x.  So u = min(p, q)*m/max(p, q)
    when that divides, and the cost is O(1)."""
    a, b, c = eq.a, eq.b, eq.c
    mask = 0
    for p, q in ((a, c),) if b == 0 else ((a + b, c), (a, c - b), (b, c - a)):
        if q > 0 and min(p, q) * m % max(p, q) == 0:
            mask |= 1 << (min(p, q) * m // max(p, q) - 1)
    return mask


def _integer_records(eq: ThreeVarEquation, m: int) -> tuple[bool, int, dict[int, int]]:
    """The records (see ``_records``) of the integer cliques whose largest
    member is m.  m takes each role in turn and the equation fixes the last
    variable from the free one v, so the cost is O(m).  v steps along the
    progression that makes that division exact.  With b = 0 every clique is
    a pair, read from ``_pair_partners``."""
    a, b, c = eq.a, eq.b, eq.c
    if b == 0:
        return False, _pair_partners(eq, m), {}
    others = [(v, z) for v in _progression(b, -a * m, c, m) if (z := (a * m + b * v) // c) <= m]  # m as x, v as y
    others += [(v, z) for v in _progression(a, -b * m, c, m) if (z := (a * v + b * m) // c) <= m]  # m as y, v as x
    others += [(v, y) for v in _progression(a, c * m, b, m) if 1 <= (y := (c * m - a * v) // b) <= m]  # m as z
    return _records(m, others)


def cliques_for(eq: ThreeVarEquation, m: int) -> list[tuple[int, ...]]:
    """Distinct member sets, of size 2 or 3, of the solutions inside [1, m]
    whose largest member is m, in ascending order, read from the records
    the engine takes in (``_integer_records``)."""
    return _cliques_of(m, *_integer_records(eq, m))


def _residue_tables(eq: ThreeVarEquation, m: int) -> tuple[list[list[int]], ...]:
    """For each residue t modulo m, the x, the y and the z in [1, m] with
    a*x, b*y and c*z = t (mod m), each list ascending (m is the zero class)."""
    tables = tuple([[] for _ in range(m)] for _ in range(3))
    for coef, table in zip((eq.a, eq.b, eq.c), tables):
        for v in range(1, m + 1):
            table[coef * v % m].append(v)
    return tables


def _congruence_records(eq: ThreeVarEquation, m: int, k: int, tables) -> tuple[bool, int, dict[int, int]]:
    """The records (see ``_records``) of the solutions modulo m over residues
    [1, k] whose largest member is k, read from ``_residue_tables(eq, m)``:
    the congruence version of ``_integer_records``.

    Unlike the integer case a clique can be the singleton {k}, which bans
    k.  k takes each role in turn and the table of the last variable gives
    its values from the free one v, so the cost is O(g*k) with g the gcd of
    that variable's coefficient and m.  With a == b the roles of x and y
    give the same sets and only x is taken; with b = 0, k is x or z.
    """
    a, b, c = eq.a, eq.b, eq.c
    xs, ys, zs = tables
    if not b:
        others = [(z, k) for z in zs[a * k % m] if z <= k]  # k as x
        others += [(x, k) for x in xs[c * k % m] if x <= k]  # k as z
        return _records(k, others)
    vs = range(1, k + 1)
    others = [(v, z) for v in vs for z in zs[(a * k + b * v) % m] if z <= k]  # k as x, v as y
    if a != b:
        others += [(v, z) for v in vs for z in zs[(a * v + b * k) % m] if z <= k]  # k as y, v as x
    others += [(v, y) for v in vs for y in ys[(c * k - a * v) % m] if y <= k]  # k as z, v as x
    return _records(k, others)


def congruence_cliques(eq: ThreeVarEquation, m: int) -> list[tuple[int, ...]]:
    """Distinct member sets of the solutions modulo m over residues [1, m]
    (m is the zero class), in ascending order: the union over k of the
    cliques whose largest member is k.  The cost is O(g*m^2) with g the
    largest gcd of m and a coefficient, or O(g*m) with b = 0."""
    tables = _residue_tables(eq, m)
    return sorted(cl for k in range(1, m + 1) for cl in _cliques_of(k, *_congruence_records(eq, m, k, tables)))


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

    ``source(m)`` gives the records of the cliques whose largest member is
    m (see ``_records``).  Only :meth:`grow` and :meth:`need_triples` write
    the trigger tables; a search keeps its state on its own stack, and the
    root tests and the lex-least pass only read them.  With ``eq`` the
    engine is an integer engine over eq: it settles a prefix by the pair
    graph's independence number (see :meth:`pair_alpha`), and while the
    masks of ``_Kept`` stay narrow it takes in only pairs until a search
    first needs the triples.  The congruence engines run without either.
    """

    where = ""  # what a budget-hit message names before the prefix

    def __init__(self, source, eq: ThreeVarEquation | None = None):
        self.source = source
        self.eq = eq
        self.grown = 0  # elements taken in; may run one past the solved prefix
        self.tripled = 0  # elements whose triples are taken in
        # forced-exclusion triggers: once every member of a clique except the
        # smallest (resp. largest) is included, that last member is dead.  The
        # DFS (resp. lex-least pass) decides elements in descending (resp.
        # ascending) order, so these set the bit of every element that would
        # complete a clique: its forced mask is the legality test.  A pair
        # {u, v} fires as soon as its other member is included, so pair_down[v]
        # (resp. pair_up[u]) is the mask of the partners it forces.  The
        # triples u < v < w of one v and w fire at v, and force[v] holds one
        # (bit of w, mask of their u) entry for them: the DFS tests the bit
        # and forces the mask, the lex-least pass tests the mask and forces
        # the bit.  Both pair masks together are the adjacency of the pair graph.
        self.pair_down: list[int] = [0]
        self.pair_up: list[int] = [0]
        self.force: list[list[tuple[int, int]]] = [[]]
        self.banned = 0  # singleton cliques: no trigger, forced from the root
        # the middle -> lows map of element tripled, the last whose triples
        # came in: it extends an avoiding set W of smaller elements iff its
        # banned bit is clear, W misses pair_down[tripled], and no middle
        # member in W has a smallest member in W
        self.last_triples: dict[int, int] = {}
        self.clique_count = 0  # cliques whose triples are taken in, pairs and singletons included
        # every such clique in arrival order, by largest member and then
        # tuple, with its members' occurrence counts: the degree packing
        # fills them from the records in pending when it runs (see ``advance``)
        self.cliques: list[tuple[int, ...]] = []
        self.count: list[int] = [0]
        self.pending: list[tuple] = []
        # the warm packing: pairwise disjoint cliques inside [1, grown], and
        # the mask of their members
        self.packing: list[tuple[int, ...]] = []
        self.packed = 0
        self.r: list[int] = [0]  # r[m] once solved
        self.wit: list[int] = [0]  # witness masks
        # while the engine takes in only pairs, the cheap yes reads wit[m - 1]
        # as the masks of a _Kept over [1, kept.n]; None once every triple up
        # to grown is in, and from then on grow takes each element's triples
        self.kept = _Kept(eq, 0) if eq is not None and _narrow(eq) else None
        # the pair graph's components over [1, len(comp) - 1], kept by
        # pair_alpha: comp[v] is the root of v's component, members[root] its
        # mask and alpha[root] its independence number, absent while a merge
        # has left it to recompute (the roots in dirty); known sums the alpha
        # values.  So known is P once a call finishes, and never above the
        # current P when one is cut short.  Only integer engines run the pair
        # test.
        self.comp: list[int] = [0]
        self.members: dict[int, int] = {}
        self.alpha: dict[int, int] = {}
        self.dirty: set[int] = set()
        self.known = 0

    def grow(self) -> None:
        """Take in the next element m: its pairs, and its triples too once the
        engine has those of every earlier element.  The warm packing gains
        the first clique of m, in arrival order, that misses it; every clique
        whose largest member is m holds m, so at most one can be added."""
        m = self.grown + 1
        top = 1 << (m - 1)
        eager = self.kept is None
        banned, pairs, triples = self.source(m) if eager else (False, _pair_partners(self.eq, m), {})
        self.force.append([])
        self.pair_up.append(0)
        self.pair_down.append(pairs)
        rest = pairs
        while rest:
            bit = rest & -rest
            rest ^= bit
            self.pair_up[bit.bit_length()] |= top
        if eager:
            self._take_triples(m, banned, pairs, triples)
        # the first clique is the least (u, second member) over the free
        # pairs (u, m) and the free triples (u, mid, m), and {m} after them
        free = ~self.packed
        rest = pairs & free
        first = ((rest & -rest).bit_length(), m) if rest else None
        for mid, lows in triples.items():
            lows &= free
            if lows and free >> (mid - 1) & 1:
                low = ((lows & -lows).bit_length(), mid)
                if first is None or low < first:
                    first = low
        if first:
            u, v = first
            self.packing.append((u, m) if v == m else (u, v, m))
            self.packed |= top | 1 << (u - 1) | 1 << (v - 1)
        elif banned:
            self.packing.append((m,))
            self.packed |= top
        self.grown = m

    def _take_triples(self, k: int, banned: bool, pairs: int, triples: dict[int, int]) -> None:
        """Take in element k's triples, from its records, after those of
        every element below k; its pairs are in already."""
        top = 1 << (k - 1)
        for mid, lows in triples.items():
            self.force[mid].append((top, lows))
        if banned:
            self.banned |= top
        self.last_triples = triples
        if banned or pairs or triples:
            self.clique_count += banned + pairs.bit_count() + sum(map(int.bit_count, triples.values()))
            self.pending.append((k, banned, pairs, triples))
        self.tripled = k

    def need_triples(self, state: _RunState) -> None:
        """Take in the triples of every element up to ``grown`` not yet taken
        in, in arrival order, reading the clock before each element; with
        none pending it does nothing.  Once the last is in, ``kept`` is None:
        from then on ``grow`` takes each element's triples in with its pairs,
        and the cheap yes reads ``last_triples``, so the switch is one-way.  An
        exception leaves ``kept`` live, as its masks track ``wit`` and not the
        triples, and the elements not yet done for the next call."""
        for k in range(self.tripled + 1, self.grown + 1):
            if time.monotonic() > state.deadline:
                raise state.exceeded(f"{self.where}prefix {self.grown}")
            self._take_triples(k, *self.source(k))
        self.kept = None

    # -- the pair graph ------------------------------------------------------

    def _join(self, v: int) -> None:
        """Take element v into the components: it merges every component of
        one of its smaller pair partners, and the merged one is dirty."""
        roots = set()
        rest = self.pair_down[v]
        while rest:
            bit = rest & -rest
            rest ^= bit
            roots.add(self.comp[bit.bit_length()])
        merged = 1 << (v - 1)
        for root in roots:
            merged |= self.members.pop(root)
            self.known -= self.alpha.pop(root, 0)
            self.dirty.discard(root)
        self.comp.append(v)
        rest = merged
        while rest:
            bit = rest & -rest
            rest ^= bit
            self.comp[bit.bit_length()] = v
        self.members[v] = merged
        self.dirty.add(v)

    def _mis(self, comp: int, state: _RunState) -> int:
        """The independence number of the pair graph on the mask ``comp``, by
        branch and bound on an explicit stack.  At each node a vertex with at
        most one neighbour left is taken (some maximum set holds it), and the
        search branches on a vertex of most neighbours, taking it first.  A
        node's bound is its size plus the vertices left.  The clock is read
        on each call's first step and every 4096th after it."""
        down, up = self.pair_down, self.pair_up
        best = steps = 0
        stack = [(comp, 0)]
        while stack:
            left, size = stack.pop()
            steps += 1
            if steps & 4095 == 1 and time.monotonic() > state.deadline:
                raise state.exceeded(f"{self.where}prefix {self.grown}")
            pick = most = 0
            rest = left
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length()
                nb = (down[v] | up[v]) & left
                if not nb & (nb - 1):  # at most one neighbour: take v
                    left &= ~(bit | nb)
                    rest &= ~nb
                    size += 1
                elif nb.bit_count() > most:
                    pick, most = bit, nb.bit_count()
            if size + left.bit_count() <= best:
                continue
            if not left:
                best = size
                continue
            if not pick & left:  # the pick lost a neighbour taken after it
                pick = left & -left
            v = pick.bit_length()
            stack.append((left & ~pick, size))
            stack.append((left & ~(pick | down[v] | up[v]), size + 1))
        return best

    def pair_alpha(self, state: _RunState) -> int:
        """P = the pair graph's independence number on [1, grown]: the sum of
        its components' exact independence numbers.

        The pair graph joins u and v when {u, v} is a clique, the members of
        a solution with two equal variables, so r(m) <= P on [1, m].  Only the
        elements joined since the last call enter, and only the components
        they merged are solved again.  An exception leaves those dirty, to
        be solved by the next call."""
        for v in range(len(self.comp), self.grown + 1):
            self._join(v)
        while self.dirty:
            root = next(iter(self.dirty))
            value = self._mis(self.members[root], state)
            self.dirty.discard(root)
            self.alpha[root] = value
            self.known += value
        return self.known

    def degree_packing(self) -> list[tuple[int, ...]]:
        """Pairwise disjoint cliques from every clique whose triples are
        taken in: one greedy pass over them in ascending order of the sum of
        their members' occurrence counts (arrival order breaks ties), so
        cliques of rarely used elements, which block few others, come first.
        The clique list and the counts take in the pending records first.  A
        packing larger than the warm one replaces it."""
        count = self.count
        count += [0] * (self.tripled + 1 - len(count))
        for record in self.pending:
            for cl in _cliques_of(*record):
                self.cliques.append(cl)
                for v in cl:
                    count[v] += 1
        self.pending.clear()
        weight = count.__getitem__
        packing = []
        used: set[int] = set()
        for cl in sorted(self.cliques, key=lambda cl: sum(map(weight, cl))):
            if used.isdisjoint(cl):
                used.update(cl)
                packing.append(cl)
        if len(packing) > len(self.packing):
            self.packing = packing
            self.packed = sum(1 << (v - 1) for cl in packing for v in cl)
        return packing

    # -- exact solve of the next prefix -------------------------------------

    def advance(self, state: _RunState) -> None:
        """Solve prefix m = len(r): r(m) is r(m - 1) + 1 iff [1, m] holds an
        avoiding set that large, and r(m - 1) otherwise.  The engine must be
        grown to exactly m, as the root tests and the degree packing read
        the cliques in [1, m]."""
        m = len(self.r)
        prev = self.r[m - 1]
        best = self.wit[m - 1]
        kept = self.kept
        if kept is None:  # tripled == grown == m: the tables hold m's cliques
            extends = not (self.banned >> (m - 1) & 1 or self.pair_down[m] & best
                           or any(lows & best and best >> (mid - 1) & 1 for mid, lows in self.last_triples.items()))
        else:
            if m > kept.n:  # the masks' widths are bounded for [1, kept.n]
                kept = self.kept = _Kept(self.eq, 2 * m)
                kept.extend(_members(best))
            extends = kept.extend((m,))  # m stays in the masks iff wit[m] will be wit[m - 1] plus m
        if extends:  # the cheap yes: wit[m - 1] plus m avoids
            best |= 1 << (m - 1)
        best_size = best.bit_count()
        # The root's bound is prev + 1, or prev when the warm packing or the
        # pair graph's independence number P says so.  Adding an element
        # never lowers P, and known is never above it, so P is skipped while
        # known is above prev.
        root = prev + 1
        if best_size == prev and (m - len(self.packing) <= prev or self.eq is not None and self.known <= prev
                                  and self.pair_alpha(state) <= prev):
            root = prev
        if root > best_size:  # the search needs the triples
            self.need_triples(state)

        rt = self.r + [root]  # index m is the root
        pair_down = self.pair_down
        force = self.force
        node_cap = state.node_cap
        deadline = state.deadline
        # A prefix settled above costs one node: its root's bound is its size.
        # Otherwise the search looks for prev + 1 elements and ends at its first
        # leaf, or right after the degree packing when k disjoint cliques give
        # r(m) <= m - k <= prev.  The packing sorts every clique, so a prefix
        # tries it at most once.  Growing the engine to m took m steps, so the
        # try comes once the search has spent clique_count - m nodes, on its
        # first node when there are no more cliques than elements.  The first
        # node count above ``limit`` is that trigger or the one past the node
        # budget, whichever is first.
        limit = node_cap if root == best_size else min(node_cap, state.nodes + self.clique_count - m)

        # Bounds at a node deciding e (undecided region [1, e]):
        #  * prefix table: at most rt[e] more elements;
        #  * forced split: charge [1, j] to the table and (j, e] to the count
        #    of slots not yet provably dead, j = lowest forced element.
        # A node (e, inc, forced) has inc.bit_count() elements taken.  It goes
        # straight on to its include child and leaves its exclude child on an
        # explicit stack, so the include branch is searched first,
        # depth-first; a node whose element is forced goes straight on to its
        # exclude child.
        # The clock is read on a call's first node and every 4096th after it;
        # the first read lets a spent budget stop a short search on a warm engine.
        stack = []
        e, inc, forced = m, 0, self.banned
        while True:
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
            if inc.bit_count() + bound > best_size:
                if e == 0:  # a set of prev + 1 elements
                    best = inc
                    break
                bit = 1 << (e - 1)
                if forced & bit:  # e completes a clique whose smallest member it is
                    forced ^= bit  # decided now, not pending
                    e -= 1
                    continue
                stack.append((e - 1, inc, forced))
                f2 = forced | pair_down[e]
                for top, lows in force[e]:
                    if top & inc:
                        f2 |= lows
                e, inc, forced = e - 1, inc | bit, f2
            elif stack:
                e, inc, forced = stack.pop()
            else:
                break
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
        self.need_triples(state)
        pair_up = self.pair_up
        force = self.force
        inside = (1 << m) - 1  # the engine may be grown past m: triggers above m never fire
        node_cap = state.node_cap
        deadline = state.deadline
        start = state.nodes  # the clock is read on this pass's first node and every 4096th after it
        # as in ``advance``: include child searched first; the engine may be
        # grown past m, so the root keeps only the banned elements in [1, m]
        stack = [(1, 0, self.banned & inside)]
        while stack:
            e, inc, forced = stack.pop()
            state.nodes += 1
            if state.nodes > node_cap or (state.nodes - start) & 4095 == 1 and time.monotonic() > deadline:
                raise state.exceeded(f"{self.where}prefix {m}")
            if inc.bit_count() + (m - e + 1) - forced.bit_count() < target:
                continue
            if e > m:
                yield inc
                continue
            bit = 1 << (e - 1)
            stack.append((e + 1, inc, forced & ~bit))
            if not forced & bit:  # e completes no clique whose largest member it is
                f2 = forced | pair_up[e]
                for top, lows in force[e]:
                    if lows & inc:
                        f2 |= top
                stack.append((e + 1, inc | bit, f2 & inside))

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


def _integer_engine(eq: ThreeVarEquation) -> _Core:
    """A cold engine over the integer cliques of eq, with the pair test."""
    return _Core(partial(_integer_records, eq), eq)


def _engine_for(eq: ThreeVarEquation) -> _Core:
    engine = _SOLVERS.get(eq)
    if engine is None:
        engine = _SOLVERS[eq] = _integer_engine(eq)
    return engine


def _mask_to_set(n: int, mask: int) -> IntSet:
    """The set of e with bit e - 1 of ``mask`` set, as a subset of [1, n]; a
    bit above n raises :class:`InvariantViolation`."""
    return IntSet(n, tuple(_members(mask)))


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
    budget permitting.  That is the ascending greedy set, run within
    ``time_cap``, if it has r(n) elements, as nothing prunes the lex-least
    pass's path to it.  Otherwise the pass ends at its first leaf of size
    r(n), and it gets the nodes the search left of ``node_cap``, at most
    ``_CANONICAL_NODE_CAP``, and the time left of ``time_cap``.  The
    result's ``canonical`` says whether either reached that set; if not,
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
    if optimal and canonical:
        # the ascending greedy is the pass's first leaf if no bound prunes
        # its path, that is if it has r(n) elements
        greedy = _greedy_mask(eq, n, range(1, n + 1), state.deadline) if _narrow(eq) else 0
        if greedy.bit_count() == engine.r[n]:
            mask, lex_least = greedy, True
        else:
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
    engine = _Core(partial(_congruence_records, eq, m, tables=tables))
    engine.where = f"modulus {m}, "
    if engine.solve_to(m, state, [need - (m - k) + rest[k] for k in range(m + 1)]):
        return engine
    return None


def _residue_cap(eq: ThreeVarEquation, m: int) -> int:
    """The Kneser cap on the residues modulo m, with g_u = gcd(u, m):
    floor((m + 1) * g_a*g_b*g_c / (g_b*g_c + g_a*g_c + g_a*g_b)) for b >= 1,
    and floor(m * g_a*g_c / (g_a + g_c)) for b = 0.

    A residue set S avoids the congruence iff cS misses aS + bS, and
    |uS| >= |S| / g_u.  With b = 0 that gives |S| / g_a + |S| / g_c <= m,
    so the cap bounds r(m) on its own.  With b >= 1, let H be the
    stabiliser of aS + bS.  If H is trivial, Kneser's theorem gives
    |aS + bS| >= |aS| + |bS| - 1, and so |S| is at most the cap.  If not,
    S + H avoids the congruence too and its image modulo d = m / |H|
    avoids it there, so |S| <= (m / d) * r(d) for a proper divisor d of m.
    So r(m) <= max(cap, (m / d) * r(d) over the divisors d < m), and the
    cap alone bounds r(m) only when no divisor term is above it."""
    ga, gb, gc = math.gcd(eq.a, m), math.gcd(eq.b, m), math.gcd(eq.c, m)
    if not eq.b:
        return m * ga * gc // (ga + gc)
    return (m + 1) * ga * gb * gc // (gb * gc + ga * gc + ga * gb)


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
    floor(rho * m) + 1 residues.  A modulus whose Kneser cap (see
    ``_residue_cap``) is below that need gets no set-up at all: each
    modulus d < m was solved or ruled out before it, so r(d) / d <= rho,
    and the divisor term of the cap's bound is below the need too.  Only
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


class _Kept:
    """An avoiding set K in [1, n], kept as four masks so that whether K plus
    a new element e avoids the equation is a few shifts and ands.

    The masks hold bits a*v, b*v and c*v and bits b*Y - b*v for v in K, so
    that each role of e is one shift and one and; as z, with
    d = b*Y - c*e, a*x + b*y = c*e reads a*x + d = b*Y - b*y.  Each test
    runs with e already in the masks, which catches solutions that repeat e
    (such as x = y = e), so testing an element already in K gives the same
    answer again.  Every solution has c*z = a*x + b*y <= (a+b)*n, so the
    c-mask keeps only the v up to the largest such z, Z.  Then
    a*x <= c*Z - b and b*y <= c*Z - a, so the a- and b-masks keep only the v
    up to the largest such x and up to Y, the largest such y but at most n.
    No mask is then wider than c*Z <= min(c, a+b)*n bits, so one huge
    coefficient alone widens none (see ``_narrow``).  With b = 0 the
    b-masks are bit 0 alone, and the same tests cover a*x = c*z.
    """

    __slots__ = ("eq", "n", "reach", "xr", "yr", "am", "bm", "cm", "brev")

    def __init__(self, eq: ThreeVarEquation, n: int):
        a, b, c = eq.a, eq.b, eq.c
        self.eq, self.n = eq, n
        self.reach = min(n, (a + b) * n // c)  # the largest z any solution can use
        # a*x + b*y = c*z <= c*reach bounds the x and the y of every solution
        self.xr = (c * self.reach - b) // a
        self.yr = min(n, (c * self.reach - a) // b) if b else n
        self.am = self.bm = self.cm = self.brev = 0

    def extend(self, order) -> int:
        """Keep each element of ``order`` in turn iff it completes no solution
        with K and itself; the mask of the elements kept (bit e - 1 for e)."""
        a, b, c = self.eq.a, self.eq.b, self.eq.c
        reach, xr, yr = self.reach, self.xr, self.yr
        am, bm, cm, brev = self.am, self.bm, self.cm, self.brev
        kept = 0
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
        self.am, self.bm, self.cm, self.brev = am, bm, cm, brev
        return kept


_MASK_BITS = 1024  # the widest coefficient a _Kept is built for on the engine's own initiative


def _narrow(eq: ThreeVarEquation) -> bool:
    """Whether a ``_Kept`` over [1, n] takes at most ``_MASK_BITS * n`` bits a
    mask.  The engine's masks and the canonical shortcut need no _Kept, so
    they build one only then: a huge c together with a huge a + b would
    make every mask huge."""
    return min(eq.c, eq.a + eq.b) <= _MASK_BITS


def _greedy_mask(eq: ThreeVarEquation, n: int, order, deadline: float | None = None) -> int:
    """Greedy avoiding subset of [1, n] over ``order``, as a mask (bit e - 1 for e).

    An element is kept iff it completes no solution with the elements kept so
    far (see ``_Kept``); in ascending order that is the first leaf of the
    engine's lex-least pass, but with no clique built.

    Past ``deadline`` (a ``time.monotonic()`` value) it stops and returns the
    elements kept so far, which avoid the equation too.  The clock is read
    before each element: the pass is quadratic in n, so one element already
    costs 6-15 us at n = 50 000 (a pass over x+2y=13z takes 0.3 s
    descending, 0.7 s ascending).
    """
    if deadline is not None:
        order = takewhile(lambda _: time.monotonic() <= deadline, order)
    return _Kept(eq, n).extend(order)


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
