"""Exact maximum-avoiding-set search.

The solver answers r(n) = max  |A| over A subset of [1, n] avoiding the
equation, by depth-first branch and bound over elements in descending order.
Solving proceeds as a sweep m = 1, 2, ..., n, one loop over the prefixes
(``_Core.solve_to``), so that every prefix value r(m) is available;
besides being the natural warm start, the prefix table is a strong
admissible bound, because any avoiding subset of [1, n] restricted to
[1, m] is an avoiding subset of [1, m].

The engine grows with the sweep.  Before it searches prefix m it takes in
the cliques (member sets of solutions) whose largest member is m, and that
is the only way a clique ever enters it: the tables for prefix m are those
for m - 1 plus O(m) new entries, and nothing is rebuilt when n grows.  One
engine per equation lives for the whole process, so a later call resumes
from the prefixes already solved.  A call takes its equation's engine out of
that cache for the sweep and puts it back when the sweep ends or a budget
stops it.  The engine reads its budgets only where its tables are whole:
at the top of a prefix, at each node it counts (a search node's top, or a
prefix settled at its root), between the elements of a take-in, before a
trade's group scan or a pivot, and inside a part of the pair test, whose
tables take the part in only after its solve.  So a budget hit keeps every
prefix solved, and any other exception (Ctrl-C, a ``MemoryError``, a bug)
leaves the engine out: the next call starts cold.

Element m comes in as records, not clique tuples: whether {m} is a clique
(a banned residue), the mask of its pair partners, and a map from each
middle member v of a triple {u, v, m} to the mask of its smallest members
u.  ``cliques_for`` and ``congruence_cliques`` list the same records as
tuples.  One step, the take-in of an element (``_Core.take_in``), files
all its records in the trigger tables (below) and, in an integer engine,
gives the warm packing its first free clique, and no other step writes
them.

There are two engine kinds.  A ``_Core`` (a congruence engine, or a part
that ``_IntegerEngine.pair_alpha`` solves) takes in its trigger tables and
nothing else, and runs the cheap yes and the DFS alone: it keeps no clique
list and no packing and runs no stall test, as those cost such engines
more time than the nodes they saved.  An ``_IntegerEngine``, the engine
of an equation over the integers, runs the whole ladder below.  It is
pair-only until a prefix first needs a search (the DFS or the degree
packing): it takes in no element, its cheap yes (below) reads four shift
masks of wit[m - 1], as ``_greedy_mask`` does, and the pair graph's
independence number P decides its stalls.  It keeps no warm packing
then, as k disjoint pairs in [1, m] prove only r(m) <= m - k, and
P(m) <= m - k already.  In that phase the cheap yes is exactly the
ascending greedy's test of m against the set it has kept, and P settles
every other prefix, so wit[m] is the ascending greedy set of [1, m], the
lex-least maximum set that ``max_avoiding`` returns as it stands.  The
first search takes in every element up to its prefix, in arrival order,
and from then on each prefix takes in its own.  x+2y=4z and every narrow
b = 0 equation never need a search, so the witness table is all their
O(n^2) memory.

A lex-least pass over [1, m] reads the trigger tables of exactly [1, m]
and never writes to its engine: the engine's own tables when it has taken
in exactly the elements up to m, and otherwise those of a plain engine over
the same records that takes in [1, m] for the pass and is dropped with it.
So an engine's state depends only on the prefixes it has solved, and a
pair-only engine stays pair-only whatever passes run on it.

Each search carries a forced mask: the undecided elements that would
complete a clique whose other members are all included.  Triggers set
bits as the other members come in: a pair forces its partner by one mask
per element, and the triples of a middle member v and a top w force the
mask of their smallest members by one bit test.  Each pair is stored once,
in the mask of its larger member's partners below it, as the DFS reads
it; the lex-least pass, which decides elements in ascending order, builds
the masks of partners above from those when it starts, one step per pair
in [1, m].  So deciding whether e may be included is one bit test, and the
count of forced elements is also a bound (a forced element is dead; the
lex-least pass counts them in one mask with the elements it has left
out).  Singleton cliques, which ban a residue in the congruence
instances, form the forced mask at the root.

Below the root the prefix table and the forced count are the only bounds.
One more element raises the maximum by at most one, so prefix m asks one
yes/no question: does [1, m] hold an avoiding set of r(m - 1) + 1 elements?
A ladder of tests answers it, in this order.  At the root
(``_IntegerEngine._root``): the cheap yes, the warm packing, P, the triple
catch-up and the one-short root, which walks the search's first path and
then trades.  A prefix they settle costs one node and sets up no search: a
sweep that settles every prefix at its root, as x+2y=4z does, copies no
prefix table.  Once the search (``_Core._search``) has spent nodes enough
to pay for them (``_IntegerEngine._stall_tests``): the degree packing,
with its own trade, and the fractional test.  Otherwise the DFS looks for
such a set and ends at its first leaf.  A ``_Core`` runs the cheap yes
(``_Core._root``) and the DFS alone.

The fractional test: a fractional clique packing, weights
y_C >= 0 with total weight at most 1 on each element, proves
r(m) <= m - sum y: an avoiding set leaves out a member of each clique, so
elements of total weight at least sum y.  A revised simplex (``_Simplex``)
pivots until sum y passes m - r(m - 1) - 1, and m is a stall once the
integer counts floor(y * 2^20) prove it, sum cnt > (m - r(m - 1) - 1) * L
with L their largest load, recomputed from the cliques' members
(``_counts_settle``).  Floats only propose.  It settles stalls that no
integer packing can, as in the Family II equation x+y=4z: at m = 52 the
fractional packing number is 21.5 where 22 disjoint cliques would be
needed.  An integer engine keeps one simplex, built from the warm packing
at the first pivot any prefix needs, and carries it from stall to stall:
each pivot first takes in the cliques and the elements that came since,
and one that finds the simplex at its optimum answers for the basis as it
stands, so a stall may settle on a basis the last one left.  x+y=4z at
n = 54 takes 6 831 nodes with the carried simplex, 14 039 with one rebuilt
from the packing at every prefix and 69 427 without the test.  A settled
prefix keeps wit[m - 1], as a packing settle does, so only node counts
move.

A trade is one step of t-for-(t + 1) local search for set packing
(Hurkens and Schrijver, SIAM J. Discrete Math. 2, 1989): it gives up one
packing clique for two disjoint cliques that meet only it, or, failing
that, two for three that meet only those two.  It is one pass over the
flat clique list and a search on int masks (see ``_trade``).  Only
integer engines trade, as only they pack cliques.

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
Otherwise the sweep can stop early: a greedy suffix packing, one clique
per smallest member in descending order, packs every suffix (k, m] at
once, and r(m) <= r(k) + (m - k) - rest[k] at each solved prefix k, with
rest[k] the packed cliques inside (k, m].  Once that falls below the
residues the modulus needs, its sweep ends.  A modulus builds no clique
list: from residue tables the suffix packing is built top-down, and the
engine files the records of each prefix the sweep reaches in its trigger
tables, as for integers.
"""
from __future__ import annotations

import math
import random
import sys
import time
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import islice, takewhile
from typing import NamedTuple

from .equations import IntSet, ThreeVarEquation, require_avoiding
from .errors import AvoidanceCheckFailed, BudgetExceeded, InvariantViolation

_CANONICAL_NODE_CAP = 250_000  # budget for the optional lex-least witness pass


class ExtremalResult(NamedTuple):
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


class ModularDensity(NamedTuple):
    """Maximum density of residues in [1, m] with no solutions modulo m."""

    m: int
    rho: Fraction
    witness: IntSet  # residues, with m standing in for the zero class


class AllExtremal(NamedTuple):
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

    def check(self, where: str, prefix: int | None = None) -> None:
        """Raise the budget error for ``where`` (see :meth:`exceeded`), or for
        ``where`` followed by "prefix ``prefix``" when one is given, once the
        clock is past the deadline.  The message is built only then: the
        engine reads the clock once a prefix, and between the elements of a
        catch-up and before each pivot."""
        if time.monotonic() > self.deadline:
            raise self.exceeded(where if prefix is None else f"{where}prefix {prefix}")


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
    """The cliques of one element's records, as ascending tuples in ascending
    order.  The smallest members are read off each mask of ``triples`` and
    ``pairs`` one set bit at a time, by ``x & -x`` steps, so the cost is
    one step per clique, not one per bit of the mask."""
    out = []
    for mid, lows in triples.items():
        while lows:
            low = lows & -lows
            out.append((low.bit_length(), mid, k))
            lows ^= low
    while pairs:
        low = pairs & -pairs
        out.append((low.bit_length(), k))
        pairs ^= low
    out.sort()
    if banned:
        out.append((k,))
    return out


def _ratios(eq: ThreeVarEquation) -> list[tuple[int, int]]:
    """The (p, q), q > 0, such that each solution with two equal variables
    reads p*v = q*w for its two values v, w: ax = cz with b = 0, and
    otherwise (a+b)x = cz, ax = (c-b)y and by = (c-a)x."""
    a, b, c = eq.a, eq.b, eq.c
    return [(p, q) for p, q in (((a, c),) if b == 0 else ((a + b, c), (a, c - b), (b, c - a))) if q > 0]


def _pair_partners(eq: ThreeVarEquation, m: int) -> list[int]:
    """m's pair partners: the u < m with {u, m} the members of a solution,
    which then has two equal variables.  With (p, q) from ``_ratios``,
    u = min(p, q)*m/max(p, q) when that divides; two ratios give the same u
    when a = b, and it is listed once.  The cost is O(1)."""
    partners = []
    for p, q in _ratios(eq):
        if min(p, q) * m % max(p, q) == 0 and (u := min(p, q) * m // max(p, q)) not in partners:
            partners.append(u)
    return partners


def _part_records(eq: ThreeVarEquation, members: list[int], k: int) -> tuple[bool, int, dict[int, int]]:
    """The records (see ``_records``) of element k of an engine over the
    pair graph on ``members``, ascending and holding every smaller pair
    partner of each member: element k stands for members[k - 1], and its
    only cliques are its pairs, with the partners' ranks."""
    return False, sum(1 << bisect_left(members, u) for u in _pair_partners(eq, members[k - 1])), {}


def _integer_records(eq: ThreeVarEquation, m: int) -> tuple[bool, int, dict[int, int]]:
    """The records (see ``_records``) of the integer cliques whose largest
    member is m.  m takes each role in turn and the equation fixes the last
    variable from the free one v, so the cost is O(m).  v steps along the
    progression that makes that division exact.  With b = 0 every clique is
    a pair, read from ``_pair_partners``."""
    a, b, c = eq.a, eq.b, eq.c
    if b == 0:
        return False, sum(1 << (u - 1) for u in _pair_partners(eq, m)), {}
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


def _trade(groups: dict[int, list[int]], state: _RunState, where: str) -> tuple[int, tuple[int, ...]] | None:
    """One trade that makes a clique packing larger, from ``groups``: the
    masks of the cliques, none of the packing's own, by the packing
    cliques each meets, as bit i for packing clique i; every key with one
    bit is present.  It is (the bits of the packing cliques given up, the
    masks of the cliques taken), or None.

    A 1-for-2 trade gives up packing clique i for two disjoint cliques that
    meet only i.  Once none exists, any two cliques that meet only i meet
    each other, so three disjoint cliques that meet only i and j hold at
    most one meeting only i and one meeting only j, and so at least one
    meeting both: the 2-for-3 trade gives up i and j for each of those in
    turn and two disjoint cliques that miss it, from the group of i, the
    group of j and the later cliques of its own group, never two from the
    group of i or two from that of j.  A packing that is not maximal has
    cliques that meet none of it, under key 0, and two disjoint ones are a
    trade that gives up nothing.

    The clock is read before each group is scanned, in both passes: past
    the deadline of ``state`` it raises its budget error, naming ``where``."""
    for hit, group in groups.items():
        if hit & (hit - 1) == 0:
            state.check(where)
            for k, x in enumerate(group):
                for y in group[k + 1:]:
                    if not x & y:
                        return hit, (x, y)
    for hit, group in groups.items():
        if hit & (hit - 1):
            state.check(where)
            low = hit & -hit
            for k, x in enumerate(group):
                # the cliques that miss x; two that meet only i, or only j,
                # meet each other, so no such two are tried together
                alone_i = [y for y in groups[low] if not x & y]
                alone_j = [z for z in groups[hit ^ low] if not x & z]
                later = [z for z in group[k + 1:] if not x & z]
                for y in alone_i:
                    for z in alone_j + later:
                        if not y & z:
                            return hit, (x, y, z)
                for t, y in enumerate(later):
                    for z in alone_j + later[t + 1:]:
                        if not y & z:
                            return hit, (x, y, z)
    return None


_SCALE = 1 << 20  # a fractional packing's weights become the counts floor(y * _SCALE)


def _counts_settle(cliques: list[tuple[int, ...]], weights: list[float], need: int) -> bool:
    """Whether the integer counts cnt_C = floor(y_C * 2^20) of the weights y
    on ``cliques`` (0 for y_C <= 0) prove that fewer than m - need elements
    of [1, m] avoid the cliques: sum cnt > need * L, with L the largest load
    sum over C containing v of cnt_C, over the clique members.

    cnt / L is a fractional packing (every load is at most 1), and an
    avoiding set leaves out members of total load at least sum cnt / L, so
    r(m) <= m - sum cnt / L < m - need.  Only integers decide; the weights
    may be any floats."""
    counts = [int(y * _SCALE) if y > 0 else 0 for y in weights]
    load: dict[int, int] = {}
    for cl, k in zip(cliques, counts):
        for v in cl:
            load[v] = load.get(v, 0) + k
    return sum(counts) > need * max(load.values(), default=0)


_EPS = 1e-9  # the simplex's zero: smaller reduced costs and column entries do not count


class _Simplex:
    """A revised simplex for a fractional clique packing y, sum over C
    containing v of y_C <= 1 at every v, that maximises sum y: the one that
    an integer engine carries from stall to stall (see
    :meth:`_IntegerEngine._stall_tests`), whose one entry is :meth:`pivot`.

    Its columns are the first len(sums) cliques of ``cliques``, the engine's
    append-only clique list, and its rows the vertices up to their largest
    member; each pivot first takes in the cliques the list has gained.
    B^-1 is dense, the pricing Dantzig's, and the largest pivot wins among
    tied ratios.  A vertex v is row v; row 0 stands in for a pair's missing
    member, with price 0 and no entry in B^-1 (an integer engine's list
    holds no singleton; one given here takes row 0 for both).  The basis
    starts from ``packing``, pairwise disjoint cliques of the list:
    each is basic at 1 in its smallest member's row, the other members'
    slacks are basic at 0, and every other row's slack at 1."""

    __slots__ = ("cliques", "on", "inv", "basis", "x", "price", "sums", "z")

    def __init__(self, cliques: list[tuple[int, ...]], packing: list[tuple[int, ...]]):
        self.cliques = cliques
        self.on: list[list[int]] = [[]]  # the columns of each vertex
        self.inv = [[0.0]]
        self.basis = [~0]  # basis[i]: clique j >= 0, or ~v for v's slack
        self.x = [0.0]  # the basic values, row by row
        self.price = [0.0]  # the duals c_B B^-1
        self.sums: list[float] = []  # each column's price, kept as the prices move
        self.extend()
        index = {cl: j for j, cl in enumerate(cliques)}
        for cl in packing:
            r = cl[0]
            self.basis[r] = index[cl]
            self.price[r] = 1.0
            for j in self.on[r]:
                self.sums[j] += 1.0
            for u in cl[1:]:
                self.inv[u][r] = -1.0
                self.x[u] = 0.0
        self.z = float(len(packing))  # sum y

    def extend(self) -> None:
        """Take in the cliques that the list has gained as nonbasic columns,
        each priced at the sum of its members' prices, and the rows of their
        new members, with their slacks basic at 1 and priced 0: the set-up
        and each pivot call it first.  No old column has an entry in a new
        row, so B^-1 grows block-diagonally, by the identity, and sum y, x
        and the old prices stay as they were."""
        cliques, inv, price, sums, on = self.cliques, self.inv, self.price, self.sums, self.on
        gained = cliques[len(sums):]
        if not gained:
            return
        top = len(on)
        new = max(top, max(cl[-1] for cl in gained) + 1)
        for row in inv:
            row += [0.0] * (new - top)
        for v in range(top, new):
            inv.append([0.0] * new)
            inv[v][v] = 1.0
            on.append([])
        self.basis += range(~top, ~new, -1)
        self.x += [1.0] * (new - top)
        price += [0.0] * (new - top)
        for j, cl in enumerate(gained, len(sums)):
            y = 0.0
            for v in cl:
                on[v].append(j)
                y += price[v]
            sums.append(y)

    def settles(self, need: int) -> bool:
        """Whether sum y passes ``need`` and ``_counts_settle`` certifies the
        basic weights."""
        return self.z > need and _counts_settle([self.cliques[j] for j in self.basis if j >= 0],
                                                [y for j, y in zip(self.basis, self.x) if j >= 0], need)

    def pivot(self, need: int) -> bool | None:
        """Take in what the list has gained (see :meth:`extend`), make one
        pivot, and then say whether the basis settles ``need`` (see
        :meth:`settles`): True if so, None if not.  At its optimum, or with
        no ratio row, it makes no pivot and says whether the basis as it
        stands settles ``need``: True or False, so a basis that an earlier
        stall left at its optimum may settle a later one.  It reads no
        clock, and an exception leaves it half-updated."""
        self.extend()
        inv, x, price, sums, on = self.inv, self.x, self.price, self.sums, self.on
        low, slack = min(sums, default=1.0), min(price)
        gain = max(1.0 - low, -slack)
        if gain <= _EPS:
            return self.settles(need)
        if 1.0 - low >= -slack:
            q = sums.index(low)
            u, v, w = (self.cliques[q] + (0, 0))[:3]
            d = [row[u] + row[v] + row[w] for row in inv]
        else:
            q = ~price.index(slack)
            d = [row[~q] for row in inv]
        hit = [i for i in range(1, len(d)) if d[i]]
        r, theta = 0, math.inf
        for i in hit:
            if d[i] > _EPS:
                t = x[i] / d[i]
                if t < theta - _EPS or t < theta + _EPS and d[i] > d[r]:
                    r, theta = i, t
        if not r:  # the packing LP is bounded, so only float round-off leaves no ratio row
            return self.settles(need)
        for i in hit:
            x[i] -= theta * d[i]
        x[r] = theta
        self.z += theta * gain
        # row r of B^-1 is sparse: its entries move the prices and, times d,
        # the rows that d hits
        f = gain / d[r]
        pivot = [(v, b) for v, b in enumerate(inv[r]) if b]
        for v, b in pivot:
            step = f * b
            price[v] += step
            for j in on[v]:
                sums[j] += step
        pivot = [(v, b / d[r]) for v, b in pivot]
        for i in hit:
            row, di = inv[i], d[i]
            if i == r:
                for v, b in pivot:
                    row[v] = b
            else:
                for v, b in pivot:
                    row[v] -= di * b
        self.basis[r] = q
        return self.settles(need) or None


class _Core:
    """Branch-and-bound engine over forbidden cliques, grown one element at a time.

    ``source(m)`` gives the records of the cliques whose largest member is
    m (see ``_records``).  An element enters only by :meth:`take_in`, and
    only :meth:`_take_in`, which it calls, writes the trigger tables; the
    elements taken in are those in [1, len(pair_down) - 1].  A search keeps
    its state on its own stack, and the root tests only read the tables.
    The lex-least pass never writes to the engine (see
    :meth:`enumerate_at`).  ``where``, given at construction, is what a
    budget-hit message names before the prefix: "modulus m, " for a
    congruence engine, and nothing for the others.
    A plain ``_Core`` takes in its trigger tables and nothing else, and its
    prefixes get the cheap yes and the DFS alone.  Such are the congruence
    engines (see ``_congruence_engine``) and the parts: the engines that
    :meth:`_IntegerEngine.pair_alpha` keeps, one per component of the pair
    graph on the R-smooth numbers, each over its component's members by
    rank.
    """

    members: list[int]  # a part's values, ascending: its element k is members[k - 1]

    def __init__(self, source, where: str = ""):
        self.source = source
        self.where = where
        # forced-exclusion triggers, one entry per element taken in (at most
        # one past the solved prefix), so len(pair_down) - 1 elements: once
        # every member of a clique except the smallest (resp. largest) is
        # included, that last member is dead.  The DFS (resp. lex-least
        # pass) decides elements in descending (resp. ascending) order, so
        # these set the bit of every element that would complete a clique:
        # its forced mask is the legality test.  A pair {u, v}, u < v, fires
        # as soon as its other member is included, and pair_down[v] is the
        # mask of the partners u that v forces: it holds the pair graph's
        # adjacency, each edge once, and the lex-least pass builds the
        # masks that each u forces from it.  The triples u < v < w of one v
        # and w fire at v, and force[v] holds one (bit of w, mask of their
        # u) entry for them: the DFS tests the bit and forces the mask, the
        # lex-least pass tests the mask and forces the bit.
        self.pair_down: list[int] = [0]
        self.force: list[list[tuple[int, int]]] = [[]]
        self.banned = 0  # singleton cliques, congruence only: no trigger, forced from the root
        # the middle -> lows map of the last element taken in, k: it extends
        # an avoiding set W of smaller elements iff its banned bit is clear,
        # W misses pair_down[k], and no middle member in W has a smallest
        # member in W
        self.last_triples: dict[int, int] = {}
        self.r: list[int] = [0]  # r[m] once solved
        self.wit: list[int] = [0]  # witness masks

    def _take_in(self, k: int, banned: bool, pairs: int, triples: dict[int, int]) -> None:
        """Take in element k, from its records, after every element below k:
        the one writer of the trigger tables, it files k's pair mask, its
        force entry and its banned bit."""
        top = 1 << (k - 1)
        self.pair_down.append(pairs)
        self.force.append([])
        for mid, lows in triples.items():
            self.force[mid].append((top, lows))
        self.banned |= banned << (k - 1)
        self.last_triples = triples

    def take_in(self, m: int, state: _RunState) -> None:
        """Take in the elements in [len(pair_down), m], in arrival order,
        reading the clock between each one and the next: its callers read it
        before the first, as ``solve_to`` does before each prefix.  It is
        the one reader of ``source``, so each element's records are read
        once.  A budget hit, which comes only between two elements, leaves
        the elements not yet done for the next call, and the trigger tables
        one entry per element taken in."""
        for k in range(len(self.pair_down), m + 1):
            self._take_in(k, *self.source(k))
            if k < m:
                state.check(self.where, m)

    # -- exact solve of the next prefix -------------------------------------

    def _root(self, m: int, state: _RunState) -> int | None:
        """The root ladder of prefix m: the witness of prefix m, as a mask,
        when one of its tests settles m, and None when the search must.
        Here it is the cheap yes alone: the engine first takes in element
        m, so its tables hold the cliques in [1, m], and wit[m - 1] plus m
        avoids the equation iff no clique whose largest member is m has its
        other members in wit[m - 1]: m is not banned, and wit[m - 1] misses
        ``pair_down[m]`` and every triple of ``last_triples``."""
        self.take_in(m, state)  # then the tables hold the cliques in [1, m]
        best = self.wit[m - 1]
        if (self.banned >> (m - 1) & 1 or self.pair_down[m] & best
                or any(lows & best and best >> (mid - 1) & 1 for mid, lows in self.last_triples.items())):
            return None
        return best | 1 << (m - 1)

    def _stall_tests(self, m: int, state: _RunState):
        """The node-triggered stall tests of prefix m, whose root is left
        open: an iterator that the search asks each time its node count
        passes the last value yielded.  It yields the node count after
        which its next try comes, or 0 once a test settles m as a stall
        (whose witness is wit[m - 1]), and it ends when no try is left.  A
        plain ``_Core`` has none, so its search runs to its first leaf or to
        the end of its stack; :meth:`_IntegerEngine._stall_tests` has the
        packings' tries."""
        return iter(())

    def _search(self, m: int, state: _RunState) -> int:
        """The witness of prefix m, whose root :meth:`_root` left open, as a
        mask: the search looks for r(m - 1) + 1 elements and ends at its
        first leaf, or right after a test of :meth:`_stall_tests` settles m
        as a stall, which keeps wit[m - 1].  The first node count above
        ``limit`` is that schedule's next try or the one past the node
        budget, whichever is first."""
        prev = self.r[m - 1]
        rt = self.r + [prev + 1]  # index m is the root
        pair_down = self.pair_down
        force = self.force
        tests = self._stall_tests(m, state)
        limit = min(state.node_cap, next(tests, sys.maxsize))

        # Bounds at a node deciding e (undecided region [1, e]):
        #  * prefix table: at most rt[e] more elements;
        #  * forced split: charge [1, j] to the table and (j, e] to the count
        #    of slots not yet provably dead, j = lowest forced element.
        # A node (e, inc, forced) has inc.bit_count() elements taken.  It goes
        # straight on to its include child and leaves its exclude child on an
        # explicit stack, so the include branch is searched first,
        # depth-first; a node whose element is forced goes straight on to its
        # exclude child.
        # The clock is read on the call's nodes 1, 4097, ...; ``solve_to``
        # reads it before each prefix, so a spent budget stops a short search
        # too.  The node count lives in a local and is stored to ``state`` on
        # every node, so ``state`` holds it whenever a node raises.
        stack = []
        e, inc, forced = m, 0, self.banned
        nodes = state.nodes
        while True:
            nodes += 1
            state.nodes = nodes
            if nodes > limit:
                if nodes > state.node_cap:
                    raise state.exceeded(f"{self.where}prefix {m}")
                limit = min(state.node_cap, next(tests, sys.maxsize))
                if not limit:  # a stall test settled m
                    return self.wit[m - 1]
            if nodes & 4095 == 1 and time.monotonic() > state.deadline:
                raise state.exceeded(f"{self.where}prefix {m}")
            if forced:
                j = (forced & -forced).bit_length() - 1
                split = rt[j] + (e - j) - forced.bit_count()
                bound = rt[e] if rt[e] < split else split
            else:
                bound = rt[e]
            if inc.bit_count() + bound > prev:
                if e == 0:  # a set of prev + 1 elements
                    return inc
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
                return self.wit[m - 1]

    def solve_to(self, n: int, state: _RunState) -> None:
        """Solve every prefix m = len(r), ..., n in turn: r(m) is r(m - 1) + 1
        iff [1, m] holds an avoiding set that large, and r(m - 1) otherwise.

        Each prefix first reads the clock, and then the root ladder
        (:meth:`_root`) settles it or leaves it to the search
        (:meth:`_search`).  A settled prefix costs one node, which the node
        budget counts as it counts the search's."""
        for m in range(len(self.r), n + 1):
            state.check(self.where, m)
            best = self._root(m, state)
            if best is None:
                best = self._search(m, state)
            else:
                state.nodes += 1
                if state.nodes > state.node_cap:
                    raise state.exceeded(f"{self.where}prefix {m}")
            self.r.append(best.bit_count())
            self.wit.append(best)

    # -- lexicographic enumeration of maximum sets --------------------------

    def enumerate_at(self, m: int, target: int, state: _RunState):
        """Yield each avoiding set of at least ``target`` elements of [1, m], as
        a mask, deciding elements in ascending order, include first; with
        ``target`` = r(m) these are the maximum sets in lexicographic order.

        It reads the trigger tables of exactly [1, m]: the engine's own
        when it has taken in exactly the elements up to m (``pair_down``
        has m + 1 entries), and otherwise those of a new plain ``_Core``
        over the same ``source``, which takes in [1, m] within the budget
        of ``state`` and is dropped when the pass ends.  So the pass never writes to the
        engine, and a generator dropped early or unwound by an exception
        leaves it as it was.  Each mask is yielded at its leaf, so a caller
        that takes the first one ends the search there.  It builds its
        upward pair masks from ``pair_down`` when it starts, one step per
        pair in [1, m], where the pass's first path alone is m + 1 nodes.
        """
        tables = self if len(self.pair_down) == m + 1 else _Core(self.source, self.where)
        tables.take_in(m, state)
        up = [0] * (m + 1)  # up[u]: the mask of u's pair partners above u in [1, m]
        for v, rest in enumerate(tables.pair_down):
            while rest:
                bit = rest & -rest
                rest ^= bit
                up[bit.bit_length()] |= 1 << (v - 1)
        force = tables.force
        slack = m - target  # the most elements of [1, m] a leaf of target elements leaves out
        node_cap = state.node_cap
        deadline = state.deadline
        start = state.nodes  # the clock is read on this pass's first node and every 4096th after it
        # A node (e, inc, dead) has decided [1, e - 1]; dead holds the elements
        # of [1, m] left out so far and the undecided ones that are forced.  As
        # in ``_search``, the include child is searched first.
        stack = [(1, 0, tables.banned)]
        while stack:
            e, inc, dead = stack.pop()
            state.nodes += 1
            if state.nodes > node_cap or (state.nodes - start) & 4095 == 1 and time.monotonic() > deadline:
                raise state.exceeded(f"{self.where}prefix {m}")
            if dead.bit_count() > slack:
                continue
            if e > m:
                yield inc
                continue
            bit = 1 << (e - 1)
            stack.append((e + 1, inc, dead | bit))
            if not dead & bit:  # e completes no clique whose largest member it is
                d2 = dead | up[e]
                for top, lows in force[e]:
                    if lows & inc:
                        d2 |= top
                stack.append((e + 1, inc | bit, d2))

    def maximum_sets(self, m: int, cap: int, state: _RunState) -> list[int]:
        """The first ``cap`` maximum sets of the solved prefix [1, m] in
        lexicographic order, as masks: the first leaves of the lex-least pass,
        within the budget of ``state``.  A prefix with no set of size r(m)
        raises :class:`InvariantViolation`, as its r(m) is wrong."""
        masks = list(islice(self.enumerate_at(m, self.r[m], state), cap))
        if not masks:
            raise InvariantViolation(f"{self.where}no avoiding set of size r({m}) = {self.r[m]} in [1, {m}]")
        return masks


class _IntegerEngine(_Core):
    """The engine over the integer cliques of ``eq``: the one that
    ``_SOLVERS`` keeps for each equation (see ``max_avoiding``).

    Its prefixes get the whole root ladder (see :meth:`_root`).  It settles
    a prefix by the pair graph's independence number (see
    :meth:`pair_alpha`), and while the masks of ``_Kept`` stay narrow it is
    pair-only, taking in no element for its sweep, until a search first
    needs the triples.  It packs cliques: the warm packing, the clique list
    and the degree packing, with their trades, and one simplex for the
    fractional stall test, carried from stall to stall (see
    :meth:`_stall_tests`).
    """

    def __init__(self, eq: ThreeVarEquation):
        super().__init__(partial(_integer_records, eq))
        self.eq = eq
        # the clique count, pairs included, and every clique in arrival
        # order, by largest member and then tuple, with the mask of its
        # members (masks[j] for cliques[j]) and the members' occurrence
        # counts: the degree packing and the trades fill them from the
        # records in pending when they run (see _list_cliques)
        self.clique_count = 0
        self.cliques: list[tuple[int, ...]] = []
        self.masks: list[int] = []
        self.count: list[int] = [0]
        self.pending: list[tuple] = []
        # the warm packing: pairwise disjoint cliques among those of the
        # elements taken in, and the mask of their members
        self.packing: list[tuple[int, ...]] = []
        self.packed = 0
        # while the sweep takes in no element, the cheap yes reads wit[m - 1]
        # as the masks of a _Kept over [1, kept.n]; None once a search has
        # needed the triples, and then each prefix takes its element in
        self.kept = _Kept(eq, 0) if _narrow(eq) else None
        # the pair graph's independence number, kept by pair_alpha: P[m] up
        # to m = len(P) - 1, and comp[s] for each R-smooth s up to there, the
        # part (see _Core) of s's component of the pair graph on those s
        self.P: list[int] = [0]
        self.comp: dict[int, _Core] = {}
        # the fractional test's simplex, built at the first pivot any prefix
        # needs and carried from stall to stall (see _stall_tests); None
        # before, and once the warm packing has outgrown it.  Its B^-1 holds
        # (m + 1)^2 floats, m the largest member of the cliques it has taken
        # in, for the life of the engine.
        self.lp: _Simplex | None = None

    def _take_in(self, k: int, banned: bool, pairs: int, triples: dict[int, int]) -> None:
        """Take in element k as :meth:`_Core._take_in` does, then add
        k's cliques to the count and the pending records.  The warm packing
        gains the first clique of k, in arrival order, that misses it;
        every clique whose largest member is k holds k, so at most one can
        be added.  No integer clique is a singleton, as a + b != c."""
        super()._take_in(k, banned, pairs, triples)
        if pairs or triples:
            self.clique_count += pairs.bit_count() + sum(map(int.bit_count, triples.values()))
            self.pending.append((k, banned, pairs, triples))
        # the first clique is the least (u, second member) over the free
        # pairs (u, k) and the free triples (u, mid, k)
        free = ~self.packed
        rest = pairs & free
        first = ((rest & -rest).bit_length(), k) if rest else None
        for mid, lows in triples.items():
            lows &= free
            if lows and free >> (mid - 1) & 1:
                low = ((lows & -lows).bit_length(), mid)
                if first is None or low < first:
                    first = low
        if first:
            u, v = first
            self.packing.append((u, k) if v == k else (u, v, k))
            self.packed |= 1 << (k - 1) | 1 << (u - 1) | 1 << (v - 1)

    # -- the pair graph ------------------------------------------------------

    def pair_alpha(self, m: int, state: _RunState) -> int:
        """P(m), the pair graph's independence number on [1, m], so that
        r(m) <= P(m): P(k) = P(k - 1) + delta(s(k)) for k up to m, with s(k)
        the R-smooth part of k (see the module docstring).

        delta(s) is solved once, when k = s, by the part of s's component
        in the pair graph G on the smooth numbers up to s, and read later as
        P(s) - P(s - 1).  s extends one component: that part grows by s, its
        largest member.  Or s joins several components, or none: a cold part
        over their union and s.  Either way delta(s) is that part's
        r[-1] - r[-2], and only then do comp and P take it in, so a budget
        hit leaves them as they were (a part stopped while growing by s
        keeps s in its members, for the retry).  The parts' solves add no
        nodes to ``state`` but stop at its deadline."""
        R = math.prod(p * q for p, q in _ratios(self.eq))  # its primes are those of the pair edges' ratios
        nested = _RunState()
        nested.deadline = state.deadline
        P = self.P
        try:
            for k in range(len(P), m + 1):
                s = 1  # the R-smooth part of k
                while (g := math.gcd(k // s, R)) > 1:
                    s *= g
                if s < k:  # delta(s) was solved at k = s
                    P.append(P[-1] + P[s] - P[s - 1])
                    continue
                near = {self.comp[u] for u in _pair_partners(self.eq, k)}
                if len(near) == 1:
                    part = near.pop()
                    if part.members[-1] < k:  # else a solve cut short has taken k in
                        part.members.append(k)
                else:
                    members = sorted(u for other in near for u in other.members) + [k]
                    part = _Core(partial(_part_records, self.eq, members))
                    part.members = members
                part.solve_to(len(part.members), nested)
                self.comp.update(dict.fromkeys(part.members, part))
                P.append(P[-1] + part.r[-1] - part.r[-2])
        except BudgetExceeded:
            raise state.exceeded(f"{self.where}prefix {m}") from None
        return P[m]

    # -- clique packings and trades ------------------------------------------

    def _dive(self, m: int) -> int:
        """The descending greedy set of [1, m] over the trigger tables, as a
        mask: each element in turn is kept unless it is forced.  That is the
        search's first path (see :meth:`_search`), and with r(m - 1) + 1
        elements its first leaf, as no bound prunes a path to a leaf that
        large."""
        inc, forced = 0, self.banned
        pair_down, force = self.pair_down, self.force
        for e in range(m, 0, -1):
            bit = 1 << (e - 1)
            if forced & bit:
                continue
            inc |= bit
            forced |= pair_down[e]
            for top, lows in force[e]:
                if top & inc:
                    forced |= lows
        return inc

    def _list_cliques(self) -> None:
        """Take the pending records into the flat clique list, the clique
        masks and the counts, and empty ``pending``.  All four grow in
        place, the clique list as the simplex reads it.  It reads no clock,
        so no budget hit leaves a record half listed."""
        count = self.count
        count += [0] * (len(self.pair_down) - len(count))
        for record in self.pending:
            for cl in _cliques_of(*record):
                mask = 0
                for v in cl:
                    count[v] += 1
                    mask |= 1 << (v - 1)
                self.cliques.append(cl)
                self.masks.append(mask)
        self.pending.clear()

    def degree_packing(self, need: int, state: _RunState) -> list[tuple[int, ...]]:
        """Pairwise disjoint cliques from every clique taken in: one greedy
        pass over them in ascending order of the sum of their members'
        occurrence counts (arrival order breaks ties), so cliques of rarely
        used elements, which block few others, come first.  The clique list
        and the counts take in the pending records first.  The pass visits
        the clique indices in a stable sort on one list of those sums, the
        order of ``sorted(cliques, key=sum of counts)``, and tests each
        clique's stored mask against the mask of the members packed so far.
        A pass one clique short of ``need`` tries one trade on its own
        packing, not the warm one (see :meth:`_swap`), within the deadline
        of ``state``.  A packing larger than the warm one replaces it."""
        self._list_cliques()
        cliques, masks, weight = self.cliques, self.masks, self.count.__getitem__
        keys = [sum(map(weight, cl)) for cl in cliques]
        packing, used = [], 0
        for j in sorted(range(len(keys)), key=keys.__getitem__):
            mask = masks[j]
            if not used & mask:
                used |= mask
                packing.append(cliques[j])
        if len(packing) == need - 1:
            packing = self._swap(packing, state)
        self._keep(packing)
        return packing

    def _keep(self, packing: list[tuple[int, ...]]) -> None:
        """Make ``packing`` the warm packing if it is larger."""
        if len(packing) > len(self.packing):  # packed is summed before either changes
            self.packing, self.packed = packing, sum(1 << (v - 1) for cl in packing for v in cl)

    def _swap(self, packing: list[tuple[int, ...]], state: _RunState) -> list[tuple[int, ...]]:
        """``packing``, cliques whose triples are taken in, made larger by one
        trade (see ``_trade``) within the deadline of ``state``, or
        ``packing`` itself when no trade exists: the one entry point for
        trades.  The clique list takes in the pending records first.  The
        cliques go to ``_trade`` as their stored masks, grouped by the mask
        of the packing cliques they meet (bit i for packing clique i): a
        clique that meets three is of no use, and those of ``packing`` are
        left out, as each meets every other clique of its group."""
        self._list_cliques()
        own = [0] * len(self.pair_down)  # bit i if v is in packing clique i
        for i, cl in enumerate(packing):
            for v in cl:
                own[v] = 1 << i
        groups: dict[int, list[int]] = {}
        for cl, mask in zip(self.cliques, self.masks):
            hit = own[cl[0]] | own[cl[1]] | own[cl[-1]]  # a pair's cl[1] is its cl[-1]
            if hit.bit_count() < 3:
                group = groups.get(hit)
                if group is None:  # no empty list built for each clique
                    group = groups[hit] = []
                group.append(mask)
        for i, cl in enumerate(packing):
            groups[1 << i].remove(sum(1 << (v - 1) for v in cl))
        trade = _trade(groups, state, f"{self.where}prefix {len(self.pair_down) - 1}")
        if trade is None:
            return packing
        hit, new = trade
        return [cl for i, cl in enumerate(packing) if not hit >> i & 1] + [tuple(_members(x)) for x in new]

    # -- the root ladder and the stall tests --------------------------------

    def _root(self, m: int, state: _RunState) -> int | None:
        """The root ladder of prefix m: the witness of prefix m, as a mask,
        when one of these tests settles m, in this order, and None when the
        search must.
          * The cheap yes: wit[m - 1] plus m avoids the equation.  A
            pair-only engine asks its ``kept`` masks, and the others
            :meth:`_Core._root`, which first takes in element m.  In the
            pair-only phase the cheap yes is exactly the ascending
            greedy's test of m, and P settles every other prefix, so wit[m]
            is that greedy's set on [1, m]: ``max_avoiding`` returns it as
            the lex-least witness and builds it no second time.
          * The warm packing: k pairwise disjoint cliques in [1, m] each
            need one member left out, so r(m) <= m - k, and m - k <= r(m - 1)
            makes m a stall (r(m) = r(m - 1)), whose witness is wit[m - 1].
            The engine keeps one such packing for ever (a clique inside
            [1, m'] stays inside [1, m]): each element taken in adds the
            first of its cliques, in arrival order, that misses the
            packing's members, and a larger packing from a trade or the
            degree packing replaces it.  A pair-only engine holds none, and
            needs none: k disjoint pairs in [1, m] leave the pair graph an
            independence number P(m) <= m - k, so P settles every stall
            that such a packing does.
          * P, the cheap no: the cliques of two members (solutions with two
            equal variables) form the pair graph, and r(m) <= P(m), its
            independence number on [1, m], so P(m) <= r(m - 1) makes m a
            stall.  Each pair edge multiplies v by a ratio p/q of the
            equation, so with R the product of those p and q, the pair
            graph on [1, m] is the disjoint union, over the t <= m coprime
            to R, of t times the graph G on the R-smooth numbers up to
            m / t.  So P(m) = P(m - 1) + delta(s), with s the R-smooth part
            of m and delta(s), 0 or 1, the rise of G's independence number
            at s (see :meth:`pair_alpha`).  As P never falls, the test does
            no work while the last P computed is above r(m - 1).  It settles
            every stall of x+2y=4z up to m = 100 000, and with b = 0, where
            every clique is a pair, P(m) is r(m) itself.
          * The triple catch-up: the first search the engine needs ends its
            pair-only phase.  It takes in every element up to m, filing the
            trigger tables of [1, m] and building the warm packing, and then
            ``kept`` is None, so from then on each prefix takes its element
            in first.  The switch is one-way, and only here, after the
            take-in: a budget hit between the catch-up's elements leaves
            ``kept`` live, as its masks track ``wit`` and not the triples,
            and the next call resumes the catch-up.
          * The one-short root, when the warm packing is one clique short
            (m - k = r(m - 1) + 1): the search's first path (see
            :meth:`_dive`) is walked outside the search, and with
            r(m - 1) + 1 elements m is a rise with that witness.  Otherwise
            one trade may make the warm packing large enough, and then m is
            a stall.  The walk keeps the trade off most rises, where it can
            only fail."""
        prev = self.r[m - 1]
        best = self.wit[m - 1]
        kept = self.kept
        if kept is None:
            witness = super()._root(m, state)
        else:
            if m > kept.n:  # the masks' widths are bounded for [1, kept.n]
                kept = self.kept = _Kept(self.eq, 2 * m)
                kept.extend(_members(best))
            # m stays in the masks iff wit[m] will be wit[m - 1] plus m
            witness = best | 1 << (m - 1) if kept.extend((m,)) else None
        if witness is not None:
            return witness
        # P never falls, so P(m) is not computed while the last P computed is above prev
        if m - len(self.packing) <= prev or self.P[-1] <= prev and self.pair_alpha(m, state) <= prev:
            return best
        self.take_in(m, state)
        self.kept = None
        if m - len(self.packing) == prev + 1:  # the one-short root
            dive = self._dive(m)
            if dive.bit_count() > prev:
                return dive
            self._keep(self._swap(self.packing, state))
        return best if m - len(self.packing) <= prev else None

    def _stall_tests(self, m: int, state: _RunState):
        """The node-triggered stall tests of prefix m, whose root is left
        open, as a generator (see :meth:`_Core._stall_tests`):
          * The degree packing (see :meth:`degree_packing`), tried against
            m - k <= r(m - 1) as the warm packing is, with one trade when it
            is one clique short.  It costs a sort of all cliques, so it is
            built at most once per prefix, and only once the m steps of
            taking in element m and the search's nodes make one per clique:
            the try comes once the search has spent clique_count - m nodes,
            on its first node when there are no more cliques than elements.
            The packings settle most stall prefixes in the paper's Family I
            regime, where m - r(m) disjoint solutions exist.
          * The fractional test (see the module docstring), when the warm
            packing is then at most two cliques short.  It carries the
            engine's one simplex (``lp``) from the last prefix that ran the
            test, and drops it to be rebuilt from the warm packing when that
            packing is more than one clique larger than its sum y, as a
            trade or the degree packing can make it (x+2y=8z at n = 48
            takes 7 987 nodes when it is never rebuilt, 2 919 with the
            rule).  Then it pivots once the search has spent two nodes a
            clique, and again each time its nodes double.  A pivot costs
            about as much as one to three nodes a row (Python 3.11), so the
            simplex gets one pivot per 2m nodes the search has spent on m,
            and a test that fails costs about as much as the search before
            it; the clock is read before each pivot.  Each pivot call takes
            in the cliques and the elements that came since, and the first
            that finds the simplex at its optimum answers for m: its basis,
            perhaps as an earlier stall left it, settles m or no pivot is
            left for m, though a later prefix's cliques may move it off.
            The clock is read between pivots, never inside one, so a budget
            hit leaves the simplex whole for the next test."""
        prev, start = self.r[m - 1], state.nodes
        yield start + self.clique_count - m
        if m - len(self.degree_packing(m - prev, state)) <= prev:
            yield 0
        if m - prev - len(self.packing) > 2:
            return
        if self.lp is not None and len(self.packing) > self.lp.z + 1:
            self.lp = None  # rebuilt from the packing at the next pivot
        need, pivots, spent = m - prev - 1, 0, self.clique_count
        while True:
            yield start + 2 * spent
            spent = state.nodes - start
            while pivots < spent // (2 * m):
                state.check(self.where, m)
                self.lp = self.lp or _Simplex(self.cliques, self.packing)
                settled = self.lp.pivot(need)  # False: at its optimum, unsettled
                pivots += 1
                if settled:
                    yield 0
                if settled is not None:
                    return


# one engine per integer equation, solved as far as any call has needed;
# only max_avoiding and all_extremal take one out and put it back
_SOLVERS: dict[ThreeVarEquation, _IntegerEngine] = {}


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
    on, because prefix 46 alone takes 1673 nodes).  The equation's engine
    is out of the process's cache while it sweeps, and goes back when the
    sweep ends or a budget stops it.  Any other exception (Ctrl-C, a
    ``MemoryError`` at large n) leaves it out, so the next call answers as
    a cold one: stop a long solve by ``time_cap`` or ``node_cap``, which
    keep its solved prefixes, not by Ctrl-C.  With ``canonical`` the witness is
    re-derived as the lexicographically least maximum set, budget
    permitting.  That is the ascending greedy set if it has r(n) elements,
    as nothing prunes the lex-least pass's path to it.  A pair-only engine
    (see ``_IntegerEngine._root``) holds that set as its own witness, which
    is returned as canonical whatever the budget; other engines run the
    greedy within ``time_cap``.  If that set is short, the pass ends at
    its first leaf of size r(n), and it gets the nodes the search left of
    ``node_cap``, at most ``_CANONICAL_NODE_CAP``, and the time left of
    ``time_cap``.  The result's ``canonical`` says whether either reached
    that set; if not, the witness is the search's, and it is still a
    maximum set.  Either way the witness is re-verified by the avoidance
    checker before it is returned, and a set that contains a solution
    raises :class:`AvoidanceCheckFailed`.
    """
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")
    t0 = time.perf_counter()
    state = _RunState(node_cap, time_cap)  # a bad budget raises before the engine leaves the cache
    engine = _SOLVERS.pop(eq, None) or _IntegerEngine(eq)
    optimal = lex_least = False
    try:
        engine.solve_to(n, state)
    except BudgetExceeded:
        _SOLVERS[eq] = engine
        mask = engine.wit[-1]
        for order in (range(n, 0, -1), range(1, n + 1)):
            g = _greedy_mask(eq, n, order, state.deadline)
            if g.bit_count() > mask.bit_count():
                mask = g
    else:
        _SOLVERS[eq] = engine
        optimal, mask = True, engine.wit[n]
    if optimal and canonical:
        # the ascending greedy is the pass's first leaf if no bound prunes
        # its path, that is if it has r(n) elements; a pair-only engine's
        # wit[n] is that greedy set (see _IntegerEngine._root)
        greedy = mask if engine.kept is not None else (
            _greedy_mask(eq, n, range(1, n + 1), state.deadline) if _narrow(eq) else 0)
        if greedy.bit_count() == engine.r[n]:
            mask, lex_least = greedy, True
        else:
            # the call's budgets cover this pass too, and it gets at most
            # _CANONICAL_NODE_CAP nodes more than the search spent
            state.node_cap = min(state.node_cap, state.nodes + _CANONICAL_NODE_CAP)
            try:
                mask, lex_least = engine.maximum_sets(n, 1, state)[0], True
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
    :class:`BudgetExceeded`.  The engine goes back to the cache as in
    :func:`max_avoiding`.
    """
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")
    if cap < 1:
        raise InvariantViolation(f"cap must be positive, got {cap}")
    state = _RunState(node_cap, time_cap)
    engine = _SOLVERS.pop(eq, None) or _IntegerEngine(eq)
    try:
        engine.solve_to(n, state)
    except BudgetExceeded:
        _SOLVERS[eq] = engine
        raise
    _SOLVERS[eq] = engine
    masks = engine.maximum_sets(n, cap + 1, state)
    return AllExtremal(n, engine.r[n], [_checked_witness(eq, n, mk) for mk in masks[:cap]], len(masks) > cap)


def _congruence_engine(eq: ThreeVarEquation, m: int, state: _RunState, need: int = 0) -> _Core | None:
    """The engine over the congruence cliques modulo m, solved to m within the
    budget of ``state``, if r(m) >= ``need``; None once that is ruled out.
    A budget hit raises BudgetExceeded.

    The set-up is the residue tables and, when ``need`` is positive, one
    suffix packing, which bounds r(m) <= r(k) + (m - k) - rest[k] at every
    solved prefix k, with rest[k] the packed cliques inside (k, m].  So the
    sweep stops, before any search when m - rest[0] < need, as soon as that
    bound is below need.  With need 0 the bound could never stop it, as
    rest[k] <= m - k, and no packing is built.  The engine reads the
    cliques whose largest member is k from the tables only when the sweep
    reaches prefix k, and files them in its trigger tables alone: it is a
    plain ``_Core``, so the suffix packing is the only packing a modulus
    builds, and the cheap yes and the DFS settle its prefixes."""
    state.check(f"modulus {m}")  # before the set-up
    tables = _residue_tables(eq, m)
    # the packed cliques' smallest members: rest[k] of them are above k
    lows = sorted(cl[0] for cl in _suffix_packing(eq, m, tables)) if need else []
    engine = _Core(partial(_congruence_records, eq, m, tables=tables), f"modulus {m}, ")
    for k in range(m + 1):
        engine.solve_to(k, state)
        if engine.r[k] < need - (m - k) + len(lows) - bisect_left(lows, k + 1):
            return None
    return engine


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
    return ModularDensity(m, Fraction(engine.r[m], m), _checked_residues(eq, m, engine.maximum_sets(m, 1, state)[0]))


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
    that each role of e against two members of K is one shift and one and;
    as z, with d = b*Y - c*e, a*x + b*y = c*e reads a*x + d = b*Y - b*y.
    The tests run before e enters the masks, and e enters them only if it
    is kept.  A solution that uses e twice and a member v of K once fixes e
    by v: e = c*v/(a+b) for x = y = e, e = b*v/(c-a) for x = z = e and
    e = a*v/(c-b) for y = z = e.  So each v kept puts those e, where they
    are integers, in the set ``banned``, and e is tested against it first,
    one lookup; no solution uses e three times, as a + b != c.  Every
    solution has c*z = a*x + b*y <= (a+b)*n, so the c-mask keeps only the v
    up to the largest such z, Z.  Then a*x <= c*Z - b and b*y <= c*Z - a, so
    the a- and b-masks keep only the v up to the largest such x and up to Y,
    the largest such y but at most n.  No mask is then wider than
    c*Z <= min(c, a+b)*n bits, so one huge coefficient alone widens none
    (see ``_narrow``).  With b = 0 the b-masks are bit 0 alone, the tests
    of e as x and as z cover a*x = c*z, and nothing is banned; e as y is
    not tested, as it would test K alone (3x=2z ascending over [1, 20 000]
    took 93 ms with that test and takes 27 ms).
    """

    __slots__ = ("eq", "n", "reach", "xr", "yr", "am", "bm", "cm", "brev", "bans", "banned")

    def __init__(self, eq: ThreeVarEquation, n: int):
        a, b, c = eq.a, eq.b, eq.c
        self.eq, self.n = eq, n
        self.reach = min(n, (a + b) * n // c)  # the largest z any solution can use
        # a*x + b*y = c*z <= c*reach bounds the x and the y of every solution
        self.xr = (c * self.reach - b) // a
        self.yr = min(n, (c * self.reach - a) // b) if b else n
        self.am = self.bm = self.cm = self.brev = 0
        # a kept v bans v/q*p for these (p, q) in lowest terms, where q
        # divides v: x = y = e, x = z = e and y = z = e in turn.  (0, 1)
        # stands for none, as for q <= 0 or b = 0: it bans 0, no element
        self.bans = tuple((p // math.gcd(p, q), q // math.gcd(p, q)) if q > 0 and b else (0, 1)
                          for p, q in ((c, a + b), (b, c - a), (a, c - b)))
        self.banned: set[int] = set()

    def extend(self, order) -> int:
        """Keep each element of ``order`` in turn iff it completes no solution
        with K and itself; the mask of the elements kept (bit e - 1 for e)."""
        a, b, c = self.eq.a, self.eq.b, self.eq.c
        reach, xr, yr = self.reach, self.xr, self.yr
        am, bm, cm, brev = self.am, self.bm, self.cm, self.brev
        banned = self.banned
        (p1, q1), (p2, q2), (p3, q3) = self.bans
        kept = 0
        for e in order:
            if e in banned:
                continue
            d = b * yr - c * e
            if (
                (cm >> a * e) & bm  # e as x: a*e + b*y = c*z
                or b and (cm >> b * e) & am  # e as y: a*x + b*e = c*z
                or ((brev >> d) & am if d >= 0 else (am >> -d) & brev)  # e as z: a*x + b*y = c*e
            ):
                continue
            if e <= xr:
                am |= 1 << a * e
            if e <= yr:
                bm |= 1 << b * e
                brev |= 1 << b * (yr - e)
            if e <= reach:
                cm |= 1 << c * e
            if e % q1 == 0:
                banned.add(e // q1 * p1)
            if e % q2 == 0:
                banned.add(e // q2 * p2)
            if e % q3 == 0:
                banned.add(e // q3 * p3)
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
    engine's lex-least pass, but with no clique built.  Where ``_narrow`` is
    false the masks would be wide, and each element is tested by
    ``_completes`` instead: O(|K|) lookups in a set of the kept elements,
    and memory linear in their count however large the coefficients.

    Past ``deadline`` (a ``time.monotonic()`` value) it stops and returns the
    elements kept so far, which avoid the equation too.  The clock is read
    before each element: the pass is quadratic in n, so one element already
    costs 6-15 us at n = 50 000 (a pass over x+2y=13z takes 0.3 s
    descending, 0.7 s ascending).
    """
    if deadline is not None:
        order = takewhile(lambda _: time.monotonic() <= deadline, order)
    if _narrow(eq):
        return _Kept(eq, n).extend(order)
    members: set[int] = set()
    kept = 0
    for e in order:
        members.add(e)
        if _completes(eq, e, members):
            members.discard(e)
        else:
            kept |= 1 << (e - 1)
    return kept


def _completes(eq: ThreeVarEquation, e: int, members: set[int]) -> bool:
    """Whether ``members``, which holds e, has a solution that uses e: for
    each member v, e as x or y with v as the other, and e as z with v as x,
    the third variable looked up in the set."""
    a, b, c = eq.a, eq.b, eq.c
    if not b:  # a*e = c*z or a*x = c*e
        return a * e % c == 0 and a * e // c in members or c * e % a == 0 and c * e // a in members
    for v in members:
        for t in (a * e + b * v, a * v + b * e):
            if t % c == 0 and t // c in members:
                return True
        t = c * e - a * v
        if t > 0 and t % b == 0 and t // b in members:
            return True
    return False


def random_avoiding_sets(eq: ThreeVarEquation, n: int, count: int, seed: int = 0) -> list[IntSet]:
    """``count`` randomized-greedy avoiding subsets of [1, n] (shuffled element
    orders).  Each is re-verified by the avoidance checker, and a set that
    contains a solution raises :class:`AvoidanceCheckFailed`."""
    if n < 1:
        raise InvariantViolation(f"n must be positive, got {n}")
    if count < 0:
        raise InvariantViolation(f"count must be nonnegative, got {count}")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        out.append(_checked_witness(eq, n, _greedy_mask(eq, n, order)))
    return out
