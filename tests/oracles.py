"""Independent oracles used by the tests.

These deliberately share no code with the package's solver: solutions come
from a cubic triple loop and maxima from a full 2^n subset scan, so that the
branch-and-bound results are checked through a second route.
"""
from __future__ import annotations

from solfree.equations import IntSet, Solution, ThreeVarEquation


def brute_solutions(eq: ThreeVarEquation, n: int) -> list[Solution]:
    """Every solution triple, by exhaustive loops over [1, n]^3 (or [1, n]^2)."""
    out = []
    if eq.b == 0:
        for x in range(1, n + 1):
            for z in range(1, n + 1):
                if eq.a * x == eq.c * z:
                    out.append(Solution(x, 0, z))
        return out
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            for z in range(1, n + 1):
                if eq.a * x + eq.b * y == eq.c * z:
                    out.append(Solution(x, y, z))
    return out


def brute_congruence_cliques(eq: ThreeVarEquation, m: int) -> set[tuple[int, ...]]:
    """Member sets of the solutions modulo m over residues [1, m], by a loop
    over every (x, y, z) (or (x, z)); m stands in for the zero class."""
    rng = range(1, m + 1)
    if eq.b == 0:
        return {tuple(sorted({x, z})) for x in rng for z in rng if (eq.a * x - eq.c * z) % m == 0}
    return {tuple(sorted({x, y, z})) for x in rng for y in rng for z in rng
            if (eq.a * x + eq.b * y - eq.c * z) % m == 0}


def greedy_suffix_packing(cliques) -> list[tuple[int, ...]]:
    """Pairwise disjoint cliques from one greedy pass over ``cliques`` in
    descending order of smallest member, ascending tuple order within one:
    a clique is taken iff it shares no member with one taken before it."""
    packing, used = [], set()
    for cl in sorted(sorted(cliques), key=lambda cl: cl[0], reverse=True):
        if used.isdisjoint(cl):
            used.update(cl)
            packing.append(cl)
    return packing


def brute_pair_alpha(eq: ThreeVarEquation, n: int) -> int:
    """The independence number of the pair graph on [1, n], whose edges are
    the 2-member sets of the solutions (those with two equal variables): the
    sum over its connected components of the largest independent set, found
    by a scan of every independent set of the component.  A set of
    ascending elements is independent iff it is without its largest
    element and that element has no smaller neighbour in it."""
    lower = [0] * (n + 1)  # lower[v]: the smaller neighbours of v, as a mask
    upper = [0] * (n + 1)  # upper[v]: the larger ones
    for sol in brute_solutions(eq, n):
        members = sorted({sol.x, sol.z} if eq.b == 0 else {sol.x, sol.y, sol.z})
        if len(members) == 2:
            u, v = members
            lower[v] |= 1 << (u - 1)
            upper[u] |= 1 << (v - 1)
    seen = total = 0
    for v in range(1, n + 1):
        if seen >> (v - 1) & 1:
            continue
        comp, frontier = 0, [v]  # the component of v, by a graph search
        while frontier:
            u = frontier.pop()
            if not comp >> (u - 1) & 1:
                comp |= 1 << (u - 1)
                frontier += [w for w in range(1, n + 1) if (lower[u] | upper[u]) >> (w - 1) & 1]
        seen |= comp
        independent = [0]
        for u in range(1, n + 1):
            if comp >> (u - 1) & 1:
                independent += [S | 1 << (u - 1) for S in independent if not lower[u] & S]
        total += max(S.bit_count() for S in independent)
    return total


def brute_avoids(eq: ThreeVarEquation, A: IntSet) -> tuple[bool, Solution | None]:
    """(ok, lexicographically first violation), by a quadratic scan over A x A."""
    mset = A.member_set
    if eq.b == 0:
        for x in A.members:
            z, r = divmod(eq.a * x, eq.c)
            if r == 0 and z in mset:
                return False, Solution(x, 0, z)
        return True, None
    for x in A.members:
        for y in A.members:
            z, r = divmod(eq.a * x + eq.b * y, eq.c)
            if r == 0 and z in mset:
                return False, Solution(x, y, z)
    return True, None


def brute_greedy(eq: ThreeVarEquation, n: int, order) -> int:
    """The greedy avoiding subset of [1, n] over ``order``, as a mask (bit e - 1
    for e): e is kept iff the kept elements together with e pass
    :func:`brute_avoids`."""
    kept: list[int] = []
    for e in order:
        if brute_avoids(eq, IntSet.of(n, kept + [e]))[0]:
            kept.append(e)
    return sum(1 << (e - 1) for e in kept)


def _clique_masks_by_max(eq: ThreeVarEquation, n: int) -> list[list[int]]:
    by_max: list[list[int]] = [[] for _ in range(n + 1)]
    seen = set()
    for sol in brute_solutions(eq, n):
        members = tuple(sorted({sol.x, sol.z} if eq.b == 0 else {sol.x, sol.y, sol.z}))
        if members in seen:
            continue
        seen.add(members)
        full = 0
        for v in members:
            full |= 1 << (v - 1)
        by_max[members[-1]].append(full & ~(1 << (members[-1] - 1)))
    return by_max


def brute_clique_free_max(cliques, m: int) -> int:
    """The most elements of [1, m] that hold none of ``cliques`` (ascending
    member tuples), by the subset-DP of :func:`avoiding_mask_table`."""
    by_max: list[list[int]] = [[] for _ in range(m + 1)]
    for cl in cliques:
        if cl[-1] <= m:
            by_max[cl[-1]].append(sum(1 << (v - 1) for v in cl))
    ok = bytearray(1 << m)
    ok[0] = 1
    best = 0
    for S in range(1, 1 << m):
        h = S.bit_length()
        if ok[S & ~(1 << (h - 1))] and all(full & S != full for full in by_max[h]):
            ok[S] = 1
            best = max(best, S.bit_count())
    return best


def avoiding_mask_table(eq: ThreeVarEquation, n: int) -> bytearray:
    """ok[S] = 1 iff the subset encoded by bitmask S avoids the equation.

    Subset-DP: S avoids iff S minus its largest element avoids and adding
    that element back completes no solution clique.
    """
    by_max = _clique_masks_by_max(eq, n)
    ok = bytearray(1 << n)
    ok[0] = 1
    for S in range(1, 1 << n):
        h = S.bit_length()  # largest element of S
        rest = S & ~(1 << (h - 1))
        if not ok[rest]:
            continue
        good = 1
        for others in by_max[h]:
            if others & rest == others:
                good = 0
                break
        ok[S] = good
    return ok


def exhaustive_max(eq: ThreeVarEquation, n: int) -> tuple[int, list[int]]:
    """(r(n), every maximum avoiding subset as a bitmask, ascending)."""
    ok = avoiding_mask_table(eq, n)
    best = 0
    masks: list[int] = [0]
    for S in range(1, 1 << n):
        if not ok[S]:
            continue
        pc = S.bit_count()
        if pc > best:
            best, masks = pc, [S]
        elif pc == best:
            masks.append(S)
    return best, masks


def all_avoiding_sets(eq: ThreeVarEquation, n: int) -> list[IntSet]:
    ok = avoiding_mask_table(eq, n)
    return [mask_to_set(n, S) for S in range(1 << n) if ok[S]]


def mask_to_set(n: int, mask: int) -> IntSet:
    return IntSet(n, tuple(i + 1 for i in range(n) if mask >> i & 1))


def brute_rho_numerator(eq: ThreeVarEquation, m: int) -> tuple[int, tuple[int, ...]]:
    """(max size of R in [1, m] with no solutions mod m, the lexicographically
    least such R), by scanning all 2^m subsets."""
    best, least = 0, ()
    for S in range(1 << m):
        members = tuple(i + 1 for i in range(m) if S >> i & 1)
        if len(members) < best or len(members) == best and members >= least:
            continue
        good = True
        if eq.b == 0:
            for x in members:
                for z in members:
                    if (eq.a * x - eq.c * z) % m == 0:
                        good = False
                        break
                if not good:
                    break
        else:
            for x in members:
                for y in members:
                    t = eq.a * x + eq.b * y
                    for z in members:
                        if (t - eq.c * z) % m == 0:
                            good = False
                            break
                    if not good:
                        break
                if not good:
                    break
        if good:
            best, least = len(members), members
    return best, least


def lex_least_two_var(eq: ThreeVarEquation, n: int) -> tuple[int, ...]:
    """The lexicographically least maximum subset of [1, n] avoiding
    a*x = c*z (b = 0), in closed form.

    With p = max(a, c) and q = min(a, c), the solutions join e to p*e/q, so
    [1, n] splits into increasing paths, and e sits at the position of its
    path given by how many times p divides it.  A path of L elements holds
    at most ceil(L/2) of them; taking elements in ascending order and keeping
    each one a maximum set can still hold keeps exactly the even positions.
    """
    p = max(eq.a, eq.c)

    def position(e: int) -> int:
        j = 0
        while e % p == 0:
            e, j = e // p, j + 1
        return j

    return tuple(e for e in range(1, n + 1) if position(e) % 2 == 0)
