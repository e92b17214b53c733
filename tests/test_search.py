"""Exact solver, enumeration of extremal sets, and modular densities."""
from __future__ import annotations

import random
import re
import sys
import time
import tracemalloc
from functools import partial
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import solfree
from solfree import search
from solfree.equations import IntSet, ThreeVarEquation, avoids, enumerate_solutions, parse_equation
from solfree.errors import AvoidanceCheckFailed, BudgetExceeded, InvariantViolation
from solfree.search import (
    all_extremal,
    cliques_for,
    congruence_cliques,
    max_avoiding,
    random_avoiding_sets,
    rho_best,
    rho_m,
)

from oracles import (
    avoiding_mask_table,
    brute_avoids,
    brute_clique_free_max,
    brute_congruence_cliques,
    brute_greedy,
    brute_pair_alpha,
    brute_rho_numerator,
    brute_solutions,
    exhaustive_max,
    greedy_suffix_packing,
    lex_least_two_var,
    mask_to_set,
)
from test_equations import valid_equations

EQS = {
    "family1": parse_equation("x+2y=13z"),
    "family2": parse_equation("2x+2y=5z"),
    "square": parse_equation("x+2y=4z"),
}


def fresh_engine(monkeypatch, eq: ThreeVarEquation) -> search._IntegerEngine:
    """A cold engine for eq in the solver cache, built as the solver builds
    it, the cached one restored afterwards."""
    engine = search._IntegerEngine(eq)
    monkeypatch.setitem(search._SOLVERS, eq, engine)
    return engine


def draw_equation(data, top: int) -> ThreeVarEquation | None:
    """An equation with coefficients <= top (b = 0 included), or None if invalid."""
    a = data.draw(st.integers(1, top))
    b = data.draw(st.integers(0, top))
    c = data.draw(st.integers(1, top))
    try:
        return ThreeVarEquation(a, b, c)
    except InvariantViolation:
        return None


def draw_congruence_equation(data, shape: str) -> ThreeVarEquation | None:
    """An equation with a, c <= 9 and b <= 9, of the given shape ("b = 0",
    "a == b" or "any"), or None if invalid."""
    a = data.draw(st.integers(1, 9))
    b = 0 if shape == "b = 0" else a if shape == "a == b" else data.draw(st.integers(0, 9))
    c = data.draw(st.integers(1, 9))
    try:
        return ThreeVarEquation(a, b, c)
    except InvariantViolation:
        return None


def grid_equations(a_max: int, b_max: int, c_max: int) -> list[ThreeVarEquation]:
    """Every valid equation with a <= a_max, 0 <= b <= b_max and c <= c_max."""
    out = []
    for a in range(1, a_max + 1):
        for b in range(b_max + 1):
            for c in range(1, c_max + 1):
                try:
                    out.append(ThreeVarEquation(a, b, c))
                except InvariantViolation:
                    pass
    return out


def clique_tables(engine: search._Core) -> tuple:
    return engine.pair_down, engine.force


def pair_tables(engine: search._Core) -> tuple:
    """The pair test's tables: P, and each smooth number's part as the
    members that part is solved over and its r."""
    return engine.P, {v: (part.members[:len(part.r) - 1], part.r) for v, part in engine.comp.items()}


def trigger_count(engine: search._Core) -> int:
    """Triggers: one bit per triple's smallest member, one bit per pair."""
    return (sum(lows.bit_count() for entries in engine.force for _, lows in entries)
            + sum(mask.bit_count() for mask in engine.pair_down))


def engine_state(obj):
    """Every attribute of an engine, copied deep enough to compare with a
    later copy: the tables, ``last_triples``, ``r``, ``wit``,
    the pending records, the clique list and counts, the packing, ``kept``,
    ``P``, ``comp`` and ``lp``.  A ``_Kept`` and a ``_Simplex`` are copied by
    their slots, and each part in ``comp`` by its own attributes."""
    if isinstance(obj, search._Core):
        return {name: engine_state(value) for name, value in vars(obj).items()}
    if isinstance(obj, (search._Kept, search._Simplex)):
        return {name: engine_state(getattr(obj, name)) for name in type(obj).__slots__}
    if isinstance(obj, dict):
        return {key: engine_state(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return type(obj)(map(engine_state, obj))
    return obj


def congruence_engine(eq: ThreeVarEquation, m: int, top: int | None = None) -> search._Core:
    """An engine over the congruence cliques modulo m, with the elements up
    to ``top`` (m by default) taken in."""
    engine = search._Core(partial(search._congruence_records, eq, m, tables=search._residue_tables(eq, m)))
    engine.take_in(m if top is None else top, search._RunState())
    return engine


def oracle_cliques(eq: ThreeVarEquation, n: int) -> list[tuple[int, ...]]:
    """Distinct member sets of the solutions inside [1, n], sorted."""
    return sorted({tuple(sorted({s.x, s.z} if eq.b == 0 else {s.x, s.y, s.z}))
                   for s in enumerate_solutions(eq, n)})


def bits(*members: int) -> int:
    """The mask of ``members``: bit v - 1 for each v."""
    return sum(1 << (v - 1) for v in members)


def assert_disjoint_real_cliques(packing, real) -> None:
    """Every clique of ``packing`` is in ``real`` and no two share a member."""
    assert set(packing) <= set(real)
    members = [v for cl in packing for v in cl]
    assert len(members) == len(set(members))


class TestMaxAvoiding:
    def test_singleton(self):
        res = max_avoiding(EQS["square"], 1)
        assert res.size == 1 and res.witness.members == (1,)

    def test_family2_closed_form_instance(self):
        assert [max_avoiding(EQS["family2"], n).size for n in (5, 10)] == [3, 6]

    def test_square_regime_example(self):
        assert max_avoiding(EQS["square"], 7).size == 4
        res = max_avoiding(EQS["square"], 14)
        assert res.size == 8
        assert avoids(EQS["square"], res.witness).ok

    @pytest.mark.parametrize("key", sorted(EQS))
    def test_matches_exhaustive_scan(self, key):
        eq = EQS[key]
        for n in range(1, 13):
            want, masks = exhaustive_max(eq, n)
            res = max_avoiding(eq, n)
            assert res.size == want
            assert res.optimal
            assert avoids(eq, res.witness).ok
            # deterministic mode returns the lexicographically least maximum set
            least = min(tuple(mask_to_set(n, m).members) for m in masks)
            assert res.witness.members == least

    def test_monotone_steps(self):
        eq = EQS["family1"]
        sizes = [max_avoiding(eq, n).size for n in range(1, 40)]
        for a, b in zip(sizes, sizes[1:]):
            assert a <= b <= a + 1

    def test_budget_gives_lower_bound(self, monkeypatch):
        eq = parse_equation("4x+4y=5z")
        fresh_engine(monkeypatch, eq)
        res = max_avoiding(eq, 30, node_cap=1)
        assert not res.optimal
        assert avoids(eq, res.witness).ok
        assert res.size <= max_avoiding(eq, 30).size

    def test_repeated_node_budget_stalls_below_a_costly_prefix(self, monkeypatch):
        # the example of the max_avoiding docstring and the README: no
        # packing settles prefix 46 of x+y=3z, which alone takes 1673 nodes
        eq = parse_equation("x+y=3z")
        engine = fresh_engine(monkeypatch, eq)
        solved = []
        for _ in range(4):
            assert not max_avoiding(eq, 50, node_cap=1500, canonical=False).optimal
            solved.append(len(engine.r) - 1)
        assert solved == [37, 41, 45, 45]
        assert max_avoiding(eq, 46, canonical=False).nodes == 1673

    def test_spent_budget_stops_the_fallback_greedy(self, monkeypatch):
        # both greedy passes over [1, 50 000] would take seconds; a spent
        # budget stops each before its first element, so the last solved
        # prefix's witness is the answer
        eq = EQS["family1"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 30, canonical=False)
        res = max_avoiding(eq, 50_000, time_cap=0)
        assert not res.optimal and len(engine.r) == 31
        assert res.witness == mask_to_set(50_000, engine.wit[30])

    def test_rejects_bad_n(self):
        with pytest.raises(InvariantViolation):
            max_avoiding(EQS["square"], 0)

    def test_optimal_witness_is_rechecked(self, monkeypatch):
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 5, canonical=False)
        engine.wit[5] = 0b11111  # [1, 5] holds (2, 1, 1)
        with pytest.raises(AvoidanceCheckFailed, match=r"^the witness at n=5 contains the solution \(2, 1, 1\)"):
            max_avoiding(eq, 5, canonical=False)

    def test_budget_witness_is_rechecked(self, monkeypatch):
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 5, canonical=False)
        # larger than any greedy seed at n = 6, so the budget path returns it
        engine.wit[5] = 0b11111
        with pytest.raises(AvoidanceCheckFailed, match=r"^the witness at n=6 contains the solution \(2, 1, 1\)"):
            max_avoiding(eq, 6, node_cap=0)

    def test_mask_bit_above_n_raises(self):
        # a witness mask with a member past n is a fault to report, not a bit to drop
        with pytest.raises(InvariantViolation, match=r"^members must lie in \[1, 3\]$"):
            search._mask_to_set(3, 0b1000)

    @pytest.mark.parametrize("key", sorted(EQS))
    def test_cold_solve_matches_sweep(self, monkeypatch, key):
        eq = EQS[key]
        cold = fresh_engine(monkeypatch, eq)
        whole = max_avoiding(eq, 30, canonical=False)
        swept = fresh_engine(monkeypatch, eq)
        steps = [max_avoiding(eq, n, canonical=False) for n in range(1, 31)]
        assert (cold.r, cold.wit) == (swept.r, swept.wit)
        assert whole.witness == steps[-1].witness
        assert whole.nodes == sum(res.nodes for res in steps)
        assert clique_tables(cold) == clique_tables(swept)

    # cold max_avoiding(canonical=False).nodes with each prefix's search
    # ending at its first leaf, of size r(m - 1) + 1, or once the degree
    # packing, or one trade from it, finds k disjoint cliques with
    # m - k <= r(m - 1); a prefix whose warm packing of k cliques has
    # m - k <= r(m - 1), or whose pair graph has no independent set above
    # r(m - 1), costs one node, and so does one whose warm packing is one
    # clique short (m - k = r(m - 1) + 1) when the search's first path has
    # r(m - 1) + 1 elements or one trade makes the packing large enough.  A
    # search whose packing is at most two cliques short may also stop once
    # the fractional test settles the prefix.
    # Equal to the sum over a 1..n sweep.
    # The cap makes a weaker bound or a lost certificate fail fast instead of
    # running for long.
    PINNED_NODES = [
        ("x+2y=13z", 70, 84),  # 984 without the one-short root, 2 083 without the warm packing too
        ("x+2y=13z", 75, 89),  # 1 135 without the one-short root, 2 581 without the warm packing too
        ("x+2y=13z", 95, 109),  # 1 498 without the one-short root, 4 822 without the warm packing too
        ("x+y=3z", 50, 8979),  # the packing settles no prefix past m = 5
        ("2x+2y=5z", 60, 632),  # 16 484 without trades, 3 107 with trades in the degree packing only
        ("x+3y=9z", 60, 374),  # 26 675 without trades, 7 395 with trades in the degree packing only
        ("x+4y=16z", 80, 80),  # 441 without the one-short root, 1 497 875 without the warm packing too
        ("x+2y=4z", 80, 80),  # 8 068 without the pair test
        ("x+2y=4z", 300, 300),  # every prefix settled at its root
        ("2x+y=4z", 300, 300),
        ("2x=z", 200, 200),  # every root the seed misses is settled by P, exact with b = 0
        ("x+2y=5z", 31, 4437),  # 4 457 without the one-short root, 4 460 without the warm packing too
        ("x+y=4z", 54, 6831),  # 14 039 with a simplex rebuilt at every try, 69 427 without the fractional test
    ]

    @pytest.mark.parametrize("text,n,nodes", PINNED_NODES, ids=[f"{t}@{n}" for t, n, _ in PINNED_NODES])
    def test_pinned_cold_node_counts(self, monkeypatch, text, n, nodes):
        eq = parse_equation(text)
        fresh_engine(monkeypatch, eq)
        res = max_avoiding(eq, n, node_cap=4 * nodes, canonical=False)
        assert res.optimal and res.nodes == nodes

    def test_pinned_family1_prefix_table(self, monkeypatch):
        # r(m) of x+2y=13z for m <= 95, as the search found it before the
        # degree packing could stop a prefix: r(m) = r(m - 1) exactly at these m
        stalls = {5, 9, 13, 18, 22, 26, 31, 35, 39, 44, 52, 57, 61, 65, 70, 74, 78, 83, 87, 91}
        eq = EQS["family1"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 95, canonical=False)
        assert engine.r == [m - sum(s <= m for s in stalls) for m in range(96)]

    def test_seeded_prefix_costs_one_node(self, monkeypatch):
        # a prefix m where wit[m - 1] plus m avoids the equation, as the
        # oracle decides, is settled at its root, and most prefixes are
        for eq, n, least in ((EQS["family1"], 60, 34), (parse_equation("x+y=3z"), 50, 23)):
            engine = fresh_engine(monkeypatch, eq)
            seeded = 0
            for m in range(1, n + 1):
                res = max_avoiding(eq, m, canonical=False)
                if brute_avoids(eq, mask_to_set(m, engine.wit[m - 1] | 1 << (m - 1)))[0]:
                    seeded += 1
                    assert res.nodes == 1, (str(eq), m)
            assert seeded > least, str(eq)

    def test_seeding_stops_at_the_root_bound(self, monkeypatch):
        # prefix m keeps wit[m - 1] plus m exactly when that set avoids the
        # equation; otherwise its witness comes from the search
        eq = parse_equation("x+y=3z")
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 50, canonical=False)
        kept = 0
        for m in range(1, 51):
            extended = engine.wit[m - 1] | 1 << (m - 1)
            ok = brute_avoids(eq, mask_to_set(m, extended))[0]
            assert (engine.wit[m] == extended) == ok, m
            kept += ok
        assert 0 < kept < 50

    def test_two_variable_prefixes_cost_one_node(self, monkeypatch):
        # every prefix of ax = cz is settled at its root: wit[m - 1] plus m
        # avoids the equation, or P, exact when every clique is a pair, gives
        # r(m) <= r(m - 1); the cap makes a lost certificate fail fast
        for a in range(1, 10):
            for c in range(1, 10):
                if a != c and gcd(a, c) == 1:
                    eq = ThreeVarEquation(a, 0, c)
                    fresh_engine(monkeypatch, eq)
                    assert max_avoiding(eq, 150, node_cap=600, canonical=False).nodes == 150, str(eq)

    def test_node_budget_covers_the_canonical_pass(self, monkeypatch):
        eq = parse_equation("x+y=3z")  # its ascending greedy set at 40 is below r(40), so the pass runs
        fresh_engine(monkeypatch, eq)
        search_nodes = max_avoiding(eq, 40, canonical=False).nodes
        # warm: the solve costs nothing, so a zero budget stops the pass at once
        warm = max_avoiding(eq, 40, node_cap=0)
        assert warm.optimal and not warm.canonical and warm.nodes == 1
        fresh_engine(monkeypatch, eq)
        full = max_avoiding(eq, 40)
        assert full.canonical and full.nodes > search_nodes + 5
        fresh_engine(monkeypatch, eq)
        # cold: the pass gets what the search left of the budget, no more
        cold = max_avoiding(eq, 40, node_cap=search_nodes + 5)
        assert cold.optimal and not cold.canonical and cold.nodes == search_nodes + 6
        assert cold.size == full.size

    def test_canonical_pass_ends_at_its_first_leaf(self, monkeypatch):
        # x+2y=4z at 80 has its lex-least maximum set 81 nodes into the pass;
        # a pass that looked on for a second set would spend the whole budget.
        # That set is the ascending greedy set, so max_avoiding runs no pass.
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        search_nodes = max_avoiding(eq, 80, canonical=False).nodes
        state = search._RunState(node_cap=81)
        mask = engine.maximum_sets(80, 1, state)[0]
        assert state.nodes == 81 and mask == search._greedy_mask(eq, 80, range(1, 81))
        fresh_engine(monkeypatch, eq)
        res = max_avoiding(eq, 80, node_cap=search_nodes)
        assert res.optimal and res.canonical and res.nodes == search_nodes
        assert res.witness == search._mask_to_set(80, mask)

    def test_pass_without_a_leaf_raises(self, monkeypatch):
        # a set of size r(n) exists once r(n) is solved; with r(n) one too
        # large the pass finds none, and the search witness is not kept
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 12, canonical=False)
        engine.r[12] += 1
        with pytest.raises(InvariantViolation, match=r"^no avoiding set of size r\(12\) = 8 in \[1, 12\]$"):
            max_avoiding(eq, 12)

    def test_canonical_flag(self, monkeypatch):
        eq = EQS["family2"]
        fresh_engine(monkeypatch, eq)
        search_witness = max_avoiding(eq, 45, canonical=False)
        assert search_witness.optimal and not search_witness.canonical
        assert max_avoiding(eq, 45).canonical
        assert not max_avoiding(eq, 46, node_cap=0).canonical  # budget hit
        # the pass checks the clock on its first node, so a spent budget stops it there
        late = max_avoiding(eq, 45, time_cap=1e-9)
        assert late.optimal and not late.canonical and late.witness == search_witness.witness
        monkeypatch.setattr(search, "_CANONICAL_NODE_CAP", 10)
        capped = max_avoiding(eq, 45)
        assert capped.optimal and not capped.canonical and capped.witness == search_witness.witness
        # a pass that fits under the cap still certifies its witness
        small = max_avoiding(eq, 3)
        assert small.canonical and small.nodes <= 10


class TestEngine:
    def test_exact_solver_is_gone(self):
        assert not hasattr(search, "ExactSolver")
        assert "ExactSolver" not in solfree.__all__ and not hasattr(solfree, "ExactSolver")

    @given(data=st.data())
    @settings(max_examples=150)
    def test_cliques_for_matches_enumeration(self, data):
        a = data.draw(st.integers(1, 12))
        b = data.draw(st.integers(0, 12))
        c = data.draw(st.integers(1, 12))
        try:
            eq = ThreeVarEquation(a, b, c)
        except InvariantViolation:
            return
        m = data.draw(st.integers(1, 60))
        want = [cl for cl in oracle_cliques(eq, m) if cl[-1] == m]
        assert cliques_for(eq, m) == want

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_degree_packing_is_disjoint_real_solutions(self, data):
        # checked against the solution enumeration, not the engine's tables;
        # so m - k bounds r(m) at every solved prefix
        eq = draw_equation(data, 12)
        if eq is None:
            return
        engine = search._IntegerEngine(eq)
        for m in range(1, data.draw(st.integers(1, 40)) + 1):
            engine.take_in(m, search._RunState())
            packing = engine.degree_packing(m - engine.r[m - 1], search._RunState())
            assert_disjoint_real_cliques(packing, oracle_cliques(eq, m))
            engine.solve_to(m, search._RunState())
            assert engine.r[m] <= m - len(packing)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_seeds_match_the_integer_greedy(self, data):
        # two implementations of one greedy: the ascending shift-and-mask
        # greedy is the first leaf of the lex-least enumeration
        eq = draw_equation(data, 12)
        if eq is None:
            return
        top = data.draw(st.integers(1, 60))
        engine = search._Core(partial(search._integer_records, eq))
        for m in range(1, top + 1):
            assert search._greedy_mask(eq, m, range(1, m + 1)) == next(engine.enumerate_at(m, 0, search._RunState()))

    @given(
        eq=st.one_of(valid_equations(), valid_equations(wide=True)),
        n=st.integers(1, 60),
        order=st.sampled_from(["descending", "ascending", "shuffled"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # 3 is kept before 13, which as both x and y completes 13 + 2*13 = 13*3:
    # z = 3 sits at the last bit of the c-mask window, c*z = (a+b)*n.  Only
    # that solution, with x = y = e, rejects 13
    @example(eq=ThreeVarEquation(1, 2, 13), n=13, order="ascending", seed=0)
    # 3 is kept, and only (2, 3, 2), with x = z = e, rejects 2
    @example(eq=ThreeVarEquation(1, 2, 4), n=3, order="descending", seed=0)
    # 2 is kept, and only (2, 1, 1), with y = z = e, rejects 1
    @example(eq=ThreeVarEquation(1, 2, 4), n=2, order="descending", seed=0)
    def test_greedy_matches_the_brute_greedy(self, eq, n, order, seed):
        elements = list(range(1, n + 1))
        if order == "descending":
            elements.reverse()
        elif order == "shuffled":
            random.Random(seed).shuffle(elements)
        assert search._greedy_mask(eq, n, elements) == brute_greedy(eq, n, elements)

    @given(
        low=st.tuples(st.integers(1, 6), st.integers(0, 6), st.integers(1, 6)),
        high=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)),
        n=st.integers(1, 14),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wide_greedy_matches_the_brute_greedy(self, low, high, n, seed):
        # coefficients t*high + low with t = 10^8, where min(c, a + b) > t:
        # the masks would be wide, so the greedy probes the kept set
        # instead.  A solution in [1, n] solves both the high and the low
        # equation, so some sets hold one
        t = 10**8
        a, b, c = (t * h + v for h, v in zip(high, low))
        try:
            eq = ThreeVarEquation(a, b, c)
        except InvariantViolation:
            return
        assume(not search._narrow(eq))
        elements = list(range(1, n + 1))
        random.Random(seed).shuffle(elements)
        assert search._greedy_mask(eq, n, elements) == brute_greedy(eq, n, elements)

    @pytest.mark.parametrize("order", [(1025, 1026, 2050, 2052), (1026, 1025, 2052, 2050)], ids=["x", "z"])
    def test_wide_two_variable_greedy_matches_the_brute_greedy(self, order):
        # b = 0 with a, c > 1024: the greedy probes the kept set.  The
        # solutions of 1025x = 1026z, x = 1026t and z = 1025t, lie beyond
        # the n of the test above.  The first and third elements are kept
        # and the other two rejected: as x when 1025t comes first, and as z
        # otherwise
        eq = ThreeVarEquation(1025, 0, 1026)
        assert not search._narrow(eq)
        assert search._greedy_mask(eq, 2052, order) == brute_greedy(eq, 2052, order) == bits(order[0], order[2])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_congruence_seed_matches_the_cliques(self, data):
        # modulo q, prefix m extends a set W in [1, m - 1] exactly when no
        # clique whose largest member is m, the singleton {m} included, lies
        # inside W plus m; the table given to solve_to has W at prefix m - 1
        eq = draw_equation(data, 9)
        if eq is None:
            return
        q = data.draw(st.integers(1, 16))
        m = data.draw(st.integers(1, q))
        W = data.draw(st.integers(0, (1 << (m - 1)) - 1))
        members = set(mask_to_set(m, W).members) | {m}
        closed = any(cl[-1] == m and set(cl) <= members for cl in brute_congruence_cliques(eq, q))
        engine = congruence_engine(eq, q, m)
        engine.r, engine.wit = list(range(m - 1)) + [W.bit_count()], [0] * (m - 1) + [W]
        state = search._RunState()
        engine.solve_to(m, state)
        assert (engine.wit[m] == W | 1 << (m - 1)) != closed
        assert closed or state.nodes == 1

    def test_no_mutable_search_state(self):
        engine = search._Core(partial(search._integer_records, EQS["square"]))
        assert not hasattr(engine, "excl") and not hasattr(engine, "by_elem_ids")

    def test_enumeration_ignores_banned_elements_past_m(self):
        engine = search._Core(lambda k: (k == 3, 0, {}))  # 3 is banned
        engine.take_in(3, search._RunState())
        assert list(engine.enumerate_at(2, 2, search._RunState())) == [0b11]

    def test_budget_hit_then_resume(self, monkeypatch):
        eq = EQS["family2"]
        cold = fresh_engine(monkeypatch, eq)
        want = max_avoiding(eq, 30, canonical=False)
        engine = fresh_engine(monkeypatch, eq)
        hits = 0
        # prefix 30 alone takes 93 nodes: a smaller cap would never get past it
        while not (res := max_avoiding(eq, 30, node_cap=120, canonical=False)).optimal:
            hits += 1
            assert len(engine.pair_down) - 1 <= len(engine.r)  # at most one prefix past the solved one
            # each clique adds one descending trigger: none was taken in twice
            assert trigger_count(engine) == len(oracle_cliques(eq, len(engine.pair_down) - 1))
        assert hits > 1
        assert (res.size, res.witness) == (want.size, want.witness)
        assert (engine.r, engine.wit) == (cold.r, cold.wit)
        assert clique_tables(engine) == clique_tables(cold)
        assert trigger_count(engine) == len(oracle_cliques(eq, 30))

    def test_time_budget_covers_the_canonical_pass(self, monkeypatch):
        eq = EQS["family2"]
        fresh_engine(monkeypatch, eq)
        search_witness = max_avoiding(eq, 45, canonical=False).witness
        assert max_avoiding(eq, 45).witness != search_witness  # the pass would change it
        res = max_avoiding(eq, 45, time_cap=1e-9)
        assert res.optimal and res.nodes == 1 and res.witness == search_witness

    def test_deadline_passed_in_the_search_stops_the_canonical_pass(self, monkeypatch):
        # the pass reads the clock on its own first node, not only on every
        # 4096th node of the call, so a deadline that passes between the
        # search and the pass stops the pass there
        eq = EQS["family2"]
        fresh_engine(monkeypatch, eq)
        search_nodes = max_avoiding(eq, 45, canonical=False).nodes
        assert search_nodes & 4095
        fresh_engine(monkeypatch, eq)
        enumerate_at = search._Core.enumerate_at

        def late(self, m, target, state):
            state.deadline = time.monotonic() - 1
            return enumerate_at(self, m, target, state)

        monkeypatch.setattr(search._Core, "enumerate_at", late)
        res = max_avoiding(eq, 45, time_cap=60)
        assert res.optimal and not res.canonical and res.nodes == search_nodes + 1

    def test_zero_time_budget_stops_the_canonical_pass_on_a_warm_engine(self, monkeypatch):
        # x+2y=13z at 30 has a short ascending greedy set, so the pass runs,
        # and a spent budget stops it: the search's witness comes back
        eq = EQS["family1"]
        engine = fresh_engine(monkeypatch, eq)
        search_witness = max_avoiding(eq, 30, canonical=False).witness
        assert engine.kept is None and max_avoiding(eq, 30).canonical
        res = max_avoiding(eq, 30, time_cap=0)
        assert res.optimal and not res.canonical and res.size == 24 and res.witness == search_witness
        # a pair-only engine's witness is the ascending greedy set, so no
        # budget stops it from being returned as canonical
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        want = max_avoiding(eq, 30)
        res = max_avoiding(eq, 30, time_cap=0)
        assert engine.kept is not None and want.canonical
        assert res.optimal and res.canonical and res.nodes == 0 and res.witness == want.witness

    def test_zero_time_budget_stops_all_extremal_on_a_warm_engine(self, monkeypatch):
        eq = EQS["square"]
        fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 30)
        with pytest.raises(BudgetExceeded):
            all_extremal(eq, 30, cap=5, time_cap=0)

    def test_zero_time_budget_is_a_budget_hit(self, monkeypatch):
        eq = EQS["square"]
        fresh_engine(monkeypatch, eq)
        res = max_avoiding(eq, 30, time_cap=0)
        assert not res.optimal and avoids(eq, res.witness).ok

    @pytest.mark.parametrize("eq", [EQS["square"], ThreeVarEquation(10**8 + 1, 1, 10**8 + 3)],
                             ids=["narrow", "wide"])
    def test_zero_time_budget_stops_before_the_first_root(self, monkeypatch, eq):
        # solve_to reads the clock before a prefix's root, so a spent budget
        # leaves a cold engine as it was built: the pair-only x+2y=4z
        # builds no masks, and the wide equation, whose engine takes in
        # each element at its root, takes in none
        engine = fresh_engine(monkeypatch, eq)
        before = engine_state(engine)
        res = max_avoiding(eq, 10, time_cap=0)
        assert not res.optimal and res.nodes == 0
        assert engine_state(engine) == before

    def test_time_budget_grows_no_further_than_needed(self, monkeypatch):
        # x+2y=4z solves n = 5 000 inside the cap; 50 000 takes seconds
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        res = max_avoiding(eq, 50_000, time_cap=0.2)
        assert not res.optimal and avoids(eq, res.witness).ok
        assert len(engine.pair_down) - 1 <= len(engine.r) < 50_000

    def test_time_budget_stops_a_prefix_mid_search(self, monkeypatch):
        # without the fractional test, which settles it, prefix 96 of
        # x+2y=13z alone takes ~12 M nodes: only the clock read every 4096
        # nodes inside the search stops it near the deadline
        monkeypatch.setattr(search._Simplex, "pivot", lambda self, need: False)  # always at its optimum
        eq = EQS["family1"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 95, canonical=False)
        t0 = time.monotonic()
        res = max_avoiding(eq, 96, time_cap=0.2)
        assert time.monotonic() - t0 < 2
        assert not res.optimal and len(engine.r) == 96

    @pytest.mark.parametrize("exc", [RuntimeError, RecursionError])
    def test_exception_mid_search_leaves_engine_clean(self, monkeypatch, exc):
        eq = parse_equation("x+y=3z")  # prefix 9 takes 29 nodes
        engine = fresh_engine(monkeypatch, eq)
        raised = []

        class Failing(search._RunState):
            """Raises exc at the 21st node."""

            def __init__(self, *args):
                self.count = 0
                super().__init__(*args)

            @property
            def nodes(self):
                return self.count

            @nodes.setter
            def nodes(self, value):
                if value > 20:
                    raised.append(value)
                    raise exc("injected")
                self.count = value

        max_avoiding(eq, 8, canonical=False)
        plain = search._RunState
        monkeypatch.setattr(search, "_RunState", Failing)
        with pytest.raises(exc):  # a RecursionError is not taken for a budget hit
            max_avoiding(eq, 14, canonical=False)
        assert raised == [21] and len(engine.r) == 9
        monkeypatch.setattr(search, "_RunState", plain)
        for n in range(1, 15):
            assert max_avoiding(eq, n).size == exhaustive_max(eq, n)[0]

        # the fractional test first runs at prefix 30 of x+y=4z, after the
        # degree packing, and settles it in four pivots; an exception inside
        # the third drops the half-updated simplex, and leaves r, wit and the
        # packing as a cold engine has them
        eq = parse_equation("x+y=4z")
        engine = fresh_engine(monkeypatch, eq)
        pivot, pivots = search._Simplex.pivot, []

        def failing(self, need):
            if len(pivots) == 2:
                self.x[1] = float("nan")  # half-updated
                raise exc("injected")
            pivots.append(pivot(self, need))
            return pivots[-1]

        monkeypatch.setattr(search._Simplex, "pivot", failing)
        with pytest.raises(exc):
            max_avoiding(eq, 40, canonical=False)
        assert pivots == [None, None] and len(engine.r) == 30 and engine.lp is None
        monkeypatch.setattr(search._Simplex, "pivot", pivot)
        again = max_avoiding(eq, 40, canonical=False)
        cold = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 29, canonical=False)
        want = max_avoiding(eq, 40, canonical=False)
        assert (again.witness, again.nodes) == (want.witness, want.nodes)
        assert (engine.r, engine.wit, engine.packing) == (cold.r, cold.wit, cold.packing)

    def test_time_cap_bounds_the_fractional_test(self, monkeypatch):
        # a fractional test that never ends, at 0.2 s a pivot, stops at its
        # first pivot past the deadline: the pivot loop reads the clock
        # before each pivot.  Its first try, at prefix 30 of x+y=4z, may
        # take four pivots, and without the clock they would take 0.8 s
        pivots = []

        def endless(self, need):
            time.sleep(0.2)
            pivots.append(need)

        monkeypatch.setattr(search._Simplex, "pivot", endless)
        eq = parse_equation("x+y=4z")
        engine = fresh_engine(monkeypatch, eq)
        t0 = time.monotonic()
        res = max_avoiding(eq, 54, time_cap=0.1)
        assert time.monotonic() - t0 < 0.6
        assert not res.optimal and pivots == [12] and len(engine.r) == 30

    def test_deep_canonical_pass_is_lex_least(self, monkeypatch):
        eq = parse_equation("2x=z")
        fresh_engine(monkeypatch, eq)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)  # fewer frames than n = 60 elements
        try:
            res = max_avoiding(eq, 60)
            fam = all_extremal(eq, 60, cap=1)
        finally:
            sys.setrecursionlimit(limit)
        assert res.optimal and res.canonical
        # lex-least: the first of all maximum sets in lexicographic order
        assert res.size == fam.size and res.witness == fam.sets[0]
        assert res.witness.members == lex_least_two_var(eq, 60)


class TestPairTest:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_pair_alpha_matches_the_oracle(self, data):
        # P(m) at every prefix from an engine asked each time, and at some
        # prefixes from one that catches up over several; both equal the
        # scan of the pair graph's components, bound r(m) from above, and
        # end with the same tables
        eq = draw_equation(data, 9)  # b = 0 included
        if eq is None:
            return
        n = data.draw(st.integers(1, 40))
        asked = data.draw(st.sets(st.integers(1, n))) | {n}
        every, some = search._IntegerEngine(eq), search._IntegerEngine(eq)
        state = search._RunState()
        for m in range(1, n + 1):
            p = every.pair_alpha(m, state)
            assert p == brute_pair_alpha(eq, m), (str(eq), m)
            if m <= 16:  # the subset scan of exhaustive_max is 2^m
                assert p >= exhaustive_max(eq, m)[0], (str(eq), m)
            if m in asked:
                assert some.pair_alpha(m, state) == p, (str(eq), m)
        assert pair_tables(every) == pair_tables(some) and state.nodes == 0

    # a prime in one term of R alone: 13 in c and 11 in c - b (x+2y=13z),
    # 5 in b and 7 in c - a (x+5y=8z), 5 in a (5x+y=7z), 5 in a + b (2x+3y=4z)
    @pytest.mark.parametrize("text", ["x+2y=4z", "2x+2y=5z", "x+2y=13z", "x+y=3z", "2x=z", "3x=2z",
                                      "x+5y=8z", "5x+y=7z", "2x+3y=4z"])
    def test_pair_alpha_in_each_regime(self, text):
        eq = parse_equation(text)
        engine = search._IntegerEngine(eq)
        for m in range(1, 41):
            assert engine.pair_alpha(m, search._RunState()) == brute_pair_alpha(eq, m), m

    def test_pair_test_runs_on_integer_engines_only(self, monkeypatch):
        # the congruence engines of rho_m and rho_best never ask for P: they
        # are plain engines, which have no pair test, and the solver's
        # engine of an equation is an integer engine, which has
        monkeypatch.setattr(search._IntegerEngine, "pair_alpha", lambda *args: pytest.fail("pair test ran"))
        rho_best(EQS["square"], 24)
        rho_m(EQS["family2"], 20)
        assert not hasattr(search._Core, "pair_alpha")
        assert type(search._engine_for(EQS["square"])) is search._IntegerEngine

    def test_gate_skips_the_test_while_the_last_p_is_above_prev(self, monkeypatch):
        # P never falls, so once it is above r(m - 1) no work is done until
        # r(m - 1) reaches it; every call the gate lets through is recorded
        eq = parse_equation("x+y=3z")
        engine = fresh_engine(monkeypatch, eq)
        asked = []
        pair_alpha = search._IntegerEngine.pair_alpha

        def recorded(self, m, state):
            asked.append((len(self.r), self.r[-1], self.P[-1]))
            return pair_alpha(self, m, state)

        monkeypatch.setattr(search._IntegerEngine, "pair_alpha", recorded)
        max_avoiding(eq, 50, canonical=False)
        assert asked and all(bound <= prev for _, prev, bound in asked)
        assert len(asked) < sum(engine.r[m] == engine.r[m - 1] for m in range(1, 51))

    def test_settled_prefix_costs_one_node(self, monkeypatch):
        # x+2y=4z: P(m) = r(m) at every m <= 300, so every stall is settled
        # at its root with the witness of m - 1, and the parts' solves count
        # no node
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        for m in range(1, 121):
            assert max_avoiding(eq, m, canonical=False).nodes == 1, m
            if engine.r[m] == engine.r[m - 1]:
                assert engine.wit[m] == engine.wit[m - 1]
        assert engine.P[-1] <= engine.pair_alpha(120, search._RunState()) == engine.r[120]

    def test_spent_deadline_stops_the_pair_test(self, monkeypatch):
        # the parts' solves read the caller's deadline, and the budget hit
        # names the caller's prefix; nothing is taken in, for the next call
        eq = EQS["square"]
        engine = search._IntegerEngine(eq)
        late = search._RunState(time_cap=-1)
        with pytest.raises(BudgetExceeded, match=r"^time budget exceeded at prefix 200$"):
            engine.pair_alpha(200, late)
        assert engine.P == [0] and not engine.comp and late.nodes == 0
        assert engine.pair_alpha(200, search._RunState()) == 115

    def test_spent_deadline_stops_a_trade(self, monkeypatch):
        # the root of prefix 15 of 2x+2y=5z is one clique short and its
        # first path is no rise, so it trades once the pair test, solved
        # ahead here, leaves it open.  The trade reads the clock before each
        # group of cliques: a spent deadline stops it before the packing
        # changes and before the search's first node, and the retry spends
        # the nodes of a solve that never stopped.  The root is asked
        # directly, as solve_to's own clock read before it would stop first
        eq = EQS["family2"]
        trades = []
        trade = search._trade
        monkeypatch.setattr(search, "_trade", lambda *args: trades.append(args[0]) or trade(*args))
        engine = fresh_engine(monkeypatch, eq)
        engine.solve_to(14, search._RunState())
        engine.take_in(15, search._RunState())
        assert engine.pair_alpha(15, search._RunState()) > engine.r[14]
        packing = list(engine.packing)
        trades.clear()
        late = search._RunState(time_cap=-1)
        with pytest.raises(BudgetExceeded, match=r"^time budget exceeded at prefix 15$"):
            engine._root(15, late)
        assert len(trades) == 1 and engine.packing == packing and late.nodes == 0 and len(engine.r) == 15
        again = max_avoiding(eq, 60, canonical=False)
        cold = search._IntegerEngine(eq)
        cold.solve_to(14, search._RunState())
        monkeypatch.setitem(search._SOLVERS, eq, cold)
        want = max_avoiding(eq, 60, canonical=False)
        assert (again.nodes, again.witness) == (want.nodes, want.witness)
        assert (engine.r, engine.wit, engine.packing) == (cold.r, cold.wit, cold.packing)

    def test_time_budget_bounds_a_large_solve(self, monkeypatch):
        # the pair test settles every prefix of x+2y=4z at its root, so the
        # deadline is met between prefixes, in the DFS and in the pair test.
        # The whole solve takes about 1 s (Python 3.11, 2 cores), well past
        # the cap
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        t0 = time.monotonic()
        res = max_avoiding(eq, 50_000, time_cap=0.3)
        assert time.monotonic() - t0 < 1.5
        assert not res.optimal and avoids(eq, res.witness).ok
        assert len(engine.pair_down) - 1 <= len(engine.r) < 50_000

    def test_cube_set_law_at_20000(self, monkeypatch):
        # r(n) = |A_2 in [1, n]| for x+2y=4z, the proved cube-set law for
        # b = 2: every prefix is settled at its root, well inside the cap
        eq = EQS["square"]
        fresh_engine(monkeypatch, eq)
        res = max_avoiding(eq, 20_000, canonical=False, time_cap=8)
        assert res.optimal and res.size == 11_428 and res.nodes == 20_000

    @pytest.mark.parametrize("fail_at", [1, 7, 40])
    def test_exception_in_the_pair_test_leaves_the_cache_consistent(self, monkeypatch, fail_at):
        # an exception in the fail_at-th root of a part leaves P and the
        # components as they were: comp holds the smooth numbers below
        # len(P), those whose primes all divide R, and each part is solved
        # over exactly the ones comp gives it.  After a retry the tables
        # equal a cold engine's.  x+2y=4z's parts grow one smooth number at
        # a time, in a solve; 2x+2y=5z's also merge, in the pair test alone.
        root = search._Core._root

        def run(eq):
            if eq == EQS["square"]:
                max_avoiding(eq, 2000, canonical=False)
            else:
                search._engine_for(eq).pair_alpha(200, search._RunState())

        for eq in (EQS["square"], EQS["family2"]):
            engine = fresh_engine(monkeypatch, eq)
            calls = []

            def failing(self, m, state):
                if type(self) is search._Core:  # a part
                    calls.append(self)
                    if len(calls) == fail_at:
                        raise RuntimeError("injected")
                return root(self, m, state)

            monkeypatch.setattr(search._Core, "_root", failing)
            with pytest.raises(RuntimeError):
                run(eq)
            monkeypatch.setattr(search._Core, "_root", root)
            assert len(calls) == fail_at
            R = prod(p * q for p, q in search._ratios(eq))
            # k divides R^k iff every prime of k divides R
            assert sorted(engine.comp) == [k for k in range(1, len(engine.P)) if pow(R, k, k) == 0]
            for part in engine.comp.values():
                assert part.members[:len(part.r) - 1] == [v for v, other in engine.comp.items() if other is part]
            run(eq)
            cold = fresh_engine(monkeypatch, eq)
            run(eq)
            assert (engine.r, engine.wit) == (cold.r, cold.wit)
            assert pair_tables(engine) == pair_tables(cold)


class TestPrefixRoots:
    """The cheap root work: the warm packing, the records and the pairs-only phase."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_warm_packing_is_disjoint_real_cliques(self, data):
        # at every prefix m of an integer engine (b = 0 included), the warm
        # packing is k pairwise disjoint real cliques inside [1, m], its mask
        # is their union, and m - k bounds the largest clique-free subset of
        # [1, m] from above.  A congruence engine has no packing, and its
        # r(m) is that largest subset all the same
        eq = draw_equation(data, 9)
        if eq is None:
            return
        integer = data.draw(st.booleans())
        if integer:
            n = data.draw(st.integers(1, 14))
            engine, real = search._IntegerEngine(eq), oracle_cliques(eq, n)
        else:
            q = data.draw(st.integers(1, 12))
            n = data.draw(st.integers(1, q))
            engine, real = congruence_engine(eq, q, 0), sorted(brute_congruence_cliques(eq, q))
        state = search._RunState()
        for m in range(1, n + 1):
            engine.solve_to(m, state)
            inside = [cl for cl in real if cl[-1] <= m]
            packing = engine.packing if integer else []
            assert integer or not hasattr(engine, "packing") and not hasattr(engine, "packed")
            assert_disjoint_real_cliques(packing, inside)
            assert not integer or engine.packed == sum(1 << (v - 1) for cl in packing for v in cl)
            assert m - len(packing) >= brute_clique_free_max(inside, m) == engine.r[m], (str(eq), m)

    @given(a=st.integers(1, 12), b=st.integers(0, 12), c=st.integers(1, 12), n=st.integers(1, 14))
    @settings(max_examples=50, deadline=None)
    @example(a=1, b=5, c=4, n=8)  # the degree packing of prefix 8 trades (3, 5) for (1, 2, 3) and (5, 7, 8)
    @example(a=3, b=8, c=4, n=12)  # root trades: one for two at prefix 8, two for three at 12
    @example(a=1, b=10, c=3, n=15)  # root trades: one for two at prefix 8, two for three at 15
    def test_packing_after_each_prefix_is_disjoint_brute_cliques(self, a, b, c, n):
        # after each prefix an integer engine solves, its packing, a traded one
        # included, is pairwise disjoint member sets of solutions in [1, m],
        # re-derived by brute force, and m - k bounds the exhaustive r(m)
        try:
            eq = ThreeVarEquation(a, b, c)
        except InvariantViolation:
            return
        ok = avoiding_mask_table(eq, n)
        top = [0] * (n + 1)  # the largest avoiding subset by its largest element
        for S in range(1 << n):
            if ok[S]:
                top[S.bit_length()] = max(top[S.bit_length()], S.bit_count())
        r = list(accumulate(top, max))
        real = {tuple(sorted({s.x, s.y, s.z} - {0})) for s in brute_solutions(eq, n)}
        engine = search._IntegerEngine(eq)
        state = search._RunState()
        for m in range(1, n + 1):
            engine.solve_to(m, state)
            members = [v for cl in engine.packing for v in cl]
            assert len(members) == len(set(members)), (str(eq), m)
            assert all(cl in real and cl[-1] <= m for cl in engine.packing), (str(eq), m)
            assert m - len(engine.packing) >= r[m] == engine.r[m], (str(eq), m)

    @pytest.mark.parametrize("groups,want", [
        # packing clique 0 is {1, 2}: {1, 7} and {2, 8} meet only it
        ({1: [bits(1, 7), bits(2, 8)]}, (1, (bits(1, 7), bits(2, 8)))),
        # packing cliques {1, 2, 3} and {4, 5, 6}: the two cliques that meet
        # only the first meet each other, so no 1-for-2 trade exists, but
        # {1, 4} and {2, 5}, which meet both, and {3, 7} are disjoint
        ({1: [bits(3, 7), bits(3, 8)], 2: [], 3: [bits(1, 4), bits(2, 5)]},
         (3, (bits(1, 4), bits(3, 7), bits(2, 5)))),
        # the same with {2, 5} gone: three disjoint cliques need it
        ({1: [bits(3, 7), bits(3, 8)], 2: [], 3: [bits(1, 4)]}, None),
        # packing cliques {1, 2} and {3, 4}: {2, 5} meets {4, 5}, not {4, 6}
        ({1: [bits(2, 5)], 2: [bits(4, 5), bits(4, 6)], 3: [bits(1, 3)]},
         (3, (bits(1, 3), bits(2, 5), bits(4, 6)))),
        # four cliques meet both {1, 2, 3} and {4, 5, 6}: {2, 5} meets {2, 6}
        ({1: [], 2: [], 3: [bits(1, 4), bits(2, 5), bits(2, 6), bits(3, 6)]},
         (3, (bits(1, 4), bits(2, 5), bits(3, 6)))),
    ])
    def test_trade(self, groups, want):
        assert search._trade(groups, search._RunState(), "") == want

    def test_pair_partners_are_the_two_member_cliques(self):
        # the O(1) formula against the solution enumeration, on the 290
        # equations a <= 6, 0 <= b <= 6, c <= 9, for m < 120: each partner
        # once, though two ratios give the same one when a = b
        for eq in grid_equations(6, 6, 9):
            want: list[list[int]] = [[] for _ in range(120)]
            for cl in oracle_cliques(eq, 119):
                if len(cl) == 2:
                    want[cl[1]].append(cl[0])
            assert [sorted(search._pair_partners(eq, m)) for m in range(1, 120)] == want[1:], str(eq)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_mask_cheap_yes_matches_the_records(self, data):
        # at every prefix m, the masks of wit[m - 1] say m extends it exactly
        # when the records of m do, and so does the engine, lazy or not
        eq = draw_equation(data, 12)  # b = 0 included
        if eq is None:
            return
        engine = search._IntegerEngine(eq)
        state = search._RunState()
        for m in range(1, data.draw(st.integers(1, 60)) + 1):
            W = engine.wit[m - 1]
            banned, pairs, triples = search._integer_records(eq, m)
            closed = banned or pairs & W or any(W >> (mid - 1) & 1 and lows & W for mid, lows in triples.items())
            kept = search._Kept(eq, m)
            assert kept.extend(search._members(W)) == W
            assert bool(kept.extend((m,))) != bool(closed), (str(eq), m)
            engine.solve_to(m, state)
            assert (engine.wit[m] == W | 1 << (m - 1)) != bool(closed), (str(eq), m)

    def test_square_takes_in_pairs_only(self, monkeypatch):
        # every prefix of x+2y=4z is settled at its root, and its ascending
        # greedy set is its lex-least maximum set: r(5000) = |A_2 in [1, 5000]|
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        res = max_avoiding(eq, 5000)
        assert res.optimal and res.canonical and (res.size, res.nodes) == (2858, 5000)
        assert engine.kept is not None
        assert engine.pair_down == [0] and engine.force == [[]]  # no trigger table while pair-only

    def test_pair_only_engine_keeps_no_packing(self, monkeypatch):
        # a sweep that needs no search takes in no element, so it builds no
        # warm packing: P settles every stall a packing of pairs would.  A
        # lex-least pass over [1, 40] files the triples in tables of its
        # own, so the engine keeps no trigger table, record or packing
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 300, canonical=False)
        assert engine.packing == [] and engine.packed == 0 and engine.pair_down == [0]
        all_extremal(eq, 40)
        assert engine.kept is not None
        assert engine.pending == [] and engine.packing == [] and engine.packed == 0
        assert engine.pair_down == [0] and engine.force == [[]]

    def test_engines_without_an_equation_pack_no_cliques(self, monkeypatch):
        # the congruence engines of rho_best and the parts of pair_alpha are
        # plain engines, which run the cheap yes and the DFS alone: they
        # hold none of an integer engine's attributes, and every degree
        # packing and simplex built is the integer engine's.  Every engine
        # is kept as it is built, a modulus ruled out mid-sweep included
        built, packed, simplexes = [], [], []
        init = search._Core.__init__
        degree_packing, simplex = search._IntegerEngine.degree_packing, search._Simplex.__init__

        def building(self, *args):
            init(self, *args)
            built.append(self)

        def packing(self, need, state):
            packed.append(self)
            return degree_packing(self, need, state)

        def simplexing(self, cliques, packing):
            simplexes.append(cliques)
            simplex(self, cliques, packing)

        monkeypatch.setattr(search._Core, "__init__", building)
        monkeypatch.setattr(search._IntegerEngine, "degree_packing", packing)
        monkeypatch.setattr(search._Simplex, "__init__", simplexing)
        rho_best(parse_equation("x+y=4z"), 40)
        moduli = list(built)
        eq = parse_equation("x+2y=13z")
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 95, canonical=False)
        parts = set(engine.comp.values())
        assert len(moduli) > 10 and parts and packed  # the integer engine packs
        integer_only = ("eq", "kept", "P", "comp", "packing", "packed", "cliques", "count", "pending",
                        "clique_count", "lp")
        for core in moduli + list(parts):
            assert type(core) is search._Core
            assert not [name for name in integer_only if hasattr(core, name)]
        assert all(core is engine for core in packed)
        assert all(cliques is engine.cliques for cliques in simplexes)

    def test_a_cut_packing_swap_keeps_the_packing_and_its_mask(self, monkeypatch):
        # _keep sums a larger packing's members before it replaces the warm
        # packing, so an exception in that sum leaves the packing and its
        # member mask as they were, a consistent pair
        eq = EQS["family1"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 40, canonical=False)
        before = (list(engine.packing), engine.packed)
        assert before[0] and before[1] == sum(1 << (v - 1) for cl in before[0] for v in cl)
        larger = engine.packing + [(41, 42)]

        def cut_sum(values):
            raise KeyboardInterrupt

        monkeypatch.setattr(search, "sum", cut_sum, raising=False)
        with pytest.raises(KeyboardInterrupt):
            engine._keep(larger)
        assert (engine.packing, engine.packed) == before

    def test_budget_hit_after_the_mask_test_leaves_the_masks_consistent(self):
        # every prefix's root tests run, the masks taking m in when it extends
        # wit[m - 1], before its first node spends a zero budget; m is tested
        # again on the retry with the same answer, so the tables equal a cold
        # engine's, across the masks' rebuilds at m = 1, 3, 7, 15, 31
        eq = EQS["square"]
        engine = search._IntegerEngine(eq)
        for _ in range(60):
            with pytest.raises(BudgetExceeded):
                engine.solve_to(len(engine.r), search._RunState(node_cap=0))
            engine.solve_to(len(engine.r), search._RunState())
        cold = search._IntegerEngine(eq)
        cold.solve_to(60, search._RunState())
        assert engine.kept is not None and engine.kept.n == 62
        assert (engine.r, engine.wit) == (cold.r, cold.wit)

    @pytest.mark.parametrize("text", ["x+2y=13z", "x+2y=4z"])
    def test_clique_list_is_in_arrival_order(self, monkeypatch, text):
        # the degree packing reads the cliques in arrival order, by largest
        # member and then tuple, whether they came in with their
        # element (x+2y=13z, eager from m = 5) or in one catch-up (x+2y=4z)
        eq = parse_equation(text)
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 40, canonical=False)
        engine.take_in(40, search._RunState())
        engine.degree_packing(40 - engine.r[39], search._RunState())
        want = sorted(oracle_cliques(eq, 40), key=lambda cl: (cl[-1], cl))
        assert engine.cliques == want and engine.clique_count == len(want) and not engine.pending
        assert engine.count == [sum(v in cl for cl in want) for v in range(41)]

    @pytest.mark.parametrize("fail_at", [1, 3, 5])
    def test_search_resumes_a_cut_catch_up(self, monkeypatch, fail_at):
        # x+2y=13z first needs a search at prefix 5, whose catch-up takes in
        # the triples of elements 1..5; an exception cuts it after fail_at - 1
        # of them, even after the last, and leaves the masks live.  The retry
        # of prefix 5 resumes the catch-up, and every later prefix costs the
        # nodes it costs on a cold engine.
        eq = EQS["family1"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 4, canonical=False)
        source, calls = engine.source, []

        def failing(k):
            calls.append(k)
            if len(calls) == fail_at:
                raise RuntimeError("injected")
            return source(k)

        engine.source = failing
        with pytest.raises(RuntimeError):
            max_avoiding(eq, 30, canonical=False)
        assert calls == list(range(1, fail_at + 1)) and len(engine.r) == 5
        assert len(engine.pair_down) == len(engine.force) == fail_at and engine.kept is not None
        engine.source = source
        again = max_avoiding(eq, 30, canonical=False)
        assert len(engine.pair_down) == 31 and engine.kept is None
        cold = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 4, canonical=False)
        want = max_avoiding(eq, 30, canonical=False)
        assert (again.nodes, again.witness) == (want.nodes, want.witness)
        assert (engine.r, engine.wit) == (cold.r, cold.wit)
        assert clique_tables(engine) == clique_tables(cold)
        assert trigger_count(engine) == len(oracle_cliques(eq, 30))

    @pytest.mark.parametrize("fail_at", [1, 25, 40])
    def test_exception_in_the_catch_up_leaves_the_cache_consistent(self, monkeypatch, fail_at):
        # x+2y=4z takes in no triple while it solves; all_extremal's pass
        # needs them all up to its n, and files them in tables of its own,
        # read from the engine's source.  An exception there cuts that
        # catch-up after fail_at - 1 elements and leaves the engine as it
        # was, pair-only; the next calls answer as on a cold engine.
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 40, canonical=False)
        before = engine_state(engine)
        source, calls = engine.source, []

        def failing(k):
            calls.append(k)
            if len(calls) == fail_at:
                raise RuntimeError("injected")
            return source(k)

        engine.source = failing
        with pytest.raises(RuntimeError):
            all_extremal(eq, 40, cap=3)
        engine.source = source
        assert calls == list(range(1, fail_at + 1))
        assert engine_state(engine) == before and engine.pair_down == [0]
        sets = all_extremal(eq, 40, cap=3)
        again = max_avoiding(eq, 50, canonical=False)
        assert engine.pair_down == [0] and engine.kept is not None
        assert engine.pending == [] and engine.packing == []
        cold = fresh_engine(monkeypatch, eq)
        assert all_extremal(eq, 40, cap=3) == sets
        want = max_avoiding(eq, 50, canonical=False)
        assert (engine.r, engine.wit) == (cold.r, cold.wit) and again.witness == want.witness
        assert pair_tables(engine) == pair_tables(cold)

    def test_pass_before_a_solve_leaves_it_pair_only(self, monkeypatch):
        # a lex-least pass over [1, 20] files its triples in tables of its
        # own: the engine stays pair-only, the solve to 600 after it takes
        # in pairs only, and its tables and nodes per prefix are a cold
        # engine's
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        all_extremal(eq, 20, cap=1)
        assert engine.pair_down == [0] and engine.kept is not None
        assert engine.pending == [] and engine.packing == []
        nodes = [max_avoiding(eq, m, canonical=False).nodes for m in range(21, 601)]
        assert engine.pair_down == [0] and engine.kept is not None
        cold = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 20, canonical=False)
        assert nodes == [max_avoiding(eq, m, canonical=False).nodes for m in range(21, 601)]
        assert (engine.r, engine.wit) == (cold.r, cold.wit)

    def test_pass_after_a_solve_takes_in_no_triple(self, monkeypatch):
        # after a solve to 600, all_extremal at 20 files the triples of
        # [1, 20] in tables of its own: the engine still holds no triple,
        # record or packing, and the sets are a cold engine's
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 600, canonical=False)
        sets = all_extremal(eq, 20)
        assert engine.pair_down == [0] and engine.kept is not None
        assert engine.pending == [] and engine.packing == []
        fresh_engine(monkeypatch, eq)
        assert all_extremal(eq, 20) == sets

    @pytest.mark.parametrize("n", [7, 19, 33])
    def test_canonical_shortcut_is_the_pass_witness(self, monkeypatch, n):
        # on the 86 equations a <= 3, 0 <= b <= 3, c <= 9: where the
        # ascending greedy set has r(n) elements max_avoiding returns it as
        # canonical, and the lex-least pass finds that same set
        shortcuts = 0
        for eq in grid_equations(3, 3, 9):
            engine = fresh_engine(monkeypatch, eq)
            res = max_avoiding(eq, n)
            lex = engine.maximum_sets(n, 1, search._RunState())[0]
            assert res.canonical and res.witness == search._mask_to_set(n, lex)
            shortcuts += search._greedy_mask(eq, n, range(1, n + 1)).bit_count() == res.size
        assert shortcuts == {7: 62, 19: 44, 33: 44}[n]


def stall_verdict(cliques, packing, need, cap: int = 3000) -> bool | None:
    """The fractional test's verdict within ``cap`` pivots of a simplex
    started from ``packing``: True once it settles, False once it is at its
    optimum unsettled, None past the cap."""
    return carried_verdict(search._Simplex(cliques, packing), need, cap)


def carried_verdict(lp: search._Simplex, need: int, cap: int) -> bool | None:
    """The verdict of ``lp`` within ``cap`` calls of ``pivot``, as the
    engine pivots a carried simplex: the first call takes in the cliques
    that its list has gained, and one at the optimum answers for the basis
    as it stands."""
    for _ in range(cap):
        settled = lp.pivot(need)
        if settled is not None:
            return settled
    return None


def assert_basis(lp: search._Simplex) -> None:
    """``lp`` is a basis of its columns, cliques[:len(sums)], over the rows
    up to their largest member: B^-1 inverts the basic columns, x is
    B^-1 times the all-ones bound and sums to z over the basic cliques, the
    prices are c_B B^-1, and each column's price is its members' sum."""
    cols = lp.cliques[:len(lp.sums)]
    top = max(cl[-1] for cl in cols) + 1
    assert len(lp.x) == len(lp.inv) == len(lp.basis) == len(lp.price) == top
    assert lp.on == [[j for j, cl in enumerate(cols) if v in cl] for v in range(top)]
    basic = [set(cols[j]) if j >= 0 else {~j} for j in lp.basis]  # the rows of each basic column
    for i, row in enumerate(lp.inv):
        assert len(row) == top
        want = [float(i == k) if i else 0.0 for k in range(top)]
        got = [0.0] + [sum(row[v] for v in basic[k]) for k in range(1, top)]
        assert got == pytest.approx(want, abs=1e-6), i
        assert lp.x[i] == pytest.approx(sum(row[1:]), abs=1e-6), i
        assert lp.x[i] >= -1e-6
    assert lp.z == pytest.approx(sum(y for j, y in zip(lp.basis, lp.x) if j >= 0), abs=1e-6)
    duals = [sum(row[v] for row, j in zip(lp.inv, lp.basis) if j >= 0) for v in range(top)]
    assert lp.price == pytest.approx(duals, abs=1e-6)
    assert lp.sums == pytest.approx([sum(duals[v] for v in cl) for cl in cols], abs=1e-6)


class TestFractionalStall:
    """The fractional clique-packing test: the simplex proposes, integers decide."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_settle_is_sound(self, data):
        # whenever the test settles (cliques of [1, m], need), no avoiding
        # set of [1, m] has m - need elements: over the integer cliques of
        # every regime (b = 0 included) and the congruence cliques with their
        # singletons, from the greedy packing or from none, with need up to
        # m - r(m), which no packing can prove
        eq = draw_equation(data, 12)
        if eq is None:
            return
        if data.draw(st.booleans()):
            m = data.draw(st.integers(1, 14))
            cliques, r = oracle_cliques(eq, m), exhaustive_max(eq, m)[0]
        else:
            q = data.draw(st.integers(1, 12))
            m = data.draw(st.integers(1, q))
            cliques = sorted(cl for cl in brute_congruence_cliques(eq, q) if cl[-1] <= m)
            r = brute_clique_free_max(cliques, m)
        need = data.draw(st.integers(max(0, m - r - 3), m - r))
        packing = greedy_suffix_packing(cliques) if data.draw(st.booleans()) else []
        if stall_verdict(cliques, packing, need):
            assert r <= m - need - 1, (str(eq), m, need)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_carried_simplex_never_settles_a_rise(self, data):
        # one simplex carried over the growing clique list of an equation,
        # b = 0 included, as an engine carries it: built from the greedy
        # packing at some prefix, then pivoted a few times at each prefix,
        # its first pivot call taking in the cliques that came since.  It
        # stays a basis of its cliques, and no prefix m that it settles
        # against r(m - 1) is a rise
        eq = draw_equation(data, 12)
        if eq is None:
            return
        cliques: list[tuple[int, ...]] = []
        lp, prev = None, 0
        for m in range(1, data.draw(st.integers(1, 14)) + 1):
            cliques += cliques_for(eq, m)
            r = exhaustive_max(eq, m)[0]
            if lp is None and cliques and data.draw(st.booleans()):
                lp = search._Simplex(cliques, greedy_suffix_packing(cliques))
            if lp is not None:
                assert_basis(lp)
                if carried_verdict(lp, m - prev - 1, data.draw(st.integers(1, 6))):
                    assert r == prev, (str(eq), m)
                assert len(lp.sums) == len(cliques)
                assert_basis(lp)
            prev = r

    @pytest.mark.parametrize("text,n", [("x+y=4z", 54), ("x+2y=8z", 48), ("4x+4y=3z", 48)])
    def test_the_engine_carries_one_basis(self, monkeypatch, text, n):
        # the engine's simplex after a sweep is a basis of the cliques it
        # took in at its last pivot, and extending it over the rest keeps it one
        eq = parse_equation(text)
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, n, canonical=False)
        lp = engine.lp
        assert lp is not None and lp.cliques is engine.cliques
        assert_basis(lp)
        lp.extend()
        assert len(lp.sums) == len(engine.cliques)
        assert_basis(lp)

    @pytest.mark.parametrize("text,n,nodes,builds,pivots", [
        ("x+y=4z", 54, 6831, [30], 46),  # 14 039 nodes and 110 pivots with a simplex built at every try
        ("4x+4y=3z", 48, 14608, [20, 28, 40], 56),  # 86 pivots with one built at every try
        ("x+2y=8z", 48, 2919, [27, 32, 48], 23),  # 7 987 nodes without the rebuild rule, 3 219 with a build at every try
    ])
    def test_one_simplex_serves_the_later_stalls(self, monkeypatch, text, n, nodes, builds, pivots):
        # the prefixes where a cold sweep builds its simplex: the first
        # try, and a try whose warm packing has outgrown the simplex's sum y
        # by more than one clique; every other try carries the last one
        eq = parse_equation(text)
        engine = fresh_engine(monkeypatch, eq)
        init, pivot, built, made = search._Simplex.__init__, search._Simplex.pivot, [], []

        def building(self, cliques, packing):
            built.append(len(engine.r))
            init(self, cliques, packing)

        def counting(self, need):
            made.append(pivot(self, need))
            return made[-1]

        monkeypatch.setattr(search._Simplex, "__init__", building)
        monkeypatch.setattr(search._Simplex, "pivot", counting)
        assert max_avoiding(eq, n, canonical=False).nodes == nodes
        assert built == builds and len(made) - made.count(False) == pivots

    def test_a_pivot_at_the_optimum_answers_for_the_basis(self):
        # a triangle of pairs has nu* = 3/2: pivoted to its optimum against a
        # need it cannot pass, the simplex then settles a lower need with no
        # pivot made, as a carried basis settles a later stall, and still
        # cannot settle the first; a clique appended to its list is taken in
        # by the next pivot call, which settles the first need
        lp = search._Simplex([(1, 2), (2, 3), (1, 3)], [])
        assert carried_verdict(lp, 2, 10) is False and lp.z == 1.5
        at = (list(lp.basis), list(lp.x), [list(row) for row in lp.inv], lp.z)
        assert lp.pivot(1) is True
        assert lp.pivot(2) is False
        assert (lp.basis, lp.x, lp.inv, lp.z) == at
        lp.cliques.append((4, 5))
        assert lp.pivot(2) is True and lp.z == 2.5
        assert len(lp.sums) == len(lp.cliques) == 4
        assert_basis(lp)

    def test_rows_reach_the_largest_member_of_any_column(self):
        # cliques sorted as tuples, as the oracles list them, and not by
        # largest member as the engine does: row 5 is still there
        lp = search._Simplex([(1, 5), (2, 3)], [])
        assert len(lp.x) == 6 and carried_verdict(lp, 1, 10) is True
        assert_basis(lp)

    @pytest.mark.parametrize("text,m,need,want", [
        ("x+y=4z", 52, 21, True),  # nu* = 21.5 > 21, and no integer packing has 22 cliques
        ("x+y=3z", 50, 24, False),  # nu* = 22.0: the simplex ends at its optimum
    ])
    def test_pinned_verdicts(self, text, m, need, want):
        # from the packing the engine keeps after its degree packing at m
        eq = parse_equation(text)
        engine = search._IntegerEngine(eq)
        engine.solve_to(m - 1, search._RunState())
        engine.take_in(m, search._RunState())
        assert m - engine.r[m - 1] - 1 == need
        packing = engine.degree_packing(need + 1, search._RunState())
        assert len(packing) <= need and engine.cliques == [cl for k in range(1, m + 1) for cl in cliques_for(eq, k)]
        assert stall_verdict(engine.cliques, engine.packing, need) is want

    @pytest.mark.parametrize("cliques", [
        [(1, 2, 3), (1, 4, 5)],  # meet at their smallest members
        [(1, 3, 5), (2, 3, 4)],  # at their middle members
        [(1, 2, 5), (3, 4, 5)],  # at their largest members
        [(1, 2, 3), (3, 4, 5)],  # at the largest of one and the smallest of the other
        [(1, 4), (2, 3, 4)],  # a pair and a triple
        [(2,), (1, 2)],  # a singleton and a pair
    ])
    def test_meeting_cliques_do_not_settle(self, cliques):
        # weight 1 on two cliques that meet is no packing: the load at their
        # common member is 2, so the counts prove only r(m) <= m - 1
        assert not search._counts_settle(cliques, [1.0, 1.0], 1)
        assert search._counts_settle(cliques, [1.0, 1.0], 0)

    @pytest.mark.parametrize("cliques", [
        [(1, 2), (2, 3), (1, 3)],  # a triangle of pairs: nu* = 3/2
        [(1, 2, 4), (2, 3, 5), (1, 3, 6)],  # a triangle of triples
    ])
    def test_half_weights_on_a_triangle_settle(self, cliques):
        # weight 1/2 each: every load is at most 1 and the sum is 3/2 > 1,
        # though no two of the cliques are disjoint.  The largest load
        # divides out, so weights of any scale prove as much
        assert search._counts_settle(cliques, [0.5] * 3, 1)
        assert not search._counts_settle(cliques, [0.5] * 3, 2)
        assert search._counts_settle(cliques, [3.0] * 3, 1)
        assert not search._counts_settle(cliques, [3.0, 3.0, 0.0], 1)  # two cliques that meet

    def test_weights_at_or_below_zero_count_nothing(self):
        assert not search._counts_settle([(1, 2), (3, 4)], [1.0, -1.0], 1)
        assert not search._counts_settle([(1, 2), (3, 4)], [0.0, 0.0], 0)
        assert search._counts_settle([(1, 2), (3, 4)], [1.0, 1.0], 1)


class TestAllExtremal:
    def test_singleton(self):
        fam = all_extremal(EQS["square"], 1)
        assert [s.members for s in fam.sets] == [(1,)]

    def test_family2_n3_all_verified(self):
        eq = EQS["family2"]
        fam = all_extremal(eq, 3, cap=100)
        want, masks = exhaustive_max(eq, 3)
        assert fam.size == want
        assert [s.members for s in fam.sets] == sorted(
            tuple(mask_to_set(3, m).members) for m in masks
        )
        assert all(avoids(eq, s).ok for s in fam.sets)

    def test_cap_and_truncation(self):
        eq = EQS["square"]
        _, masks = exhaustive_max(eq, 14)
        fam = all_extremal(eq, 14, cap=2)
        assert len(fam.sets) == min(2, len(masks))
        assert fam.truncated == (len(masks) > 2)
        # an instance with several extremal sets: {1,2} and {1,3} at n = 3
        fam2 = all_extremal(EQS["family2"], 3, cap=1)
        assert fam2.truncated and len(fam2.sets) == 1

    def test_sets_are_rechecked(self, monkeypatch):
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        monkeypatch.setattr(engine, "enumerate_at", lambda *args: iter([0b11111]))
        with pytest.raises(AvoidanceCheckFailed, match=r"^the witness at n=5 contains the solution \(2, 1, 1\)"):
            all_extremal(eq, 5)

    def test_empty_pass_raises(self, monkeypatch):
        # as the lex-least pass does: a solved prefix with no set of size
        # r(n) has a wrong r(n)
        eq = EQS["family1"]
        engine = fresh_engine(monkeypatch, eq)
        monkeypatch.setattr(engine, "enumerate_at", lambda *args: iter([]))
        with pytest.raises(InvariantViolation, match=r"^no avoiding set of size r\(20\) = 16 in \[1, 20\]$"):
            all_extremal(eq, 20)

    @given(eq=valid_equations(max_coef=8), n=st.integers(1, 24), k=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_first_set_is_the_canonical_witness(self, eq, n, k):
        res = max_avoiding(eq, n)
        assert res.canonical and res.witness == all_extremal(eq, n, cap=1).sets[0]
        every = all_extremal(eq, n, cap=10_000).sets
        fam = all_extremal(eq, n, cap=k)
        assert fam.sets == every[:k] and fam.truncated == (len(every) > k)

    @pytest.mark.parametrize("key", sorted(EQS))
    def test_matches_exhaustive(self, key):
        eq = EQS[key]
        for n in range(1, 12):
            want, masks = exhaustive_max(eq, n)
            fam = all_extremal(eq, n, cap=10_000)
            assert not fam.truncated
            assert [s.members for s in fam.sets] == sorted(
                tuple(mask_to_set(n, m).members) for m in masks
            )


class TestLexLeastPass:
    """A pass reads the trigger tables of exactly [1, m] and never writes to its engine."""

    @pytest.mark.parametrize("shape", ["narrow", "wide", "b = 0", "x+2y=4z", "congruence"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_pass_never_changes_its_engine(self, shape, data):
        # integer engines of narrow, wide and b = 0 equations, solved to n
        # or past it, pair-only ones among them (b = 0 and x+2y=4z settle
        # every prefix at the root), and congruence engines: passes at
        # m <= n through maximum_sets, all_extremal and canonical
        # max_avoiding, some cut by a node cap or a spent clock, leave every
        # attribute of the engine as it was
        if shape == "wide":
            t = 10**8  # min(c, a + b) > t, as in test_wide_greedy_matches_the_brute_greedy
            low = data.draw(st.tuples(st.integers(1, 6), st.integers(0, 6), st.integers(1, 6)))
            high = data.draw(st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3)))
            try:
                eq = ThreeVarEquation(*(t * h + v for h, v in zip(high, low)))
            except InvariantViolation:
                return
        elif shape == "x+2y=4z":
            eq = EQS["square"]
        else:
            eq = draw_congruence_equation(data, "b = 0" if shape == "b = 0" else "any")
            if eq is None or shape == "narrow" and not eq.b:
                return
        if shape == "congruence":
            n = data.draw(st.integers(1, 16))
            engine = search._congruence_engine(eq, n, search._RunState())
            kinds = ["sets", "density"]
        else:
            n = data.draw(st.integers(1, 24))
            engine = search._IntegerEngine(eq)
            engine.solve_to(n + data.draw(st.sampled_from([0, 1, 10])), search._RunState())
            kinds = ["sets", "all", "canonical"]
            if shape in ("b = 0", "x+2y=4z"):
                assert engine.pair_down == [0] and engine.kept is not None  # pair-only
        before = engine_state(engine)
        ops = st.tuples(st.sampled_from(kinds), st.one_of(st.just(n), st.integers(1, n)),
                        st.sampled_from([None, None, 0, 5, 50]), st.sampled_from([None, None, 0]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(search._SOLVERS, eq, engine)
            for kind, m, node_cap, time_cap in data.draw(st.lists(ops, min_size=1, max_size=3)):
                state = search._RunState(node_cap, time_cap)
                try:
                    if kind == "sets":
                        engine.maximum_sets(m, 3, state)
                    elif kind == "density":
                        search._density(eq, engine, state)
                    elif kind == "all":
                        all_extremal(eq, m, 3, node_cap=node_cap, time_cap=time_cap)
                    else:
                        max_avoiding(eq, m, node_cap=node_cap, time_cap=time_cap)
                except BudgetExceeded:
                    pass
                assert engine_state(engine) == before, (str(eq), kind, m)


class TestPairOnlyWitness:
    """While an integer engine is pair-only (``kept`` live), wit[m] is the
    ascending greedy set of [1, m]: ``max_avoiding`` returns it as the
    lex-least witness and builds no second greedy, and a cut rebuild of the
    masks behind the cheap yes leaves them as they were."""

    @given(eq=valid_equations(max_coef=12), n=st.integers(1, 80))
    @example(eq=ThreeVarEquation(1, 2, 4), n=300)
    @example(eq=ThreeVarEquation(3, 0, 2), n=300)
    @settings(max_examples=60, deadline=None)
    def test_a_pair_only_witness_is_the_ascending_greedy_set(self, eq, n):
        # each prefix of the phase is settled by the greedy's own test of m
        # (a rise) or by P (a stall), so wit[k] is the greedy set at every
        # solved k; only a triple ever needs a search, so a b = 0 engine
        # never leaves the phase
        assert search._narrow(eq)
        engine = search._IntegerEngine(eq)
        for k in range(1, n + 1):
            engine.solve_to(k, search._RunState())
            if engine.kept is None:
                assert eq.b, str(eq)
                break
            assert engine.wit[k] == search._greedy_mask(eq, k, range(1, k + 1)), (str(eq), k)

    @pytest.mark.parametrize("text", ["x+2y=4z", "3x=2z"])
    def test_a_canonical_call_builds_no_second_greedy(self, monkeypatch, text):
        # a pair-only engine's canonical witness is its own wit[n]: no
        # _greedy_mask, and no _Kept but the engine's own masks, widened at
        # m = 1, 3, 7, ..., 255; a spent budget does not stop it either
        eq = parse_equation(text)
        greedy = search._greedy_mask(eq, 300, range(1, 301))
        engine = fresh_engine(monkeypatch, eq)
        init, built = search._Kept.__init__, []

        def recorded(self, eq, n):
            built.append(self)
            init(self, eq, n)

        def no_greedy(*args):
            raise AssertionError("a second greedy")

        monkeypatch.setattr(search._Kept, "__init__", recorded)
        monkeypatch.setattr(search, "_greedy_mask", no_greedy)
        res = max_avoiding(eq, 300)
        assert res.canonical and res.nodes == 300 and res.witness == search._mask_to_set(300, greedy)
        assert [kept.n for kept in built] == [2, 6, 14, 30, 62, 126, 254, 510] and built[-1] is engine.kept
        warm = max_avoiding(eq, 120, time_cap=0)
        assert warm.optimal and warm.canonical and warm.nodes == 0 and len(built) == 8
        assert warm.witness == search._mask_to_set(120, greedy & ((1 << 120) - 1))

    def test_an_engine_past_the_phase_still_runs_the_greedy(self, monkeypatch):
        # x+2y=13z needs a search from m = 5 on, so its canonical call runs
        # the ascending greedy over [1, 30], finds it short and runs the pass
        eq = EQS["family1"]
        engine = fresh_engine(monkeypatch, eq)
        greedy, calls = search._greedy_mask, []

        def counted(eq, n, order, deadline=None):
            calls.append(n)
            return greedy(eq, n, order, deadline)

        monkeypatch.setattr(search, "_greedy_mask", counted)
        res = max_avoiding(eq, 30)
        assert engine.kept is None and search._narrow(eq) and calls == [30]
        assert res.canonical and res.size == 24 and res.witness.members[:2] == (1, 7)

    @pytest.mark.parametrize("cut, exc", [(0, MemoryError), (40, KeyboardInterrupt)], ids=["entry", "partway"])
    def test_a_cut_mask_rebuild_leaves_the_cache_consistent(self, monkeypatch, cut, exc):
        # x+2y=4z solved to 126 holds masks over [1, 126], and prefix 127
        # fills wider ones with wit[126]'s members.  An exception at that
        # fill's entry, or after cut of its 72 members, leaves the engine as
        # it was, and the next call answers as a cold engine does.  An
        # engine that kept the cut masks took 128 in beside 64 at prefix 128
        eq = EQS["square"]
        engine = fresh_engine(monkeypatch, eq)
        max_avoiding(eq, 126, canonical=False)
        assert engine.kept.n == 126 and engine.r[126] == 72
        before = engine_state(engine)
        extend, fired = search._Kept.extend, []

        def cut_fill(self, order):
            if self.n == 254 and not fired:  # the fill at prefix 127
                fired.append(self)
                members = list(order)

                def cut_short():
                    yield from members[:cut]
                    raise exc

                return extend(self, cut_short())
            return extend(self, order)

        monkeypatch.setattr(search._Kept, "extend", cut_fill)
        with pytest.raises(exc):
            max_avoiding(eq, 400, canonical=False)
        assert fired and engine_state(engine) == before
        again = max_avoiding(eq, 400, canonical=False)
        cold = fresh_engine(monkeypatch, eq)
        want = max_avoiding(eq, 400, canonical=False)
        assert again.size == want.size == 228 and again.witness == want.witness
        assert (engine.r, engine.wit) == (cold.r, cold.wit) and engine.kept is not None


class TestModularDensity:
    def test_family2_mod2(self):
        d = rho_m(EQS["family2"], 2)
        assert d.rho == Fraction(1, 2)
        assert d.witness.members == (1,)

    def test_mod1_is_zero(self):
        assert rho_m(EQS["square"], 1).rho == 0

    @pytest.mark.parametrize("b,c", [(2, 5), (3, 2), (5, 2)])
    def test_family2_pattern(self, b, c):
        # nonzero residues mod b force b | z, so rho_b = (b-1)/b
        eq = ThreeVarEquation(b, b, c)
        assert rho_m(eq, b).rho == Fraction(b - 1, b)

    def test_rho_best_examples(self):
        assert rho_best(EQS["family2"], 2).rho == Fraction(1, 2)
        assert rho_best(EQS["family2"], 1).rho == 0
        assert rho_best(EQS["square"], 8).rho >= Fraction(1, 2)

    def test_rho_best_budget_covers_the_whole_call(self, monkeypatch):
        eq = parse_equation("x+y=4z")
        shares = []
        congruence_engine = search._congruence_engine

        def counted(eq, m, state, need=0):
            before = state.nodes
            engine = congruence_engine(eq, m, state, need)
            shares.append(state.nodes - before)
            return engine

        monkeypatch.setattr(search, "_congruence_engine", counted)
        rho_best(eq, 20)
        # each modulus's share of the call fits in 200 nodes, all ten
        # together (259) do not; the Kneser cap rules out the other ten moduli
        assert len(shares) == 10 and max(shares) <= 200 < sum(shares)
        monkeypatch.setattr(search, "_congruence_engine", congruence_engine)
        with pytest.raises(BudgetExceeded):
            rho_best(eq, 20, node_cap=200)
        with pytest.raises(BudgetExceeded):
            rho_best(eq, 20, time_cap=0)

    @pytest.mark.parametrize("a,b,c", [(a, b, c) for a in range(1, 4) for b in range(3) for c in range(1, 6)
                                       if gcd(gcd(a, b), c) == 1 and a + b != c])
    def test_rho_best_is_the_first_best_rho_m(self, a, b, c):
        eq = ThreeVarEquation(a, b, c)
        want = max((rho_m(eq, m) for m in range(1, 25)), key=lambda d: d.rho)  # max keeps the first
        assert rho_best(eq, 24) == want

    def test_rho_m_reads_the_clock_once_a_prefix(self, monkeypatch):
        # one read before the set-up, then one a prefix, before it is solved:
        # the take-in of element m reads none of its own
        reads = []
        check = search._RunState.check
        monkeypatch.setattr(search._RunState, "check", lambda *args: reads.append(args[1:]) or check(*args))
        rho_m(parse_equation("x+y=4z"), 19)
        assert reads == [("modulus 19",)] + [("modulus 19, ", k) for k in range(1, 20)]

    def test_rho_m_builds_no_suffix_packing(self, monkeypatch):
        # with need 0 the suffix packing's bound never stops the sweep, as
        # rest[k] <= m - k, so rho_m builds none
        calls = []
        suffix_packing = search._suffix_packing
        monkeypatch.setattr(search, "_suffix_packing", lambda *args: calls.append(args) or suffix_packing(*args))
        want = rho_m(parse_equation("x+y=4z"), 19)
        assert calls == []
        assert rho_best(parse_equation("x+y=4z"), 19).rho >= want.rho and calls

    def test_rho_best_stops_moduli_that_cannot_win(self, monkeypatch):
        # prefixes solved, one root each: 820 = 1 + 2 + ... + 40 with every
        # modulus solved in full
        calls = []
        root = search._Core._root
        monkeypatch.setattr(search._Core, "_root", lambda *args: calls.append(1) or root(*args))
        assert rho_best(parse_equation("x+y=3z"), 40).rho == Fraction(1, 2)
        assert len(calls) == 3  # the Kneser cap rules out every m > 2
        calls.clear()
        assert rho_best(parse_equation("x+y=4z"), 40).rho == Fraction(2, 5)
        assert len(calls) == 233

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_suffix_packing_bounds_every_prefix(self, data):
        # r(m) <= r(k) + (m - k) - rest[k], where rest[k] counts the packed
        # cliques inside (k, m]: they are disjoint real cliques, and every
        # clique inside (k, m] meets one of them, singletons included
        eq = draw_equation(data, 9)
        if eq is None:
            return
        m = data.draw(st.integers(1, 16))
        real = brute_congruence_cliques(eq, m)
        packing = search._suffix_packing(eq, m, search._residue_tables(eq, m))
        assert_disjoint_real_cliques(packing, real)
        r = search._congruence_engine(eq, m, search._RunState()).r
        for k in range(m + 1):
            inside = [cl for cl in packing if cl[0] > k]
            covered = {v for cl in inside for v in cl}
            assert all(not covered.isdisjoint(cl) for cl in real if cl[0] > k)
            assert r[m] <= r[k] + (m - k) - len(inside)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_suffix_packing_is_the_greedy_over_all_cliques(self, data):
        # the top-down packing takes, at each smallest member, the clique the
        # greedy pass over the sorted clique list takes, singletons included
        shape = data.draw(st.sampled_from(["any", "b = 0", "a == b"]))
        eq = draw_congruence_equation(data, shape)
        if eq is None:
            return
        m = data.draw(st.integers(1, 30))
        want = greedy_suffix_packing(brute_congruence_cliques(eq, m))
        assert search._suffix_packing(eq, m, search._residue_tables(eq, m)) == want

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_cliques_at_each_largest_member(self, data):
        # the engine's source for prefix k: the cliques whose largest member is k
        shape = data.draw(st.sampled_from(["any", "b = 0", "a == b"]))
        eq = draw_congruence_equation(data, shape)
        if eq is None:
            return
        m = data.draw(st.integers(1, 24))
        real = brute_congruence_cliques(eq, m)
        tables = search._residue_tables(eq, m)
        for k in range(1, m + 1):
            records = search._congruence_records(eq, m, k, tables)
            assert search._cliques_of(k, *records) == sorted(cl for cl in real if cl[-1] == k)

    def test_moduli_obey_the_kneser_cap(self):
        # b >= 1: r(m) <= max(cap, (m / d) * r(d) over the divisors d < m),
        # as a set with a nontrivial period lifts from m / |period|; b = 0:
        # r(m) <= cap.  rho_best skips m when the cap is below its need, as
        # every divisor's density is at most the best by then.
        tight = 0
        for a, b, c, m_max in ([(a, b, c, 24) for a in range(1, 5) for b in range(1, 5) for c in range(1, 10)]
                               + [(a, 0, c, 30) for a in range(1, 8) for c in range(1, 10)]):
            if gcd(gcd(a, b), c) != 1 or a + b == c:
                continue
            eq = ThreeVarEquation(a, b, c)
            r = [0] * (m_max + 1)
            for m in range(1, m_max + 1):
                r[m] = rho_m(eq, m).rho * m
                lifted = [m // d * r[d] for d in range(1, m) if m % d == 0] if b else []
                bound = max([search._residue_cap(eq, m)] + lifted)
                assert r[m] <= bound, (str(eq), m)
                tight += r[m] == bound
        assert tight == 1221 + 644  # b >= 1 over 2736 (equation, m) pairs, b = 0 over 1290

    @pytest.mark.parametrize("text,m,r,cap", [
        ("x+y=7z", 7, 3, 3),  # gcd(7, 7) in the cap; without it the cap is 2
        ("3x=2z", 27, 20, 20),
        ("x+y=4z", 25, 10, 8),  # the set lifted from m = 5 beats the cap
    ])
    def test_kneser_cap_cases(self, text, m, r, cap):
        eq = parse_equation(text)
        assert rho_m(eq, m).rho * m == r and search._residue_cap(eq, m) == cap

    def test_rho_best_builds_one_witness(self, monkeypatch):
        eq = EQS["square"]
        want = rho_m(eq, 2)
        calls = []
        enumerate_at, checked = search._Core.enumerate_at, search._checked_residues
        monkeypatch.setattr(search._Core, "enumerate_at",
                            lambda *args: calls.append("enumerate_at") or enumerate_at(*args))
        monkeypatch.setattr(search, "_checked_residues", lambda *args: calls.append("check") or checked(*args))
        assert rho_best(eq, 12) == want  # 1/2 at every even m <= 12: a tie goes to the first
        assert calls == ["enumerate_at", "check"]

    def test_witness_is_integer_fraction(self):
        d = rho_m(EQS["family1"], 7)
        assert d.rho * 7 == d.witness.size

    @pytest.mark.parametrize("key", sorted(EQS))
    def test_matches_subset_scan(self, key):
        eq = EQS[key]
        for m in range(1, 13):
            size, least = brute_rho_numerator(eq, m)
            got = rho_m(eq, m)
            assert got.rho == Fraction(size, m)
            assert got.witness.members == least  # the lex-least maximum residue set

    @pytest.mark.parametrize("text,mask,solution", [("x+2y=4z", 0b11111, r"\(1, 1, 2\)"),
                                                     ("3x=2z", 0b110, r"\(2, 0, 3\)")])
    def test_witness_is_rechecked(self, monkeypatch, text, mask, solution):
        # the lex-least pass returns mask
        monkeypatch.setattr(search._Core, "enumerate_at", lambda *args: iter([mask]))
        message = rf"^residues for {re.escape(text)} modulo 5 contain the solution {solution}$"
        with pytest.raises(AvoidanceCheckFailed, match=message):
            rho_m(parse_equation(text), 5)

    def test_pass_without_a_leaf_raises(self):
        # with r(m) one too large the pass finds no residue set of that size,
        # and rho_m does not return an empty witness beside a nonzero rho
        eq = EQS["square"]
        state = search._RunState()
        engine = search._congruence_engine(eq, 8, state)
        engine.r[8] += 1
        with pytest.raises(InvariantViolation, match=r"^modulus 8, no avoiding set of size r\(8\) = \d+ in \[1, 8\]$"):
            search._density(eq, engine, state)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_congruence_cliques_match_triple_loop(self, data):
        eq = draw_equation(data, 12)
        if eq is None:
            return
        m = data.draw(st.integers(1, 30))
        got = congruence_cliques(eq, m)
        assert got == sorted(set(got))  # ascending and distinct, as rho_m relies on
        assert set(got) == brute_congruence_cliques(eq, m)

    @given(data=st.data())
    @settings(max_examples=40)
    def test_lifting_invariant(self, data):
        a = data.draw(st.integers(1, 4))
        b = data.draw(st.integers(1, 4))
        c = data.draw(st.integers(1, 5))
        if gcd(gcd(a, b), c) != 1 or a + b == c:
            return
        eq = ThreeVarEquation(a, b, c)
        m = data.draw(st.integers(1, 8))
        n = data.draw(st.integers(m, 40))
        density = rho_m(eq, m)
        residues = density.witness.member_set
        lifted = IntSet.of(n, [x for x in range(1, n + 1) if (x % m or m) in residues])
        assert avoids(eq, lifted).ok


class TestRandomAvoidingSets:
    def test_deterministic_and_avoiding(self):
        eq = EQS["family1"]
        first = random_avoiding_sets(eq, 40, 25, seed=9)
        second = random_avoiding_sets(eq, 40, 25, seed=9)
        assert [s.members for s in first] == [t.members for t in second]
        assert all(avoids(eq, s).ok for s in first)

    @pytest.mark.parametrize("eq", [ThreeVarEquation(1, 10**8, 3), ThreeVarEquation(10**8, 1, 3)])
    def test_huge_coefficient_builds_no_wide_mask(self, eq):
        # no x (or y) in [1, 5] has a*x <= c*5 - b (or b*y <= c*5 - a), so
        # the greedy's masks of that coefficient hold no member: over all of
        # [1, 5] they took 253 MB (200 MB with the huge a)
        tracemalloc.start()
        try:
            sets = random_avoiding_sets(eq, 5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [s.members for s in sets] == [(1, 2, 3, 4, 5)] * 2
        assert peak < 1 << 20

    @pytest.mark.parametrize("t", [10**8, 10**12])
    def test_huge_coefficients_build_no_wide_mask(self, t):
        # min(c, a + b) is huge, so the masks would be too: with them, at
        # t = 10^8, the random greedy peaked at 293 MB and the descending one
        # at 320 MB.  The kept set is probed instead.  In [1, 5] the
        # solutions are (z, 2z, z) for any such t
        eq = ThreeVarEquation(t, 1, t + 2)
        tracemalloc.start()
        try:
            sets = random_avoiding_sets(eq, 5, 1)
            random_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            mask = search._greedy_mask(eq, 5, range(5, 0, -1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert random_peak < 1 << 20 and peak < 1 << 20
        assert mask == brute_greedy(eq, 5, range(5, 0, -1)) == 0b11101
        assert [s.members for s in sets] == [(2, 3, 5)]

    def test_sets_are_rechecked(self, monkeypatch):
        monkeypatch.setattr(search, "_greedy_mask", lambda eq, n, order: 0b11111)
        with pytest.raises(AvoidanceCheckFailed, match=r"^the witness at n=5 contains the solution \(2, 1, 1\)"):
            random_avoiding_sets(EQS["square"], 5, 1)

    def test_seeds_differ(self):
        eq = EQS["family2"]
        a = random_avoiding_sets(eq, 30, 10, seed=1)
        b = random_avoiding_sets(eq, 30, 10, seed=2)
        assert [s.members for s in a] != [t.members for t in b]

    # (equation, n, count, seed) -> outputs of the clique-based greedy this
    # generator replaced; x+2y=4z and 2x+y=4z have the same solution sets
    PINNED = [
        ("x+2y=4z", 30, 2, 1, [
            (2, 5, 11, 12, 17, 25, 27, 29, 30),
            (3, 7, 10, 11, 12, 13, 23, 25, 27, 29),
        ]),
        ("2x+y=4z", 30, 2, 1, [
            (2, 5, 11, 12, 17, 25, 27, 29, 30),
            (3, 7, 10, 11, 12, 13, 23, 25, 27, 29),
        ]),
        ("2x+2y=5z", 40, 2, 3, [
            (2, 6, 11, 14, 15, 17, 19, 23, 25, 26, 27, 28, 30, 31, 32, 36),
            (2, 4, 13, 18, 20, 21, 23, 31, 33, 34, 35, 36, 38, 39, 40),
        ]),
        ("x+3y=9z", 36, 2, 7, [
            (2, 6, 11, 13, 17, 18, 19, 20, 22, 25, 26, 28, 30, 32, 34, 35),
            (1, 2, 5, 9, 14, 17, 19, 21, 22, 23, 25, 26, 28, 29, 32, 33, 34, 36),
        ]),
        ("3x=2z", 40, 2, 5, [
            (1, 3, 5, 6, 7, 8, 10, 11, 13, 17, 19, 20, 21, 22, 23, 24, 25, 27, 28, 29, 31,
             32, 34, 35, 37, 38, 39, 40),
            (1, 2, 4, 5, 7, 8, 9, 11, 13, 14, 15, 16, 17, 18, 19, 23, 25, 26, 28, 29, 30, 31,
             32, 33, 34, 35, 36, 37, 38, 40),
        ]),
        ("x+y=3z", 25, 2, 11, [
            (1, 4, 9, 10, 14, 19, 22, 24, 25),
            (1, 3, 5, 11, 13, 16, 18, 19, 25),
        ]),
    ]

    @pytest.mark.parametrize("text,n,count,seed,want", PINNED)
    def test_pinned_outputs_are_maximal(self, text, n, count, seed, want):
        eq = parse_equation(text)
        solvers = dict(search._SOLVERS)
        got = random_avoiding_sets(eq, n, count, seed)
        assert search._SOLVERS == solvers
        assert [s.members for s in got] == want
        for A in got:
            for e in set(range(1, n + 1)) - A.member_set:
                ok, _ = brute_avoids(eq, IntSet.of(n, A.members + (e,)))
                assert not ok, (A.members, e)


class TestRandomEquationBattery:
    def test_solver_matches_oracle_on_random_equations(self):
        rng = random.Random(405060)
        checked = 0
        while checked < 40:
            a = rng.randint(1, 5)
            b = rng.randint(0, 5)
            c = rng.randint(1, 7)
            try:
                eq = ThreeVarEquation(a, b, c)
            except InvariantViolation:
                continue
            n = rng.randint(1, 13)
            want, _ = exhaustive_max(eq, n)
            assert max_avoiding(eq, n, canonical=False).size == want, (str(eq), n)
            checked += 1


class TestTwoVarInstances:
    @pytest.mark.parametrize("a,b", [(2, 1), (3, 2)])
    def test_matches_exhaustive(self, a, b):
        eq = ThreeVarEquation(a, 0, b)
        for n in range(1, 13):
            want, _ = exhaustive_max(eq, n)
            assert max_avoiding(eq, n).size == want

    @pytest.mark.parametrize("a,b", [(2, 1), (3, 2), (5, 3)])
    def test_lex_least_closed_form(self, a, b):
        eq = ThreeVarEquation(a, 0, b)
        for n in range(1, 14):
            _, masks = exhaustive_max(eq, n)
            assert lex_least_two_var(eq, n) == min(mask_to_set(n, m).members for m in masks)
        for n in (14, 100, 333):
            res = max_avoiding(eq, n)
            assert res.canonical and res.witness.members == lex_least_two_var(eq, n)

    def test_solver_dominates_greedy_witness(self):
        rng = random.Random(0)
        for _ in range(20):
            a = rng.randint(2, 5)
            b = rng.randint(1, a - 1)
            if gcd(a, b) != 1:
                continue
            n = rng.randint(1, 60)
            eq = ThreeVarEquation(a, 0, b)
            res = max_avoiding(eq, n)
            assert avoids(eq, res.witness).ok
