"""Constructions: residue classes, intervals, chains, cube-valuation sets."""
from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from solfree.constructions import (
    Interval,
    _ab_members,
    StructuredSet,
    ab_set,
    best_multi_interval,
    multi_interval,
    residue_set,
    top_interval,
    two_var_extremal,
)
from solfree import equations
from solfree.equations import AvoidanceCheck, IntSet, Solution, ThreeVarEquation, avoids, parse_equation
from solfree.errors import AvoidanceCheckFailed, Infeasible, InvariantViolation
from solfree.family1 import interval_compression
from solfree.family2 import family2_extremal
from solfree.search import max_avoiding

from oracles import exhaustive_max

FORMS = {
    "x+2y=13z": parse_equation("x+2y=13z").linear_form(),
    "x+y=3z": parse_equation("x+y=3z").linear_form(),
    "2x+2y=5z": parse_equation("2x+2y=5z").linear_form(),
    "x+y=4z": parse_equation("x+y=4z").linear_form(),
    # c < a + b: two positive coefficients
    "5x+5y=3z": parse_equation("5x+5y=3z").linear_form(),
    "3x+y=2z": parse_equation("3x+y=2z").linear_form(),
}


class TestStructuredSet:
    def test_materialize_and_size(self):
        s = StructuredSet(10, (Interval(1, 4), Interval(6, 10, closed_lo=False)), removed=(2,))
        assert s.materialize().members == (1, 3, 4, 7, 8, 9, 10)
        assert s.size == s.materialize().size

    def test_rejects_overlap(self):
        with pytest.raises(InvariantViolation):
            StructuredSet(10, (Interval(1, 5), Interval(4, 8)))

    def test_rejects_stray_removed(self):
        with pytest.raises(InvariantViolation):
            StructuredSet(10, (Interval(1, 3),), removed=(7,))

    def test_rejects_escape(self):
        for iv in (Interval(0, 3), Interval(8, 11), Interval(-1, 3, closed_lo=False)):
            with pytest.raises(InvariantViolation):
                StructuredSet(10, (iv,))
        # an empty interval holds no member, so it cannot escape or overlap
        s = StructuredSet(10, (Interval(12, 11), Interval(0, 0, closed_lo=False), Interval(1, 10)))
        assert s.size == 10

    def test_shared_end(self):
        # (3, 5] starts after [1, 3] ends, while [3, 5] holds 3 as well
        s = StructuredSet(5, (Interval(3, 5, closed_lo=False), Interval(1, 3)))
        assert s.materialize().members == (1, 2, 3, 4, 5)
        with pytest.raises(InvariantViolation):
            StructuredSet(5, (Interval(1, 3), Interval(3, 5)))

    @given(data=st.data())
    @settings(max_examples=300)
    def test_matches_naive_union(self, data):
        # consecutive cut points give intervals that share an end, are empty
        # (lo = hi, open) or overlap (a shared end closed on both sides)
        n = data.draw(st.integers(1, 20), label="n")
        cuts = sorted(data.draw(st.lists(st.integers(-1, n + 1), min_size=2, max_size=7), label="cuts"))
        intervals = [Interval(lo, hi, data.draw(st.booleans())) for lo, hi in zip(cuts, cuts[1:])
                     if data.draw(st.booleans())]
        intervals = data.draw(st.permutations(intervals), label="order")
        removed = data.draw(st.lists(st.integers(-1, n + 1), max_size=4), label="removed")
        blocks = [set(iv.members()) for iv in intervals]
        union = set().union(*blocks)
        valid = (sum(map(len, blocks)) == len(union) and union <= set(range(1, n + 1))
                 and set(removed) <= union)
        if not valid:
            with pytest.raises(InvariantViolation):
                StructuredSet(n, tuple(intervals), tuple(removed))
            return
        s = StructuredSet(n, tuple(intervals), tuple(removed))
        assert s.materialize() == IntSet(n, tuple(sorted(union - set(removed))))
        assert s.size == s.materialize().size

    def test_json_schema(self):
        s = StructuredSet(10, (Interval(6, 10, closed_lo=False),), removed=(9,))
        assert s.to_json_dict() == {
            "intervals": [{"lo": 6, "hi": 10, "closed_lo": False}],
            "removed": [9],
            "size": 3,
        }


class TestResidueSet:
    def test_examples(self):
        assert residue_set(FORMS["x+2y=13z"], 3, 10).members == (1, 4, 7, 10)
        assert residue_set(FORMS["x+y=3z"], 2, 7).members == (1, 3, 5, 7)
        assert residue_set(FORMS["2x+2y=5z"], 2, 4).members == (1, 3)

    def test_q_dividing_s_rejected(self):
        # x+y=4z has s = |1 + 1 - 4| = 2
        with pytest.raises(InvariantViolation, match=r"^q=2 divides s=2$"):
            residue_set(FORMS["x+y=4z"], 2, 10)

    def test_size_lower_bound(self):
        form = FORMS["x+2y=13z"]  # s = 10
        for q in (3, 4, 6, 7, 9):
            for n in (1, 5, 17, 40):
                A = residue_set(form, q, n)
                assert A.size >= n // q


class TestTopInterval:
    def test_examples(self):
        assert top_interval(FORMS["2x+2y=5z"], 10).members == (9, 10)
        A = top_interval(FORMS["x+y=4z"], 100)
        assert A.members[0] == 51 and A.size == 50
        assert top_interval(FORMS["x+2y=13z"], 1).members == (1,)

    def test_size_formula(self):
        for name, form in FORMS.items():
            for n in (1, 7, 23, 60):
                A = top_interval(form, n)
                assert A.size == n - form.s_minus * n // form.s_plus


class TestMultiInterval:
    def test_three_blocks_example(self):
        s = multi_interval(FORMS["x+y=4z"], 100, 3)
        assert s.size == 58
        assert [(iv.lo, iv.hi, iv.closed_lo) for iv in s.intervals] == [
            (2, 2, True), (6, 13, False), (50, 100, False)]

    def test_two_blocks_example(self):
        s = multi_interval(FORMS["2x+2y=5z"], 100, 2)
        assert s.size == 30
        assert [(iv.first, iv.hi) for iv in s.intervals] == [(38, 47), (81, 100)]

    def test_k1_degenerates_to_top_interval(self):
        for name, form in FORMS.items():
            for n in (1, 9, 33, 100):
                assert multi_interval(form, n, 1).materialize() == top_interval(form, n)

    def test_explicit_xi(self):
        s = multi_interval(FORMS["x+y=4z"], 100, 3, xi=2)
        assert s.size == 58

    def test_best_multi(self):
        k, s = best_multi_interval(FORMS["x+y=4z"], 100, 3)
        assert s.size >= 58
        k2, s2 = best_multi_interval(FORMS["2x+2y=5z"], 100, 6)
        assert s2.size < 60
        k3, s3 = best_multi_interval(FORMS["2x+2y=5z"], 1, 3)
        assert s3.materialize().members == (1,)

    def test_two_positive_coefficients_keep_one_interval(self):
        # k = 2 would hold the solution (1, 5, 10) of 5x+5y=3z
        form = FORMS["5x+5y=3z"]
        with pytest.raises(Infeasible, match="one positive coefficient"):
            multi_interval(form, 12, 2)
        k, s = best_multi_interval(form, 12, 6)
        assert k == 1 and s.materialize() == top_interval(form, 12)
        assert s.materialize().members == tuple(range(4, 13))

    @given(data=st.data())
    def test_any_valid_equation(self, data):
        a, c = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 20))
        b = data.draw(st.integers(0, 9))
        try:
            eq = ThreeVarEquation(a, b, c)
        except InvariantViolation:
            return
        form, n, k = eq.linear_form(), data.draw(st.integers(1, 150)), data.draw(st.integers(1, 6))
        best = best_multi_interval(form, n, k)[1].materialize()
        assert avoids(eq, best).ok
        xi = data.draw(st.none() | st.integers(-2, n + 2))
        try:
            multi_interval(form, n, k, xi)
        except (Infeasible, InvariantViolation):
            pass


class TestTwoVar:
    def test_example(self):
        size, A = two_var_extremal(2, 1, 10)
        assert size == 6 and A.members == (1, 3, 4, 5, 7, 9)

    def test_trivial(self):
        assert two_var_extremal(2, 1, 1) == (1, IntSet(1, (1,)))

    def test_rejects_bad_pairs(self):
        with pytest.raises(InvariantViolation):
            two_var_extremal(4, 2, 10)
        with pytest.raises(InvariantViolation):
            two_var_extremal(2, 3, 10)

    @pytest.mark.parametrize("a,b", [(2, 1), (3, 1), (3, 2), (5, 3)])
    def test_matches_exhaustive(self, a, b):
        eq = ThreeVarEquation(a, 0, b)
        for n in range(1, 13):
            want, _ = exhaustive_max(eq, n)
            size, A = two_var_extremal(a, b, n)
            assert size == want and A.size == want

    def test_matches_solver_medium(self):
        for a, b in ((3, 2), (5, 3)):
            eq = ThreeVarEquation(a, 0, b)
            for n in (25, 60, 120):
                assert two_var_extremal(a, b, n)[0] == max_avoiding(eq, n).size


class TestAbSet:
    def test_example_b2(self):
        A, d = ab_set(2, 20)
        assert A.members == (1, 3, 5, 7, 8, 9, 11, 13, 15, 17, 19)
        assert d == Fraction(4, 7)

    def test_small_prefix(self):
        A, _ = ab_set(2, 7)
        assert A.members == (1, 3, 5, 7)

    def test_b3_contains_cube(self):
        A, d = ab_set(3, 30)
        assert 27 in A and 3 not in A and 9 not in A
        assert d == Fraction(9, 13)

    def test_avoids_its_equation(self):
        for b in (2, 3, 4):
            A, _ = ab_set(b, 200)
            assert avoids(ThreeVarEquation(1, b, b * b), A).ok

    @pytest.mark.parametrize("first,then", [(3, 2), (2, 3)])
    def test_kept_sets_are_told_apart_by_b(self, first, then):
        # the kept results are keyed by (b, n), not by n alone
        ab_set.cache_clear()
        ab_set(first, 40)
        A, d = ab_set(then, 40)
        assert A == _ab_members(then, 40) and d == Fraction(then * then, then * then + then + 1)

    def test_a_kept_set_is_gated_once(self, monkeypatch):
        checker, seen = equations.avoids, []

        def recording(eq, A):
            seen.append(A)
            return checker(eq, A)

        monkeypatch.setattr(equations, "avoids", recording)
        ab_set.cache_clear()
        first, again = ab_set(2, 41), ab_set(2, 41)
        assert again is first and seen == [first[0]]

    def test_density_converges(self):
        # counting identity: |A_b ^ [1,n]| = sum_i floor(n/b^{3i}) - floor(n/b^{3i+1})
        n = 10 ** 6
        for b in (2, 3):
            # the unchecked builder: a checked ab_set cannot finish at this n
            A, d = _ab_members(b, n), ab_set(b, 1)[1]
            expected = 0
            p = 1
            while p <= n:
                expected += n // p - n // (p * b)
                p *= b ** 3
            assert A.size == expected
            assert abs(Fraction(A.size, n) - d) < Fraction(1, 1000)


class TestSolverDominates:
    @pytest.mark.parametrize("text", ["x+2y=13z", "2x+2y=5z", "x+y=3z"])
    def test_no_construction_beats_the_exact_maximum(self, text):
        eq = parse_equation(text)
        form = eq.linear_form()
        for n in (5, 17, 30):
            exact = max_avoiding(eq, n).size
            assert top_interval(form, n).size <= exact
            assert best_multi_interval(form, n, 4)[1].size <= exact
            for q in (2, 3, 5, 7):
                if abs(form.s) % q:
                    assert residue_set(form, q, n).size <= exact


class TestFuzzGuards:
    @given(data=st.data())
    @settings(max_examples=200)
    def test_every_construction_avoids(self, data):
        name = data.draw(st.sampled_from(sorted(FORMS)))
        form = FORMS[name]
        eq = parse_equation(name)
        n = data.draw(st.integers(1, 300))
        which = data.draw(st.sampled_from(
            ["residue", "top", "multi", "best_multi", "ab", "two_var", "family2"]))
        if which == "residue":
            q = data.draw(st.integers(2, 20))
            if abs(form.s) % q == 0:
                return
            A = residue_set(form, q, n)
        elif which == "top":
            A = top_interval(form, n)
        elif which == "multi":
            k = data.draw(st.integers(1, 6))
            try:
                A = multi_interval(form, n, k).materialize()
            except Infeasible:
                return
        elif which == "best_multi":
            A = best_multi_interval(form, n, data.draw(st.integers(1, 6)))[1].materialize()
        elif which == "ab":
            b = data.draw(st.integers(2, 5))
            eq, (A, _) = ThreeVarEquation(1, b, b * b), ab_set(b, n)
        elif which == "two_var":
            a = data.draw(st.integers(2, 9))
            b = data.draw(st.integers(1, a - 1))
            if gcd(a, b) != 1:
                return
            eq, (_, A) = ThreeVarEquation(a, 0, b), two_var_extremal(a, b, n)
        else:
            b = data.draw(st.integers(2, 5))
            c = data.draw(st.integers(1, 3 * b + 4))
            if gcd(b, c) != 1:
                return
            res = family2_extremal(b, c, n)
            eq, A = res.equation(), res.structured.materialize()
        assert avoids(eq, A).ok


COMPRESSION_INPUT = IntSet.of(20, range(16, 21))

# the form each form constructor is called with below
GATED_FORMS = {
    "residue_set": FORMS["x+2y=13z"],
    "top_interval": FORMS["2x+2y=5z"],
    "multi_interval": FORMS["x+y=4z"],
    "best_multi_interval": FORMS["2x+2y=5z"],
}

# every gated constructor, and the compression stages past their input check
GATED = {
    "residue_set": lambda: residue_set(GATED_FORMS["residue_set"], 3, 20),
    "top_interval": lambda: top_interval(GATED_FORMS["top_interval"], 20),
    "multi_interval": lambda: multi_interval(GATED_FORMS["multi_interval"], 100, 3),
    "best_multi_interval": lambda: best_multi_interval(GATED_FORMS["best_multi_interval"], 100, 6),
    "ab_set": lambda: ab_set(2, 20),
    "two_var_extremal": lambda: two_var_extremal(3, 2, 20),
    "family2_extremal": lambda: family2_extremal(2, 5, 20),
    "interval_compression": lambda: interval_compression(parse_equation("x+2y=13z"), COMPRESSION_INPUT),
}


class TestAvoidanceGate:
    @pytest.mark.parametrize("name", sorted(GATED))
    def test_guard_fires(self, monkeypatch, name):
        gated = []

        def planted(eq, A):  # the checker finds a solution in every set but the compression input
            if A is COMPRESSION_INPUT:
                return AvoidanceCheck(True, None)
            gated.append(eq)
            return AvoidanceCheck(False, Solution(1, 1, 1))

        monkeypatch.setattr(equations, "avoids", planted)
        ab_set.cache_clear()  # a kept A_b was gated when it was built, and is not gated again
        with pytest.raises(AvoidanceCheckFailed, match=r"\(1, 1, 1\)"):
            GATED[name]()
        if name in GATED_FORMS:  # a form constructor gates on the form's own equation
            assert len(gated) == 1 and gated[0] is GATED_FORMS[name].eq

    def test_best_multi_gates_only_the_winner(self, monkeypatch):
        checker, seen = equations.avoids, []

        def recording(eq, A):
            seen.append(A)
            return checker(eq, A)

        monkeypatch.setattr(equations, "avoids", recording)
        _, S = best_multi_interval(FORMS["2x+2y=5z"], 100, 6)
        assert seen == [S.materialize()]
