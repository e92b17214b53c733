"""Equation parsing, solution enumeration, and the avoidance checker."""
from __future__ import annotations

import math
import sys
import tracemalloc
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from solfree import equations
from solfree.equations import (
    Family,
    IntSet,
    Solution,
    ThreeVarEquation,
    avoids,
    enumerate_solutions,
    parse_equation,
)
from solfree.errors import InvariantViolation, MalformedEquation

from oracles import brute_avoids, brute_solutions


@st.composite
def valid_equations(draw, max_coef: int = 30, wide: bool = False) -> ThreeVarEquation:
    """Valid equations with coefficients up to max_coef; about half have b = 0.

    With ``wide``, c > a + b, and c may reach a + b + max_coef.
    """
    a = draw(st.integers(1, max_coef))
    b = draw(st.one_of(st.just(0), st.integers(1, max_coef)))
    c = draw(st.integers(a + b + 1, a + b + max_coef) if wide else st.integers(1, max_coef))
    try:
        return ThreeVarEquation(a, b, c)
    except InvariantViolation:
        assume(False)


class TestParse:
    def test_family_one(self):
        eq = parse_equation("x+2y=4z")
        assert (eq.a, eq.b, eq.c) == (1, 2, 4)
        assert eq.family is Family.FAMILY_I

    def test_family_two(self):
        eq = parse_equation("2x+2y=5z")
        assert (eq.a, eq.b, eq.c) == (2, 2, 5)
        assert eq.family is Family.FAMILY_II

    def test_invariant_equation_rejected(self):
        with pytest.raises(InvariantViolation):
            parse_equation("x+y=2z")

    def test_spaces_and_unit_coefficients(self):
        assert parse_equation(" 1x + 1y = 3z ") == ThreeVarEquation(1, 1, 3)

    def test_two_variable_degenerate(self):
        eq = parse_equation("3x=2z")
        assert eq.family is Family.TWO_VAR
        assert (eq.a, eq.b, eq.c) == (3, 0, 2)

    def test_gcd_violation(self):
        with pytest.raises(InvariantViolation):
            parse_equation("2x+2y=4z")

    def test_nonpositive_coefficient(self):
        with pytest.raises(InvariantViolation):
            parse_equation("-x+2y=4z")

    def test_garbage_rejected(self):
        for text in ("", "x+2y", "x+2y=4w", "hello", "x+2y=4z+1", "1,2,4"):
            with pytest.raises(MalformedEquation):
                parse_equation(text)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python converts digit strings of any length to int")
    def test_overlong_coefficient_is_malformed(self):
        # int() refuses more than sys.get_int_max_str_digits() digits (4 300
        # by default) with a ValueError, which the parser reports as
        # malformed text; leading zeros count too
        digits = sys.get_int_max_str_digits() + 1
        for text in ("1" * digits + "x+y=3z", "x+y=" + "0" * digits + "3z", "-" + "1" * digits + "x=2z"):
            with pytest.raises(MalformedEquation, match=r"^coefficient too long in '"):
                parse_equation(text)

    def test_other_family(self):
        assert parse_equation("2x+3y=7z").family is Family.OTHER

    def test_roundtrip_str(self):
        for text in ("x+2y=4z", "2x+2y=5z", "3x=2z", "x+y=5z"):
            eq = parse_equation(text)
            assert parse_equation(str(eq)) == eq


class TestEnumerate:
    def test_example_n5(self):
        got = enumerate_solutions(parse_equation("x+2y=4z"), 5)
        assert set(got) == {(2, 1, 1), (2, 3, 2), (4, 2, 2), (2, 5, 3), (4, 4, 3)}
        assert got == sorted(got)  # lexicographic order

    def test_no_solution_at_one(self):
        assert enumerate_solutions(parse_equation("x+2y=4z"), 1) == []

    def test_family_two_example(self):
        got = enumerate_solutions(parse_equation("2x+2y=5z"), 5)
        assert set(got) == {(2, 3, 2), (3, 2, 2), (1, 4, 2), (4, 1, 2), (5, 5, 4)}

    @pytest.mark.parametrize("text", ["x+2y=4z", "2x+2y=5z", "x+3y=9z", "3x=2z", "2x+3y=7z"])
    def test_matches_brute_force(self, text):
        eq = parse_equation(text)
        for n in range(1, 13):
            assert enumerate_solutions(eq, n) == sorted(brute_solutions(eq, n))

    def test_count_monotone_in_n(self):
        eq = parse_equation("x+2y=4z")
        counts = [len(enumerate_solutions(eq, n)) for n in range(1, 25)]
        assert counts == sorted(counts)

    def test_swap_symmetry_when_a_equals_b(self):
        eq = parse_equation("3x+3y=2z")
        sols = set(enumerate_solutions(eq, 20))
        assert all(Solution(s.y, s.x, s.z) in sols for s in sols)


class TestAvoids:
    def test_odd_set_avoids(self):
        eq = parse_equation("x+2y=4z")
        assert avoids(eq, IntSet.of(5, [1, 3, 5])).ok

    def test_first_violation(self):
        eq = parse_equation("x+2y=4z")
        check = avoids(eq, IntSet.of(2, [1, 2]))
        assert not check.ok
        assert check.violation == (2, 1, 1)

    def test_empty_set(self):
        assert avoids(parse_equation("2x+2y=5z"), IntSet(5, ())).ok

    @pytest.mark.parametrize("text", ["x+2y=4z", "2x+2y=5z", "x+2y=13z", "3x=2z"])
    @given(data=st.data())
    def test_agrees_with_enumeration(self, text, data):
        eq = parse_equation(text)
        n = data.draw(st.integers(1, 20))
        members = data.draw(st.sets(st.integers(1, n)))
        A = IntSet.of(n, members)
        inside = [
            s for s in enumerate_solutions(eq, n)
            if {s.x, s.z if eq.b == 0 else s.y, s.z} <= A.member_set
        ]
        check = avoids(eq, A)
        assert check.ok == (not inside)
        assert check.violation == (inside[0] if inside else None)

    @settings(max_examples=200)
    @given(eq=valid_equations(), wide=valid_equations(wide=True), data=st.data())
    def test_matches_quadratic_oracle(self, eq, wide, data):
        n = data.draw(st.integers(1, 300))
        picked = data.draw(st.sets(st.integers(1, n), max_size=40))
        # sparse sets mostly avoid; their complements are dense and mostly fail
        members = picked if data.draw(st.booleans()) else set(range(1, n + 1)) - picked
        A = IntSet.of(n, members)
        assert avoids(eq, A) == brute_avoids(eq, A)
        # c > a + b: the members z with c*z > (a+b)*max(A) are left out of the c-mask
        assert avoids(wide, A) == brute_avoids(wide, A)

    @pytest.mark.parametrize("members,violation", [
        ((3, 13), (13, 13, 3)),  # c*z = 39 = (a+b)*max(A): the window's last bit
        ((6, 18, 30), (18, 30, 6)),  # z = 6 = (a+b)*max(A) // c, below the last bit
        ((1, 6), (1, 6, 1)),  # b*y = 12 = c*max(z) - a: the b-mask's last member
        ((1, 11), (11, 1, 1)),  # a*x = 11 = c*max(z) - b: the last x tested
    ])
    def test_window_keeps_the_largest_reachable_z(self, members, violation):
        eq = parse_equation("x+2y=13z")
        A = IntSet(max(members), members)
        assert avoids(eq, A) == (False, violation) == brute_avoids(eq, A)

    def test_huge_b_builds_no_wide_mask(self):
        # no y in [1, 5] has b*y <= c*5 - a, so the b-mask holds no member:
        # over all of A it took 62 MB
        eq = ThreeVarEquation(1, 10**8, 3)
        tracemalloc.start()
        try:
            assert avoids(eq, IntSet.of(5, range(1, 6))).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_huge_c_builds_no_wide_mask(self):
        # the c-mask would hold bit c*4 for z = 4, 400 000 008 bits for five
        # members (it peaked at 153 MB), so the pairs are scanned instead
        eq = ThreeVarEquation(10**8, 1, 10**8 + 2)
        A = IntSet(5, (1, 2, 3, 4, 5))
        tracemalloc.start()
        try:
            check = avoids(eq, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert check == (False, (1, 2, 1)) == brute_avoids(eq, A)

    @settings(max_examples=200)
    @given(eq=valid_equations(), wide=valid_equations(wide=True), data=st.data())
    def test_pair_scan_matches_the_masks(self, eq, wide, data):
        # the pair scan that avoids falls back on gives the masks' answer,
        # the lexicographically first violation included
        n = data.draw(st.integers(1, 300))
        picked = data.draw(st.sets(st.integers(1, n), max_size=40))
        A = IntSet.of(n, picked if data.draw(st.booleans()) else set(range(1, n + 1)) - picked)
        with mock.patch.object(equations, "_PAIR_BITS", math.inf):  # the masks however wide
            masks = [avoids(form, A) for form in (eq, wide)]
        for form, check in zip((eq, wide), masks):
            if form.b:
                assert equations._avoids_by_pairs(form, A) == check

    @given(eq=valid_equations(), repeat=st.sampled_from(["x=y", "y=z", "x=z"]), k=st.integers(1, 10))
    def test_solutions_with_a_repeated_value(self, eq, repeat, k):
        # a two-element set can only hold solutions that repeat a value
        a, b, c = eq.a, eq.b, eq.c
        if repeat == "x=y" or b == 0:  # (a+b)*v = c*w: x = y = v, z = w
            p, q = c, a + b
        elif repeat == "y=z":  # a*x = (c-b)*y: y = z
            assume(c > b)
            p, q = c - b, a
        else:  # b*y = (c-a)*x: x = z
            assume(c > a)
            p, q = b, c - a
        g = gcd(p, q)
        v, w = k * p // g, k * q // g
        A = IntSet.of(max(v, w), [v, w])
        check = avoids(eq, A)
        assert not check.ok
        assert check == brute_avoids(eq, A)


class TestLinearForm:
    def test_examples(self):
        for text, coeffs, s_plus, s_minus, a_min in [
            ("2x+2y=5z", (-2, -2, 5), 5, 4, 2),
            ("x+2y=13z", (-1, -2, 13), 13, 3, 1),
            ("x+y=z", (1, 1, -1), 2, 1, 1),
            ("3x=2z", (3, -2), 3, 2, 2),
            ("2x=3z", (-2, 3), 3, 2, 2),
        ]:
            f = parse_equation(text).linear_form()
            assert f.coeffs == coeffs, text
            assert (f.s_plus, f.s_minus, f.a_min) == (s_plus, s_minus, a_min), text

    @given(valid_equations())
    def test_oriented(self, eq):
        f = eq.linear_form()
        assert f.s_plus > f.s_minus
        assert f.s == abs(eq.a + eq.b - eq.c)
        assert sorted(abs(v) for v in f.coeffs) == sorted(v for v in (eq.a, eq.b, eq.c) if v)
        negative = [eq.c] if eq.a + eq.b > eq.c else [v for v in (eq.a, eq.b) if v]
        assert f.a_min == min(negative)


class TestIntSet:
    def test_text_roundtrip(self):
        A = IntSet.from_text("1,3,5,7,9,10")
        assert A.to_text() == "1,3,5,7,9,10"
        assert A.n == 10 and A.size == 6

    def test_rejects_out_of_range(self):
        with pytest.raises(InvariantViolation):
            IntSet(3, (1, 4))

    def test_rejects_unsorted(self):
        with pytest.raises(InvariantViolation, match="strictly ascending"):
            IntSet(5, (3, 1))

    def test_rejects_a_duplicate(self):
        with pytest.raises(InvariantViolation, match="strictly ascending"):
            IntSet(5, (2, 2))

    def test_rejects_zero(self):
        with pytest.raises(InvariantViolation, match=r"members must lie in \[1, 5\]"):
            IntSet(5, (0, 2))

    def test_range_is_checked_before_order(self):
        with pytest.raises(InvariantViolation, match=r"members must lie in \[1, 3\]"):
            IntSet(3, (4, 1))

    @pytest.mark.parametrize("members", [(1, 9, 2), (2, 0, 3), (3, 4, 1)])
    def test_unsorted_set_is_range_checked_past_its_ends(self, members):
        # unsorted and out of range inside: the range message, though the
        # tuple's ends lie in [1, 3]
        with pytest.raises(InvariantViolation, match=r"members must lie in \[1, 3\]"):
            IntSet(3, members)

    def test_empty(self):
        assert IntSet.from_text("", n=4).size == 0

    def test_from_text_names_a_bad_member(self):
        with pytest.raises(InvariantViolation, match="'a'"):
            IntSet.from_text("16, a", n=20)


class TestEquationFromForm:
    @pytest.mark.parametrize("text", ["x+2y=4z", "2x+2y=5z", "x+2y=13z", "3x=2z", "x+y=5z"])
    def test_roundtrip_through_form(self, text):
        eq = parse_equation(text)
        assert eq.linear_form().eq is eq
