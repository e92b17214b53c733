"""Every precondition guard raises its documented class and message."""
from __future__ import annotations

import math

import pytest

from solfree import search
from solfree.conjectures import (
    counterexample_equation,
    counterexample_gap,
    injection_certificate,
    verify_cube_set_extremal,
)
from solfree.constructions import (
    ab_set,
    best_multi_interval,
    multi_interval,
    residue_set,
    top_interval,
    two_var_extremal,
)
from solfree.equations import IntSet, ThreeVarEquation, enumerate_solutions, parse_equation
from solfree.errors import BudgetExceeded, InvariantViolation, MalformedEquation
from solfree.family1 import eligible, interval_compression, min_element_stats, solution_window_deficiency
from solfree.family2 import family2_extremal
from solfree.search import all_extremal, max_avoiding, random_avoiding_sets, rho_best, rho_m

EQ = parse_equation("x+2y=13z")
FORM = EQ.linear_form()

GUARDS = {
    "residue_set q": (lambda: residue_set(FORM, 1, 10), InvariantViolation, "q must be at least 2, got 1"),
    "residue_set n": (lambda: residue_set(FORM, 3, 0), InvariantViolation, "n must be positive, got 0"),
    "top_interval n": (lambda: top_interval(FORM, 0), InvariantViolation, "n must be positive, got 0"),
    "multi_interval k": (lambda: multi_interval(FORM, 10, 0), InvariantViolation, "k must be positive, got 0"),
    "multi_interval n": (lambda: multi_interval(FORM, 0, 1), InvariantViolation, "n must be positive, got 0"),
    "best_multi_interval k_max": (lambda: best_multi_interval(FORM, 10, 0), InvariantViolation,
                                  "k_max must be positive, got 0"),
    "two_var_extremal n": (lambda: two_var_extremal(2, 1, 0), InvariantViolation, "n must be positive, got 0"),
    "ab_set b": (lambda: ab_set(1, 10), InvariantViolation, "b must be at least 2, got 1"),
    "ab_set n": (lambda: ab_set(2, 0), InvariantViolation, "n must be positive, got 0"),
    "IntSet n": (lambda: IntSet(0, ()), InvariantViolation, "bound must be positive, got 0"),
    "ThreeVarEquation two-var a": (lambda: ThreeVarEquation(0, 0, 3), InvariantViolation,
                                   "coefficients must be positive"),
    "ThreeVarEquation a": (lambda: ThreeVarEquation(0, 1, 3), InvariantViolation, "coefficients must be positive"),
    "ThreeVarEquation two-var gcd": (lambda: ThreeVarEquation(2, 0, 4), InvariantViolation, "gcd(2,0,4) must be 1"),
    "ThreeVarEquation two-var invariant": (lambda: ThreeVarEquation(1, 0, 1), InvariantViolation,
                                           "x=z is translation-invariant (a+b=c)"),
    "parse_equation invariant": (lambda: parse_equation("x+y=2z"), InvariantViolation,
                                 "x+y=2z is translation-invariant (a+b=c)"),
    "parse_equation zero": (lambda: parse_equation("x+0y=4z"), InvariantViolation,
                            "nonpositive coefficient in 'x+0y=4z'"),
    "parse_equation repeated": (lambda: parse_equation("2x=3x"), MalformedEquation,
                                "repeated variable in '2x=3x'"),
    "parse_equation negative": (lambda: parse_equation("-x=2z"), InvariantViolation,
                                "nonpositive coefficient in '-x=2z'"),
    "parse_equation order": (lambda: parse_equation("y+x=3z"), MalformedEquation,
                             "expected variables in x, y, z order in 'y+x=3z'"),
    "enumerate_solutions n": (lambda: enumerate_solutions(EQ, 0), InvariantViolation, "n must be positive, got 0"),
    "eligible b": (lambda: eligible(1, 13), InvariantViolation, "b must be at least 2, got 1"),
    "eligible c": (lambda: eligible(2, 0), InvariantViolation, "c must be positive, got 0"),
    "min_element_stats n": (lambda: min_element_stats(0, 2, 13), InvariantViolation, "n must be positive, got 0"),
    "interval_compression c": (lambda: interval_compression(parse_equation("x+3y=2z"), IntSet.of(5, [5])),
                               InvariantViolation, "compression needs c > b+1, got b=3, c=2"),
    "solution_window_deficiency d": (lambda: solution_window_deficiency(EQ, IntSet.of(60, [10]), 10, -1),
                                     InvariantViolation, "d must be nonnegative, got -1"),
    "family2_extremal n": (lambda: family2_extremal(2, 5, 0), InvariantViolation, "n must be positive, got 0"),
    "counterexample_equation b": (lambda: counterexample_equation(1), InvariantViolation,
                                  "b must be at least 2, got 1"),
    "counterexample_gap b": (lambda: counterexample_gap(1), InvariantViolation, "b must be at least 2, got 1"),
    "injection_certificate bound": (lambda: injection_certificate(2, IntSet.of(10, [9]), 8), InvariantViolation,
                                    "B escapes [1, 8]"),
    "verify_cube_set_extremal budget": (lambda: verify_cube_set_extremal(2, 30, node_cap=0), BudgetExceeded,
                                        "exact search for b=2, n=30 exceeded its budget"),
    "all_extremal cap": (lambda: all_extremal(EQ, 5, 0), InvariantViolation, "cap must be positive, got 0"),
    "all_extremal n": (lambda: all_extremal(EQ, 0), InvariantViolation, "n must be positive, got 0"),
    "all_extremal negative n": (lambda: all_extremal(EQ, -1), InvariantViolation, "n must be positive, got -1"),
    # x+2y=4z settles every prefix at its root, so the budget runs out on a
    # prefix that costs one node and no search
    "all_extremal node_cap": (lambda: all_extremal(parse_equation("x+2y=4z"), 50, node_cap=10), BudgetExceeded,
                              "node budget 10 exceeded at prefix 11"),
    # the clock reads before a modulus's set-up, before each prefix and
    # before each element taken in; the node budget is named when it is spent
    "all_extremal time_cap": (lambda: all_extremal(EQ, 10, time_cap=0), BudgetExceeded,
                              "time budget exceeded at prefix 1"),
    "all_extremal search node_cap": (lambda: all_extremal(parse_equation("x+y=4z"), 40, node_cap=100),
                                     BudgetExceeded, "node budget 100 exceeded at prefix 19"),
    "rho_m time_cap": (lambda: rho_m(EQ, 10, time_cap=0), BudgetExceeded, "time budget exceeded at modulus 10"),
    "rho_best node_cap": (lambda: rho_best(EQ, 10, node_cap=0), BudgetExceeded,
                          "node budget 0 exceeded at modulus 1, prefix 1"),
    "max_avoiding time_cap": (lambda: max_avoiding(EQ, 10, time_cap=math.nan), InvariantViolation,
                              "time budget must be a number, got nan"),
    "rho_m m": (lambda: rho_m(EQ, 0), InvariantViolation, "m must be positive, got 0"),
    "rho_best m_max": (lambda: rho_best(EQ, 0), InvariantViolation, "m_max must be positive, got 0"),
    "random_avoiding_sets n": (lambda: random_avoiding_sets(EQ, 0, 1), InvariantViolation,
                               "n must be positive, got 0"),
    "random_avoiding_sets negative n": (lambda: random_avoiding_sets(EQ, -3, 1), InvariantViolation,
                                        "n must be positive, got -3"),
    "random_avoiding_sets count": (lambda: random_avoiding_sets(EQ, 10, -1), InvariantViolation,
                                   "count must be nonnegative, got -1"),
}


@pytest.mark.parametrize("call,error,message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_class_and_message(monkeypatch, call, error, message):
    # a cold solver cache: an engine that earlier tests solved past n = 30
    # would answer verify_cube_set_extremal with no nodes and no budget hit
    monkeypatch.setattr(search, "_SOLVERS", {})
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
