"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is exact equality or a strict inequality; nothing
is deferred to later calibration.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from solfree.conjectures import (
    counterexample_equation,
    counterexample_gap,
    injection_certificate,
)
from solfree.constructions import (
    ab_set,
    best_multi_interval,
    multi_interval,
    residue_set,
    top_interval,
    two_var_extremal,
)
from solfree.equations import ThreeVarEquation, parse_equation
from solfree.errors import AvoidanceCheckFailed, Infeasible, QDividesS
from solfree.family1 import eligible, extremal_candidates, interval_compression, min_element_stats
from solfree.family2 import closed_form_size, family2_extremal
from solfree.search import max_avoiding, random_avoiding_sets, rho_best

from oracles import all_avoiding_sets, exhaustive_max


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


FAMILY2_PAIRS = [(2, 5), (2, 7), (3, 2), (3, 4), (4, 3), (5, 2), (2, 1), (3, 1)]


def test_criterion_01_family2_exactness():
    failures = []
    for b, c in FAMILY2_PAIRS:
        eq = ThreeVarEquation(b, b, c)
        for n in range(1, 37):
            want = closed_form_size(b, c, n)
            got = max_avoiding(eq, n, canonical=False).size
            if got != want:
                failures.append((b, c, n, got, want))
    report(1, not failures,
           f"closed forms match exact maxima for {len(FAMILY2_PAIRS)} equations, n <= 36"
           + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_02_cube_set_extremality():
    failures = []
    for b, n_max in ((2, 48), (3, 40)):
        eq = counterexample_equation(b)
        for n in range(1, n_max + 1):
            ab_size = ab_set(b, n)[0].size
            exact = max_avoiding(eq, n, canonical=False).size
            if ab_size != exact:
                failures.append((b, n, ab_size, exact))
    report(2, not failures,
           "cube-valuation sets are extremal for b=2 (n<=48) and b=3 (n<=40)"
           + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_03_injection_certificates():
    bad = 0
    counts = {}
    for b, n_exhaustive, n_random in ((2, 14, 48), (3, 12, 40)):
        eq = counterexample_equation(b)
        exhaustive = all_avoiding_sets(eq, n_exhaustive)
        for B in exhaustive:
            cert = injection_certificate(b, B, n_exhaustive)
            targets = [t for _, t in cert.mapping]
            if len(set(targets)) != len(targets) or any(
                t not in cert.A or t in B for t in targets
            ):
                bad += 1
        sampled = random_avoiding_sets(eq, n_random, 500, seed=b)
        for B in sampled:
            cert = injection_certificate(b, B, n_random)
            targets = [t for _, t in cert.mapping]
            if len(set(targets)) != len(targets) or any(
                t not in cert.A or t in B for t in targets
            ):
                bad += 1
        counts[b] = (len(exhaustive), len(sampled))
    report(3, bad == 0,
           f"certificates valid on {counts[2][0]}+{counts[3][0]} exhaustive and 500+500 sampled sets, "
           f"{bad} failures")


def test_criterion_04_counterexample_gap():
    d2, i2 = counterexample_gap(2)
    ok = (d2, i2) == (Fraction(4, 7), Fraction(13, 40))
    gaps_ok = all(counterexample_gap(b)[0] > counterexample_gap(b)[1] for b in range(2, 11))
    report(4, ok and gaps_ok,
           f"b=2 densities ({d2}, {i2}); strict gap holds for 2 <= b <= 10")


def test_criterion_05_family1_desk_verification():
    assert eligible(2, 13)
    eq = parse_equation("x+2y=13z")
    equal_from = None
    history = []
    for n in range(1, 61):
        best = max((c.size for c in extremal_candidates(n, 2, 13)), default=0)
        exact = max_avoiding(eq, n, canonical=False).size
        history.append(best == exact)
    onset = 61
    for n in range(60, 0, -1):
        if not history[n - 1]:
            break
        onset = n
    report(5, onset <= 40,
           f"best two-interval candidate equals the exact maximum for all n in [{onset}, 60]; "
           f"observed onset n0 = {onset} (required <= 40)")


def test_criterion_06_compression_monotone():
    eq = parse_equation("x+2y=13z")
    violations = 0
    checked = 0
    for A in random_avoiding_sets(eq, 60, 1000, seed=13):
        if A.size == 0:
            continue
        sizes = interval_compression(eq, A).sizes
        checked += 1
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            violations += 1
    report(6, violations == 0,
           f"stage sizes nondecreasing on {checked} random avoiding sets, {violations} violations")


def test_criterion_07_crossover_window():
    violations = []
    grid = 0
    for b in (2, 3):
        for c in range(1, 41):
            if not eligible(b, c):
                continue
            for n in (100, 500, 1000, 2119):
                stats = min_element_stats(n, b, c)
                grid += 1
                if not (stats.predicted <= stats.crossover <= stats.predicted + 1):
                    violations.append((b, c, n, stats))
    report(7, not violations,
           f"crossover in [S, S+1] at all {grid} grid points, {len(violations)} violations")


def test_criterion_08_construction_fuzz():
    forms = {
        text: parse_equation(text).linear_form()
        for text in ("x+2y=13z", "x+y=3z", "2x+2y=5z", "x+y=4z", "x+3y=9z", "2x+3y=7z")
    }
    rng = random.Random(20240917)
    draws = 10_000
    guard_failures = 0
    produced = 0
    for _ in range(draws):
        kind = rng.choice(("residue", "top", "multi", "ab", "family2"))
        try:
            if kind == "residue":
                form = forms[rng.choice(sorted(forms))]
                residue_set(form, rng.randint(2, 20), rng.randint(1, 300))
            elif kind == "top":
                top_interval(forms[rng.choice(sorted(forms))], rng.randint(1, 300))
            elif kind == "multi":
                multi_interval(forms[rng.choice(sorted(forms))], rng.randint(1, 300),
                               rng.randint(1, 6))
            elif kind == "ab":
                ab_set(rng.randint(2, 6), rng.randint(1, 300))
            else:
                b = rng.randint(2, 6)
                c = rng.randint(1, 25)
                if gcd(b, c) != 1:
                    continue
                family2_extremal(b, c, rng.randint(1, 200))
            produced += 1
        except (QDividesS, Infeasible):
            continue  # invalid parameter draw, not a soundness failure
        except AvoidanceCheckFailed:
            guard_failures += 1
    report(8, guard_failures == 0,
           f"{draws} parameter draws, {produced} sets built and checker-verified, "
           f"{guard_failures} avoidance failures")


def test_criterion_09_hybrid_dominance():
    hybrid = family2_extremal(2, 5, 100)
    assert hybrid.size == 60
    form = parse_equation("2x+2y=5z").linear_form()
    _, interval_best = best_multi_interval(form, 100, 6)
    density = rho_best(parse_equation("2x+2y=5z"), 20)
    residue_bound = 100 * density.rho
    ok = hybrid.size > interval_best.size and hybrid.size > residue_bound
    report(9, ok,
           f"hybrid size 60 > best multi-interval {interval_best.size} and "
           f"> 100 * rho_best = {residue_bound}")


def test_criterion_10_two_variable_proposition():
    failures = []
    for a, b in ((2, 1), (3, 1), (3, 2), (5, 3)):
        eq = ThreeVarEquation(a, 0, b)
        for n in range(1, 201):
            size, witness = two_var_extremal(a, b, n)
            exact = max_avoiding(eq, n, canonical=False).size
            if size != exact or witness.size != size:
                failures.append((a, b, n, size, exact))
    report(10, not failures,
           "greedy chain sizes equal the exact pairwise maxima for 4 equations, n <= 200"
           + (f"; failures: {failures[:3]}" if failures else ""))


@pytest.mark.parametrize("text", ["x+2y=13z", "2x+2y=5z", "x+2y=4z"])
def test_criterion_11_oracle_cross_check(text):
    eq = parse_equation(text)
    failures = []
    for n in range(1, 19):
        want, _ = exhaustive_max(eq, n)
        got = max_avoiding(eq, n, canonical=False).size
        if got != want:
            failures.append((n, got, want))
    report(11, not failures,
           f"branch-and-bound equals the 2^n subset scan for {text}, n <= 18"
           + (f"; failures: {failures}" if failures else ""))
