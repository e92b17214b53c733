"""Density gap, cube-valuation extremality, injection certificates."""
from __future__ import annotations

from fractions import Fraction

import pytest

from solfree import conjectures
from solfree.conjectures import (
    counterexample_equation,
    counterexample_gap,
    injection_certificate,
    verify_cube_set_extremal,
)
from solfree.constructions import ab_set
from solfree.equations import IntSet, avoids
from solfree.errors import InvariantViolation, NotAvoiding
from solfree.search import random_avoiding_sets

from oracles import all_avoiding_sets


class TestGap:
    def test_b2_exact_values(self):
        d_ab, d_int = counterexample_gap(2)
        assert (d_ab, d_int) == (Fraction(4, 7), Fraction(13, 40))

    def test_gap_positive_up_to_ten(self):
        for b in range(2, 11):
            d_ab, d_int = counterexample_gap(b)
            assert d_ab == Fraction(b * b, b * b + b + 1)
            assert d_ab > d_int

    def test_lost_gap_raises(self, monkeypatch):
        # the guard is a raise, not an assert, so it holds under python -O too
        monkeypatch.setattr(conjectures, "interval_density", lambda b, c: Fraction(1))
        with pytest.raises(InvariantViolation, match="does not beat"):
            counterexample_gap(2)


class TestVerifyCubeSet:
    def test_b2_small(self):
        rep = verify_cube_set_extremal(2, 14)
        assert (rep.ab_size, rep.exact_size, rep.equal) == (8, 8, True)

    def test_trivial(self):
        rep = verify_cube_set_extremal(2, 1)
        assert rep.equal and rep.ab_size == 1

    def test_b5_report_only(self):
        rep = verify_cube_set_extremal(5, 30)
        assert rep.ab_size <= rep.exact_size  # the set is avoiding, so never larger


class TestCertificates:
    def test_minimal_example(self):
        cert = injection_certificate(2, IntSet.of(8, [2]), 8)
        assert cert.mapping == ((2, 1),)

    def test_subset_of_a_gives_empty_mapping(self):
        A, _ = ab_set(2, 14)
        cert = injection_certificate(2, A, 14)
        assert cert.mapping == ()

    def test_rejects_non_avoiding(self):
        # (2, 1, 1) solves x+2y=4z
        with pytest.raises(NotAvoiding):
            injection_certificate(2, IntSet.of(8, [1, 2]), 8)

    def test_rejects_other_b(self):
        with pytest.raises(InvariantViolation):
            injection_certificate(4, IntSet.of(8, [1]), 8)

    @pytest.mark.parametrize("b,n", [(2, 11), (3, 10)])
    def test_exhaustive_small(self, b, n):
        eq = counterexample_equation(b)
        for B in all_avoiding_sets(eq, n):
            cert = injection_certificate(b, B, n)
            assert len(cert.mapping) == sum(1 for x in B.members if x not in cert.A)

    @pytest.mark.parametrize("b,n,count", [(2, 48, 150), (3, 40, 150)])
    def test_randomized(self, b, n, count):
        eq = counterexample_equation(b)
        for B in random_avoiding_sets(eq, n, count, seed=2):
            cert = injection_certificate(b, B, n)
            targets = [t for _, t in cert.mapping]
            assert len(set(targets)) == len(targets)
            assert all(t in cert.A and t not in B for t in targets)

    def test_certificate_json(self):
        cert = injection_certificate(2, IntSet.of(8, [2, 7]), 8)
        payload = cert.to_json_dict()
        assert payload["valid"] is True
        assert payload["mapping"] == [[2, 1]]
        assert payload["B"] == [2, 7]


class TestGeneratorQuality:
    def test_generator_explores(self):
        eq = counterexample_equation(2)
        sets = random_avoiding_sets(eq, 30, 80, seed=0)
        assert len({s.members for s in sets}) > 20
        assert all(avoids(eq, s).ok for s in sets)
