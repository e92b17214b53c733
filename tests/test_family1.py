"""Eligibility, density, compression transform, candidates, solution windows."""
from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

import pytest

from solfree.equations import IntSet, parse_equation
from solfree.errors import AvoidanceCheckFailed, InvariantViolation
from solfree.family1 import (
    best_candidate,
    eligible,
    extremal_candidates,
    interval_compression,
    interval_density,
    min_element_stats,
    solution_window_deficiency,
)
from solfree.constructions import top_interval
from solfree.search import max_avoiding, random_avoiding_sets

EQ = parse_equation("x+2y=13z")


class TestEligible:
    def test_examples(self):
        assert eligible(2, 13)
        assert not eligible(2, 12)  # boundary: 12 * 1 == 12, strict inequality fails
        assert not eligible(2, 4)

    def test_square_regime_never_eligible(self):
        assert all(not eligible(b, b * b) for b in range(2, 11))


class TestIntervalDensity:
    def test_examples(self):
        assert interval_density(2, 13) == Fraction(1660, 2119)
        assert interval_density(2, 4) == Fraction(13, 40)

    def test_b3_square(self):
        assert interval_density(3, 9) == Fraction((9 - 4) * (81 - 9 + 1), 9 * (81 - 12))


class TestMinElementStats:
    def test_examples(self):
        stats = min_element_stats(1000, 2, 13)
        assert (stats.predicted, stats.crossover) == (4, 5)
        assert min_element_stats(2119, 2, 13).predicted == 9
        small = min_element_stats(13, 2, 13)
        assert small.crossover in (small.predicted, small.predicted + 1)

    def test_crossover_window_grid(self):
        for b, c_lo in ((2, 13), (3, 19)):
            for c in range(c_lo, 41):
                for n in (100, 500, 1000, 2119):
                    stats = min_element_stats(n, b, c)
                    assert stats.predicted <= stats.crossover <= stats.predicted + 1

    def test_requires_eligible(self):
        with pytest.raises(InvariantViolation):
            min_element_stats(100, 2, 4)


class TestCompression:
    def test_top_interval_trace(self):
        A = top_interval(EQ.linear_form(), 100)
        trace = interval_compression(EQ, A)
        sizes = trace.sizes
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert trace.r_seq[0] == 100
        assert trace.r_seq[-1] < trace.s
        assert trace.alpha == max(trace.l_seq[-1] + 1, trace.s)

    def test_singleton_top_element(self):
        trace = interval_compression(EQ, IntSet.of(100, [100]))
        assert all(size >= 1 for size in trace.sizes)

    def test_extremal_set_is_near_fixed_point(self):
        res = max_avoiding(EQ, 60)
        trace = interval_compression(EQ, res.witness)
        assert trace.sizes[-1] == res.size  # cannot grow past the maximum

    def test_randomized_sizes_nondecreasing(self):
        for A in random_avoiding_sets(EQ, 60, 120, seed=11):
            if A.size == 0:
                continue
            sizes = interval_compression(EQ, A).sizes
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_second_equation_grid(self):
        eq = parse_equation("x+3y=19z")
        for A in random_avoiding_sets(eq, 50, 60, seed=4):
            if A.size == 0:
                continue
            sizes = interval_compression(eq, A).sizes
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_ineligible_pair_can_shrink(self):
        eq = parse_equation("x+2y=4z")
        assert not eligible(2, 4)
        witness = max_avoiding(eq, 20).witness
        assert witness.members == (1, 3, 5, 7, 8, 9, 11, 13, 15, 17, 19)
        assert interval_compression(eq, witness).sizes == (11, 7, 7, 7)

    def test_rejects_empty_and_non_avoiding(self):
        with pytest.raises(InvariantViolation, match="nonempty"):
            interval_compression(EQ, IntSet(10, ()))
        with pytest.raises(AvoidanceCheckFailed, match=r"^input contains the solution \(9, 2, 1\) of x\+2y=13z$"):
            interval_compression(EQ, IntSet.of(10, [9, 2, 1]))

    def test_requires_family1(self):
        with pytest.raises(InvariantViolation):
            interval_compression(parse_equation("2x+2y=5z"), IntSet.of(5, [1]))


class TestCandidates:
    def test_n1000_best_size_close_to_density(self):
        cands = extremal_candidates(1000, 2, 13)
        assert cands
        best = max(c.size for c in cands)
        assert abs(best - 783) <= 2  # D(2,13) * 1000 = 783.4...

    def test_best_candidate_matches_exact_at_60(self):
        assert best_candidate(60, 2, 13).size == max_avoiding(EQ, 60).size

    def test_tiny_n_gives_empty_list(self):
        assert extremal_candidates(1, 2, 13) == []

    def test_all_candidates_avoid_and_start_at_s(self):
        for n in (40, 60, 200):
            for cand in extremal_candidates(n, 2, 13):
                assert cand.members.min() == cand.s
                assert cand.blocks.materialize() == cand.members
                from solfree.equations import avoids

                assert avoids(EQ, cand.members).ok

    def test_xi_values_unique_and_in_range(self):
        for cand in extremal_candidates(500, 2, 13):
            xi = dict(cand.xi)
            if "xi1" in xi:
                assert 1 <= xi["xi1"] <= 2
            if "xi4" in xi:
                assert 1 <= xi["xi4"] <= 1

    def test_json_shape(self):
        cand = best_candidate(60, 2, 13)
        payload = cand.to_json_dict()
        assert set(payload) == {"s", "I2", "I1", "xi", "size", "avoids"}
        assert payload["avoids"] is True

    def test_pinned_candidates(self):
        # every JSON line and member list for the bench's Family I pairs at
        # n = 1..120 and n = 1000, as the (lo, hi)-tuple implementation gave
        # them; below n = 20 some low blocks are empty
        digest = hashlib.sha256()
        count = 0
        for b, c in ((2, 13), (2, 15), (2, 17), (3, 19), (3, 22)):
            for n in [*range(1, 121), 1000]:
                for cand in extremal_candidates(n, b, c):
                    line = json.dumps(cand.to_json_dict(), sort_keys=True)
                    digest.update(f"{b},{c},{n} {line} {cand.members.to_text()}\n".encode())
                    count += 1
        assert count == 796
        assert digest.hexdigest() == "00992416eaed326035ae5bf4a6d6c3321d40a81cb5f8922b28aa36bdb2d2be1a"

    def test_pinned_candidates_at_bench_sizes(self):
        # the same record at n = 100, 643 and 2048, as materialising every
        # candidate before its membership labels gave it
        digest = hashlib.sha256()
        count = 0
        for b, c in ((2, 13), (2, 15), (2, 17), (3, 19), (3, 22)):
            for n in (100, 643, 2048):
                for cand in extremal_candidates(n, b, c):
                    line = json.dumps(cand.to_json_dict(), sort_keys=True)
                    digest.update(f"{b},{c},{n} {line} {cand.members.to_text()}\n".encode())
                    count += 1
        assert count == 44
        assert digest.hexdigest() == "8e1ba754e228aaf61dfe729c3cf4ec18984dc4b2ec38ad3d5f000a83f6d3621f"

    def test_structured_set_membership_matches_its_members(self):
        for n in (40, 643):
            for cand in extremal_candidates(n, 2, 17):
                assert [x for x in range(n + 2) if x in cand.blocks] == list(cand.members.members)

    def test_no_candidate_below_the_window_avoids(self):
        # the lemma behind the window's start: for 1 <= s <= crossover - 2 the
        # trimmed block [s, r2 - 1] and the punctured block [s, r2] - {r2 - xi1}
        # each hold a solution x + b*y = c*s; n runs to where predicted is about
        # 30, so the old window's start predicted - c is reached for small c
        def holds_solution(block, b, c, s):
            return any(c * s - b * y in block for y in block)

        checks = 0
        for b in range(2, 5):
            for c in range(1, 61):
                if not eligible(b, c):
                    continue
                top = 30 * c * (c * c - b * (b + 1)) // ((b + 1) * (b + 1))
                for n in range(1, top, top // 30 + 1):
                    stats = min_element_stats(n, b, c)
                    l1 = (b + 1) * n // c
                    for s in range(max(1, stats.predicted - c), stats.crossover - 1):
                        r2 = (l1 + b * s) // c
                        l2 = (b + 1) * r2 // c
                        xi1 = (b + 1) * r2 - c * l2
                        assert holds_solution(set(range(s, r2)), b, c, s), (b, c, n, s)
                        if 1 <= xi1 <= b:
                            punctured = set(range(s, r2 + 1)) - {r2 - xi1}
                            assert holds_solution(punctured, b, c, s), (b, c, n, s)
                        checks += 1
        assert checks == 47688

    def test_blocks_stay_apart_and_match_their_labels(self):
        # what the preconditions guarantee, so extremal_candidates does not
        # filter on it: a nonempty low block ends below l1, l1 is a member
        # exactly for the closed high variants, and r2 + 1 exactly when the
        # low block reaches it
        pairs = [(b, c) for b in range(2, 5) for c in range(1, 61) if eligible(b, c)]
        seen = 0
        for b, c in pairs:
            for n in (*range(1, 401, 13), 643, 2048):
                l1 = (b + 1) * n // c
                for cand in extremal_candidates(n, b, c):
                    low, _ = cand.blocks.intervals
                    r2 = (l1 + b * cand.s) // c
                    has_top = low.length > 0 and low.hi == r2 + 1
                    if low.length:
                        assert low.hi < l1
                    assert (l1 in cand.blocks) == (cand.high_variant in ("closed", "closed-punctured"))
                    assert ((r2 + 1) in cand.blocks) == has_top
                    seen += 1
        assert seen == 4585

    def test_best_candidate_is_compression_fixed_point(self):
        cand = best_candidate(60, 2, 13)
        trace = interval_compression(EQ, cand.members)
        assert trace.sizes[-1] == cand.size

    def test_observed_gap_constant(self):
        # report the largest |r(n) - best candidate size| over the settled range
        gaps = []
        for n in range(26, 61):
            best = best_candidate(n, 2, 13)
            exact = max_avoiding(EQ, n, canonical=False).size
            gaps.append(abs(exact - (best.size if best else 0)))
        observed = max(gaps)
        print(f"[family1] observed candidate gap constant over n in [26, 60]: {observed}")
        assert observed == 0


def window_deficiency(A, z, d):
    """The deficiency of A at z, or None when its window escapes [1, n]."""
    try:
        return solution_window_deficiency(EQ, A, z, d)
    except InvariantViolation as exc:
        if not re.fullmatch(r"window \[-?\d+, \d+\] escapes \[1, \d+\]", str(exc)):
            raise
        return None


class TestSolutionWindow:
    def test_extremal_interior_points(self):
        res = max_avoiding(EQ, 60)
        checked = 0
        for z in res.witness.members:
            count = window_deficiency(res.witness, z, 0)
            if count is None:
                continue
            checked += 1
            assert count >= 1
        assert checked > 0

    def test_singleton_window(self):
        A = IntSet.of(60, [10])
        count = solution_window_deficiency(EQ, A, 10, 0)
        assert count >= 1

    def test_fuzzed_depth_two(self):
        for A in random_avoiding_sets(EQ, 60, 60, seed=5):
            for z in A.members:
                count = window_deficiency(A, z, 2)
                if count is not None:
                    assert count >= 3

    def test_out_of_range_raises(self):
        with pytest.raises(InvariantViolation, match=r"^window \[128, 131\] escapes \[1, 60\]$"):
            solution_window_deficiency(EQ, IntSet.of(60, [30]), 30, 0)

    def test_z_must_belong(self):
        with pytest.raises(InvariantViolation):
            solution_window_deficiency(EQ, IntSet.of(60, [10]), 11, 0)
