"""Regenerate reference.json, the pinned answers the benchmark checks against.

    python3 bench/make_reference.py

Pins r(n) for n = 1..N for every equation the workloads solve, and
rho_best(eq, m_max) for every equation of the rho pool, taken from the
program at the current commit.  Every r(n) with n <= 18 and every
rho_best(eq, 8) is cross-checked by exhaustive search first; a mismatch
aborts without writing.  Run it only when the program is known to be right.
"""
from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import workloads
from check import avoids_mod, brute_force_r
from run import ROOT, _commit

BRUTE_FORCE_MAX_N = 18


def brute_force_rho(eq, m_max: int) -> tuple[int, Fraction]:
    """Best density of a residue set with no solution modulo m, over m <= m_max (first best m)."""
    best = (1, Fraction(-1))
    for m in range(1, m_max + 1):
        size = next(k for k in range(m, -1, -1)
                    if any(avoids_mod(eq, m, w) for w in itertools.combinations(range(1, m + 1), k)))
        if Fraction(size, m) > best[1]:
            best = (m, Fraction(size, m))
    return best


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from solfree import search
    from solfree.equations import ThreeVarEquation

    tops: dict = {}
    for eq, n in workloads.REPORT_POOL + workloads.DEEP_SOLVES:
        key = workloads.canonical_key(eq)
        tops[key] = max(tops.get(key, 0), n)
    r_table = {}
    for eq, top in sorted(tops.items()):
        equation = ThreeVarEquation(*eq)
        row = [0] + [search.max_avoiding(equation, n, canonical=False).size for n in range(1, top + 1)]
        for n in range(1, BRUTE_FORCE_MAX_N + 1):
            if brute_force_r(eq, n) != row[n]:
                sys.exit(f"{workloads.eq_text(eq)}: r({n}) = {row[n]} disagrees with exhaustive search")
        r_table[workloads.eq_key(eq)] = row
        print(f"{workloads.eq_text(eq)}: r(1..{top}) pinned", file=sys.stderr)

    rho = {}
    for eq in workloads.RHO_POOL:
        entry = {}
        for m_max in (workloads.RHO_TINY_M_MAX, workloads.RHO_M_MAX):
            d = search.rho_best(ThreeVarEquation(*eq), m_max)
            entry[str(m_max)] = [d.m, f"{d.rho.numerator}/{d.rho.denominator}"]
        m, density = brute_force_rho(eq, workloads.RHO_TINY_M_MAX)
        if entry[str(workloads.RHO_TINY_M_MAX)] != [m, f"{density.numerator}/{density.denominator}"]:
            sys.exit(f"{workloads.eq_text(eq)}: rho_best disagrees with exhaustive search")
        rho[workloads.eq_key(eq)] = entry

    reference = {
        "commit": _commit(),
        "brute_force_max_n": BRUTE_FORCE_MAX_N,
        "r": r_table,
        "rho_best": rho,
    }
    path = Path(__file__).resolve().parent / "reference.json"
    # one line per equation, so a change to a pinned value shows as a one-line diff
    body = ",\n".join(
        f" {json.dumps(k)}: " + (json.dumps(v) if not isinstance(v, dict) else
                                "{\n" + ",\n".join(f"  {json.dumps(ek)}: {json.dumps(ev)}"
                                                    for ek, ev in v.items()) + "\n }")
        for k, v in reference.items())
    path.write_text("{\n" + body + "\n}\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
