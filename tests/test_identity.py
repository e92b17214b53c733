"""Pinned answers over a grid of equations: r(1..33), the lex-least witness
at n = 33 and ``rho_best(eq, 12)``, for every valid equation with a <= 6,
0 <= b <= 6 and c <= 9.

Every pinned witness is the lexicographically least maximum set, so the data
depends on the answers alone, not on the order in which the engine searches.
A change to the engine that keeps its answers keeps this file passing.

Regenerate the data, after a deliberate change of answers only, with
``PYTHONPATH=src python tests/test_identity.py --write``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from solfree import search
from solfree.equations import IntSet, ThreeVarEquation, parse_equation
from solfree.search import max_avoiding, rho_best

from oracles import brute_avoids
from test_search import grid_equations

DATA = Path(__file__).with_name("data") / "grid_answers.json"
N = 33
M_MAX = 12


def answers(eq: ThreeVarEquation) -> dict:
    """The pinned record of one equation, computed by the solver."""
    top = max_avoiding(eq, N)
    assert top.optimal and top.canonical, f"{eq}: n = {N} not solved to its lex-least witness"
    sizes = [max_avoiding(eq, n, canonical=False).size for n in range(1, N)] + [top.size]
    rho = rho_best(eq, M_MAX)
    return {
        "eq": str(eq),
        "r": sizes,
        "witness": top.witness.to_text(),
        "rho": [rho.m, str(rho.rho), rho.witness.to_text()],
    }


def test_grid_answers_are_pinned(monkeypatch):
    # cold engines, which leave the solver cache to the other tests
    monkeypatch.setattr(search, "_SOLVERS", {})
    lines = DATA.read_text().splitlines()
    pinned = [json.loads(line) for line in lines]
    assert [rec["eq"] for rec in pinned] == [str(eq) for eq in grid_equations(6, 6, 9)]
    for rec in pinned:
        eq = parse_equation(rec["eq"])
        assert answers(eq) == rec, f"first equation whose answers differ: {eq}"


def test_pinned_witnesses_avoid_and_have_r_members():
    for line in DATA.read_text().splitlines():
        rec = json.loads(line)
        eq = parse_equation(rec["eq"])
        witness = IntSet.from_text(rec["witness"], N)
        assert brute_avoids(eq, witness)[0], f"{eq}: the pinned witness holds a solution"
        assert witness.size == rec["r"][-1], f"{eq}: the pinned witness does not have r({N}) members"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("".join(json.dumps(answers(eq)) + "\n" for eq in grid_equations(6, 6, 9)))
