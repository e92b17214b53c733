"""Pinned search work per prefix: for each instance of
``TestMaxAvoiding.PINNED_NODES``, and the x/y mirror of each asymmetric one,
the nodes and r(m) of every prefix m of a cold 1..n sweep, and the nodes and
witness of the lex-least pass at every m <= 33 of the solved engine.

``PINNED_NODES`` pins each instance's total; this file pins where the nodes
go, so an engine change that must keep the search's path shows the prefix
where it moved a node.

Regenerate the data, after a deliberate change of node counts only, with
``PYTHONPATH=src python tests/test_prefix_nodes.py --write``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from solfree import search
from solfree.equations import parse_equation
from solfree.search import max_avoiding

import test_search

DATA = Path(__file__).with_name("data") / "prefix_nodes.json"
LEX_TOP = 33
MIRRORS = [("2x+y=13z", 95), ("3x+y=9z", 60), ("4x+y=16z", 80), ("2x+y=5z", 31)]


def instances() -> list[tuple[str, int]]:
    """Each equation of ``PINNED_NODES`` at its largest n, then the mirrors."""
    top: dict[str, int] = {}
    for text, n, _ in test_search.TestMaxAvoiding.PINNED_NODES:
        top[text] = max(n, top.get(text, 0))
    return list(top.items()) + MIRRORS


def record(text: str, n: int) -> dict:
    """The pinned record of one instance, computed on a cold engine."""
    eq = parse_equation(text)
    engine = search._SOLVERS[eq] = search._integer_engine(eq)
    sweep = [max_avoiding(eq, m, canonical=False) for m in range(1, n + 1)]
    assert all(res.optimal for res in sweep), f"{text}: a prefix up to {n} hit a budget"
    lex = []
    for m in range(1, min(n, LEX_TOP) + 1):
        state = search._RunState()
        mask = engine.lex_least(m, state)
        lex.append([state.nodes, search._mask_to_set(m, mask).to_text()])
    return {
        "eq": text,
        "n": n,
        "nodes": [res.nodes for res in sweep],
        "r": [res.size for res in sweep],
        "lex": lex,
    }


def test_prefix_nodes_are_pinned(monkeypatch):
    # cold engines, which leave the solver cache to the other tests
    monkeypatch.setattr(search, "_SOLVERS", {})
    pinned = [json.loads(line) for line in DATA.read_text().splitlines()]
    assert [(rec["eq"], rec["n"]) for rec in pinned] == instances()
    for rec in pinned:
        got = record(rec["eq"], rec["n"])
        moved = [m for m, (a, b) in enumerate(zip(got["nodes"], rec["nodes"]), 1) if a != b]
        assert got == rec, f"{rec['eq']}@{rec['n']}: nodes moved at prefixes {moved[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("".join(json.dumps(record(text, n)) + "\n" for text, n in instances()))
