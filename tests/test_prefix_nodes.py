"""Pinned search work per prefix: for each instance of
``TestMaxAvoiding.PINNED_NODES``, and the x/y mirror of each asymmetric one,
the nodes and r(m) of every prefix m of a cold 1..n sweep, and the nodes and
witness of the lex-least pass at every m <= 33 and at m = n of the solved
engine.

``PINNED_NODES`` pins each instance's total; this file pins where the nodes
go, so an engine change that must keep the search's path shows the prefix
where it moved a node.

Regenerate the data, after a deliberate change of node counts only, with
``PYTHONPATH=src python tests/test_prefix_nodes.py --write``.
"""
from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

from solfree import search
from solfree.equations import avoids, parse_equation
from solfree.errors import BudgetExceeded
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
    engine = search._SOLVERS[eq] = search._IntegerEngine(eq)
    sweep = [max_avoiding(eq, m, canonical=False) for m in range(1, n + 1)]
    assert all(res.optimal for res in sweep), f"{text}: a prefix up to {n} hit a budget"
    lex = []
    for m in [*range(1, min(n, LEX_TOP) + 1), n]:
        state = search._RunState()
        mask = engine.maximum_sets(m, 1, state)[0]
        lex.append([state.nodes, search._mask_to_set(m, mask).to_text()])
    return {
        "eq": text,
        "n": n,
        "nodes": [res.nodes for res in sweep],
        "r": [res.size for res in sweep],
        "lex": lex[:-1],
        "deep": lex[-1],
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


def first_leaves(engine: search._Core, n: int, node_cap: int) -> tuple[list[int], int]:
    """The first three leaves of the lex-least pass at n, or those it
    reaches within ``node_cap`` nodes, and the nodes it spent."""
    leaves, state = [], search._RunState(node_cap)
    try:
        leaves += islice(engine.enumerate_at(n, engine.r[n], state), 3)
    except BudgetExceeded:
        pass
    return leaves, state.nodes


def test_passes_on_engines_solved_past_n():
    # an engine solved 10 prefixes past n holds triggers above every pinned
    # m, and its passes read tables of exactly [1, m]: at each m they spend
    # the pinned nodes and end at the pinned witness, and at n they reach
    # the leaves of the engine solved to n alone in as many nodes
    for rec in map(json.loads, DATA.read_text().splitlines()):
        eq, n = parse_equation(rec["eq"]), rec["n"]
        engine = search._IntegerEngine(eq)
        engine.solve_to(n + 10, search._RunState())
        cold = search._IntegerEngine(eq)
        cold.solve_to(n, search._RunState())
        for m, (nodes, witness) in zip([*range(1, min(n, LEX_TOP) + 1), n], rec["lex"] + [rec["deep"]]):
            state = search._RunState()
            mask = engine.maximum_sets(m, 1, state)[0]
            assert [state.nodes, search._mask_to_set(m, mask).to_text()] == [nodes, witness], (rec["eq"], m)
        node_cap = rec["deep"][0] + 20_000
        assert first_leaves(engine, n, node_cap) == first_leaves(cold, n, node_cap), rec["eq"]


def patch_outermost(monkeypatch, name: str, wrap) -> None:
    """Patch method ``name`` of both engine classes with ``wrap(original)``,
    called for the outermost call of an engine only: the one that
    ``type(self)`` resolves to, not a ``super()`` call inside it."""
    for cls in (search._Core, search._IntegerEngine):
        original, wrapped = vars(cls)[name], wrap(vars(cls)[name])

        def outermost(self, *args, cls=cls, original=original, wrapped=wrapped):
            owner = next(k for k in type(self).__mro__ if name in vars(k))
            return (wrapped if owner is cls else original)(self, *args)

        monkeypatch.setattr(cls, name, outermost)


def test_root_ladder_spends_no_node(monkeypatch):
    # at every prefix of each pinned instance the root tests spend no node,
    # and a witness they return has the pinned r(m) members, avoids the
    # equation, and settles the prefix in the one node pinned for it; the
    # search's stall tests are set up once for each prefix, of the engine
    # or of a part, that the root leaves open, and never for a settled one.
    # One verdict is recorded per engine and prefix, the whole ladder's:
    # the integer engine's ladder asks the plain engine's cheap yes, unrecorded
    verdicts, searched = [], []

    def recording(root):
        def recorded(self, m, state):
            nodes = state.nodes
            witness = root(self, m, state)
            assert state.nodes == nodes, m
            verdicts.append((self, m, witness))
            return witness
        return recorded

    def scheduling(stall_tests):
        def scheduled(self, m, state):
            searched.append((self, m))
            return stall_tests(self, m, state)
        return scheduled

    patch_outermost(monkeypatch, "_root", recording)
    patch_outermost(monkeypatch, "_stall_tests", scheduling)
    for rec in map(json.loads, DATA.read_text().splitlines()):
        eq = parse_equation(rec["eq"])
        engine = search._IntegerEngine(eq)
        engine.solve_to(rec["n"], search._RunState())
        settled = [(m, witness) for core, m, witness in verdicts if core is engine and witness is not None]
        assert settled, rec["eq"]
        assert len({(id(core), m) for core, m, _ in verdicts}) == len(verdicts), rec["eq"]
        assert [m for core, m, _ in verdicts if core is engine] == list(range(1, rec["n"] + 1)), rec["eq"]
        for m, witness in settled:
            assert witness.bit_count() == rec["r"][m - 1] and rec["nodes"][m - 1] == 1, (rec["eq"], m)
            assert avoids(eq, search._mask_to_set(m, witness)).ok, (rec["eq"], m)
        assert searched == [(core, m) for core, m, witness in verdicts if witness is None], rec["eq"]
        verdicts.clear()
        searched.clear()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("".join(json.dumps(record(text, n)) + "\n" for text, n in instances()))
