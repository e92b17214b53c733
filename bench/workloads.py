"""Workload definitions: the fixed pools and the seeded input generator.

Nothing here imports solfree.  The benchmark parent and every child round
call :func:`make_inputs` with the same arguments and get the same plain-JSON
inputs, so the parent can check a child's outputs without trusting it.

Equations are coefficient triples ``(a, b, c)`` for ``ax + by = cz``.
Swapping ``a`` and ``b`` gives the same member sets of solutions, so r(n), the
cliques and the search tree are the same; the seed uses that to vary the
equation text the program receives without changing the amount of work.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("report-sweep", "deep-solve", "verify-fuzz")

# Seconds one round takes on the reference machine (see README.md).  A run
# makes round(seconds / ROUND_SECONDS) rounds, so the work done is a function
# of --seed and --seconds only, never of how fast the machine happens to be.
ROUND_SECONDS = {"report-sweep": 5.5, "deep-solve": 7.0, "verify-fuzz": 28.0}

# report-sweep: `solfree report --n-from 1 --n-to N` for every equation.
REPORT_POOL = [((2, 2, 5), 60), ((1, 1, 3), 50), ((1, 2, 13), 70), ((1, 3, 9), 60)]
REPORT_TINY_N = 14

# deep-solve: one cold exact solve at a large n per equation (a sparse
# Family I instance, a dense one and a Family II one), plus rho_best on two
# equations drawn from a pool whose members cost within ~10 % of each other.
DEEP_SOLVES = [((1, 2, 13), 75), ((1, 2, 4), 96), ((1, 1, 4), 54)]
DEEP_TINY_N = 18
RHO_POOL = [(1, 1, 3), (2, 2, 5), (1, 2, 4), (1, 1, 4), (1, 2, 13), (1, 3, 9)]
RHO_M_MAX = 40
RHO_TINY_M_MAX = 8
RHO_DRAWS = 2

# verify-fuzz: draws per kind per round, and the pools the parameters come from.
# best_multi_interval scans k = 1..BEST_MULTI_K_MAX.  The two heaviest kinds,
# best_multi and family1, take their parameters in pool order, so their work
# (half of the round) is the same for every seed.
FUZZ_PER_KIND = 44
FUZZ_N = (16, 2048)  # n is spread log-uniformly over this range
INJECT_N = (16, 384)  # random_avoiding_sets builds all cliques of [1, n]: O(n^2) memory
FUZZ_TINY_N = (16, 48)
FUZZ_FORMS = [(1, 2, 13), (2, 1, 13), (1, 1, 3), (2, 2, 5), (1, 1, 4), (1, 3, 9), (3, 1, 9),
              (2, 3, 7), (3, 2, 7)]
# largest k for which multi_interval is feasible at every n in FUZZ_N
MULTI_K_MAX = {(1, 2, 13): 1, (1, 1, 3): 3, (2, 2, 5): 4, (1, 1, 4): 2, (1, 3, 9): 2, (2, 3, 7): 3}
BEST_MULTI_K_MAX = 6
AB_B = [2, 3, 4, 5]
TWO_VAR = [(a, b) for a in range(2, 10) for b in range(1, a) if math.gcd(a, b) == 1]
FAMILY2 = [(b, c) for b in range(2, 6) for c in range(1, 3 * b + 5) if math.gcd(b, c) == 1]
FAMILY1 = [(2, 13), (2, 15), (2, 17), (3, 19), (3, 22)]  # all satisfy c(b-1) > (b+1)b^2
INJECT_B = [2, 3]  # every inject draw certifies random sets for each b
INJECT_SETS = 3
FUZZ_KINDS = ("residue", "top", "multi", "best_multi", "ab", "two_var", "family2", "family1",
              "inject")


def eq_text(eq) -> str:
    """The program's own rendering of ax+by=cz (coefficient 1 omitted)."""
    a, b, c = eq

    def coef(v: int) -> str:
        return "" if v == 1 else str(v)

    return f"{coef(a)}x+{coef(b)}y={coef(c)}z"


def canonical_key(eq) -> tuple[int, int, int]:
    """The same triple for an equation and its x/y swap."""
    a, b, c = eq
    return (min(a, b), max(a, b), c)


def eq_key(eq) -> str:
    """Reference-table key shared by an equation and its x/y swap."""
    return ",".join(map(str, canonical_key(eq)))


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _orient(rng: random.Random, eq):
    a, b, c = eq
    return (b, a, c) if rng.random() < 0.5 else (a, b, c)


def _grid(count: int, lo: int, hi: int) -> list[int]:
    """Log-uniform sizes: the centre of each of `count` equal strata of log n.

    Cost grows like n^2 and, for some kinds, jumps with the arithmetic of n
    (extremal_candidates finds 2 to 6 candidates at neighbouring n), so the
    few largest draws carry most of the work.  Fixed sizes keep the work of
    every seed the same; the seed draws the parameters instead.
    """
    return [round(lo * (hi / lo) ** ((i + 0.5) / count)) for i in range(count)]


def _cycled(rng: random.Random | None, pool: list, count: int) -> list:
    """The pool, in seeded order (or as listed when rng is None), repeated to
    `count` picks, so every entry of a small pool appears among the few
    largest draws."""
    order = list(pool)
    if rng is not None:
        rng.shuffle(order)
    return [order[i % len(order)] for i in range(count)]


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Plain-JSON inputs for one workload; the same (workload, seed, tiny) gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "report-sweep":
        pool = [(_orient(rng, eq), REPORT_TINY_N if tiny else n) for eq, n in REPORT_POOL]
        rng.shuffle(pool)
        return {"sweeps": [[list(eq), n] for eq, n in pool]}
    if workload == "deep-solve":
        ops = [["solve", list(_orient(rng, eq)), DEEP_TINY_N if tiny else n] for eq, n in DEEP_SOLVES]
        m_max = RHO_TINY_M_MAX if tiny else RHO_M_MAX
        ops += [["rho", list(_orient(rng, eq)), m_max] for eq in rng.sample(RHO_POOL, RHO_DRAWS)]
        rng.shuffle(ops)
        return {"ops": ops}
    if workload == "verify-fuzz":
        return {"draws": _fuzz_draws(rng, tiny)}
    raise ValueError(f"unknown workload {workload!r}")


def _fuzz_draws(rng: random.Random, tiny: bool) -> list[dict]:
    per_kind = 1 if tiny else FUZZ_PER_KIND
    lo, hi = FUZZ_TINY_N if tiny else FUZZ_N
    draws: list[dict] = []
    for kind in FUZZ_KINDS:
        ns = _grid(per_kind, lo, min(hi, INJECT_N[1]) if kind == "inject" else hi)
        if kind in ("residue", "top", "best_multi"):
            forms = _cycled(None if kind == "best_multi" else rng, FUZZ_FORMS, per_kind)
            params = [{"eq": list(eq)} for eq in forms]
            if kind == "residue":
                for p in params:
                    a, b, c = p["eq"]
                    p["q"] = rng.choice([q for q in range(2, 21) if abs(a + b - c) % q])
        elif kind == "multi":
            forms = [eq for eq in FUZZ_FORMS if canonical_key(eq) in MULTI_K_MAX]
            params = [{"eq": list(eq), "k": rng.randint(1, MULTI_K_MAX[canonical_key(eq)])}
                      for eq in _cycled(rng, forms, per_kind)]
        elif kind == "ab":
            params = [{"b": b} for b in _cycled(rng, AB_B, per_kind)]
        elif kind == "two_var":
            params = [{"a": a, "b": b} for a, b in _cycled(rng, TWO_VAR, per_kind)]
        elif kind == "family2":
            params = [{"b": b, "c": c} for b, c in _cycled(rng, FAMILY2, per_kind)]
        elif kind == "family1":
            params = [{"b": b, "c": c} for b, c in _cycled(None, FAMILY1, per_kind)]
        else:  # inject: both b at every n, so the largest clique build is the same for every seed
            params = [{"seeds": [rng.randrange(2**31) for _ in INJECT_B]} for _ in range(per_kind)]
        for n, p in zip(ns, params):
            draws.append({"kind": kind, "n": n, **p})
    # largest first: random_avoiding_sets then builds each equation's cliques
    # once, instead of a seed-dependent number of times
    draws.sort(key=lambda d: -d["n"])
    return draws


def op_specs(workload: str, inputs: dict) -> dict:
    """Key of every operation a round performs, in order, mapped to the input it is made from."""
    if workload == "report-sweep":
        return {f"{eq_text(eq)}@{n}": (eq, n) for eq, top in inputs["sweeps"] for n in range(1, top + 1)}
    if workload == "deep-solve":
        return {f"{kind}:{eq_text(eq)}@{n}": (kind, eq, n) for kind, eq, n in inputs["ops"]}
    return {f"{i}:{d['kind']}@{d['n']}": d for i, d in enumerate(inputs["draws"])}


def canonical_specs(workload: str, inputs: dict) -> dict:
    """The exact solves a round makes, keyed like op_specs; traced rounds re-call
    each with canonical=True to time the lex-least pass."""
    specs = op_specs(workload, inputs)
    if workload == "report-sweep":
        return {f"canonical:{key}": spec for key, spec in specs.items()}
    if workload == "deep-solve":
        return {f"canonical:{key}": (eq, n) for key, (kind, eq, n) in specs.items() if kind == "solve"}
    return {}
