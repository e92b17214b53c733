"""Span tracing from outside the program, and the per-layer metrics built from it.

:meth:`Tracer.install` replaces each traced public function with a wrapper in
every ``solfree`` module that holds a reference to it, so calls made inside
the package (``search`` calling ``cliques_for``, ``family1`` calling
``avoids``, ...) are seen as well as the benchmark's own calls.  Spans are
kept in memory and handed to the parent at the end of the round.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, what to record from the return value)
TRACED = [
    ("equations", "avoids", lambda out: 0 if out.ok else 1),
    ("equations", "enumerate_solutions", len),
    ("search", "cliques_for", len),
    ("search", "congruence_cliques", None),
    ("search", "max_avoiding", lambda out: out.nodes),
    ("search", "rho_m", None),
    ("search", "rho_best", None),
    ("search", "random_avoiding_sets", None),
    ("constructions", "residue_set", None),
    ("constructions", "top_interval", None),
    ("constructions", "multi_interval", None),
    ("constructions", "best_multi_interval", None),
    ("constructions", "ab_set", None),
    ("constructions", "two_var_extremal", None),
    ("family1", "extremal_candidates", len),
    ("family1", "interval_compression", None),
    ("family2", "family2_extremal", None),
    ("conjectures", "injection_certificate", None),
]

CONSTRUCTIONS = ("residue_set", "top_interval", "multi_interval", "best_multi_interval", "ab_set",
                 "two_var_extremal")

# The lex-least pass gives up after this many nodes (solfree.search); a warm
# re-call that reports more nodes than this hit the cap.
CANONICAL_NODE_CAP = 250_000

# name, unit, better.  Every name is printed by a --trace 1 run.
PER_LAYER = [
    ("equations.avoids.calls", "count", "lower"),
    ("equations.avoids.self_ms", "ms", "lower"),
    ("equations.avoids.us_per_call", "us", "lower"),
    ("equations.avoids.reject_ratio", "ratio", "lower"),
    ("equations.enumerate_solutions.calls", "count", "lower"),
    ("equations.enumerate_solutions.self_ms", "ms", "lower"),
    ("equations.enumerate_solutions.solutions", "count", "lower"),
    ("search.cliques_for.calls", "count", "lower"),
    ("search.cliques_for.self_ms", "ms", "lower"),
    ("search.cliques_for.cliques", "count", "lower"),
    ("search.max_avoiding.calls", "count", "lower"),
    ("search.max_avoiding.self_ms", "ms", "lower"),
    ("search.max_avoiding.nodes", "count", "lower"),
    ("search.max_avoiding.us_per_node", "us", "lower"),
    ("search.canonical.ms", "ms", "lower"),
    ("search.canonical.nodes", "count", "lower"),
    ("search.canonical.capped", "count", "lower"),
    ("search.rho_m.calls", "count", "lower"),
    ("search.rho_m.self_ms", "ms", "lower"),
    ("search.congruence_cliques.self_ms", "ms", "lower"),
    ("search.random_avoiding_sets.self_ms", "ms", "lower"),
    *[(f"constructions.{fn}.{stat}", unit, "lower")
      for fn in CONSTRUCTIONS for stat, unit in (("calls", "count"), ("self_ms", "ms"))],
    ("family1.extremal_candidates.calls", "count", "lower"),
    ("family1.extremal_candidates.self_ms", "ms", "lower"),
    ("family1.extremal_candidates.kept_ratio", "ratio", "higher"),
    ("family1.interval_compression.self_ms", "ms", "lower"),
    ("family2.family2_extremal.calls", "count", "lower"),
    ("family2.family2_extremal.self_ms", "ms", "lower"),
    ("conjectures.injection_certificate.calls", "count", "lower"),
    ("conjectures.injection_certificate.self_ms", "ms", "lower"),
    ("cli.report.self_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Tracer:
    """Records one span per traced call: [parent index, name, start ns, end ns, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}

    @contextmanager
    def span(self, name: str):
        rec = [self._stack[-1] if self._stack else -1, name, time.perf_counter_ns(), 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter_ns()

    def _wrap(self, name: str, fn, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if annotate is not None:
                    rec[4] = annotate(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every TRACED function in each loaded solfree module that refers to it."""
        for module, fn_name, annotate in TRACED:
            name = f"{module}.{fn_name}"
            original = getattr(importlib.import_module(f"solfree.{module}"), fn_name)
            self.originals[name] = original
            wrapper = self._wrap(name, original, annotate)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "solfree" or mod_name.startswith("solfree."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def layer_metrics(spans: list[list], canonical: list[list], canonical_inside: bool) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``canonical`` holds [ms, nodes] for each warm ``max_avoiding(canonical=True)``
    re-call.  When the round's own max_avoiding calls ran that pass too
    (``canonical_inside``), their self time and nodes are given net of it, so
    the two layers do not overlap.  ``trace.overhead_s`` needs two runs and is
    filled in by the caller.
    """
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[0] >= 0:
            child_ns[rec[0]] += rec[3] - rec[2]
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    info: dict[str, int] = defaultdict(int)
    candidate_checks = 0
    for i, (parent, name, t0, t1, extra) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += t1 - t0 - child_ns[i]
        if extra is not None:
            info[name] += extra
        if name == "equations.avoids" and parent >= 0 and spans[parent][1] == "family1.extremal_candidates":
            candidate_checks += 1

    canonical_ms = sum(c[0] for c in canonical)
    canonical_nodes = sum(c[1] for c in canonical)
    if canonical_inside:
        self_ns["search.max_avoiding"] -= round(canonical_ms * 1e6)
        info["search.max_avoiding"] -= canonical_nodes

    def ms(name: str) -> float:
        return self_ns[name] / 1e6

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "equations.avoids.calls": calls["equations.avoids"],
        "equations.avoids.self_ms": ms("equations.avoids"),
        "equations.avoids.us_per_call": per(ms("equations.avoids") * 1e3, calls["equations.avoids"]),
        "equations.avoids.reject_ratio": per(info["equations.avoids"], calls["equations.avoids"]),
        "equations.enumerate_solutions.calls": calls["equations.enumerate_solutions"],
        "equations.enumerate_solutions.self_ms": ms("equations.enumerate_solutions"),
        "equations.enumerate_solutions.solutions": info["equations.enumerate_solutions"],
        "search.cliques_for.calls": calls["search.cliques_for"],
        "search.cliques_for.self_ms": ms("search.cliques_for"),
        "search.cliques_for.cliques": info["search.cliques_for"],
        "search.max_avoiding.calls": calls["search.max_avoiding"],
        "search.max_avoiding.self_ms": ms("search.max_avoiding"),
        "search.max_avoiding.nodes": info["search.max_avoiding"],
        "search.max_avoiding.us_per_node": per(ms("search.max_avoiding") * 1e3, info["search.max_avoiding"]),
        "search.canonical.ms": canonical_ms,
        "search.canonical.nodes": canonical_nodes,
        "search.canonical.capped": sum(1 for c in canonical if c[1] > CANONICAL_NODE_CAP),
        "search.rho_m.calls": calls["search.rho_m"],
        "search.rho_m.self_ms": ms("search.rho_m"),
        "search.congruence_cliques.self_ms": ms("search.congruence_cliques"),
        "search.random_avoiding_sets.self_ms": ms("search.random_avoiding_sets"),
        "family1.extremal_candidates.calls": calls["family1.extremal_candidates"],
        "family1.extremal_candidates.self_ms": ms("family1.extremal_candidates"),
        "family1.extremal_candidates.kept_ratio": per(info["family1.extremal_candidates"], candidate_checks),
        "family1.interval_compression.self_ms": ms("family1.interval_compression"),
        "family2.family2_extremal.calls": calls["family2.family2_extremal"],
        "family2.family2_extremal.self_ms": ms("family2.family2_extremal"),
        "conjectures.injection_certificate.calls": calls["conjectures.injection_certificate"],
        "conjectures.injection_certificate.self_ms": ms("conjectures.injection_certificate"),
        "cli.report.self_ms": ms("cli.report"),
    }
    for fn in CONSTRUCTIONS:
        out[f"constructions.{fn}.calls"] = calls[f"constructions.{fn}"]
        out[f"constructions.{fn}.self_ms"] = ms(f"constructions.{fn}")
    return out


def is_exact(name: str) -> bool:
    """Counts and ratios of counts must repeat exactly for a given seed."""
    return UNITS[name] in ("count", "ratio")
