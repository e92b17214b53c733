"""One benchmark round in a fresh interpreter (started by run.py).

    python3 bench/child.py --workload NAME --seed N --spawned-at T [--tiny] [--trace] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, the solfree import and
input generation.  The round runs its workload once with an empty solver
cache and prints one JSON object: set-up and run time, peak RSS, every
operation's latency and output, and (with ``--trace``) the spans.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads
from check import brute_force_r

ROOT = Path(__file__).resolve().parents[1]


class _StampedLines:
    """Stand-in for sys.stdout that records when each complete line was written."""

    def __init__(self):
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._partial = ""

    def write(self, text: str) -> int:
        now = time.perf_counter()
        self._partial += text
        *done, self._partial = self._partial.split("\n")
        for line in done:
            self.lines.append(line.rstrip("\r"))
            self.stamps.append(now)
        return len(text)

    def flush(self) -> None:
        pass


# Reported times are seconds at the speed at which the probe takes this long.
# It only sets their scale: on the reference VM the probe read 45-80 ms.
PROBE_REF_S = 0.065
FUZZ_LAP_S = 0.5  # verify-fuzz probes the speed after at least this much work


def speed_probe() -> float:
    """Seconds taken by a fixed piece of benchmark-own work (an exhaustive search)."""
    start = time.perf_counter()
    brute_force_r((1, 1, 3), 26)
    return time.perf_counter() - start


class Clock:
    """Times a round in segments separated by speed probes.

    On the shared reference VM the same work runs up to 1.5x slower from one
    second to the next.  Each segment's wall time, and the latency of every
    operation in it, is scaled by PROBE_REF_S over the mean of the probes on
    either side, which cancels most of that swing.  The probe is benchmark
    code, so a change to solfree does not move it.  Probes are not timed.
    """

    def __init__(self, probe: float):
        self.ops: list[dict] = []
        self.wall_s = 0.0
        self.run_s = 0.0
        self.probes = [probe]
        self._open = 0
        self._start = time.perf_counter()

    def since_lap(self) -> float:
        return time.perf_counter() - self._start

    def lap(self) -> None:
        wall = self.since_lap()
        self.probes.append(speed_probe())
        factor = PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
        self.wall_s += wall
        self.run_s += wall * factor
        for op in self.ops[self._open:]:
            op["ms"] *= factor
        self._open = len(self.ops)
        self._start = time.perf_counter()


def _members(intset) -> list[int]:
    return list(intset.members)


def run_report(inputs: dict, span, clock: Clock) -> None:
    from solfree import cli

    ops = clock.ops
    for eq, top in inputs["sweeps"]:
        text = workloads.eq_text(eq)
        sink = _StampedLines()
        stdout = sys.stdout
        sys.stdout = sink
        start = time.perf_counter()
        err = None
        try:
            with span("cli.report"):
                cli.main(args=["report", "--eq", text, "--n-from", "1", "--n-to", str(top)],
                         prog_name="solfree", standalone_mode=False)
        except Exception as exc:  # recorded as a failed operation, checked by the parent
            err = repr(exc)
        finally:
            sys.stdout = stdout
        prev = start
        for line, stamp in zip(sink.lines[1:], sink.stamps[1:]):  # [0] is the CSV header
            n = line.split(",")[1]
            ops.append({"key": f"{text}@{n}", "ms": (stamp - prev) * 1e3, "out": line})
            prev = stamp
        if err:
            ops.append({"key": f"{text}:error", "ms": 0.0, "err": err})
        clock.lap()


def run_deep(inputs: dict, span, clock: Clock) -> None:
    from solfree import search
    from solfree.equations import ThreeVarEquation

    ops = clock.ops
    for kind, eq, n in inputs["ops"]:
        key = f"{kind}:{workloads.eq_text(eq)}@{n}"
        equation = ThreeVarEquation(*eq)
        start = time.perf_counter()
        try:
            if kind == "solve":
                res = search.max_avoiding(equation, n, canonical=False)
            else:
                res = search.rho_best(equation, n)
        except Exception as exc:
            ops.append({"key": key, "ms": (time.perf_counter() - start) * 1e3, "err": repr(exc)})
            clock.lap()
            continue
        ms = (time.perf_counter() - start) * 1e3
        if kind == "solve":
            out = {"size": res.size, "optimal": res.optimal, "nodes": res.nodes,
                   "witness": _members(res.witness)}
        else:
            out = {"m": res.m, "rho": f"{res.rho.numerator}/{res.rho.denominator}",
                   "witness": _members(res.witness)}
        ops.append({"key": key, "ms": ms, "out": out})
        clock.lap()


def _fuzz_call(d: dict):
    """Run one draw; returns a callable that turns the raw results into plain JSON."""
    from solfree import conjectures, constructions, family1, family2, search
    from solfree.equations import ThreeVarEquation

    kind, n = d["kind"], d["n"]
    if kind in ("residue", "top", "multi", "best_multi"):
        form = ThreeVarEquation(*d["eq"]).linear_form()
        if kind == "residue":
            A = constructions.residue_set(form, d["q"], n)
            return lambda: {"set": _members(A)}
        if kind == "top":
            A = constructions.top_interval(form, n)
            return lambda: {"set": _members(A)}
        if kind == "multi":
            S = constructions.multi_interval(form, n, d["k"])
            return lambda: {"size": S.size, "set": _members(S.materialize())}
        k, S = constructions.best_multi_interval(form, n, workloads.BEST_MULTI_K_MAX)
        return lambda: {"k": k, "size": S.size, "set": _members(S.materialize())}
    if kind == "ab":
        A, density = constructions.ab_set(d["b"], n)
        return lambda: {"set": _members(A), "density": f"{density.numerator}/{density.denominator}"}
    if kind == "two_var":
        size, A = constructions.two_var_extremal(d["a"], d["b"], n)
        return lambda: {"size": size, "set": _members(A)}
    if kind == "family2":
        res = family2.family2_extremal(d["b"], d["c"], n)
        return lambda: {"size": res.size, "set": _members(res.structured.materialize())}
    if kind == "family1":
        cands = family1.extremal_candidates(n, d["b"], d["c"])
        eq = ThreeVarEquation(1, d["b"], d["c"])
        trace = family1.interval_compression(eq, cands[0].members) if cands else None
        return lambda: {
            "candidates": [[c.s, _members(c.members)] for c in cands],
            "compression": None if trace is None else [_members(st) for st in trace.stages],
        }
    if kind == "inject":
        runs = []
        for b, seed in zip(workloads.INJECT_B, d["seeds"]):
            eq = ThreeVarEquation(1, b, b * b)
            sets = search.random_avoiding_sets(eq, n, workloads.INJECT_SETS, seed)
            runs.append((b, sets, [conjectures.injection_certificate(b, B, n) for B in sets]))
        return lambda: [{"b": b, "sets": [_members(B) for B in sets],
                         "mappings": [[list(p) for p in cert.mapping] for cert in certs]}
                        for b, sets, certs in runs]
    raise ValueError(f"unknown kind {kind!r}")


def run_fuzz(inputs: dict, span, clock: Clock) -> None:
    for key, d in workloads.op_specs("verify-fuzz", inputs).items():
        start = time.perf_counter()
        try:
            finish = _fuzz_call(d)
        except Exception as exc:
            clock.ops.append({"key": key, "ms": (time.perf_counter() - start) * 1e3, "err": repr(exc)})
        else:
            ms = (time.perf_counter() - start) * 1e3
            clock.ops.append({"key": key, "ms": ms, "out": finish()})
        if clock.since_lap() >= FUZZ_LAP_S:
            clock.lap()
    clock.lap()


BODIES = {"report-sweep": run_report, "deep-solve": run_deep, "verify-fuzz": run_fuzz}


def canonical_recalls(max_avoiding, specs: dict) -> list[dict]:
    """Re-call max_avoiding(canonical=True) on the now-warm solver at every solved n.

    The prefix table already holds r(n), so the call does only the lex-least pass.
    """
    from solfree.equations import ThreeVarEquation

    out = []
    for key, (eq, n) in specs.items():
        start = time.perf_counter()
        res = max_avoiding(ThreeVarEquation(*eq), n, canonical=True)
        ms = (time.perf_counter() - start) * 1e3
        out.append({"key": key, "ms": ms,
                    "out": {"size": res.size, "optimal": res.optimal, "nodes": res.nodes,
                            "witness": _members(res.witness)}})
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import solfree  # noqa: F401  (the import is part of set-up)

    if args.workload == "report-sweep":
        import solfree.cli  # noqa: F401
    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny)
    setup_s = time.monotonic() - args.spawned_at
    # scaled like the run (Clock), by a probe taken right after set-up
    probe = speed_probe()
    result = {"setup_s": setup_s * PROBE_REF_S / probe, "setup_wall_s": setup_s}
    if not args.setup_only:
        tracer = None
        span = lambda name: nullcontext()  # noqa: E731
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            span = tracer.span
        clock = Clock(probe)
        BODIES[args.workload](inputs, span, clock)
        result.update(ops=clock.ops, run_s=clock.run_s, wall_s=clock.wall_s, probes=clock.probes)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["spans"] = tracer.spans
            result["canonical"] = canonical_recalls(tracer.originals["search.max_avoiding"],
                                                    workloads.canonical_specs(args.workload, inputs))
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
