"""solfree benchmark: run one workload, check every answer, print the metrics.

    python3 bench/run.py --workload report-sweep --seed 1 --seconds 28 --trace 0

Workloads (see README.md for why each exists):
  report-sweep  `solfree report` over n = 1..N for four equations, in-process
  deep-solve    cold max_avoiding(canonical=False) at one large n per equation,
                plus rho_best(eq, 40) on two equations
  verify-fuzz   seeded constructions and certificates over n in [16, 2048]

Each round runs in a fresh interpreter (child.py) with an empty solver cache
and no thread or process pool; rounds run one after another.  The run makes
round(seconds / round length) rounds of identical inputs and reports medians.
All checks happen here, after the children have exited, so none is timed.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 rounds alternate untraced and traced, the last line holds the
per-layer metrics and the spans go to .bench_out/.  Exit code 0 means every
answer was right; 1 means a wrong or failed answer; 2 means no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from check import check_op
from spans import PER_LAYER, is_exact, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name, unit, better, bound (share of the parent's median it may worsen by).
# Times are scaled by the speed probe (child.Clock).  In two sets of ten
# seeds the interquartile spread was <= 7 % for run_s, <= 17 % for op_ms
# (verify-fuzz's single-sample draw latencies) and <= 3.3 % for peak RSS
# (deep-solve's rho picks); set-up time gets the largest bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.20),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("op_ms.p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]
SETUP_PROBES = 5  # extra set-up-only starts, so set-up time is a median of several
RUN_LIMIT_S = 170  # a run must end within 180 s


class NoResult(Exception):
    """A round could not run at all; the benchmark prints no result."""


def _spawn(args, deadline: float, *, trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    cmd += ["--tiny"] * args.tiny + ["--trace"] * trace + ["--setup-only"] * setup_only
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise NoResult(f"out of time after {RUN_LIMIT_S} s")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], capture_output=True,
                              text=True, timeout=remaining, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise NoResult(f"round timed out after {remaining:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise NoResult(f"round exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Checker:
    """Checks each distinct output once; counts attempted and failed operations."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._seen: dict[str, list[str]] = {}

    def round(self, workload: str, specs: dict, ops: list[dict]) -> None:
        by_key = {op["key"]: op for op in ops}
        for op in ops:
            if op["key"] not in specs:
                self.messages.append(f"{op['key']}: {op.get('err', 'unexpected operation')}")
        for key, spec in specs.items():
            self.attempted += 1
            op = by_key.get(key)
            if op is None or "err" in op:
                errs = ["missing" if op is None else op["err"]]
            else:
                digest = hashlib.sha256(json.dumps([key, op["out"]]).encode()).hexdigest()
                if digest not in self._seen:
                    try:
                        self._seen[digest] = check_op(workload, spec, op["out"], self.reference)
                    except (KeyError, TypeError, ValueError, IndexError) as exc:
                        self._seen[digest] = [f"malformed output ({exc!r})"]
                errs = self._seen[digest]
            if errs:
                self.failed += 1
                self.messages.append(f"{key}: {'; '.join(errs)}")


def _quantiles(values: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values), deciles[8]


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "solfree").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, one round (self-tests)")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="pinned answers to check against")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "solfree" / "__init__.py").is_file():
        print(f"bench: no solfree package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the checker compares family2 sizes with closed_form_size
    reference = json.loads(args.reference.read_text())
    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny)
    rounds = 1 if args.tiny else workloads.rounds_for(args.workload, args.seconds)
    plan = [i % 2 == 1 for i in range(max(2, rounds))] if args.trace else [False] * rounds

    try:
        probes = [_spawn(args, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
        results = [(traced, _spawn(args, deadline, trace=traced)) for traced in plan]
    except NoResult as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    setup = [res["setup_s"] for res in probes] + [res["setup_s"] for _, res in results]
    wall_setup = [res["setup_wall_s"] for res in probes] + [res["setup_wall_s"] for _, res in results]

    checker = Checker(reference)
    specs = workloads.op_specs(args.workload, inputs)
    canonical_specs = workloads.canonical_specs(args.workload, inputs)
    for traced, res in results:
        checker.round(args.workload, specs, res["ops"])
        if traced:
            checker.round("canonical", canonical_specs, res["canonical"])

    plain = [res for traced, res in results if not traced]
    run_s = statistics.median(res["run_s"] for res in plain)
    if args.trace:
        # the CLI asks max_avoiding for the canonical witness, so on report-sweep
        # the re-called pass is also inside the traced max_avoiding spans
        inside = args.workload == "report-sweep"
        per_round = [layer_metrics(res["spans"], [[op["ms"], op["out"]["nodes"]] for op in res["canonical"]],
                                   inside)
                     for traced, res in results if traced]
        values = {}
        for name in per_round[0]:
            seen = [m[name] for m in per_round]
            if is_exact(name) and len(set(seen)) > 1:
                checker.messages.append(f"{name} differs between traced rounds: {seen}")
                checker.failed += 1
            values[name] = seen[0] if is_exact(name) else statistics.median(seen)
        traced_run_s = statistics.median(res["run_s"] for traced, res in results if traced)
        values["trace.overhead_s"] = traced_run_s - run_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps([{"round": i, "spans": res["spans"]}
                                          for i, (traced, res) in enumerate(results) if traced]))
    else:
        # each operation's latency is its median over the rounds
        by_key: dict[str, list[float]] = {}
        for res in plain:
            for op in res["ops"]:
                by_key.setdefault(op["key"], []).append(op["ms"])
        p50, p90 = _quantiles([statistics.median(v) for key, v in by_key.items() if key in specs])
        values = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "op_ms.p50": p50,
            "op_ms.p90": p90,
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}

    for msg in checker.messages[:20]:
        print(f"bench: FAIL {msg}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(results), "round_run_s": [res["run_s"] for _, res in results],
        "round_wall_s": [res["wall_s"] for _, res in results],
        "round_probe_s": [statistics.median(res["probes"]) for _, res in results],
        "setup_samples": len(setup), "op_samples": len(specs) * len(plain),
        "setup_wall_s": statistics.median(wall_setup),
        "error_rate": checker.failed / checker.attempted,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": _commit(), "src_sha256": _src_digest(),
    }
    print("bench: " + json.dumps(info))
    correct = checker.failed == 0 and not checker.messages
    print(json.dumps({"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
