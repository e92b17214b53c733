"""Self-tests of the benchmark itself (about a minute):

    python3 bench/selfcheck.py

1. BENCHMARK.json lists exactly the metrics run.py and spans.py emit.
2. Each workload at --tiny size, with --trace 0 and 1, exits 0 and prints
   every named metric with its unit.
3. A corrupted pinned value makes the run fail (failed > 0, exit code 1).
4. Two rounds with the same seed give identical outputs (CSV rows included)
   and two traced runs give identical counts.
5. The pinned r(n), n <= 18, and rho_best(eq, 8) agree with exhaustive search.
6. Without the program (only BENCHMARK.json and bench/) the run exits
   non-zero and prints no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import workloads
from check import brute_force_r
from make_reference import brute_force_rho
from run import END_TO_END, HERE, ROOT
from spans import PER_LAYER, is_exact

SCRATCH = ROOT / ".bench_out" / "selfcheck"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def bench(*args: str, cwd=ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict | None:
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    e2e = [[name, unit, better, bound] for name, unit, better, bound in END_TO_END]
    expect([[m["name"], m["unit"], m["better"], m["bound"]] for m in spec["end_to_end"]] == e2e,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] == [list(m) for m in PER_LAYER],
           "BENCHMARK.json per_layer matches spans.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")

    traced_counts = {}
    for workload in workloads.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                "--trace", str(trace), "--tiny")
            res = result(lines)
            want = {m["name"]: m["unit"] for m in listed}
            ok = (code == 0 and res is not None and res["correct"] and res["failed"] == 0
                  and set(res) == {"correct", "attempted", "failed", "metrics"}
                  and {k: v["unit"] for k, v in res["metrics"].items()} == want)
            expect(ok, f"{workload} --trace {trace} --tiny emits every metric with its unit")
            if trace and res is not None:
                traced_counts[workload] = {k: v["value"] for k, v in res["metrics"].items() if is_exact(k)}

    for workload in workloads.WORKLOADS:
        code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                            "--tiny")
        res = result(lines)
        again = None if res is None else {k: v["value"] for k, v in res["metrics"].items() if is_exact(k)}
        expect(again == traced_counts.get(workload), f"{workload}: counts repeat exactly for a seed")

    reference = json.loads((HERE / "reference.json").read_text())
    reference["r"]["2,2,5"][10] += 1
    corrupt = SCRATCH / "corrupt-reference.json"
    corrupt.write_text(json.dumps(reference))
    code, lines = bench("--workload", "report-sweep", "--seed", "3", "--seconds", "1", "--tiny",
                        "--reference", str(corrupt))
    res = result(lines)
    expect(code == 1 and res is not None and not res["correct"] and res["failed"] > 0,
           "a corrupted pinned r(n) is reported as failed, exit code 1")

    for workload in workloads.WORKLOADS:
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "bench/child.py", "--workload", workload,
                                   "--seed", "5", "--spawned-at", "0", "--tiny"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=170)
            outs.append([(op["key"], op.get("out")) for op in json.loads(proc.stdout)["ops"]])
        expect(outs[0] == outs[1] and len(outs[0]) > 0, f"{workload}: outputs repeat exactly for a seed")

    reference = json.loads((HERE / "reference.json").read_text())
    bad = [(key, n) for key, row in reference["r"].items()
           for n in range(1, min(len(row), reference["brute_force_max_n"] + 1))
           if brute_force_r(tuple(map(int, key.split(","))), n) != row[n]]
    expect(not bad, f"pinned r(n), n <= {reference['brute_force_max_n']}, match exhaustive search {bad}")
    bad = []
    for key, entry in reference["rho_best"].items():
        m, rho = brute_force_rho(tuple(map(int, key.split(","))), workloads.RHO_TINY_M_MAX)
        if entry[str(workloads.RHO_TINY_M_MAX)] != [m, f"{rho.numerator}/{rho.denominator}"]:
            bad.append(key)
    expect(not bad, f"pinned rho_best(eq, {workloads.RHO_TINY_M_MAX}) match exhaustive search {bad}")

    bare = SCRATCH / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "deep-solve", "--seed", "1", "--seconds", "1", cwd=bare)
    expect(code != 0 and result(lines) is None, "without the program: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
