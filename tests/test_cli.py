"""CLI surface: subcommands, JSON/CSV schemas, exit codes, determinism."""
from __future__ import annotations

import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from functools import partial

import pytest
from click.testing import CliRunner

import solfree
from solfree import search
from solfree.cli import CSV_COLUMNS, main
from solfree.equations import parse_equation

from oracles import lex_least_two_var

# the child process imports the same solfree as this one, however it was found
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(solfree.__file__)))


def invoke(*args: str):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def run_process(*args: str, text: bool = True, cwd=None):
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "solfree.cli", *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=text,
        timeout=300,
        cwd=cwd,
    )


def readme_cli_examples() -> list[list[str]]:
    """The argument lists of the ``solfree ...`` lines in the README's CLI block."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("solfree ")]


class TestSolve:
    def test_json_schema(self):
        out = invoke("solve", "--eq", "2x+2y=5z", "--n", "10")
        assert out.exit_code == 0
        row = json.loads(out.output)
        assert set(row) == {"equation", "n", "size", "set", "optimal", "nodes", "millis"}
        assert row["size"] == 6
        assert row["optimal"] is True
        assert row["millis"] == 0  # deterministic mode
        members = [int(x) for x in row["set"].split(",")]
        assert len(members) == 6

    def test_all_sets(self):
        out = invoke("solve", "--eq", "2x+2y=5z", "--n", "3", "--all-sets", "--cap", "10")
        row = json.loads(out.output)
        assert row["all_sets"] == ["1,2", "1,3"]
        assert row["truncated"] is False

    def test_all_sets_share_the_time_budget(self, monkeypatch):
        # --time-budget bounds the whole command: all_extremal gets what the
        # exact solve left of it, not a fresh budget
        solve, enumerate_all, caps = search.max_avoiding, search.all_extremal, []

        def slow_solve(*args, **kwargs):
            time.sleep(0.05)
            return solve(*args, **kwargs)

        def recording(*args, time_cap=None, **kwargs):
            caps.append(time_cap)
            return enumerate_all(*args, time_cap=time_cap, **kwargs)

        monkeypatch.setattr(search, "max_avoiding", slow_solve)
        monkeypatch.setattr(search, "all_extremal", recording)
        out = invoke("solve", "--eq", "2x+2y=5z", "--n", "3", "--all-sets", "--time-budget", "100")
        assert out.exit_code == 0
        assert len(caps) == 1 and 0 < caps[0] <= 100 - 0.05

    def test_invariant_equation_exit_2(self):
        proc = run_process("solve", "--eq", "x+y=2z", "--n", "5")
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "InvariantViolation"

    def test_budget_exit_3(self):
        proc = run_process("solve", "--eq", "3x+3y=2z", "--n", "30", "--node-budget", "1")
        assert proc.returncode == 3
        row = json.loads(proc.stdout)  # best-found row still emitted
        assert row["optimal"] is False

    def test_zero_time_budget_exit_3(self):
        proc = run_process("solve", "--eq", "x+2y=13z", "--n", "60", "--time-budget", "0")
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["optimal"] is False

    def test_negative_budget_exit_2(self):
        for flag in ("--node-budget", "--time-budget"):
            proc = run_process("solve", "--eq", "x+2y=13z", "--n", "60", flag, "-1")
            assert proc.returncode == 2, flag
            assert proc.stdout == ""

    def test_malformed_exit_2(self):
        proc = run_process("solve", "--eq", "nonsense", "--n", "5")
        assert proc.returncode == 2

    def test_text_format(self):
        out = invoke("solve", "--eq", "2x+2y=5z", "--n", "10", "--fmt", "text")
        assert out.output.startswith("r(2x+2y=5z, 10) = 6")

    def test_two_variable_equation(self):
        row = json.loads(invoke("solve", "--eq", "2x=z", "--n", "10").output)
        assert row["size"] == 6  # chains {1,2,4,8}, {3,6}, {5,10}, {7}, {9}

    def test_deep_canonical_pass_exits_0(self):
        # both searches go 1200 elements deep, past the default recursion limit
        eq = parse_equation("2x=z")
        proc = run_process("solve", "--eq", str(eq), "--n", "1200")
        assert proc.returncode == 0, proc.stderr
        row = json.loads(proc.stdout)
        assert (row["size"], row["optimal"]) == (800, True)
        assert row["set"] == ",".join(map(str, lex_least_two_var(eq, 1200)))

    def test_csv_format(self):
        out = invoke("solve", "--eq", "2x+2y=5z", "--n", "10", "--fmt", "csv")
        header, row = out.output.strip().splitlines()
        assert header == "equation,n,method,size,ratio_num,ratio_den,optimal,nodes,millis"
        assert row.startswith("2x+2y=5z,10,exact,6,3,5,true,")


class TestConstruct:
    def test_residue(self):
        row = json.loads(invoke("construct", "residue", "--eq", "x+2y=13z", "--q", "3", "--n", "10").output)
        assert row["set"] == "1,4,7,10"

    def test_top(self):
        row = json.loads(invoke("construct", "top", "--eq", "2x+2y=5z", "--n", "10").output)
        assert row["set"] == "9,10"

    def test_multi(self):
        row = json.loads(invoke("construct", "multi", "--eq", "x+y=4z", "--n", "100", "--k", "3").output)
        assert row["size"] == 58
        assert row["intervals"][0] == {"lo": 2, "hi": 2, "closed_lo": True}

    def test_best_multi(self):
        row = json.loads(invoke("construct", "best-multi", "--eq", "2x+2y=5z", "--n", "100", "--k-max", "6").output)
        assert row["size"] < 60

    def test_two_var(self):
        row = json.loads(invoke("construct", "two-var", "--a", "2", "--b", "1", "--n", "10").output)
        assert row["size"] == 6 and row["set"] == "1,3,4,5,7,9"

    def test_ab(self):
        row = json.loads(invoke("construct", "ab", "--b", "2", "--n", "20").output)
        assert row["density"] == "4/7"
        assert row["set"].startswith("1,3,5,7,8")

    def test_q_divides_s_exit_2(self):
        proc = run_process("construct", "residue", "--eq", "x+y=4z", "--q", "2", "--n", "10")
        assert proc.returncode == 2


class TestFamilyCommands:
    def test_family1_quantities(self):
        row = json.loads(invoke("family1", "quantities", "--n", "1000", "--b", "2", "--c", "13").output)
        assert (row["S"], row["s_prime"]) == (4, 5)
        assert row["density"] == "1660/2119"

    def test_family1_candidates(self):
        out = invoke("family1", "candidates", "--n", "60", "--b", "2", "--c", "13")
        rows = [json.loads(line) for line in out.output.splitlines()]
        assert rows and all(r["avoids"] is True for r in rows)
        assert max(r["size"] for r in rows) == 48

    def test_family1_def1(self):
        out = invoke("family1", "def1", "--eq", "x+2y=13z", "--n", "20",
                     "--set", "16,17,18,19,20")
        row = json.loads(out.output)
        assert row["sizes"] == sorted(row["sizes"])

    def test_family1_lemma26(self):
        out = invoke("family1", "lemma26", "--eq", "x+2y=13z", "--n", "60",
                     "--set", "10", "--z", "10", "--d", "0")
        assert json.loads(out.output)["missing"] >= 1

    def test_bad_set_member_exit_2(self):
        proc = run_process("family1", "def1", "--eq", "x+2y=13z", "--n", "20", "--set", "16,a")
        assert proc.returncode == 2 and proc.stdout == ""
        err = json.loads(proc.stderr)
        assert err["error"] == "InvariantViolation" and "'a'" in err["message"]

    def test_family2(self):
        row = json.loads(invoke("family2", "--b", "2", "--c", "5", "--n", "10").output)
        assert row["case"] == "i" and row["set"] == "1,3,5,7,9,10"


class TestRhoAndConjecture:
    def test_rho_single(self):
        row = json.loads(invoke("rho", "--eq", "2x+2y=5z", "--m", "2").output)
        assert row["rho"] == "1/2" and row["witness"] == "1"

    def test_rho_best(self):
        row = json.loads(invoke("rho", "--eq", "x+2y=4z", "--m-max", "8").output)
        num, den = row["rho"].split("/")
        assert int(num) / int(den) >= 0.5

    def test_rho_best_budget_exit_3(self):
        # every modulus fits in 673 nodes, all twenty together do not
        proc = run_process("rho", "--eq", "x+y=3z", "--m-max", "20", "--node-budget", "673")
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "BudgetExceeded"

    def test_gap(self):
        row = json.loads(invoke("conjecture", "gap", "--b", "2").output)
        assert row["dAb"] == "4/7" and row["D"] == "13/40"

    def test_verify27(self):
        row = json.loads(invoke("conjecture", "verify27", "--b", "2", "--n", "14").output)
        assert row == {"b": 2, "n": 14, "ab_size": 8, "exact_size": 8, "equal": True}

    def test_inject(self):
        row = json.loads(invoke("conjecture", "inject", "--b", "2", "--n", "8", "--set", "2").output)
        assert row["mapping"] == [[2, 1]] and row["valid"] is True


class TestReport:
    def test_csv_schema(self):
        out = invoke("report", "--eq", "2x+2y=5z", "--n-from", "5", "--n-to", "10")
        lines = out.output.strip().splitlines()
        assert lines[0] == "equation,n,method,size,ratio_num,ratio_den,optimal,nodes,millis"
        assert lines[1].startswith("2x+2y=5z,5,exact,3,3,5,true,")
        assert len(lines) == 7

    def test_json_rows(self):
        out = invoke("report", "--eq", "2x+2y=5z", "--n-from", "5", "--n-to", "7", "--fmt", "json")
        rows = [json.loads(line) for line in out.output.splitlines()]
        assert [r["n"] for r in rows] == [5, 6, 7]
        assert [r["size"] for r in rows] == [3, 4, 5]

    def test_output_file(self, tmp_path):
        # the file holds stdout's bytes, csv's \r\n line ends included, also
        # when the sweep stops at the budget (row n = 28 needs 41 nodes)
        for fmt, budget, code, rows in [("csv", "1000", 0, 36), ("json", "1000", 0, 36),
                                        ("csv", "40", 3, 24), ("json", "40", 3, 24)]:
            target = tmp_path / f"rows-{fmt}-{budget}"
            proc = run_process("report", "--eq", "2x+2y=5z", "--n-from", "5", "--n-to", "40",
                               "--fmt", fmt, "--node-budget", budget, "--output", str(target),
                               text=False)
            assert proc.returncode == code, proc.stderr
            assert target.read_bytes() == proc.stdout
            lines = proc.stdout.splitlines(keepends=True)
            assert len(lines) == rows + (fmt == "csv")
            assert all(line.endswith(b"\r\n" if fmt == "csv" else b"}\n") for line in lines)
            assert (b"false" in lines[-1]) == (code == 3)

    def test_unwritable_output_exit_2(self, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        proc = run_process("report", "--eq", "x+y=3z", "--n-from", "1", "--n-to", "3",
                           "--output", str(target))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "cannot open --output" in proc.stderr and "Traceback" not in proc.stderr

    def test_byte_identical_runs(self):
        a = run_process("report", "--eq", "x+2y=4z", "--n-from", "1", "--n-to", "20", text=False)
        b = run_process("report", "--eq", "x+2y=4z", "--n-from", "1", "--n-to", "20", text=False)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        # the CSV rows carry no construction sizes, but they do carry each
        # row's search nodes: a change to the engine's node counts re-pins this
        assert hashlib.sha256(a.stdout).hexdigest() == (
            "0905a9c02c800a68bdadc0005a9ad33bfd6cce99e91a4736a864744e209c6b06")

    @pytest.mark.parametrize("text,size,sizes", [
        ("x+2y=4z", 34, {"top": 15, "multi": 20, "residue": 30, "ab": 34}),
        ("2x+2y=5z", 36, {"top": 12, "multi": 20, "residue": 30, "family2": 36}),
        ("x+2y=13z", 48, {"top": 47, "multi": 48, "residue": 20, "family1": 48}),
        ("x+y=3z", 30, {"top": 20, "multi": 27, "residue": 30}),
    ])
    def test_json_rows_carry_the_constructions(self, text, size, sizes):
        out = invoke("report", "--eq", text, "--n-from", "60", "--n-to", "60", "--fmt", "json")
        row = json.loads(out.output)
        assert (row["size"], row["optimal"]) == (size, True)
        assert row["constructions"] == sizes
        assert list(row["constructions"]) == list(sizes)  # top, multi, residue, then the rest

    @pytest.mark.parametrize("text", ["x+2y=4z", "2x+2y=5z", "x+2y=13z", "x+y=3z", "5x+5y=3z",
                                      "3x+y=2z", "2x=z"])
    def test_constructions_never_beat_an_optimal_row(self, text):
        out = invoke("report", "--eq", text, "--n-from", "1", "--n-to", "40", "--fmt", "json")
        assert out.exit_code == 0
        rows = [json.loads(line) for line in out.output.splitlines()]
        assert len(rows) == 40 and all(r["optimal"] for r in rows)
        for r in rows:
            assert all(v <= r["size"] for v in r["constructions"].values()), r

    def test_nodes_are_the_rows_own_search(self, monkeypatch):
        proc = run_process("report", "--eq", "x+y=3z", "--n-from", "4", "--n-to", "22",
                           "--step", "3", "--fmt", "json")
        assert proc.returncode == 0, proc.stderr
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        eq = parse_equation("x+y=3z")
        monkeypatch.setitem(search._SOLVERS, eq, search._Core(partial(search.cliques_for, eq)))
        want = [search.max_avoiding(eq, n, canonical=False).nodes for n in range(4, 23, 3)]
        assert [r["nodes"] for r in rows] == want

    def test_removed_options_are_usage_errors(self):
        jobs = run_process("report", "--eq", "2x+2y=5z", "--n-from", "1", "--n-to", "4", "--jobs", "2")
        seed = run_process("--seed", "1", "report", "--eq", "2x+2y=5z", "--n-from", "1", "--n-to", "4")
        assert jobs.returncode == seed.returncode == 2
        assert jobs.stdout == seed.stdout == ""


class TestReadme:
    EXAMPLES = readme_cli_examples()

    def test_examples_are_found(self):
        assert len(self.EXAMPLES) == 19

    @pytest.mark.parametrize("args", EXAMPLES, ids=[" ".join(args) for args in EXAMPLES])
    def test_cli_example_runs(self, tmp_path, args):
        proc = run_process(*args, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines
        if "csv" in args:
            rows = list(csv.reader(lines))
            assert rows[0] == CSV_COLUMNS and all(len(row) == len(CSV_COLUMNS) for row in rows)
        else:
            assert all(isinstance(json.loads(line), dict) for line in lines)
        if "--output" in args:
            target = tmp_path / args[args.index("--output") + 1]
            assert target.read_text() == proc.stdout
