"""CLI surface: subcommands, JSON/CSV schemas, exit codes, determinism."""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from typing import NamedTuple

import pytest

import solfree
from solfree import errors, search
from solfree.cli import CSV_COLUMNS, UsageError, main, run
from solfree.equations import parse_equation

from oracles import lex_least_two_var

# the child process imports the same solfree as this one, however it was found
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(solfree.__file__)))


class Invocation(NamedTuple):
    output: str
    exit_code: int


def invoke(*args: str) -> Invocation:
    """``main`` on ``args`` in this process: its stdout and its exit code."""
    out, code = io.StringIO(), 0
    with contextlib.redirect_stdout(out):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code
    return Invocation(out.getvalue(), code)


def child_env() -> dict:
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_process(*args: str, text: bool = True, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "solfree.cli", *args],
        env=child_env(),
        capture_output=True,
        text=text,
        timeout=300,
        cwd=cwd,
    )


def readme_section(heading: str) -> str:
    """The README text from ``heading`` to the next heading of the same level."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    return text.split(heading + "\n", 1)[1].split("\n" + heading.split()[0] + " ", 1)[0]


def readme_block(heading: str) -> str:
    """The first fenced block after ``heading`` in the README, without its info string."""
    return readme_section(heading).split("```", 2)[1].split("\n", 1)[1]


def readme_cli_examples() -> list[list[str]]:
    """The argument lists of the ``solfree ...`` lines in the README's CLI block."""
    block = readme_block("## CLI")
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

    def test_all_sets_share_the_node_budget(self):
        # the exact solve spends 30 nodes (its ascending greedy set is the
        # lex-least one, so no pass runs) and all_extremal 1 574 more: the
        # command fits in their sum and not in one node less
        args = ("solve", "--eq", "x+2y=4z", "--n", "30", "--all-sets", "--cap", "8", "--node-budget")
        assert run_process(*args, "1604").returncode == 0
        proc = run_process(*args, "1603")
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "BudgetExceeded"

    def test_all_sets_get_no_negative_node_budget(self):
        # max_avoiding counts the node that trips its cap, so its canonical
        # pass, cut there, leaves a result of 1 001 nodes: all_extremal gets
        # what is left of the budget, clamped at 0
        proc = run_process("solve", "--eq", "2x+2y=5z", "--n", "60", "--all-sets", "--node-budget", "1000")
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr) == {"error": "BudgetExceeded",
                                           "message": "node budget 0 exceeded at prefix 60"}

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

    def test_nan_time_budget_exit_2(self):
        # a NaN deadline is never reached, so it would let the solve run to the end
        proc = run_process("solve", "--eq", "x+2y=13z", "--n", "60", "--time-budget", "nan")
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "InvariantViolation"

    @pytest.mark.parametrize("extra", [(), ("--all-sets",)])
    def test_bad_cap_rejected_before_the_solve(self, monkeypatch, capsys, extra):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before --cap was checked")

        monkeypatch.setattr(search, "max_avoiding", no_solve)
        with pytest.raises(UsageError) as info:
            main(["solve", "--eq", "x+2y=4z", "--n", "10", "--cap", "0", *extra], standalone_mode=False)
        assert info.value.exit_code == 2
        assert capsys.readouterr().out == ""

    def test_malformed_exit_2(self):
        proc = run_process("solve", "--eq", "nonsense", "--n", "5")
        assert proc.returncode == 2

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python converts digit strings of any length to int")
    def test_overlong_coefficient_exit_2(self):
        # past int()'s digit limit the text is malformed: exit 2 and the
        # JSON error, not a ValueError traceback and exit 1
        ones = "1" * max(5000, sys.get_int_max_str_digits() + 1)
        proc = run_process("solve", "--eq", ones + "x+y=3z", "--n", "5")
        assert proc.returncode == 2 and proc.stdout == ""
        err = json.loads(proc.stderr)
        assert err["error"] == "MalformedEquation" and err["message"].startswith("coefficient too long in ")

    def test_text_format(self):
        out = invoke("solve", "--eq", "2x+2y=5z", "--n", "10", "--fmt", "text")
        assert out.output.startswith("r(2x+2y=5z, 10) = 6")

    def test_text_format_lists_all_sets(self):
        out = invoke("solve", "--eq", "2x+2y=5z", "--n", "3", "--fmt", "text", "--all-sets")
        assert out.exit_code == 0
        assert out.output == "r(2x+2y=5z, 3) = 2  {1,2}\n  maximum set: {1,2}\n  maximum set: {1,3}\n"

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
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr) == {"error": "InvariantViolation", "message": "q=2 divides s=2"}


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

    # the six rho lines the CI workflow compares byte for byte.  rho_best
    # stops the moduli that cannot win and skips those the Kneser cap rules
    # out; these are the answers of solving every modulus in full
    CI_RHO = [
        ("x+y=3z", "30", '{"equation": "x+y=3z", "m": 2, "rho": "1/2", "witness": "1"}'),
        ("3x=2z", "30", '{"equation": "3x=2z", "m": 27, "rho": "20/27", '
                        '"witness": "1,2,4,5,7,8,9,10,11,13,14,16,17,18,19,20,22,23,25,26"}'),
        ("x+2y=13z", "40", '{"equation": "x+2y=13z", "m": 13, "rho": "6/13", "witness": "1,3,4,9,10,12"}'),
        ("x+2y=4z", "40", '{"equation": "x+2y=4z", "m": 16, "rho": "9/16", "witness": "1,3,5,7,8,9,11,13,15"}'),
        ("x+y=4z", "40", '{"equation": "x+y=4z", "m": 5, "rho": "2/5", "witness": "1,4"}'),
        ("2x+2y=5z", "40", '{"equation": "2x+2y=5z", "m": 2, "rho": "1/2", "witness": "1"}'),
    ]

    @pytest.mark.parametrize("eq,m_max,line", CI_RHO, ids=[f"{eq}@{m}" for eq, m, _ in CI_RHO])
    def test_rho_best_matches_ci(self, eq, m_max, line):
        assert invoke("rho", "--eq", eq, "--m-max", m_max).output == line + "\n"

    @pytest.mark.parametrize("moduli", [(), ("--m", "3", "--m-max", "3")], ids=["neither", "both"])
    def test_rho_needs_exactly_one_modulus_option(self, moduli):
        proc = run_process("rho", "--eq", "x+y=3z", *moduli)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "pass exactly one of --m / --m-max" in proc.stderr and "Traceback" not in proc.stderr

    def test_rho_best_budget_exit_3(self):
        # each modulus's share of the call fits in 200 nodes, all ten it solves together do not
        proc = run_process("rho", "--eq", "x+y=4z", "--m-max", "20", "--node-budget", "200")
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
        # when the sweep stops at the budget (row n = 28 needs 44 nodes)
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

    @pytest.mark.parametrize("sweep", [("--n-from", "1", "--n-to", "4", "--step", "0"),
                                       ("--n-from", "5", "--n-to", "4")], ids=["step-0", "to-below-from"])
    def test_bad_sweep_is_a_usage_error(self, sweep):
        proc = run_process("report", "--eq", "x+y=3z", *sweep)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "need 1 <= n-from <= n-to and step >= 1" in proc.stderr and "Traceback" not in proc.stderr

    def test_byte_identical_runs(self):
        a = run_process("report", "--eq", "x+2y=4z", "--n-from", "1", "--n-to", "20", text=False)
        b = run_process("report", "--eq", "x+2y=4z", "--n-from", "1", "--n-to", "20", text=False)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        # the CSV rows carry no construction sizes, but they do carry each
        # row's search nodes: a change to the engine's node counts re-pins this
        assert hashlib.sha256(a.stdout).hexdigest() == (
            "31d1be35a888dd5e74396198dfb057a7ec2953158fec9b1960564f71948922c8")

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
        monkeypatch.setitem(search._SOLVERS, eq, search._IntegerEngine(eq))
        want = [search.max_avoiding(eq, n, canonical=False).nodes for n in range(4, 23, 3)]
        assert [r["nodes"] for r in rows] == want

    def test_removed_options_are_usage_errors(self):
        # report --n-from N --n-to N prints the CSV row that solve --fmt csv used to
        jobs = run_process("report", "--eq", "2x+2y=5z", "--n-from", "1", "--n-to", "4", "--jobs", "2")
        seed = run_process("--seed", "1", "report", "--eq", "2x+2y=5z", "--n-from", "1", "--n-to", "4")
        csv_row = run_process("solve", "--eq", "2x+2y=5z", "--n", "10", "--fmt", "csv")
        assert jobs.returncode == seed.returncode == csv_row.returncode == 2
        assert jobs.stdout == seed.stdout == csv_row.stdout == ""
        assert not any("Traceback" in proc.stderr for proc in (jobs, seed, csv_row))

    @pytest.mark.parametrize("fmt,header", [("csv", 1), ("json", 0)])
    def test_rows_go_out_as_they_are_solved(self, monkeypatch, fmt, header):
        # row n is on the sys.stdout of the call before row n + 1's solve
        # starts, so a sweep stopped by a budget or by hand keeps its rows;
        # prog_name is passed as the benchmark's child (bench/child.py) does
        out, lines_at_solve = io.StringIO(), []
        solve = search.max_avoiding

        def recording(*args, **kwargs):
            lines_at_solve.append(out.getvalue().count("\n"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(search, "max_avoiding", recording)
        monkeypatch.setattr(sys, "stdout", out)
        main(["report", "--eq", "x+y=3z", "--n-from", "3", "--n-to", "12", "--step", "3", "--fmt", fmt],
             prog_name="solfree", standalone_mode=False)
        assert lines_at_solve == [header + i for i in range(4)]
        assert out.getvalue().count("\n") == header + 4


class TestTiming:
    @pytest.mark.parametrize("flags,millis", [((), 0), (("--timing",), 4321)])
    def test_millis_is_the_solves_only_with_timing(self, monkeypatch, flags, millis):
        solve = search.max_avoiding
        monkeypatch.setattr(search, "max_avoiding",
                            lambda *args, **kwargs: solve(*args, **kwargs)._replace(millis=4321))
        row = json.loads(invoke(*flags, "solve", "--eq", "2x+2y=5z", "--n", "10").output)
        assert row["millis"] == millis
        sweep = ("report", "--eq", "2x+2y=5z", "--n-from", "5", "--n-to", "8")
        rows = list(csv.DictReader(invoke(*flags, *sweep).output.splitlines()))
        assert [r["n"] for r in rows] == ["5", "6", "7", "8"]
        assert all(r["millis"] == str(millis) for r in rows)
        rows = [json.loads(line) for line in invoke(*flags, *sweep, "--fmt", "json").output.splitlines()]
        assert len(rows) == 4 and all(r["millis"] == millis for r in rows)


class TestCommandLine:
    """What a parser swap can break: how tokens reach options, and the exit codes."""

    # every command's options, and each group's commands, as --help must name them
    HELP = {
        (): ("--help", "--timing", "--no-timing",
             "solve", "construct", "family1", "family2", "rho", "conjecture", "report"),
        ("solve",): ("--help", "--eq", "--n", "--all-sets", "--cap", "--fmt", "--node-budget", "--time-budget"),
        ("construct",): ("--help", "residue", "top", "multi", "best-multi", "two-var", "ab"),
        ("construct", "residue"): ("--help", "--eq", "--q", "--n"),
        ("construct", "top"): ("--help", "--eq", "--n"),
        ("construct", "multi"): ("--help", "--eq", "--n", "--k", "--xi"),
        ("construct", "best-multi"): ("--help", "--eq", "--n", "--k-max"),
        ("construct", "two-var"): ("--help", "--a", "--b", "--n"),
        ("construct", "ab"): ("--help", "--b", "--n"),
        ("family1",): ("--help", "quantities", "candidates", "def1", "lemma26"),
        ("family1", "quantities"): ("--help", "--n", "--b", "--c"),
        ("family1", "candidates"): ("--help", "--n", "--b", "--c"),
        ("family1", "def1"): ("--help", "--eq", "--n", "--set"),
        ("family1", "lemma26"): ("--help", "--eq", "--n", "--set", "--z", "--d"),
        ("family2",): ("--help", "--b", "--c", "--n"),
        ("rho",): ("--help", "--eq", "--m", "--m-max", "--node-budget", "--time-budget"),
        ("conjecture",): ("--help", "gap", "verify27", "inject"),
        ("conjecture", "gap"): ("--help", "--b"),
        ("conjecture", "verify27"): ("--help", "--b", "--n", "--node-budget", "--time-budget"),
        ("conjecture", "inject"): ("--help", "--b", "--n", "--set"),
        ("report",): ("--help", "--eq", "--n-from", "--n-to", "--step", "--fmt", "--output",
                      "--node-budget", "--time-budget"),
    }

    @pytest.mark.parametrize("command", HELP, ids=[" ".join(c) or "solfree" for c in HELP])
    def test_help_names_every_option(self, command):
        out = invoke(*command, "--help")
        assert out.exit_code == 0
        for name in self.HELP[command]:
            assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", out.output), name

    @pytest.mark.parametrize("args,message", [
        (("solve", "--eq", "-x+y=3z", "--n", "5"), "nonpositive coefficient in '-x+y=3z'"),
        (("conjecture", "inject", "--b", "2", "--n", "8", "--set", "-1,2"), "members must lie in [1, 8]"),
    ], ids=["eq", "set"])
    def test_value_starting_with_a_dash_reaches_the_library(self, args, message):
        proc = run_process(*args)
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr) == {"error": "InvariantViolation", "message": message}

    @pytest.mark.parametrize("args", [
        ("report", "--eq", "x+y=3z", "--n-f", "5", "--n-to", "6"),
        ("solve", "--eq", "x+y=3z", "--n", "5", "--node", "5"),
        ("solve", "--eq", "x+y=3z", "--n", "5", "-h"),  # help is --help alone
    ], ids=["n-f", "node", "h"])
    def test_abbreviated_or_unknown_option_is_a_usage_error(self, args):
        proc = run_process(*args)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr and "Traceback" not in proc.stderr

    def test_ctrl_c_exits_130(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(search, "max_avoiding", interrupted)
        monkeypatch.setattr(sys, "argv", ["solfree", "solve", "--eq", "x+y=3z", "--n", "5"])
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 130
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    def test_closed_pipe_exits_1_quietly(self):
        # the sweep writes far more than the pipe holds, so its writes meet
        # the closed pipe while rows are still to come
        proc = subprocess.Popen(
            [sys.executable, "-m", "solfree.cli", "report", "--eq", "x+2y=4z", "--n-from", "1", "--n-to", "20000"],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"equation,n,method,size,ratio_num,ratio_den,optimal,nodes,millis\r\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=300)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 1 and err == b""


class TestReadme:
    EXAMPLES = readme_cli_examples()

    def test_examples_are_found(self):
        assert len(self.EXAMPLES) == 19

    def test_library_tour_runs(self, monkeypatch):
        # the block's own asserts check it; a cold solver cache keeps it from
        # warming the engines of later tests
        monkeypatch.setattr(search, "_SOLVERS", {})
        exec(compile(readme_block("## Library quick tour"), "README.md", "exec"), {})

    def test_error_list_matches_the_errors_module(self):
        # the "Guarantees and limits" list of the errors the CLI prints, after
        # the sentence that names their base class
        section = readme_section("## Guarantees and limits")
        listing = section.split("Every package error derives from", 1)[1].split("\n* ", 1)[0]
        named = re.findall(r"`solfree\.errors\.(\w+)`", listing) + re.findall(r"^  \* `(\w+)`:", listing, re.M)
        defined = [name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and obj.__module__ == errors.__name__]
        assert sorted(named) == sorted(defined)

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
