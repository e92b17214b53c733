"""Command-line surface.

Reports are emitted as one JSON object per line (or CSV rows with a fixed
column schema for sweeps).  Exact rationals are serialized as "num/den"
strings, never floats.  Exit codes: 0 success, 2 invariant violation,
3 budget exceeded.  In the default deterministic mode the millis column is
reported as 0 so that identical configurations produce byte-identical
reports; pass --timing for wall-clock numbers.
"""
from __future__ import annotations

import csv
import json
import sys
import time
from fractions import Fraction

import click

from . import constructions, conjectures, family1, family2, search
from .equations import Family, IntSet, ThreeVarEquation, parse_equation
from .errors import BudgetExceeded, SolfreeError

CSV_COLUMNS = ["equation", "n", "method", "size", "ratio_num", "ratio_den", "optimal", "nodes", "millis"]


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _emit(obj: dict, out) -> None:
    out.write(json.dumps(obj, separators=(", ", ": ")) + "\n")


def _millis(timing: bool, millis: int) -> int:
    return millis if timing else 0


def _exact_row(eq: ThreeVarEquation, n: int, result: search.ExtremalResult, timing: bool) -> dict:
    """The CSV_COLUMNS fields of one exact solve."""
    ratio = Fraction(result.size, n)
    return {
        "equation": str(eq), "n": n, "method": "exact", "size": result.size,
        "ratio_num": ratio.numerator, "ratio_den": ratio.denominator,
        "optimal": result.optimal, "nodes": result.nodes,
        "millis": _millis(timing, result.millis),
    }


def _construction_sizes(eq: ThreeVarEquation, n: int) -> dict:
    """Sizes of the parameter-free constructions that apply to eq at n, each a
    lower bound on r(n); only the JSON rows of ``report`` carry them."""
    form = eq.linear_form()
    q = next(q for q in range(2, form.s + 2) if form.s % q)  # s + 1 never divides s
    sizes = {
        "top": constructions.top_interval(form, n).size,
        "multi": constructions.best_multi_interval(form, n, 6)[1].size,
        "residue": constructions.residue_set(form, q, n).size,
    }
    if eq.family is Family.FAMILY_I and family1.eligible(eq.b, eq.c):
        best = family1.best_candidate(n, eq.b, eq.c)
        if best is not None:
            sizes["family1"] = best.size
    if eq.family is Family.FAMILY_II and eq.a > 1:
        sizes["family2"] = family2.family2_extremal(eq.a, eq.c, n).size
    if eq.family is Family.FAMILY_I and eq.c == eq.b * eq.b:
        sizes["ab"] = constructions.ab_set(eq.b, n)[0].size
    return sizes


def _csv_line(row: dict) -> list:
    values = (row[col] for col in CSV_COLUMNS)
    return [("true" if v else "false") if isinstance(v, bool) else v for v in values]


budget_options = [
    click.option("--node-budget", type=click.IntRange(min=0), default=None,
                 help="Node cap for the exact search."),
    click.option("--time-budget", type=click.FloatRange(min=0), default=None,
                 help="Wall-time cap in seconds."),
]


def _add_options(opts):
    def wrap(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn

    return wrap


@click.group()
@click.option("--timing/--no-timing", default=False, help="Report wall-clock millis (breaks byte-identical output).")
@click.pass_context
def main(ctx: click.Context, timing: bool) -> None:
    """Exact and constructive search for sets avoiding ax+by=cz."""
    ctx.obj = timing  # the subcommands' only shared setting


@main.command()
@click.option("--eq", "eq_text", required=True, help='Equation text, e.g. "x+2y=4z".')
@click.option("--n", type=int, required=True)
@click.option("--all-sets", is_flag=True, help="Enumerate every maximum set (up to --cap).")
@click.option("--cap", type=int, default=64, show_default=True)
@click.option("--fmt", type=click.Choice(["json", "csv", "text"]), default="json", show_default=True)
@_add_options(budget_options)
@click.pass_obj
def solve(timing: bool, eq_text: str, n: int, all_sets: bool, cap: int, fmt: str,
          node_budget: int | None, time_budget: float | None) -> None:
    """Exact maximum avoiding subset of [1, n]."""
    start = time.monotonic()  # --time-budget covers both library calls
    eq = parse_equation(eq_text)
    result = search.max_avoiding(eq, n, node_cap=node_budget, time_cap=time_budget)
    row = {
        "equation": str(eq),
        "n": n,
        "size": result.size,
        "set": result.witness.to_text(),
        "optimal": result.optimal,
        "nodes": result.nodes,
        "millis": _millis(timing, result.millis),
    }
    if all_sets and result.optimal:
        left = None if time_budget is None else max(0.0, time_budget - (time.monotonic() - start))
        family = search.all_extremal(eq, n, cap, node_cap=node_budget, time_cap=left)
        row["all_sets"] = [s.to_text() for s in family.sets]
        row["truncated"] = family.truncated
    if fmt == "json":
        _emit(row, sys.stdout)
    elif fmt == "text":
        tag = "" if result.optimal else "  (budget hit, lower bound)"
        print(f"r({eq}, {n}) = {result.size}  {{{row['set']}}}{tag}")
        for extra in row.get("all_sets", []):
            print(f"  maximum set: {{{extra}}}")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_COLUMNS)
        writer.writerow(_csv_line(_exact_row(eq, n, result, timing)))
    if not result.optimal:
        raise BudgetExceeded(f"search budget exceeded at n={n}; best found has size {result.size}")


@main.group()
def construct() -> None:
    """Constructive avoiding sets (verified by the checker)."""


@construct.command("residue")
@click.option("--eq", "eq_text", required=True)
@click.option("--q", type=int, required=True)
@click.option("--n", type=int, required=True)
def construct_residue(eq_text: str, q: int, n: int) -> None:
    """The class x = 1 mod q."""
    eq = parse_equation(eq_text)
    A = constructions.residue_set(eq.linear_form(), q, n)
    _emit({"construction": "residue", "equation": str(eq), "q": q, "n": n,
           "size": A.size, "set": A.to_text()}, sys.stdout)


@construct.command("top")
@click.option("--eq", "eq_text", required=True)
@click.option("--n", type=int, required=True)
def construct_top(eq_text: str, n: int) -> None:
    """The top interval (s_minus/s_plus * n, n]."""
    eq = parse_equation(eq_text)
    A = constructions.top_interval(eq.linear_form(), n)
    _emit({"construction": "top", "equation": str(eq), "n": n,
           "size": A.size, "set": A.to_text()}, sys.stdout)


@construct.command("multi")
@click.option("--eq", "eq_text", required=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--xi", type=int, default=None, help="Tail start; canonical fixed point when omitted.")
def construct_multi(eq_text: str, n: int, k: int, xi: int | None) -> None:
    """Union of k shrinking intervals."""
    eq = parse_equation(eq_text)
    S = constructions.multi_interval(eq.linear_form(), n, k, xi)
    _emit({"construction": "multi", "equation": str(eq), "n": n, "k": k,
           **S.to_json_dict(), "set": S.materialize().to_text()}, sys.stdout)


@construct.command("best-multi")
@click.option("--eq", "eq_text", required=True)
@click.option("--n", type=int, required=True)
@click.option("--k-max", type=int, required=True)
def construct_best_multi(eq_text: str, n: int, k_max: int) -> None:
    """Best multi-interval set over 1 <= k <= k_max."""
    eq = parse_equation(eq_text)
    k, S = constructions.best_multi_interval(eq.linear_form(), n, k_max)
    _emit({"construction": "best-multi", "equation": str(eq), "n": n, "k": k,
           **S.to_json_dict(), "set": S.materialize().to_text()}, sys.stdout)


@construct.command("two-var")
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--n", type=int, required=True)
def construct_two_var(a: int, b: int, n: int) -> None:
    """Greedy extremal set for the two-variable equation ax = by."""
    size, A = constructions.two_var_extremal(a, b, n)
    _emit({"construction": "two-var", "a": a, "b": b, "n": n,
           "size": size, "set": A.to_text()}, sys.stdout)


@construct.command("ab")
@click.option("--b", type=int, required=True)
@click.option("--n", type=int, required=True)
def construct_ab(b: int, n: int) -> None:
    """The cube-valuation set {u * b^(3i) : b does not divide u}."""
    A, density = constructions.ab_set(b, n)
    _emit({"construction": "ab", "b": b, "n": n, "density": _frac(density),
           "size": A.size, "set": A.to_text()}, sys.stdout)


@main.group("family1")
def family1_group() -> None:
    """Structure theory for x + b*y = c*z with b > 1."""


@family1_group.command("quantities")
@click.option("--n", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--c", type=int, required=True)
def family1_quantities(n: int, b: int, c: int) -> None:
    """Smallest-element estimates S and s'."""
    stats = family1.min_element_stats(n, b, c)
    _emit({"n": n, "b": b, "c": c, "S": stats.predicted, "s_prime": stats.crossover,
           "density": _frac(family1.interval_density(b, c))}, sys.stdout)


@family1_group.command("candidates")
@click.option("--n", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--c", type=int, required=True)
def family1_candidates(n: int, b: int, c: int) -> None:
    """Two-interval extremal candidates, one JSON line each."""
    for cand in family1.extremal_candidates(n, b, c):
        _emit(cand.to_json_dict(), sys.stdout)


@family1_group.command("def1")
@click.option("--eq", "eq_text", required=True)
@click.option("--n", type=int, required=True)
@click.option("--set", "set_text", required=True, help="Ascending comma-separated members.")
def family1_def1(eq_text: str, n: int, set_text: str) -> None:
    """Interval-compression trace of an avoiding set."""
    eq = parse_equation(eq_text)
    trace = family1.interval_compression(eq, IntSet.from_text(set_text, n))
    _emit({"equation": str(eq), "n": n, "s": trace.s, "t": trace.t, "alpha": trace.alpha,
           "r": list(trace.r_seq), "l": list(trace.l_seq),
           "sizes": list(trace.sizes),
           "final": trace.stages[-1].to_text()}, sys.stdout)


@family1_group.command("lemma26")
@click.option("--eq", "eq_text", required=True)
@click.option("--n", type=int, required=True)
@click.option("--set", "set_text", required=True)
@click.option("--z", type=int, required=True)
@click.option("--d", type=int, default=0, show_default=True)
def family1_window(eq_text: str, n: int, set_text: str, z: int, d: int) -> None:
    """Deficiency of the solution window around c*z/(b+1)."""
    eq = parse_equation(eq_text)
    count = family1.solution_window_deficiency(eq, IntSet.from_text(set_text, n), z, d)
    _emit({"equation": str(eq), "n": n, "z": z, "d": d, "missing": count}, sys.stdout)


@main.command("family2")
@click.option("--b", type=int, required=True)
@click.option("--c", type=int, required=True)
@click.option("--n", type=int, required=True)
def family2_cmd(b: int, c: int, n: int) -> None:
    """Closed-form extremal set for b(x+y) = cz."""
    result = family2.family2_extremal(b, c, n)
    _emit({"b": b, "c": c, "n": n, "case": result.case, **result.structured.to_json_dict(),
           "set": result.structured.materialize().to_text()}, sys.stdout)


@main.command()
@click.option("--eq", "eq_text", required=True)
@click.option("--m", type=int, default=None, help="Single modulus.")
@click.option("--m-max", type=int, default=None, help="Best density over m <= m_max.")
@_add_options(budget_options)
def rho(eq_text: str, m: int | None, m_max: int | None,
        node_budget: int | None, time_budget: float | None) -> None:
    """Maximum density of residues with no solutions modulo m."""
    eq = parse_equation(eq_text)
    if (m is None) == (m_max is None):
        raise click.UsageError("pass exactly one of --m / --m-max")
    if m is not None:
        d = search.rho_m(eq, m, node_cap=node_budget, time_cap=time_budget)
    else:
        d = search.rho_best(eq, m_max, node_cap=node_budget, time_cap=time_budget)
    _emit({"equation": str(eq), "m": d.m, "rho": _frac(d.rho),
           "witness": d.witness.to_text()}, sys.stdout)


@main.group()
def conjecture() -> None:
    """The c = b*b counterexample apparatus."""


@conjecture.command("gap")
@click.option("--b", type=int, required=True)
def conjecture_gap(b: int) -> None:
    """Exact densities: the cube-valuation set versus the two-interval family."""
    d_ab, d_intervals = conjectures.counterexample_gap(b)
    _emit({"b": b, "dAb": _frac(d_ab), "D": _frac(d_intervals)}, sys.stdout)


@conjecture.command("verify27")
@click.option("--b", type=int, required=True)
@click.option("--n", type=int, required=True)
@_add_options(budget_options)
def conjecture_verify(b: int, n: int, node_budget: int | None, time_budget: float | None) -> None:
    """Compare |A_b intersect [1,n]| with the exact maximum."""
    report = conjectures.verify_cube_set_extremal(b, n, node_cap=node_budget, time_cap=time_budget)
    _emit({"b": b, "n": n, "ab_size": report.ab_size, "exact_size": report.exact_size,
           "equal": report.equal}, sys.stdout)


@conjecture.command("inject")
@click.option("--b", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--set", "set_text", required=True, help="An avoiding set B.")
def conjecture_inject(b: int, n: int, set_text: str) -> None:
    """Injection certificate B \\ A -> A \\ B."""
    B = IntSet.from_text(set_text, n)
    cert = conjectures.injection_certificate(b, B, n)
    _emit(cert.to_json_dict(), sys.stdout)


@main.command()
@click.option("--eq", "eq_text", required=True)
@click.option("--n-from", type=int, required=True)
@click.option("--n-to", type=int, required=True)
@click.option("--step", type=int, default=1, show_default=True)
@click.option("--fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--output", type=str, default=None, help="Write the report to a file as well.")
@_add_options(budget_options)
@click.pass_obj
def report(timing: bool, eq_text: str, n_from: int, n_to: int, step: int, fmt: str,
           output: str | None, node_budget: int | None, time_budget: float | None) -> None:
    """Ratio-table sweep r(n)/n over a range of n."""
    if step < 1 or n_from < 1 or n_to < n_from:
        raise click.UsageError("need 1 <= n-from <= n-to and step >= 1")
    eq = parse_equation(eq_text)
    # the file gets the same bytes as stdout: csv ends every line in \r\n
    try:
        sink = open(output, "w", encoding="utf-8", newline="") if output else None
    except OSError as exc:
        raise click.UsageError(f"cannot open --output {output}: {exc.strerror}") from None
    outs = [sys.stdout] + ([sink] if sink else [])
    writers = [csv.writer(out) for out in outs]
    try:
        if fmt == "csv":
            for writer in writers:
                writer.writerow(CSV_COLUMNS)
        # the rows print no witness, so no lex-least pass; each row's nodes are
        # the DFS nodes of the prefixes it solved, the earlier ones being warm
        for n in range(n_from, n_to + 1, step):
            result = search.max_avoiding(eq, n, node_cap=node_budget, time_cap=time_budget,
                                         canonical=False)
            row = _exact_row(eq, n, result, timing)
            if fmt == "json":
                row["constructions"] = _construction_sizes(eq, n)
            for out, writer in zip(outs, writers):
                if fmt == "csv":
                    writer.writerow(_csv_line(row))
                else:
                    _emit(row, out)
            if not result.optimal:
                raise BudgetExceeded("sweep stopped at the search budget; completed rows were flushed")
    finally:
        if sink:
            sink.close()


def _error_payload(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def run() -> None:
    """Console entry point with the documented exit codes."""
    try:
        main(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(130)
    except BudgetExceeded as exc:
        print(json.dumps(_error_payload(exc)), file=sys.stderr)
        sys.exit(3)
    except SolfreeError as exc:
        print(json.dumps(_error_payload(exc)), file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    run()
