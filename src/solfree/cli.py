"""Command-line surface.

Reports are emitted as one JSON object per line (or CSV rows with a fixed
column schema for sweeps).  Exact rationals are serialized as "num/den"
strings, never floats.  Exit codes: 0 success, 1 when the reader closes
stdout before the output ends, 2 a usage error or a package error (the
JSON error on stderr), 3 budget exceeded, 130 interrupted (Ctrl-C).  In
the default deterministic mode the millis column is reported as 0 so that
identical configurations produce byte-identical reports; pass --timing for
wall-clock numbers.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

import solfree

from . import search
from .equations import Family, IntSet, ThreeVarEquation, parse_equation
from .errors import BudgetExceeded, SolfreeError

CSV_COLUMNS = ["equation", "n", "method", "size", "ratio_num", "ratio_den", "optimal", "nodes", "millis"]


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _json_line(obj: dict) -> str:
    return json.dumps(obj, separators=(", ", ": ")) + "\n"


def _emit(obj: dict) -> None:
    sys.stdout.write(_json_line(obj))


def _construction_sizes(eq: ThreeVarEquation, n: int) -> dict:
    """Sizes of the parameter-free constructions that apply to eq at n, each a
    lower bound on r(n); only the JSON rows of ``report`` carry them."""
    form = eq.linear_form()
    q = next(q for q in range(2, form.s + 2) if form.s % q)  # s + 1 never divides s
    sizes = {
        "top": solfree.top_interval(form, n).size,
        "multi": solfree.best_multi_interval(form, n, 6)[1].size,
        "residue": solfree.residue_set(form, q, n).size,
    }
    if eq.family is Family.FAMILY_I and solfree.eligible(eq.b, eq.c):
        best = solfree.best_candidate(n, eq.b, eq.c)
        if best is not None:
            sizes["family1"] = best.size
    if eq.family is Family.FAMILY_II and eq.a > 1:
        sizes["family2"] = solfree.family2_extremal(eq.a, eq.c, n).size
    if eq.family is Family.FAMILY_I and eq.c == eq.b * eq.b:
        sizes["ab"] = solfree.ab_set(eq.b, n)[0].size
    return sizes


def _csv_line(values) -> str:
    """One row exactly as csv.writer writes it, \\r\\n included."""
    line = io.StringIO()
    csv.writer(line).writerow(("true" if v else "false") if isinstance(v, bool) else v for v in values)
    return line.getvalue()


class UsageError(Exception):
    """A command line the CLI cannot run, such as an unknown option or a
    missing one: exit 2, with the command's usage on stderr."""

    exit_code = 2

    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None):
        super().__init__(message)
        self.parser = parser  # the command whose usage goes with the message


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated options and raises its errors, so
    that main decides how a failed command line ends.  Help is --help
    alone: -h is no option of this CLI."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        raise UsageError(message, self)


def _option(flag: str, **kwargs) -> tuple[str, dict]:
    """One option of a command: its flag and its ``add_argument`` keywords."""
    return flag, kwargs


def _ints(*flags: str) -> tuple[tuple[str, dict], ...]:
    return tuple(_option(flag, type=int, required=True) for flag in flags)


def _at_least(kind: type, low: int):
    """``kind`` of the option's text, rejected below ``low`` (NaN passes, as
    it compares below nothing: the library rejects a NaN time budget)."""
    def convert(text: str):
        value = kind(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text} is not in the range x>={low}")
        return value

    convert.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return convert


_EQ = _option("--eq", type=parse_equation, required=True, help='Equation text, e.g. "x+2y=4z".')
# the exact search's node and wall-time caps
_BUDGETS = (_option("--node-budget", type=_at_least(int, 0), help="Node cap for the exact search."),
            _option("--time-budget", type=_at_least(float, 0), help="Wall-time cap in seconds."))

_PARSER = _Parser(prog="solfree", description="Exact and constructive search for sets avoiding ax+by=cz.")
_PARSER.add_argument("--timing", action=argparse.BooleanOptionalAction, default=False,
                     help="Report wall-clock millis (breaks byte-identical output).")
# the flags of every option that takes a value, for _joined
_VALUED: set[str] = set()


def _commands(parser: argparse.ArgumentParser):
    return parser.add_subparsers(title="commands", metavar="COMMAND", required=True)


def _group(commands, name: str, doc: str):
    """The commands of group ``name``, itself a command of ``commands``."""
    return _commands(commands.add_parser(name, help=doc, description=doc))


def _command(commands, name: str, *options: tuple[str, dict], timing: bool = False):
    """Register the decorated function as command ``name`` of ``commands``.

    Each option reaches the function as the keyword its dest names; with
    ``timing`` the top-level --timing setting comes first, positionally."""
    def register(body):
        parser = commands.add_parser(name, help=body.__doc__.splitlines()[0], description=body.__doc__)
        actions = [parser.add_argument(flag, **kwargs) for flag, kwargs in options]
        _VALUED.update(flag for action in actions if action.nargs is None for flag in action.option_strings)

        def call(ns: argparse.Namespace) -> None:
            values = {action.dest: getattr(ns, action.dest) for action in actions}
            try:
                if timing:
                    body(ns.timing, **values)
                else:
                    body(**values)
            except UsageError as exc:
                exc.parser = parser  # a check in the body is a usage error of this command
                raise

        parser.set_defaults(call=call)
        return body

    return register


_TOP = _commands(_PARSER)


@_command(_TOP, "solve", _EQ, *_ints("--n"),
          _option("--all-sets", action="store_true", help="Enumerate every maximum set (up to --cap)."),
          _option("--cap", type=_at_least(int, 1), default=64, help="(default: %(default)s)"),
          _option("--fmt", choices=["json", "text"], default="json", help="(default: %(default)s)"),
          *_BUDGETS, timing=True)
def solve(timing: bool, eq: ThreeVarEquation, n: int, all_sets: bool, cap: int, fmt: str,
          node_budget: int | None, time_budget: float | None) -> None:
    """Exact maximum avoiding subset of [1, n]."""
    start = time.monotonic()  # both budgets cover both library calls
    result = search.max_avoiding(eq, n, node_cap=node_budget, time_cap=time_budget)
    row = {
        "equation": str(eq),
        "n": n,
        "size": result.size,
        "set": result.witness.to_text(),
        "optimal": result.optimal,
        "nodes": result.nodes,
        "millis": result.millis if timing else 0,
    }
    if all_sets and result.optimal:
        left = None if time_budget is None else max(0.0, time_budget - (time.monotonic() - start))
        spare = None if node_budget is None else max(0, node_budget - result.nodes)
        family = search.all_extremal(eq, n, cap, node_cap=spare, time_cap=left)
        row["all_sets"] = [s.to_text() for s in family.sets]
        row["truncated"] = family.truncated
    if fmt == "json":
        _emit(row)
    else:
        tag = "" if result.optimal else "  (budget hit, lower bound)"
        print(f"r({eq}, {n}) = {result.size}  {{{row['set']}}}{tag}")
        for extra in row.get("all_sets", []):
            print(f"  maximum set: {{{extra}}}")
    if not result.optimal:
        raise BudgetExceeded(f"search budget exceeded at n={n}; best found has size {result.size}")


_CONSTRUCT = _group(_TOP, "construct", "Constructive avoiding sets (verified by the checker).")


@_command(_CONSTRUCT, "residue", _EQ, *_ints("--q", "--n"))
def construct_residue(eq: ThreeVarEquation, q: int, n: int) -> None:
    """The class x = 1 mod q."""
    A = solfree.residue_set(eq.linear_form(), q, n)
    _emit({"construction": "residue", "equation": str(eq), "q": q, "n": n,
           "size": A.size, "set": A.to_text()})


@_command(_CONSTRUCT, "top", _EQ, *_ints("--n"))
def construct_top(eq: ThreeVarEquation, n: int) -> None:
    """The top interval (s_minus/s_plus * n, n]."""
    A = solfree.top_interval(eq.linear_form(), n)
    _emit({"construction": "top", "equation": str(eq), "n": n,
           "size": A.size, "set": A.to_text()})


@_command(_CONSTRUCT, "multi", _EQ, *_ints("--n", "--k"),
          _option("--xi", type=int, help="Tail start; canonical fixed point when omitted."))
def construct_multi(eq: ThreeVarEquation, n: int, k: int, xi: int | None) -> None:
    """Union of k shrinking intervals."""
    S = solfree.multi_interval(eq.linear_form(), n, k, xi)
    _emit({"construction": "multi", "equation": str(eq), "n": n, "k": k,
           **S.to_json_dict(), "set": S.materialize().to_text()})


@_command(_CONSTRUCT, "best-multi", _EQ, *_ints("--n", "--k-max"))
def construct_best_multi(eq: ThreeVarEquation, n: int, k_max: int) -> None:
    """Best multi-interval set over 1 <= k <= k_max."""
    k, S = solfree.best_multi_interval(eq.linear_form(), n, k_max)
    _emit({"construction": "best-multi", "equation": str(eq), "n": n, "k": k,
           **S.to_json_dict(), "set": S.materialize().to_text()})


@_command(_CONSTRUCT, "two-var", *_ints("--a", "--b", "--n"))
def construct_two_var(a: int, b: int, n: int) -> None:
    """Greedy extremal set for the two-variable equation ax = by."""
    size, A = solfree.two_var_extremal(a, b, n)
    _emit({"construction": "two-var", "a": a, "b": b, "n": n,
           "size": size, "set": A.to_text()})


@_command(_CONSTRUCT, "ab", *_ints("--b", "--n"))
def construct_ab(b: int, n: int) -> None:
    """The cube-valuation set {u * b^(3i) : b does not divide u}."""
    A, density = solfree.ab_set(b, n)
    _emit({"construction": "ab", "b": b, "n": n, "density": _frac(density),
           "size": A.size, "set": A.to_text()})


_FAMILY1 = _group(_TOP, "family1", "Structure theory for x + b*y = c*z with b > 1.")


@_command(_FAMILY1, "quantities", *_ints("--n", "--b", "--c"))
def family1_quantities(n: int, b: int, c: int) -> None:
    """Smallest-element estimates S and s'."""
    stats = solfree.min_element_stats(n, b, c)
    _emit({"n": n, "b": b, "c": c, "S": stats.predicted, "s_prime": stats.crossover,
           "density": _frac(solfree.interval_density(b, c))})


@_command(_FAMILY1, "candidates", *_ints("--n", "--b", "--c"))
def family1_candidates(n: int, b: int, c: int) -> None:
    """Two-interval extremal candidates, one JSON line each."""
    for cand in solfree.extremal_candidates(n, b, c):
        _emit(cand.to_json_dict())


@_command(_FAMILY1, "def1", _EQ, *_ints("--n"),
          _option("--set", dest="set_text", required=True, help="Ascending comma-separated members."))
def family1_def1(eq: ThreeVarEquation, n: int, set_text: str) -> None:
    """Interval-compression trace of an avoiding set."""
    trace = solfree.interval_compression(eq, IntSet.from_text(set_text, n))
    _emit({"equation": str(eq), "n": n, "s": trace.s, "t": trace.t, "alpha": trace.alpha,
           "r": list(trace.r_seq), "l": list(trace.l_seq),
           "sizes": list(trace.sizes),
           "final": trace.stages[-1].to_text()})


@_command(_FAMILY1, "lemma26", _EQ, *_ints("--n"), _option("--set", dest="set_text", required=True),
          *_ints("--z"), _option("--d", type=int, default=0, help="(default: %(default)s)"))
def family1_window(eq: ThreeVarEquation, n: int, set_text: str, z: int, d: int) -> None:
    """Deficiency of the solution window around c*z/(b+1)."""
    count = solfree.solution_window_deficiency(eq, IntSet.from_text(set_text, n), z, d)
    _emit({"equation": str(eq), "n": n, "z": z, "d": d, "missing": count})


@_command(_TOP, "family2", *_ints("--b", "--c", "--n"))
def family2_cmd(b: int, c: int, n: int) -> None:
    """Closed-form extremal set for b(x+y) = cz."""
    result = solfree.family2_extremal(b, c, n)
    _emit({"b": b, "c": c, "n": n, "case": result.case, **result.structured.to_json_dict(),
           "set": result.structured.materialize().to_text()})


@_command(_TOP, "rho", _EQ, _option("--m", type=int, help="Single modulus."),
          _option("--m-max", type=int, help="Best density over m <= m_max."), *_BUDGETS)
def rho(eq: ThreeVarEquation, m: int | None, m_max: int | None,
        node_budget: int | None, time_budget: float | None) -> None:
    """Maximum density of residues with no solutions modulo m."""
    if (m is None) == (m_max is None):
        raise UsageError("pass exactly one of --m / --m-max")
    if m is not None:
        d = search.rho_m(eq, m, node_cap=node_budget, time_cap=time_budget)
    else:
        d = search.rho_best(eq, m_max, node_cap=node_budget, time_cap=time_budget)
    _emit({"equation": str(eq), "m": d.m, "rho": _frac(d.rho),
           "witness": d.witness.to_text()})


_CONJECTURE = _group(_TOP, "conjecture", "The c = b*b counterexample apparatus.")


@_command(_CONJECTURE, "gap", *_ints("--b"))
def conjecture_gap(b: int) -> None:
    """Exact densities: the cube-valuation set versus the two-interval family."""
    d_ab, d_intervals = solfree.counterexample_gap(b)
    _emit({"b": b, "dAb": _frac(d_ab), "D": _frac(d_intervals)})


@_command(_CONJECTURE, "verify27", *_ints("--b", "--n"), *_BUDGETS)
def conjecture_verify(b: int, n: int, node_budget: int | None, time_budget: float | None) -> None:
    """Compare |A_b intersect [1,n]| with the exact maximum."""
    report = solfree.verify_cube_set_extremal(b, n, node_cap=node_budget, time_cap=time_budget)
    _emit({"b": b, "n": n, "ab_size": report.ab_size, "exact_size": report.exact_size,
           "equal": report.equal})


@_command(_CONJECTURE, "inject", *_ints("--b", "--n"),
          _option("--set", dest="set_text", required=True, help="An avoiding set B."))
def conjecture_inject(b: int, n: int, set_text: str) -> None:
    """Injection certificate B \\ A -> A \\ B."""
    B = IntSet.from_text(set_text, n)
    cert = solfree.injection_certificate(b, B, n)
    _emit(cert.to_json_dict())


@_command(_TOP, "report", _EQ, *_ints("--n-from", "--n-to"),
          _option("--step", type=int, default=1, help="(default: %(default)s)"),
          _option("--fmt", choices=["csv", "json"], default="csv", help="(default: %(default)s)"),
          _option("--output", help="Write the report to a file as well."), *_BUDGETS, timing=True)
def report(timing: bool, eq: ThreeVarEquation, n_from: int, n_to: int, step: int, fmt: str,
           output: str | None, node_budget: int | None, time_budget: float | None) -> None:
    """Ratio-table sweep r(n)/n over a range of n."""
    if step < 1 or n_from < 1 or n_to < n_from:
        raise UsageError("need 1 <= n-from <= n-to and step >= 1")
    try:  # newline="" keeps csv's \r\n, so the file gets stdout's bytes
        sink = open(output, "w", encoding="utf-8", newline="") if output else None
    except OSError as exc:
        raise UsageError(f"cannot open --output {output}: {exc.strerror}") from None
    # sys.stdout is read per call, since a caller may swap it before calling main
    outs = [sys.stdout] + ([sink] if sink else [])
    try:
        if fmt == "csv":
            for out in outs:
                out.write(_csv_line(CSV_COLUMNS))
        # the rows print no witness, so no lex-least pass; each row's nodes are
        # the DFS nodes of the prefixes it solved, the earlier ones being warm
        for n in range(n_from, n_to + 1, step):
            result = search.max_avoiding(eq, n, node_cap=node_budget, time_cap=time_budget,
                                         canonical=False)
            ratio = Fraction(result.size, n)
            row = {
                "equation": str(eq), "n": n, "method": "exact", "size": result.size,
                "ratio_num": ratio.numerator, "ratio_den": ratio.denominator,
                "optimal": result.optimal, "nodes": result.nodes,
                "millis": result.millis if timing else 0,
            }
            if fmt == "json":
                row["constructions"] = _construction_sizes(eq, n)
                line = _json_line(row)
            else:
                line = _csv_line(row[col] for col in CSV_COLUMNS)
            for out in outs:  # one rendering, so the file holds stdout's bytes
                out.write(line)
            if not result.optimal:
                raise BudgetExceeded("sweep stopped at the search budget; completed rows were flushed")
    finally:
        if sink:
            sink.close()


def _error_payload(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def _joined(args: list[str]) -> list[str]:
    """``args`` with each option that takes a value joined to the token after
    it, as ``--opt=value``: a value that starts with "-", as in
    ``--eq -x+y=3z``, then reaches its option instead of reading as one."""
    out, tokens = [], iter(args)
    for arg in tokens:
        value = next(tokens, None) if arg in _VALUED else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(args: list[str] | None = None, prog_name: str | None = None, standalone_mode: bool = True) -> None:
    """Run one command line, ``args`` or else ``sys.argv[1:]``.

    In standalone mode a failure ends the process with the exit code the
    module docstring lists: a usage error prints the command's usage and
    the error, a package error its JSON object, both on stderr.  Otherwise
    the exception reaches the caller.  The usage text names the program
    ``solfree`` whatever ``prog_name`` says.
    """
    if not standalone_mode:
        ns = _PARSER.parse_args(_joined(sys.argv[1:] if args is None else args))
        ns.call(ns)
        return
    try:
        main(args, prog_name, standalone_mode=False)
    except UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        sys.stderr.write(f"{exc.parser.prog}: error: {exc}\n")
        sys.exit(exc.exit_code)
    except SolfreeError as exc:
        print(json.dumps(_error_payload(exc)), file=sys.stderr)
        sys.exit(3 if isinstance(exc, BudgetExceeded) else 2)
    except KeyboardInterrupt:
        sys.stderr.write("\n")  # the shell's next prompt starts after the ^C
        sys.exit(130)
    except BrokenPipeError:
        # the reader has gone: what stdout still buffers goes to devnull, so
        # the flush at exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def run() -> None:
    """Console entry point with the documented exit codes."""
    main()


if __name__ == "__main__":
    run()
