"""The benchmark's own answer checker.

It shares no code with ``solfree.equations.avoids`` (one of the layers being
timed): avoidance is tested with shifted bitmasks, sets are rebuilt from
their definitions, and r(n) comes from the pinned table in reference.json.
Every function returns a list of failure messages, empty when the output is
right.
"""
from __future__ import annotations

import csv
import io
from fractions import Fraction

from workloads import BEST_MULTI_K_MAX, INJECT_B, eq_key, eq_text


def _mask(values) -> int:
    m = 0
    for v in values:
        m |= 1 << v
    return m


def avoids(eq, members) -> bool:
    """No x, y, z in ``members`` (repeats allowed) with ax + by = cz.

    ``b = 0`` means the pair constraint ax = cz.  Bit a*x + b*y of the shifted
    b-dilate meets the c-dilate exactly when some z solves the equation.
    """
    a, b, c = eq
    cset = _mask(c * z for z in members)
    if b == 0:
        return not (_mask(a * x for x in members) & cset)
    bset = _mask(b * y for y in members)
    return not any((bset << (a * x)) & cset for x in members)


def avoids_mod(eq, m: int, residues) -> bool:
    """No residues x, y, z (m standing for 0) with ax + by = cz modulo m."""
    a, b, c = eq
    targets = {c * z % m for z in residues}
    return not any((a * x + b * y) % m in targets for x in residues for y in residues)


def brute_force_r(eq, n: int) -> int:
    """Exact r(n) by exhaustive include/exclude search, for small n only."""
    a, b, c = eq
    best = 0

    def clashes(chosen: list[int], e: int) -> bool:
        pool = chosen + [e]
        members = set(pool)
        for x in pool:
            for y in pool:
                t = a * x + b * y
                if t % c == 0 and t // c in members and e in (x, y, t // c):
                    return True
        return False

    def go(e: int, chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) + (n - e + 1) <= best:
            return
        if e > n:
            best = len(chosen)
            return
        if not clashes(chosen, e):
            go(e + 1, chosen + [e])
        go(e + 1, chosen)

    go(1, [])
    return best


def _set_shape(members, n: int) -> list[str]:
    if any(not 1 <= x <= n for x in members) or any(x >= y for x, y in zip(members, members[1:])):
        return [f"members are not a strictly increasing subset of [1, {n}]"]
    return []


def check_exact(eq, n: int, out: dict, reference: dict) -> list[str]:
    """An exact solve: optimal, size = pinned r(n), witness of that size with no solution."""
    want = reference["r"][eq_key(eq)][n]
    errs = _set_shape(out["witness"], n)
    if not out["optimal"]:
        errs.append("not optimal")
    if out["size"] != want or len(out["witness"]) != want:
        errs.append(f"size {out['size']} (witness {len(out['witness'])}), pinned r(n) = {want}")
    if not errs and not avoids(eq, out["witness"]):
        errs.append("witness contains a solution")
    return errs


def check_report_row(eq, n: int, line: str, reference: dict) -> list[str]:
    want = reference["r"][eq_key(eq)][n]
    ratio = Fraction(want, n)
    expected = [eq_text(eq), str(n), "exact", str(want), str(ratio.numerator),
                str(ratio.denominator), "true"]
    row = next(csv.reader(io.StringIO(line)))
    if len(row) != 9 or row[:7] != expected or not row[7].isdigit() or row[8] != "0":
        return [f"row {row} does not match {expected} + [nodes, 0]"]
    return []


def check_rho(eq, m_max: int, out: dict, reference: dict) -> list[str]:
    want_m, want_rho = reference["rho_best"][eq_key(eq)][str(m_max)]
    errs = []
    if [out["m"], out["rho"]] != [want_m, want_rho]:
        errs.append(f"rho_best = ({out['m']}, {out['rho']}), pinned ({want_m}, {want_rho})")
    w = out["witness"]
    if Fraction(len(w), out["m"]) != Fraction(out["rho"]):
        errs.append("witness size does not give rho")
    errs += _set_shape(w, out["m"])
    if not errs and not avoids_mod(eq, out["m"], w):
        errs.append("witness has a solution modulo m")
    return errs


def _valuation(x: int, b: int) -> int:
    v = 0
    while x % b == 0:
        x //= b
        v += 1
    return v


def _cube_set(b: int, n: int) -> list[int]:
    """{u * b^(3i) : b does not divide u}: exactly the x whose b-adic valuation is 0 mod 3."""
    return [x for x in range(1, n + 1) if _valuation(x, b) % 3 == 0]


def _top_bounds(eq, n: int) -> int:
    """lo such that the top interval is (lo, n] for the normalized form."""
    a, b, c = eq
    s_plus, s_minus = max(a + b, c), min(a + b, c)
    return s_minus * n // s_plus


def _runs(members) -> int:
    return sum(1 for i, x in enumerate(members) if i == 0 or members[i - 1] != x - 1)


def _two_var_optimum(a: int, b: int, n: int) -> int:
    """Maximum subset of [1, n] with no pair b*y = a*x.

    The pairs x -> a*x/b form disjoint paths; a path of L vertices holds
    ceil(L/2) of them and no more.
    """
    total = 0
    for start in range(1, n + 1):
        if start % a == 0:
            continue  # start = a*x/b for x = start/a*b, so it is not a path head
        length, x = 1, start
        while x % b == 0 and x // b * a <= n:
            x = x // b * a
            length += 1
        total += (length + 1) // 2
    return total


def check_draw(d: dict, out: dict) -> list[str]:
    """Check one verify-fuzz draw's outputs against the definitions."""
    kind, n = d["kind"], d["n"]
    errs: list[str] = []
    if kind in ("residue", "top", "multi", "best_multi"):
        eq = tuple(d["eq"])
        A = out["set"]
        errs += _set_shape(A, n)
        if kind == "residue" and A != list(range(1, n + 1, d["q"])):
            errs.append("residue set is not {x = 1 mod q}")
        if kind == "top" and A != list(range(_top_bounds(eq, n) + 1, n + 1)):
            errs.append("top interval has the wrong bounds")
        if kind in ("multi", "best_multi"):
            if out["size"] != len(A):
                errs.append(f"size {out['size']} != {len(A)} members")
            k = d["k"] if kind == "multi" else out["k"]
            if _runs(A) > k:
                errs.append(f"{_runs(A)} intervals, at most {k} allowed")
        if kind == "best_multi":
            if not 1 <= out["k"] <= BEST_MULTI_K_MAX:
                errs.append(f"k = {out['k']} outside [1, {BEST_MULTI_K_MAX}]")
            if len(A) < n - _top_bounds(eq, n):
                errs.append("smaller than the top interval (the k = 1 candidate)")
        if not errs and not avoids(eq, A):
            errs.append("set contains a solution")
    elif kind == "ab":
        b = d["b"]
        if out["set"] != _cube_set(b, n):
            errs.append("set differs from {u * b^(3i) : b does not divide u}")
        elif not avoids((1, b, b * b), out["set"]):
            errs.append("set contains a solution")
        if Fraction(out["density"]) != Fraction(b * b, b * b + b + 1):
            errs.append(f"density {out['density']}")
    elif kind == "two_var":
        a, b = d["a"], d["b"]
        A = out["set"]
        errs += _set_shape(A, n)
        if out["size"] != len(A) or len(A) != _two_var_optimum(a, b, n):
            errs.append(f"size {out['size']} ({len(A)} members), optimum {_two_var_optimum(a, b, n)}")
        if not errs and not avoids((a, 0, b), A):
            errs.append("set contains a pair")
    elif kind == "family2":
        from solfree.family2 import closed_form_size

        b, c = d["b"], d["c"]
        A = out["set"]
        errs += _set_shape(A, n)
        want = closed_form_size(b, c, n)
        if out["size"] != want or len(A) != want:
            errs.append(f"size {out['size']} ({len(A)} members), closed form {want}")
        if not errs and not avoids((b, b, c), A):
            errs.append("set contains a solution")
    elif kind == "family1":
        eq = (1, d["b"], d["c"])
        for s, members in out["candidates"]:
            shape = _set_shape(members, n)
            if shape or not members or members[0] != s:
                errs.append(f"candidate s={s} is malformed")
            elif not avoids(eq, members):
                errs.append(f"candidate s={s} contains a solution")
        stages = out["compression"]
        if stages is not None:
            if stages[0] != out["candidates"][0][1]:
                errs.append("compression did not start from the first candidate")
            sizes = [len(st) for st in stages]
            if sizes != sorted(sizes):
                errs.append(f"stage sizes shrink: {sizes}")
            for i, st in enumerate(stages):
                if _set_shape(st, n) or not avoids(eq, st):
                    errs.append(f"compression stage {i} is malformed or not avoiding")
    elif kind == "inject":
        if [run["b"] for run in out] != INJECT_B:
            errs.append("one run per b expected")
        for run in out:
            b = run["b"]
            cube = set(_cube_set(b, n))
            if len(run["sets"]) != len(run["mappings"]):
                errs.append("one certificate per set expected")
            for B, mapping in zip(run["sets"], run["mappings"]):
                if _set_shape(B, n) or not avoids((1, b, b * b), B):
                    errs.append(f"b={b}: random set is malformed or not avoiding")
                    continue
                sources = [src for src, _ in mapping]
                targets = [tgt for _, tgt in mapping]
                in_b = set(B)
                if sources != [x for x in B if x not in cube]:
                    errs.append(f"b={b}: certificate does not map exactly B \\ A_b")
                if len(set(targets)) != len(targets) or any(t not in cube or t in in_b for t in targets):
                    errs.append(f"b={b}: certificate is not an injection into A_b \\ B")
    else:
        errs.append(f"unknown kind {kind}")
    return errs


def check_op(workload: str, spec, out, reference: dict) -> list[str]:
    """Dispatch on workload; ``spec`` is the input the op was made from."""
    if workload == "report-sweep":
        eq, n = spec
        return check_report_row(eq, n, out, reference)
    if workload == "deep-solve":
        kind, eq, n = spec
        return (check_exact if kind == "solve" else check_rho)(tuple(eq), n, out, reference)
    if workload == "canonical":
        eq, n = spec
        return check_exact(tuple(eq), n, out, reference)
    return check_draw(spec, out)
