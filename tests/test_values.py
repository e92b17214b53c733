"""The package's record and value types, and what ``import solfree`` loads.

Result records are ``typing.NamedTuple``s.  The validated value types
(``ThreeVarEquation``, ``IntSet``, ``LinearForm`` and ``StructuredSet``)
are ``__slots__`` objects on one base, ``solfree.equations.Value``.  Neither
kind uses ``dataclasses``, whose import alone pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``.  ``import solfree`` and the engine's commands load
the engine alone; the names of the other modules load on first use.
"""
from __future__ import annotations

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from unittest import mock

import pytest

import solfree
from solfree import search
from solfree.constructions import Interval, StructuredSet
from solfree.equations import IntSet, LinearForm, ThreeVarEquation, Value
from solfree.errors import InvariantViolation

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(solfree.__file__)))

VALUE_TYPES = (ThreeVarEquation, IntSet, LinearForm, StructuredSet)


def fresh_output(code: str) -> str:
    """What a fresh interpreter prints running ``code`` with ``-c`` and this
    package on the path."""
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def added_modules(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after ``statement`` and not
    after ``pass``."""
    def loaded(code: str) -> set[str]:
        return set(fresh_output(f"{code}\nimport sys\nprint(*sys.modules, sep='\\n')").split())

    return loaded(statement) - loaded("pass")


# the modules that load on first use of one of their names
DEFERRED = {"solfree.constructions", "solfree.family1", "solfree.family2", "solfree.conjectures"}


def module_tree(module: str) -> ast.Module:
    """The syntax tree of ``solfree.<module>``'s source file."""
    path = os.path.join(os.path.dirname(os.path.abspath(solfree.__file__)), f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def cli_run(*args: str) -> str:
    """A statement that runs ``solfree`` with ``args``, its output discarded."""
    return ("import contextlib, io\nfrom solfree import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    cli.main({list(args)!r})")


class TestImportCost:
    def test_import_solfree_loads_no_dataclasses_or_inspect(self):
        added = added_modules("import solfree")
        assert "solfree.search" in added
        assert not {"dataclasses", "inspect"} & added
        assert not DEFERRED & added

    def test_import_cli_loads_no_click_inspect_or_dataclasses(self):
        added = added_modules("import solfree.cli")
        assert "solfree.cli" in added
        assert not {"click", "inspect", "dataclasses"} & added
        assert not DEFERRED & added

    def test_a_csv_report_loads_the_engine_alone(self):
        added = added_modules(cli_run("report", "--eq", "x+y=3z", "--n-from", "1", "--n-to", "5"))
        assert "solfree.search" in added
        assert not DEFERRED & added

    def test_a_construction_loads_its_module(self):
        added = added_modules(cli_run("construct", "top", "--eq", "x+y=3z", "--n", "5"))
        assert DEFERRED & added == {"solfree.constructions"}

    def test_a_json_report_loads_the_constructions_it_sizes(self):
        # one equation per branch of cli._construction_sizes: family1 sizes only
        # eligible Family I, family2 only Family II with a > 1; x+2y=4z is
        # Family I but not eligible, which equations.eligible answers alone
        for text, modules in [("x+y=3z", {"constructions"}), ("x+2y=13z", {"constructions", "family1"}),
                              ("2x+2y=5z", {"constructions", "family2"}), ("x+2y=4z", {"constructions"})]:
            added = added_modules(cli_run("report", "--eq", text, "--n-from", "1", "--n-to", "5", "--fmt", "json"))
            assert DEFERRED & added == {f"solfree.{module}" for module in modules}, text

    def test_a_conjecture_loads_its_module_and_what_it_imports(self):
        # conjectures imports ab_set from constructions and interval_density from family1
        added = added_modules(cli_run("conjecture", "inject", "--b", "2", "--n", "8", "--set", "2"))
        assert DEFERRED & added == {"solfree.conjectures", "solfree.constructions", "solfree.family1"}

    def test_the_cli_imports_at_module_level_alone(self):
        in_functions = [f"{node.name}:{inner.lineno}" for node in ast.walk(module_tree("cli"))
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
        assert in_functions == []

    def test_the_cli_reads_public_names_of_solfree(self):
        read = {node.attr for node in ast.walk(module_tree("cli"))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "solfree"}
        assert read and read <= set(solfree.__all__), read - set(solfree.__all__)


# every public name, by the module that defines it
PUBLIC = {
    "errors": (),
    "equations": ("AvoidanceCheck", "Family", "IntSet", "LinearForm", "Solution", "ThreeVarEquation",
                  "avoids", "eligible", "enumerate_solutions", "parse_equation"),
    "search": ("AllExtremal", "ExtremalResult", "ModularDensity", "all_extremal", "max_avoiding",
               "random_avoiding_sets", "rho_best", "rho_m"),
    "constructions": ("Interval", "StructuredSet", "ab_set", "best_multi_interval", "multi_interval",
                      "residue_set", "top_interval", "two_var_extremal"),
    "family1": ("CompressionTrace", "MinElementStats", "TwoIntervalCandidate", "best_candidate",
                "extremal_candidates", "interval_compression", "interval_density", "min_element_stats",
                "solution_window_deficiency"),
    "family2": ("Family2Extremal", "closed_form_size", "family2_extremal"),
    "conjectures": ("CubeSetReport", "InjectionCertificate", "counterexample_equation", "counterexample_gap",
                    "injection_certificate", "verify_cube_set_extremal"),
}


class TestPublicSurface:
    def test_all_names_every_public_name(self):
        assert sorted(solfree.__all__) == sorted([*PUBLIC, *(name for names in PUBLIC.values() for name in names)])
        assert len(solfree.__all__) == 51

    @pytest.mark.parametrize("module", sorted(PUBLIC))
    def test_each_name_is_its_modules_object(self, module):
        home = importlib.import_module(f"solfree.{module}")
        assert getattr(solfree, module) is home
        for name in PUBLIC[module]:
            assert getattr(solfree, name) is getattr(home, name)

    def test_family1_reexports_the_eligibility_test(self):
        assert solfree.family1.eligible is solfree.eligible is solfree.equations.eligible

    def test_dir_lists_every_public_name(self):
        assert set(solfree.__all__) <= set(dir(solfree))

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'solfree' has no attribute 'nothing'"):
            solfree.nothing  # noqa: B018

    def test_star_import_binds_every_name(self):
        unbound = fresh_output("from solfree import *\nimport solfree\nprint(*(name for name in solfree.__all__"
                               " if globals().get(name) is not getattr(solfree, name)))")
        assert unbound.split() == []


def samples() -> dict[str, object]:
    """One instance of every public record and value type, built on a cold
    solver cache that is restored afterwards."""
    eq = ThreeVarEquation(1, 2, 4)
    with mock.patch.dict(search._SOLVERS, clear=True):
        best = solfree.max_avoiding(eq, 12)
        everything = solfree.all_extremal(eq, 8)
        density = solfree.rho_m(eq, 5)
        cube = solfree.verify_cube_set_extremal(2, 10)
    form = eq.linear_form()
    form.coeffs  # noqa: B018  (fills the cached property, which copies need not carry)
    candidates = solfree.extremal_candidates(100, 2, 13)
    family1_eq = ThreeVarEquation(1, 2, 13)
    return {
        "ThreeVarEquation": eq,
        "IntSet": best.witness,
        "LinearForm": form,
        "StructuredSet": StructuredSet(20, (Interval(12, 20), Interval(1, 5, closed_lo=False)), (15, 3)),
        "Interval": Interval(3, 9, closed_lo=False),
        "Solution": solfree.enumerate_solutions(eq, 4)[0],
        "AvoidanceCheck": solfree.avoids(eq, IntSet.of(4, [1, 2, 4])),
        "ExtremalResult": best,
        "AllExtremal": everything,
        "ModularDensity": density,
        "CubeSetReport": cube,
        "InjectionCertificate": solfree.injection_certificate(2, IntSet.of(8, [2]), 8),
        "MinElementStats": solfree.min_element_stats(100, 2, 13),
        "CompressionTrace": solfree.interval_compression(family1_eq, candidates[0].members),
        "TwoIntervalCandidate": candidates[0],
        "Family2Extremal": solfree.family2_extremal(2, 5, 30),
    }


SAMPLES = samples()


def twin(value: Value) -> Value:
    """An instance of a fresh ``Value`` class with the same fields and values as ``value``."""
    cls = type(value)
    fields = cls._fields
    other = type(f"Twin{cls.__name__}", (Value,), {"__slots__": fields})
    obj = object.__new__(other)
    for name in fields:
        object.__setattr__(obj, name, getattr(value, name))
    return obj


class TestRoundTrip:
    def test_every_public_type_is_sampled(self):
        public = {name for name in solfree.__all__
                  if isinstance(getattr(solfree, name), type) and getattr(solfree, name).__module__.startswith("solfree.")
                  and not issubclass(getattr(solfree, name), (Exception, solfree.Family))}
        assert public == set(SAMPLES)
        assert all(type(value).__name__ == name for name, value in SAMPLES.items())

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_round_trip(self, name, how):
        value = SAMPLES[name]
        if how == "pickle":
            back = pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            assert pickle.loads(pickle.dumps(value, protocol=0)) == value
        else:
            back = getattr(copy, how)(value)
        assert type(back) is type(value)
        assert back == value
        assert repr(back) == repr(value)
        if name != "AllExtremal":  # its sets are a list, so it has no hash
            assert hash(back) == hash(value)

    def test_a_copied_int_set_rebuilds_its_caches(self):
        A = IntSet.of(9, [2, 3, 8])
        assert 3 in A  # fills member_set
        back = pickle.loads(pickle.dumps(A))
        assert "member_set" not in vars(back)
        assert 8 in back and 4 not in back
        form = pickle.loads(pickle.dumps(SAMPLES["LinearForm"]))
        assert form.coeffs == SAMPLES["LinearForm"].coeffs


class TestValueSemantics:
    ARGS = {
        ThreeVarEquation: (1, 2, 4),
        IntSet: (6, (1, 4, 6)),
        LinearForm: (ThreeVarEquation(2, 2, 5),),
        StructuredSet: (10, (Interval(1, 3), Interval(6, 10)), (8,)),
    }

    @pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
    def test_equal_fields_give_equal_values_and_hashes(self, cls):
        first, second = cls(*self.ARGS[cls]), cls(*self.ARGS[cls])
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second) == hash(tuple(self.ARGS[cls]))
        assert len({first, second}) == 1

    def test_keyword_construction(self):
        assert ThreeVarEquation(a=1, b=2, c=4) == ThreeVarEquation(1, 2, 4)
        assert IntSet(n=3, members=[1, 3]) == IntSet(3, (1, 3))
        assert StructuredSet(n=5, intervals=[Interval(2, 4)]).removed == ()

    def test_an_equal_equation_finds_the_cached_engine(self):
        # a second, equal equation resumes the first one's engine: prefix 21
        # of x+2y=4z is one node more; an unequal one gets an engine of its own
        with mock.patch.dict(search._SOLVERS, clear=True):
            solfree.max_avoiding(ThreeVarEquation(1, 2, 4), 20)
            [engine] = search._SOLVERS.values()
            assert solfree.max_avoiding(ThreeVarEquation(1, 2, 4), 21).nodes == 1
            assert list(search._SOLVERS) == [ThreeVarEquation(1, 2, 4)]
            assert search._SOLVERS[ThreeVarEquation(1, 2, 4)] is engine
            solfree.max_avoiding(ThreeVarEquation(1, 2, 5), 5)
            assert search._SOLVERS[ThreeVarEquation(1, 2, 5)] is not engine

    @pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
    def test_never_equal_to_another_class_or_a_tuple(self, cls):
        value = cls(*self.ARGS[cls])
        fields = tuple(getattr(value, name) for name in cls._fields)
        other = twin(value)
        assert other._key() == value._key() == fields
        assert value != other and other != value
        assert value != fields and fields != value
        sub = type(f"Sub{cls.__name__}", (cls,), {"__slots__": ()})(*self.ARGS[cls])
        assert value != sub and sub != value

    @pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
    def test_fields_are_read_only(self, cls):
        value = cls(*self.ARGS[cls])
        for name in cls._fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, before)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
            assert getattr(value, name) == before
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("name", ["ExtremalResult", "Interval", "Family2Extremal"])
    def test_record_fields_are_read_only(self, name):
        record = SAMPLES[name]
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)

    @pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
    def test_a_value_is_not_a_tuple(self, cls):
        value = cls(*self.ARGS[cls])
        assert not isinstance(value, tuple)

    def test_int_set_has_no_len_and_no_iteration(self):
        A = IntSet.of(6, [1, 4, 6])
        with pytest.raises(TypeError):
            len(A)
        with pytest.raises(TypeError):
            iter(A)
        assert A.size == 3 and 4 in A

    def test_repr_names_the_fields(self):
        assert repr(ThreeVarEquation(1, 2, 4)) == "ThreeVarEquation(a=1, b=2, c=4)"
        assert str(ThreeVarEquation(1, 2, 4)) == "x+2y=4z"
        assert repr(IntSet.of(5, [4, 2])) == "IntSet(n=5, members=(2, 4))"
        assert repr(ThreeVarEquation(3, 0, 2).linear_form()) == "LinearForm(eq=ThreeVarEquation(a=3, b=0, c=2))"
        assert repr(StructuredSet(9, (Interval(4, 9, closed_lo=False),), (7,))) == (
            "StructuredSet(n=9, intervals=(Interval(lo=4, hi=9, closed_lo=False),), removed=(7,))")


class TestValidation:
    @pytest.mark.parametrize("args,message", [
        ((0, 1, 1), "coefficients must be positive"),
        ((1, -1, 3), "coefficients must be positive"),
        ((1, 1, 0), "coefficients must be positive"),
        ((2, 2, 4), "gcd(2,2,4) must be 1"),
        ((2, 0, 4), "gcd(2,0,4) must be 1"),
        ((1, 1, 2), "x+y=2z is translation-invariant (a+b=c)"),
        ((3, 0, 3), "gcd(3,0,3) must be 1"),
        ((1, 0, 1), "x=z is translation-invariant (a+b=c)"),
    ])
    def test_equation(self, args, message):
        with pytest.raises(InvariantViolation) as info:
            ThreeVarEquation(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("args,message", [
        ((0, ()), "bound must be positive, got 0"),
        ((-3, (1,)), "bound must be positive, got -3"),
        ((5, (0, 1)), "members must lie in [1, 5]"),
        ((5, (3, 9)), "members must lie in [1, 5]"),
        ((5, (9, 2)), "members must lie in [1, 5]"),
        ((5, (3, 2)), "members must be strictly ascending"),
        ((5, (2, 2)), "members must be strictly ascending"),
    ])
    def test_int_set(self, args, message):
        with pytest.raises(InvariantViolation) as info:
            IntSet(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("args,message", [
        ((10, (Interval(0, 3),)), "interval Interval(lo=0, hi=3, closed_lo=True) escapes [1, 10]"),
        ((10, (Interval(5, 11),)), "interval Interval(lo=5, hi=11, closed_lo=True) escapes [1, 10]"),
        ((10, (Interval(5, 8), Interval(1, 5))), "intervals must be pairwise disjoint"),
        ((10, (Interval(1, 4),), (6,)), "removed singletons must lie inside the intervals"),
        ((10, (Interval(1, 4, closed_lo=False),), (1,)), "removed singletons must lie inside the intervals"),
    ])
    def test_structured_set(self, args, message):
        with pytest.raises(InvariantViolation) as info:
            StructuredSet(*args)
        assert str(info.value) == message

    def test_structured_set_normalizes_its_fields(self):
        S = StructuredSet(10, [Interval(6, 10), Interval(1, 3)], [9, 2, 9])
        assert S.intervals == (Interval(1, 3), Interval(6, 10))
        assert S.removed == (2, 9)
        assert S.size == 6
