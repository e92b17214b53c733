"""Extremal subsets of [1, n] avoiding solutions to non-invariant linear
equations ax + by = cz: exact search, constructions, and cross-verification.

``import solfree`` loads the engine alone: ``errors``, ``equations`` and
``search``, all that ``solve``, ``rho`` and a CSV ``report`` use.  The names of
``constructions``, ``family1``, ``family2`` and ``conjectures`` are in the
package all the same, and each of those modules loads the first time one
of its names is read (``__getattr__`` below, PEP 562).  ``_DEFERRED`` alone
decides which modules load late: ``solfree.cli`` reads their names from the
package as well, and each command loads only the modules it calls.  Without
a bytecode cache, as in the benchmark's children, a process compiles every
module it imports from source: the four took 7.4 ms of the 28 ms of
``import solfree`` when it loaded them all (``-X importtime``, Python
3.11.7, medians of 21), for commands that never call them.
"""

from . import errors
from .equations import (
    AvoidanceCheck,
    Family,
    IntSet,
    LinearForm,
    Solution,
    ThreeVarEquation,
    avoids,
    eligible,
    enumerate_solutions,
    parse_equation,
)
from .search import (
    AllExtremal,
    ExtremalResult,
    ModularDensity,
    all_extremal,
    max_avoiding,
    random_avoiding_sets,
    rho_best,
    rho_m,
)

# each name that loads on first use, with the module that defines it; a
# module's own name maps to itself
_DEFERRED = {
    name: module
    for module, names in {
        "constructions": ("Interval", "StructuredSet", "ab_set", "best_multi_interval", "multi_interval",
                          "residue_set", "top_interval", "two_var_extremal"),
        "family1": ("CompressionTrace", "MinElementStats", "TwoIntervalCandidate", "best_candidate",
                    "extremal_candidates", "interval_compression", "interval_density", "min_element_stats",
                    "solution_window_deficiency"),
        "family2": ("Family2Extremal", "closed_form_size", "family2_extremal"),
        "conjectures": ("CubeSetReport", "InjectionCertificate", "counterexample_equation",
                        "counterexample_gap", "injection_certificate", "verify_cube_set_extremal"),
    }.items()
    for name in (module, *names)
}

__all__ = [
    "errors", "equations", "search",
    "AvoidanceCheck", "Family", "IntSet", "LinearForm", "Solution", "ThreeVarEquation", "avoids",
    "eligible", "enumerate_solutions", "parse_equation",
    "AllExtremal", "ExtremalResult", "ModularDensity", "all_extremal", "max_avoiding",
    "random_avoiding_sets", "rho_best", "rho_m",
    *_DEFERRED,
]
__version__ = "0.1.0"


def __getattr__(name: str):
    """A deferred name, read from its module (imported now if it is not yet)
    and kept in the package, so the next read finds it without this call."""
    try:
        module = _DEFERRED[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # __import__ binds the module in this package, and -X importtime times
    # it, which it does not for importlib.import_module
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})
