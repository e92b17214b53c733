"""Extremal subsets of [1, n] avoiding solutions to non-invariant linear
equations ax + by = cz: exact search, constructions, and cross-verification."""

from .equations import (
    AvoidanceCheck,
    Family,
    IntSet,
    LinearForm,
    Solution,
    ThreeVarEquation,
    avoids,
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
from .constructions import (
    Interval,
    StructuredSet,
    ab_set,
    best_multi_interval,
    multi_interval,
    residue_set,
    top_interval,
    two_var_extremal,
)
from .family1 import (
    CompressionTrace,
    MinElementStats,
    TwoIntervalCandidate,
    best_candidate,
    eligible,
    extremal_candidates,
    interval_compression,
    interval_density,
    min_element_stats,
    solution_window_deficiency,
)
from .family2 import Family2Extremal, closed_form_size, family2_extremal
from .conjectures import (
    CubeSetReport,
    InjectionCertificate,
    counterexample_equation,
    counterexample_gap,
    injection_certificate,
    verify_cube_set_extremal,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
