"""Time-optimal interface crossings between two media with convex velocity sets."""

from .errors import (
    BracketExpansionFailedError,
    DegenerateDimensionsError,
    ElvisError,
    NonConvexError,
    NotIsotropicError,
    OriginNotInteriorError,
    ProblemFormatError,
    ValidationError,
    ZeroVectorError,
)
from .geometry import (
    Ball,
    Ellipse,
    Polygon,
    gauge,
    normal_face,
    polar,
    support,
    validate,
)
from .probfile import (
    dump_problem,
    load_problem,
    load_sweep,
    parse_problem,
    parse_sweep,
)
from .solver import (
    classical_snell_angles,
    crossing_time,
    delta,
    expand_bracket,
    make_problem,
    solve,
    solve_batch,
)

__all__ = [
    "Ball",
    "BracketExpansionFailedError",
    "DegenerateDimensionsError",
    "Ellipse",
    "ElvisError",
    "NonConvexError",
    "NotIsotropicError",
    "OracleConfig",
    "OriginNotInteriorError",
    "Polygon",
    "ProblemFormatError",
    "ValidationError",
    "ZeroVectorError",
    "classical_snell_angles",
    "contains",
    "crossing_time",
    "delta",
    "dump_problem",
    "expand_bracket",
    "flat_minimum_interval",
    "gauge",
    "gauge_by_membership",
    "load_problem",
    "load_sweep",
    "make_problem",
    "minimize_objective",
    "normal_face",
    "parse_problem",
    "parse_sweep",
    "polar",
    "sample_interior",
    "solve",
    "solve_batch",
    "support",
    "validate",
]

__version__ = "0.1.0"

# The oracle's names load oracle.py, and with it mpmath, on first use, so
# that importing the package (and the CLI, which never verifies) does not.
_ORACLE_NAMES = (
    "OracleConfig",
    "contains",
    "flat_minimum_interval",
    "gauge_by_membership",
    "minimize_objective",
    "sample_interior",
)


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # The names of an eager import of the oracle, without these hooks.
    hooks = {"_ORACLE_NAMES", "__getattr__", "__dir__"}
    return sorted((set(globals()) - hooks) | set(_ORACLE_NAMES) | {"oracle"})
