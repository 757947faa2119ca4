"""Quantum Stirling cycle with a fractional-kinetics particle in a box.

The package computes canonical-ensemble thermodynamics of a single particle
confined to an infinite well whose kinetic energy scales as |p|^alpha with
1 < alpha <= 2, assembles four-corner Stirling cycles from such states, and
locates the perfect-regeneration operating manifold q_r = 0 by sweeps and
bracketed root finding.
"""

from .cycle import (
    CycleParams,
    CycleReport,
    DegenerateCycleError,
    REGIME_ENGINE,
    REGIME_NON_ENGINE,
    carnot_efficiency,
    corners,
    evaluate,
    regenerator_heat,
)
from .solver import (
    NodeError,
    NoRootError,
    RegenerationPoint,
    SolverError,
    SweepAxis,
    SweepGrid,
    TraceResult,
    find_brackets,
    solve_regeneration,
    sweep,
    trace_curve,
)
from .spectrum import WellSpec, energy_level, energy_levels
from .thermo import (
    DEFAULT_REL_TOL,
    EnsembleSummary,
    FracStirlingError,
    MAX_LEVELS,
    ThermalState,
    occupations,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "CycleParams",
    "CycleReport",
    "DEFAULT_REL_TOL",
    "DegenerateCycleError",
    "EnsembleSummary",
    "FracStirlingError",
    "MAX_LEVELS",
    "NodeError",
    "NoRootError",
    "REGIME_ENGINE",
    "REGIME_NON_ENGINE",
    "RegenerationPoint",
    "SolverError",
    "SweepAxis",
    "SweepGrid",
    "ThermalState",
    "TraceResult",
    "WellSpec",
    "carnot_efficiency",
    "corners",
    "energy_level",
    "energy_levels",
    "evaluate",
    "find_brackets",
    "occupations",
    "regenerator_heat",
    "solve_regeneration",
    "summarize",
    "sweep",
    "trace_curve",
    "__version__",
]
