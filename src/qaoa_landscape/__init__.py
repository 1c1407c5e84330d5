"""Depth-1 QAOA landscapes from solution-space structure.

The package evaluates success-probability landscapes of depth-1 QAOA
circuits whose cost operator projects onto a target set, approximates the
ensemble-expected landscape from Hamming-distance statistics alone, and
compares a non-iterative pipeline (optimise once per problem, sample every
instance at the shared angles) against per-instance optimisation.
"""

from .analytic import EXACT_MODE, MODES, PAPER_MODE, UniformModel, summary_analytic
from .core import (
    Angles,
    AngleGrid,
    ComputationError,
    TargetSpace,
    UsageError,
    binomial,
    default_grid,
    distance_profile,
)
from .landscape import (
    LandscapeGrid,
    approx_expected_f1,
    c_k,
    f1,
    f1_closed,
    f1_statevector,
    f_n,
    w_matrix,
)
from .optimize import (
    OptConfig, OptResult, best_angles, best_angles_all, maximize, optimize_instance,
)
from .problems import Ensemble, Instance, build_ensemble
from .structure import StructuralSummary, aggregate

__version__ = "0.1.0"

__all__ = [
    "Angles",
    "AngleGrid",
    "ComputationError",
    "Ensemble",
    "EXACT_MODE",
    "Instance",
    "LandscapeGrid",
    "MODES",
    "OptConfig",
    "OptResult",
    "PAPER_MODE",
    "StructuralSummary",
    "TargetSpace",
    "UniformModel",
    "UsageError",
    "aggregate",
    "approx_expected_f1",
    "best_angles",
    "best_angles_all",
    "binomial",
    "build_ensemble",
    "c_k",
    "default_grid",
    "distance_profile",
    "f1",
    "f1_closed",
    "f1_statevector",
    "f_n",
    "maximize",
    "optimize_instance",
    "summary_analytic",
    "w_matrix",
    "__version__",
]
