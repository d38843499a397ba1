"""Hellinger information and optimal design for non-regular regression.

The package computes Hellinger information for statistical models whose
densities have jump or power-law singularities (where Fisher information
does not exist), turns it into minimax risk lower bounds, solves the
associated max-min experimental design problem for polynomial regression,
and verifies the resulting rates by Monte Carlo simulation with an
envelope (boundary) linear-programming estimator.

Main entry points
-----------------
- :func:`location_info` / :func:`uniform_info` -- closed-form and numeric
  Hellinger information for location and uniform-type models.
- :func:`estimate_alpha_and_J` -- recover the order ``alpha`` and constant
  ``J`` of ``h^2(eps) ~ J * eps**alpha`` from an epsilon ladder.
- :func:`minimax_lower_bound` / :func:`fisher_lower_bound` -- risk lower
  bounds in the non-regular and regular (Fisher) regimes.
- :func:`optimize_design_cutting_plane` -- max-min optimal designs via a
  cutting-plane (outer linearization) method.
- :func:`pi_curve` / :func:`e_optimal_design` -- the three-point design
  family and the classical E-optimal comparator.
- :func:`mc_risk` -- reproducible Monte Carlo risk estimates.
- :func:`smith_fit` -- envelope LP estimator for one-sided errors.

The command-line interface lives in :mod:`nonregdesign.cli` and is exposed
as the ``nonregdesign`` console script.
"""

from .models import (
    ErrorFamily,
    ErrorModel,
    RegressionModel,
    UniformModel,
    UniformVariant,
)
from .hellinger import (
    EpsilonLadder,
    InfoMethod,
    InfoResult,
    estimate_alpha_and_J,
    fisher_quadratic_check,
    hellinger_sq_closed,
    hellinger_sq_numeric,
    location_info,
    r_beta,
    uniform_info,
)
from .bounds import (
    BoundInput,
    FiniteModelPair,
    fisher_lower_bound,
    epsilon_diagnostic,
    hellinger_constant,
    two_point_risk_check,
    minimax_lower_bound,
)
from .lp import LinearProgram, LpSolution, LpStatus, solve_lp
from .design import (
    CuttingPlaneConfig,
    Design,
    DesignSolution,
    StopReason,
    default_grid,
    design_info,
    e_optimal_design,
    optimize_design_cutting_plane,
    pi_curve,
    symmetrize,
    uniform_design,
)
from .estimator import Dataset, load_dataset_csv, residuals, smith_fit
from .sim import (
    RiskEstimate,
    SimPlan,
    SimulationError,
    mc_risk,
    realize_design,
    unif_mle_mse,
    write_risk_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInput",
    "CuttingPlaneConfig",
    "Dataset",
    "Design",
    "DesignSolution",
    "EpsilonLadder",
    "ErrorFamily",
    "ErrorModel",
    "FiniteModelPair",
    "InfoMethod",
    "InfoResult",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "RegressionModel",
    "RiskEstimate",
    "SimPlan",
    "SimulationError",
    "StopReason",
    "UniformModel",
    "UniformVariant",
    "fisher_lower_bound",
    "default_grid",
    "design_info",
    "e_optimal_design",
    "epsilon_diagnostic",
    "estimate_alpha_and_J",
    "fisher_quadratic_check",
    "hellinger_constant",
    "hellinger_sq_closed",
    "hellinger_sq_numeric",
    "two_point_risk_check",
    "load_dataset_csv",
    "location_info",
    "mc_risk",
    "minimax_lower_bound",
    "optimize_design_cutting_plane",
    "pi_curve",
    "r_beta",
    "realize_design",
    "residuals",
    "smith_fit",
    "solve_lp",
    "symmetrize",
    "uniform_design",
    "unif_mle_mse",
    "uniform_info",
    "write_risk_csv",
]
