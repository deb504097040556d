"""Caputo fractional conjugate-gradient optimization."""

from .engine import (BetaKind, DenominatorUnderflow, GridStep, IterRecord,
                     LineSearchError, LineSearchParams, Objective, RunReport,
                     RunStatus, StopCriteria, armijo_wolfe_search, beta_value,
                     cfcg_minimize, cfsd_minimize, direction,
                     recheck_armijo_wolfe)
from .fraccalc import (FracParams, QuadratureSpec, frac_gradient_general,
                       frac_gradient_quadratic, gamma_coeff)
from .problems import (Example1Config, MlpSpec, benchmark_fn, gen_example1,
                       mlp_init, mlp_lower_terminal, mlp_objective,
                       stacked_problem, tikhonov_run_objective)
from .tikhonov import (LeastSquaresProblem, SingularSystemError,
                       abar_matrix, build_quadratic, check_Abar_pd,
                       regularized_matrix, tikhonov_solution)

__version__ = "0.1.0"

__all__ = [
    "BetaKind", "DenominatorUnderflow", "Example1Config",
    "FracParams", "GridStep", "IterRecord", "LeastSquaresProblem",
    "LineSearchError", "LineSearchParams", "MlpSpec", "Objective",
    "QuadratureSpec", "RunReport", "RunStatus", "SingularSystemError",
    "StopCriteria", "abar_matrix",
    "armijo_wolfe_search", "benchmark_fn", "beta_value", "build_quadratic",
    "cfcg_minimize", "cfsd_minimize", "check_Abar_pd",
    "direction", "frac_gradient_general", "frac_gradient_quadratic",
    "gamma_coeff", "gen_example1", "mlp_init", "mlp_lower_terminal",
    "mlp_objective", "recheck_armijo_wolfe", "regularized_matrix",
    "stacked_problem", "tikhonov_run_objective", "tikhonov_solution",
]
