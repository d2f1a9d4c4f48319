"""Linear-quadratic optimal control of mean-field SDEs with time-dependent
weights: pre-commitment solutions, open-loop equilibria, interval-commitment
equilibria for any partition, and their closed-loop continuous limit, plus
Monte Carlo verification utilities.
"""

__version__ = "0.1.0"

from .closedloop import (ClosedLoopSolution, direct_diagonal_solve, residual,
                         solve_closed_loop)
from .errors import (BlowUpError, ConfigurationError, ConvergenceError,
                     DimensionError, IllPosedError, MFLQError, ValidationError)
from .game import (DeltaEquilibrium, IntervalSolution, build_delta_equilibrium,
                   delta_local_optimality_check, jump_magnitudes,
                   ordering_report)
from .integrators import rk4_backward, rk4_march, stage_times
from .openloop import (OpenLoopSolution, bsde_residual_check, solve_open_loop,
                       verify_open_loop_equilibrium)
from .precommit import (PrecommitSolution, cost_via_lyapunov, precommit_bounds,
                        solve_precommitment)
from .problem_io import (BUNDLED, apply_overrides, bundled_document,
                         bundled_problem, load_document, load_problem,
                         parse_problem, problem_hash, resolve_document)
from .simulate import (MCConfig, PathEnsemble, brownian_increments,
                       estimate_cost, semigroup_failure_demo,
                       simulate_closed_loop)
from .types import (GainSegment, MatrixFn, PiecewiseGain, ProblemData,
                    TimeGrid, TwoParamMatrixField, TwoTimeMatrixFn,
                    ValidationReport, hat, min_eig, symmetrize, tau_psd,
                    validate)

__all__ = [
    "__version__",
    # problem description
    "ProblemData", "MatrixFn", "TwoTimeMatrixFn", "TimeGrid",
    "TwoParamMatrixField", "PiecewiseGain", "GainSegment",
    "hat", "validate", "ValidationReport",
    "symmetrize", "min_eig", "tau_psd",
    # problem files
    "parse_problem", "load_problem", "load_document", "problem_hash",
    "bundled_problem", "bundled_document", "resolve_document",
    "apply_overrides", "BUNDLED",
    # integrators
    "rk4_backward", "rk4_march", "stage_times",
    # solvers
    "solve_precommitment", "PrecommitSolution", "precommit_bounds",
    "cost_via_lyapunov",
    "solve_open_loop", "OpenLoopSolution", "verify_open_loop_equilibrium",
    "bsde_residual_check",
    "build_delta_equilibrium", "DeltaEquilibrium", "IntervalSolution",
    "ordering_report", "jump_magnitudes", "delta_local_optimality_check",
    "solve_closed_loop", "direct_diagonal_solve", "ClosedLoopSolution",
    "residual",
    # simulation
    "MCConfig", "PathEnsemble", "brownian_increments", "simulate_closed_loop",
    "estimate_cost", "semigroup_failure_demo",
    # errors
    "MFLQError", "DimensionError", "ValidationError", "IllPosedError",
    "BlowUpError", "ConvergenceError", "ConfigurationError",
]
