"""Sparse phase retrieval: recover an s-sparse signal from magnitude-only
Gaussian measurements y_i = |<a_i, x>|.

The package provides spectral, anchored-spectral, and truncated-power
initializers, hard thresholding pursuit refinement, multi-restart
solving, and a reproducible Monte Carlo benchmark harness.
"""

from .harness import (CellSummary, ExperimentGrid, GridResult, TrialRecord,
                      aggregate, derive_trial_seed, emit_csv, parse_csv,
                      run_grid, run_trial, solve, summary_table, trial_rng,
                      wilson_interval)
from .initializers import (InitEstimate, YbarOperator, diagonal_anchors,
                           modified_spectral_init, restricted_ybar,
                           spectral_init, tp_init, truncate, y_column, y_diag,
                           ybar_matvec, ybar_operator)
from .instance_io import InstanceFormatError, load_instance, save_instance
from .linalg import restricted_least_squares, top_eigenvector
from .model import (Ensemble, SparseSignal, dist, measure, norm_estimate,
                    relative_error, sample_signal, truncated_gaussian_moment)
from .pipeline import (METHODS, SolveReport, SolverConfigs, gradient_residual,
                       solve_multi_restart, solve_two_stage)
from .refine import HtpConfig, RefineResult, htp_run, htp_step

__version__ = "0.1.0"

__all__ = [
    "CellSummary", "Ensemble", "ExperimentGrid", "GridResult", "HtpConfig",
    "InitEstimate", "InstanceFormatError", "METHODS",
    "RefineResult", "SolveReport", "SolverConfigs", "SparseSignal",
    "TrialRecord", "YbarOperator",
    "aggregate", "derive_trial_seed", "diagonal_anchors", "dist", "emit_csv",
    "gradient_residual", "htp_run", "htp_step", "load_instance", "measure",
    "modified_spectral_init", "norm_estimate", "parse_csv", "relative_error",
    "restricted_least_squares", "restricted_ybar", "run_grid", "run_trial",
    "sample_signal", "save_instance", "solve", "solve_multi_restart",
    "solve_two_stage", "spectral_init", "summary_table", "top_eigenvector",
    "tp_init", "trial_rng", "truncate", "truncated_gaussian_moment",
    "wilson_interval", "y_column", "y_diag", "ybar_matvec", "ybar_operator",
]
