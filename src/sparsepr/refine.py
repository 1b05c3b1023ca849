"""Hard thresholding pursuit refinement for sparse phase retrieval.

Each step fixes the measurement signs from the current iterate, takes one
gradient step on the mean-squared loss (1/(2m)) ||A x - y .* sgn(z)||^2,
picks a support by hard thresholding, and solves the least squares
problem exactly on that support:

    z   = A x_k
    g   = x_k + (mu/m) * A^T (y .* sgn(z) - z)
    S   = supp(T_s(g))
    x_' = argmin_{supp(x) subset S} ||A x - y .* sgn(z)||_2

The 1/m factor keeps the default step size mu = 0.95 meaningful for
unnormalized Gaussian sensing rows, where A^T A / m is close to the
identity. sgn(0) is defined as +1 so the iteration is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initializers import top_magnitude_indices
from .linalg import restricted_least_squares
from .model import Ensemble, apply_sensing, sgn


@dataclass(frozen=True)
class HtpConfig:
    """Step size, iteration cap, and the stopping rule.

    The run stops once the selected support is unchanged for
    ``support_stall`` consecutive steps and the relative residual
    ||A x - y .* sgn(A x)|| / ||y|| is at most ``residual_tol``, or after
    ``max_iters`` steps.
    """

    mu: float = 0.95
    max_iters: int = 100
    residual_tol: float = 1e-12
    support_stall: int = 2

    def __post_init__(self):
        if not 0 < self.mu < 2:
            raise ValueError("need 0 < mu < 2")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if self.support_stall < 1:
            raise ValueError("support_stall must be positive")


@dataclass(frozen=True)
class RefineResult:
    """Refined s-sparse iterate with convergence diagnostics."""

    x: np.ndarray
    iterations: int
    converged: bool
    final_residual: float
    residual_history: np.ndarray


def htp_step(e: Ensemble, x_k, s: int,
             cfg: HtpConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One HTP step; returns (x_next, selected support, sorted)."""
    cfg = cfg or HtpConfig()
    x_k = np.asarray(x_k, dtype=float)
    if np.count_nonzero(x_k) > s:
        raise ValueError("iterate must be s-sparse")
    z = apply_sensing(e, x_k)
    b = e.y * sgn(z)
    g = x_k + (cfg.mu / e.m) * (e.A.T @ (b - z))
    support = top_magnitude_indices(g, s)
    x_next, _ = restricted_least_squares(e.A, support, b)
    return x_next, support


def htp_run(e: Ensemble, x0, s: int,
            cfg: HtpConfig | None = None) -> RefineResult:
    """Run HTP from x0 until the stopping rule fires or max_iters is hit."""
    cfg = cfg or HtpConfig()
    x = np.asarray(x0, dtype=float).copy()
    if np.count_nonzero(x) > s:
        raise ValueError("initial point must be s-sparse")
    y_norm = float(np.linalg.norm(e.y))
    prev_support = np.flatnonzero(x)
    residuals = []
    streak = 0
    converged = False
    iterations = 0

    for _ in range(cfg.max_iters):
        x, support = htp_step(e, x, s, cfg)
        iterations += 1
        z = apply_sensing(e, x)
        res = float(np.linalg.norm(z - e.y * sgn(z)))
        rel = res / y_norm if y_norm > 0 else res
        residuals.append(rel)
        streak = streak + 1 if np.array_equal(support, prev_support) else 1
        prev_support = support
        if streak >= cfg.support_stall and rel <= cfg.residual_tol:
            converged = True
            break

    final = residuals[-1] if residuals else 0.0
    return RefineResult(x=x, iterations=iterations, converged=converged,
                        final_residual=final,
                        residual_history=np.asarray(residuals))
