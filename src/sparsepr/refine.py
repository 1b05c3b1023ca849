"""Hard thresholding pursuit refinement for sparse phase retrieval.

Each step fixes the measurement signs from the current iterate, takes one
gradient step on the mean-squared loss (1/(2m)) ||A x - y .* sgn(z)||^2,
picks a support by hard thresholding, and solves the least squares
problem exactly on that support:

    z   = A x_k
    g   = x_k + (mu/m) * A^T (y .* sgn(z) - z)
    S   = supp(T_s(g))
    x_' = argmin_{supp(x) subset S} ||A x - y .* sgn(z)||_2

The step size is mu = MU = 0.95; the 1/m factor keeps it meaningful for
unnormalized Gaussian sensing rows, where A^T A / m is close to the
identity. sgn(0) is defined as +1 so the iteration is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initializers import magnitude_misfit, top_magnitude_indices
from .linalg import restricted_least_squares
from .model import (ConfigError, Ensemble, _instance, _integer,
                    apply_sensing, sgn)

MU = 0.95  # gradient step size, 0 < MU < 2

# the run converges once the selected support is unchanged for
# SUPPORT_STALL consecutive steps and the relative residual
# ||A x - y .* sgn(A x)|| / ||y|| is at most RESIDUAL_TOL
RESIDUAL_TOL = 1e-12
SUPPORT_STALL = 2

# why htp_run stopped: the convergence rule fired, a step returned its
# input bit for bit without converging, a step returned the iterate of
# two steps before (a 2-cycle that never converges), or max_iters ran out
STOPS = ("converged", "fixed_point", "cycle", "cap")


@dataclass(frozen=True)
class HtpConfig:
    """Iteration cap (an integer >= 1), checked when built (ConfigError);
    the run stops after ``max_iters`` steps if the stopping rule has not
    fired by then."""

    max_iters: int = 100

    def __post_init__(self):
        object.__setattr__(self, "max_iters",
                           _integer(self.max_iters, "max_iters"))
        if self.max_iters < 1:
            raise ConfigError("need at least one iteration")


@dataclass(frozen=True)
class RefineResult:
    """Refined s-sparse iterate, the relative residual after each step and
    why the run stopped (one of STOPS)."""

    x: np.ndarray
    residual_history: np.ndarray
    stop: str

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def final_residual(self) -> float:
        return float(self.residual_history[-1])

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def htp_step(e: Ensemble, x_k, s: int) -> tuple[np.ndarray, np.ndarray]:
    """One HTP step; returns (x_next, selected support, sorted)."""
    x_k = np.asarray(x_k, dtype=float)
    if np.count_nonzero(x_k) > s:
        raise ValueError("iterate must be s-sparse")
    z = apply_sensing(e, x_k)
    b = e.y * sgn(z)
    g = x_k + (MU / e.m) * (e.A.T @ (b - z))
    support = top_magnitude_indices(g, s)
    x_next, _ = restricted_least_squares(e.A, support, b)
    return x_next, support


def htp_run(e: Ensemble, x0, s: int,
            cfg: HtpConfig | None = None) -> RefineResult:
    """Run HTP from x0 until it converges, reaches a fixed point or a
    2-cycle, or hits max_iters.

    HTP is a deterministic map of the iterate, so once a step returns its
    input bit for bit every later step would return it again, with the
    same support and residual. Likewise once step t returns the iterate of
    step t-2, later steps alternate between the last two iterates and
    their residuals; when neither residual is small enough to converge,
    the run would end at the cap on whichever of the two the parity of
    the remaining steps picks. Both exits return the x, residual and
    convergence verdict that running on to the cap would give; only the
    step count and the residual history are shorter. cfg None means
    ``HtpConfig()``; any other non-HtpConfig raises ConfigError.
    """
    cfg = _instance(cfg, HtpConfig, "cfg")
    x = np.asarray(x0, dtype=float).copy()
    if np.count_nonzero(x) > s:
        raise ValueError("initial point must be s-sparse")
    y_norm = float(np.linalg.norm(e.y))
    prev_support = np.flatnonzero(x)
    residuals = []
    streak = 0
    stop = "cap"
    x_prev = None

    for _ in range(cfg.max_iters):
        x_prev2, x_prev = x_prev, x
        x, support = htp_step(e, x, s)
        # ||y - |A x||| is ||A x - y .* sgn(A x)|| bit for bit: the
        # entries agree up to sign
        res = magnitude_misfit(e, x)
        rel = res / y_norm if y_norm > 0 else res
        residuals.append(rel)
        streak = streak + 1 if np.array_equal(support, prev_support) else 1
        prev_support = support
        if streak >= SUPPORT_STALL and rel <= RESIDUAL_TOL:
            stop = "converged"
            break
        # at the cap there is no next step, so no repeat to skip
        left = cfg.max_iters - len(residuals)
        if not left:
            break
        # the next step would repeat this support, so the rule above then
        # decides on rel alone
        if x.tobytes() == x_prev.tobytes():
            stop = "converged" if rel <= RESIDUAL_TOL else "fixed_point"
            break
        if (x_prev2 is not None and x.tobytes() == x_prev2.tobytes()
                and min(residuals[-2:]) > RESIDUAL_TOL):
            if left % 2:  # the cap lands on the other iterate of the cycle
                x = x_prev
                residuals.append(residuals[-2])
            stop = "cycle"
            break

    return RefineResult(x=x, residual_history=np.asarray(residuals),
                        stop=stop)
