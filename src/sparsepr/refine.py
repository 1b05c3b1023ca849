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

Near convergence the support stops moving, and a bound can then prove
which support the pass A^T r would pick without making it. With
S = supp(x_k) of exactly s entries, r = y .* sgn(z) - z and
M >= max_j ||A[:, j]||_2 (``Ensemble.col_norm_bound``), every |g_j| off S
is at most (mu/m) M ||r|| and every |g_j| on S at least
|x_j| - (mu/m) M ||r||. So when

    min_S |x_j| > 2 (1 + CERT_SLACK) (mu/m) M ||r||

the selection is S, and the step solves on S directly; its x is the one
the full pass gives, bit for bit.
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

# relative slack of the support certificate over the exact bound, far
# above the rounding of a dot product of length m, which is at most
# about m/2 units of roundoff times ||a|| ||r|| (Higham, Accuracy and
# Stability of Numerical Algorithms, 2002, section 3.1)
CERT_SLACK = 0.01

# why htp_run stopped: the convergence rule fired, a step returned its
# input bit for bit without converging, or max_iters ran out
STOPS = ("converged", "fixed_point", "cap")


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
    """One HTP step; returns (x_next, selected support, sorted).

    When x_k has exactly s nonzeros and the support certificate (see the
    module docstring) holds, the selection is supp(x_k) and the pass
    A^T r is skipped; the result is the same bit for bit. A NaN or
    infinite bound never certifies.
    """
    x_k = np.asarray(x_k, dtype=float)
    nz = np.flatnonzero(x_k)
    if nz.size > s:
        raise ValueError("iterate must be s-sparse")
    z = apply_sensing(e, x_k)
    b = e.y * sgn(z)
    r = b - z
    if nz.size == s and np.min(np.abs(x_k[nz]), initial=np.inf) > (
            2.0 * (1.0 + CERT_SLACK) * (MU / e.m) * e.col_norm_bound
            * np.linalg.norm(r)):
        support = nz
    else:
        g = x_k + (MU / e.m) * (e.A.T @ r)
        support = top_magnitude_indices(g, s)
    x_next, _ = restricted_least_squares(e.A, support, b)
    return x_next, support


def htp_run(e: Ensemble, x0, s: int,
            cfg: HtpConfig | None = None) -> RefineResult:
    """Run HTP from x0 until it converges, reaches a fixed point, or hits
    max_iters.

    HTP is a deterministic map of the iterate, so once a step returns its
    input bit for bit every later step would return it again, with the
    same support and residual. That exit returns the x, residual and
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

    for _ in range(cfg.max_iters):
        x_prev = x
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
        # the next step would repeat this support, so the rule above then
        # decides on rel alone; at the cap there is no next step to skip
        if len(residuals) < cfg.max_iters and x.tobytes() == x_prev.tobytes():
            stop = "converged" if rel <= RESIDUAL_TOL else "fixed_point"
            break

    return RefineResult(x=x, residual_history=np.asarray(residuals),
                        stop=stop)
