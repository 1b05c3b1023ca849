"""End-to-end solvers: initializer + HTP, with optional multiple restarts.

``solve_two_stage`` runs one initializer followed by HTP refinement.
``solve_multi_restart`` reruns the truncated-power pipeline from the b
largest diagonal anchors and keeps the candidate with the smallest
gradient-norm residual ||A^T (A x - y .* sgn(A x))||_2; for nonnegative y
this matches selecting on |y| .* sign(A x).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .initializers import (InitConfig, modified_spectral_init, spectral_init,
                           tp_init, y_diag)
from .model import Ensemble, apply_sensing, relative_error, sgn
from .refine import HtpConfig, htp_run

METHODS = ("spectral", "modified_spectral", "tp", "tp_mr")

_INITIALIZERS = {
    "spectral": spectral_init,
    "modified_spectral": modified_spectral_init,
    "tp": tp_init,
}


@dataclass(frozen=True)
class RestartConfig:
    """Restart count plus the per-restart initializer and refiner settings."""

    b: int = 20
    inner: InitConfig = field(default_factory=InitConfig)
    refine: HtpConfig = field(default_factory=HtpConfig)

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("need at least one restart")


@dataclass(frozen=True)
class SolveReport:
    """Solver output and bookkeeping.

    init_dist and rel_error are sign-invariant relative errors against the
    ground truth and are None when no truth was supplied. Elapsed times
    are seconds; for multi-restart runs they are summed over restarts and
    iterations/init_dist refer to the selected restart.
    """

    x: np.ndarray
    method: str
    init_dist: float | None
    rel_error: float | None
    init_elapsed: float
    refine_elapsed: float
    iterations: int
    degenerate: bool
    chosen_restart: int | None = None
    selection_residual: float | None = None


def gradient_residual(e: Ensemble, x) -> float:
    """||A^T (A x - y .* sgn(A x))||_2, the restart selection score."""
    x = np.asarray(x, dtype=float)
    z = apply_sensing(e, x)
    return float(np.linalg.norm(e.A.T @ (z - e.y * sgn(z))))


def _relative(value, truth):
    return None if truth is None else relative_error(value, truth)


def solve_two_stage(e: Ensemble, s: int, method: str,
                    init_cfg: InitConfig | None = None,
                    htp_cfg: HtpConfig | None = None,
                    truth=None) -> SolveReport:
    """Initialize with the named method and refine with HTP.

    method is one of "spectral", "modified_spectral", "tp". ``truth`` is
    an optional dense ground-truth vector used only for the report
    metrics. A degenerate initialization still refines and reports.
    """
    if method not in _INITIALIZERS:
        raise ValueError(f"unknown two-stage method {method!r}")
    init_cfg = init_cfg or InitConfig()
    htp_cfg = htp_cfg or HtpConfig()

    t0 = time.perf_counter()
    est = _INITIALIZERS[method](e, s, init_cfg)
    t1 = time.perf_counter()
    refined = htp_run(e, est.xhat, s, htp_cfg)
    t2 = time.perf_counter()

    return SolveReport(x=refined.x, method=method,
                       init_dist=_relative(est.xhat, truth),
                       rel_error=_relative(refined.x, truth),
                       init_elapsed=t1 - t0, refine_elapsed=t2 - t1,
                       iterations=refined.iterations,
                       degenerate=est.degenerate)


def solve_multi_restart(e: Ensemble, s: int,
                        cfg: RestartConfig | None = None,
                        truth=None) -> SolveReport:
    """Truncated power method with multiple restarts (b anchors).

    Restart b' anchors the support rule at the b'-th largest diagonal
    entry of Y (ties to the smaller index), reruns TP + HTP, and the
    candidate minimizing the gradient-norm residual wins; ties keep the
    smallest b'. chosen_restart is the winning b', 1-based.
    """
    cfg = cfg or RestartConfig()
    if cfg.b > e.n:
        raise ValueError("more restarts than coordinates")

    diag = y_diag(e)
    order = np.lexsort((np.arange(e.n), -diag))
    anchors = order[:cfg.b]  # b'-th entry is the b'-th largest diagonal

    best = None
    init_total = 0.0
    refine_total = 0.0
    for b_index, anchor in enumerate(anchors, start=1):
        t0 = time.perf_counter()
        est = tp_init(e, s, cfg.inner, anchor=int(anchor))
        t1 = time.perf_counter()
        refined = htp_run(e, est.xhat, s, cfg.refine)
        t2 = time.perf_counter()
        init_total += t1 - t0
        refine_total += t2 - t1
        score = gradient_residual(e, refined.x)
        if best is None or score < best[0]:
            best = (score, b_index, est, refined)

    score, b_min, est, refined = best
    return SolveReport(x=refined.x, method="tp_mr",
                       init_dist=_relative(est.xhat, truth),
                       rel_error=_relative(refined.x, truth),
                       init_elapsed=init_total, refine_elapsed=refine_total,
                       iterations=refined.iterations,
                       degenerate=est.degenerate,
                       chosen_restart=b_min,
                       selection_residual=score)
