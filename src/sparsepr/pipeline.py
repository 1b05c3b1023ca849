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

from .initializers import (InitConfig, diagonal_anchors,
                           modified_spectral_init, spectral_init, tp_init,
                           tp_restarts, y_diag)
from .model import (ConfigError, Ensemble, _integer, apply_sensing,
                    relative_error, sgn)
from .refine import HtpConfig, htp_run

METHODS = ("spectral", "modified_spectral", "tp", "tp_mr")

_INITIALIZERS = {
    "spectral": spectral_init,
    "modified_spectral": modified_spectral_init,
    "tp": tp_init,
}


@dataclass(frozen=True)
class SolverConfigs:
    """Initializer and HTP settings (an InitConfig and an HtpConfig) plus
    the restart count b of tp_mr (an integer >= 1), checked when built."""

    init: InitConfig = field(default_factory=InitConfig)
    htp: HtpConfig = field(default_factory=HtpConfig)
    restarts: int = 20

    def __post_init__(self):
        for name, cls in (("init", InitConfig), ("htp", HtpConfig)):
            value = getattr(self, name)
            if not isinstance(value, cls):
                raise ConfigError(
                    f"{name} must be {cls.__name__}, got {value!r}")
        object.__setattr__(self, "restarts",
                           _integer(self.restarts, "restarts"))
        if self.restarts < 1:
            raise ConfigError("need at least one restart")


@dataclass(frozen=True)
class SolveReport:
    """Solver output and bookkeeping.

    init_dist and rel_error are sign-invariant relative errors against the
    ground truth and are None when no truth was supplied. Elapsed times
    are seconds. For multi-restart runs init_elapsed is the wall time of
    the one block TP run over all restarts, refine_elapsed is summed over
    restarts, and iterations/init_dist/htp_stop refer to the selected
    restart. htp_stop is why HTP stopped (one of ``refine.STOPS``).
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
    htp_stop: str | None = None


def gradient_residual(e: Ensemble, x) -> float:
    """||A^T (A x - y .* sgn(A x))||_2, the restart selection score."""
    x = np.asarray(x, dtype=float)
    z = apply_sensing(e, x)
    return float(np.linalg.norm(e.A.T @ (z - e.y * sgn(z))))


def _relative(value, truth):
    return None if truth is None else relative_error(value, truth)


def solve_two_stage(e: Ensemble, s: int, method: str,
                    cfg: SolverConfigs | None = None,
                    truth=None) -> SolveReport:
    """Initialize with the named method and refine with HTP.

    method is one of "spectral", "modified_spectral", "tp". ``truth`` is
    an optional dense ground-truth vector used only for the report
    metrics. A degenerate initialization still refines and reports.
    """
    if method not in _INITIALIZERS:
        raise ValueError(f"unknown two-stage method {method!r}")
    cfg = cfg or SolverConfigs()
    t0 = time.perf_counter()
    est = _INITIALIZERS[method](e, s, cfg.init)
    t1 = time.perf_counter()
    refined = htp_run(e, est.xhat, s, cfg.htp)
    return SolveReport(x=refined.x, method=method,
                       init_dist=_relative(est.xhat, truth),
                       rel_error=_relative(refined.x, truth),
                       init_elapsed=t1 - t0,
                       refine_elapsed=time.perf_counter() - t1,
                       iterations=refined.iterations,
                       degenerate=est.degenerate, htp_stop=refined.stop)


def solve_multi_restart(e: Ensemble, s: int,
                        cfg: SolverConfigs | None = None,
                        truth=None) -> SolveReport:
    """Truncated power method with multiple restarts (b = cfg.restarts).

    Restart b' anchors the support rule at the b'-th of
    ``diagonal_anchors``. TP runs for all restarts as
    one block (``tp_restarts``), then HTP refines each start in anchor
    order, and the candidate minimizing the gradient-norm residual wins;
    ties keep the smallest b'. chosen_restart is the winning b', 1-based.
    """
    cfg = cfg or SolverConfigs()
    if cfg.restarts > e.n:
        raise ValueError("more restarts than coordinates")

    anchors = diagonal_anchors(y_diag(e), cfg.restarts)

    t0 = time.perf_counter()
    starts = tp_restarts(e, s, cfg.init, anchors)
    init_elapsed = time.perf_counter() - t0

    best = None
    refine_total = 0.0
    for b_index, est in enumerate(starts, start=1):
        t1 = time.perf_counter()
        refined = htp_run(e, est.xhat, s, cfg.htp)
        refine_total += time.perf_counter() - t1
        score = gradient_residual(e, refined.x)
        if best is None or score < best[0]:
            best = (score, b_index, est, refined)

    score, b_min, est, refined = best
    return SolveReport(x=refined.x, method="tp_mr",
                       init_dist=_relative(est.xhat, truth),
                       rel_error=_relative(refined.x, truth),
                       init_elapsed=init_elapsed,
                       refine_elapsed=refine_total,
                       iterations=refined.iterations,
                       degenerate=est.degenerate,
                       chosen_restart=b_min,
                       selection_residual=score, htp_stop=refined.stop)
