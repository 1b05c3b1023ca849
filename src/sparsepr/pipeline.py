"""End-to-end solvers: initializer + HTP, with optional multiple restarts.

``solve_two_stage`` runs one initializer followed by HTP refinement.
``solve_multi_restart`` reruns the truncated-power pipeline from at most
b diagonal anchors, largest first, until HTP converges on one of
them, and keeps the candidate with the smallest gradient-norm residual
||A^T (A x - y .* sgn(A x))||_2 among the restarts that ran; for
nonnegative y this matches selecting on |y| .* sign(A x). Restart 1 is
the ``tp`` solve; each later restart runs only if those before it fail.

Inside a grid trial (``initializers._per_trial``) each TP restart, each
modified-spectral start and the diagonal of Y run once, so ``tp`` after
``tp_mr`` reuses restart 1, and ``modified_spectral`` reuses its start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .initializers import (_once, _sparsity, diagonal_anchors,
                           modified_spectral_init, spectral_init, tp_init,
                           y_diag)
from .model import (ConfigError, Ensemble, _instance, _integer,
                    apply_sensing, relative_error, sgn)
from .refine import htp_run

# the initializers solve_two_stage runs as they are; tp runs as restart 1
_INITIALIZERS = {
    "spectral": spectral_init,
    "modified_spectral": modified_spectral_init,
}
METHODS = (*_INITIALIZERS, "tp", "tp_mr")


@dataclass(frozen=True)
class SolverConfigs:
    """The restart cap b of tp_mr (an integer >= 1), checked when built:
    the one setting of the solve path. The initializers and HTP take
    none: the band, TP's s' and step budget are the constants of
    ``initializers``, and HTP runs to ``htp_run``'s default cap."""

    restarts: int = 20

    def __post_init__(self):
        object.__setattr__(self, "restarts",
                           _integer(self.restarts, "restarts"))
        if self.restarts < 1:
            raise ConfigError("need at least one restart")


@dataclass(frozen=True)
class SolveReport:
    """Solver output and bookkeeping.

    init_dist and rel_error are sign-invariant relative errors against the
    ground truth and are None when no truth was supplied. Elapsed times
    are seconds. For multi-restart runs init_elapsed and refine_elapsed
    are summed over the restarts that ran; restarts_run counts them; and
    iterations/init_dist/htp_stop refer to the selected restart. htp_stop
    is why HTP stopped (one of ``refine.STOPS``).
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
    restarts_run: int | None = None


def gradient_residual(e: Ensemble, x) -> float:
    """||A^T (A x - y .* sgn(A x))||_2, the restart selection score."""
    x = np.asarray(x, dtype=float)
    z = apply_sensing(e, x)
    return float(np.linalg.norm(e.A.T @ (z - e.y * sgn(z))))


def _relative(value, truth):
    return None if truth is None else relative_error(value, truth)


def _checked_s(e: Ensemble, s) -> int:
    s = _sparsity(e, s)
    if s > e.m:
        # HTP's least squares on s columns needs at least s equations
        raise ConfigError(f"s must be at most m: s = {s} > m = {e.m}")
    return s


def _anchors(e: Ensemble, b: int) -> np.ndarray:
    return diagonal_anchors(_once(e, "y_diag", lambda: y_diag(e)), b)


def _two_stage(e: Ensemble, s: int, init, **anchor):
    # (estimate, HTP result, init seconds, refine seconds)
    t0 = time.perf_counter()
    est = init(e, s, **anchor)
    t1 = time.perf_counter()
    refined = htp_run(e, est.xhat, s)
    return est, refined, t1 - t0, time.perf_counter() - t1


def _restart(e: Ensemble, s: int, anchor):
    # TP then HTP from one anchor, run once per trial scope
    return _once(e, ("tp", s, int(anchor)),
                 lambda: _two_stage(e, s, tp_init, anchor=anchor))


def solve_two_stage(e: Ensemble, s: int, method: str, *,
                    truth=None) -> SolveReport:
    """Initialize with the named method, then refine with HTP; no settings.

    method is one of "spectral", "modified_spectral", "tp"; ``tp`` is
    ``solve_multi_restart``'s restart 1, at the first diagonal anchor.
    ``truth`` is an optional dense ground-truth vector used only for the
    report metrics. ConfigError, before any work, unless s is an integer
    (integral floats become ints) with 1 <= s <= min(n, m). A degenerate
    initialization still refines and reports.
    """
    if method != "tp" and method not in _INITIALIZERS:
        raise ValueError(f"unknown two-stage method {method!r}")
    s = _checked_s(e, s)
    if method == "tp":
        est, refined, init_s, refine_s = _restart(e, s, _anchors(e, 1)[0])
    else:
        est, refined, init_s, refine_s = _two_stage(e, s,
                                                    _INITIALIZERS[method])
    return SolveReport(x=refined.x, method=method,
                       init_dist=_relative(est.xhat, truth),
                       rel_error=_relative(refined.x, truth),
                       init_elapsed=init_s, refine_elapsed=refine_s,
                       iterations=refined.iterations,
                       degenerate=est.degenerate, htp_stop=refined.stop)


def solve_multi_restart(e: Ensemble, s: int,
                        cfg: SolverConfigs | None = None,
                        truth=None) -> SolveReport:
    """Truncated power method with at most b = cfg.restarts restarts
    (cfg None means ``SolverConfigs()``; any other non-SolverConfigs
    raises ConfigError). s is checked as in ``solve_two_stage``.

    Restart b' runs ``tp_init`` anchored at the b'-th of the min(b, n)
    ``diagonal_anchors``, then HTP from its estimate. Restarts run in
    anchor order and stop at the first whose HTP run converges, so TP runs
    only for the restarts that run, and restart 1 is the ``tp`` solve.
    Among the restarts that ran, the candidate minimizing the
    gradient-norm residual wins; ties keep the smallest b'.
    chosen_restart is the winning b', 1-based.

    A converged restart fits the observations to ``refine.RESIDUAL_TOL``,
    and its score is tiny next to that of any restart that did not
    converge. Where the s-sparse fit is unique up to sign, converged
    restarts end on the same x and tie on score, so stopping at the first
    picks what running every restart would pick.
    """
    cfg = _instance(cfg, SolverConfigs, "cfg")
    s = _checked_s(e, s)
    runs = []  # (score, start, refined) of each restart that ran
    init_elapsed = refine_elapsed = 0.0
    for anchor in _anchors(e, cfg.restarts):
        est, refined, init_s, refine_s = _restart(e, s, anchor)
        init_elapsed += init_s
        refine_elapsed += refine_s
        runs.append((gradient_residual(e, refined.x), est, refined))
        if refined.converged:
            break

    # min keeps the first of equal scores
    b_min = min(range(len(runs)), key=lambda i: runs[i][0])
    score, est, refined = runs[b_min]
    return SolveReport(x=refined.x, method="tp_mr",
                       init_dist=_relative(est.xhat, truth),
                       rel_error=_relative(refined.x, truth),
                       init_elapsed=init_elapsed,
                       refine_elapsed=refine_elapsed,
                       iterations=refined.iterations,
                       degenerate=est.degenerate,
                       chosen_restart=b_min + 1,
                       selection_residual=score, htp_stop=refined.stop,
                       restarts_run=len(runs))
