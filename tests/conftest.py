from dataclasses import replace

import numpy as np
import pytest

import sparsepr as sp
from sparsepr import initializers, refine
from sparsepr.initializers import (STEP_TOL, InitEstimate, magnitude_misfit,
                                   modified_spectral_init, truncation_weights)
from sparsepr.model import apply_sensing, dist, sgn


def dense_truncated_y(A, y, scale, l, u):
    """Dense assembly oracle for the band-truncated surrogate matrix.

    Builds (1/m) sum_i y_i^2 a_i a_i^T 1{l*scale <= y_i <= u*scale}
    entry by entry; ``scale`` is nu for the empirical matrix or the exact
    signal norm for the idealized one.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = A.shape
    out = np.zeros((n, n))
    for i in range(m):
        if l * scale <= y[i] <= u * scale:
            out += y[i] ** 2 * np.outer(A[i], A[i])
    return out / m


@pytest.fixture
def dense_ybar():
    return dense_truncated_y


def reference_htp_run(e, x0, s, cfg=None):
    """HTP without the fixed-point exit: max_iters steps unless the
    support-stall and residual rule fires first."""
    cfg = cfg or sp.HtpConfig()
    x = np.asarray(x0, dtype=float).copy()
    y_norm = float(np.linalg.norm(e.y))
    prev_support = np.flatnonzero(x)
    residuals = []
    streak = 0
    stop = "cap"
    for _ in range(cfg.max_iters):
        x, support = refine.htp_step(e, x, s)
        z = apply_sensing(e, x)
        res = float(np.linalg.norm(z - e.y * sgn(z)))
        rel = res / y_norm if y_norm > 0 else res
        residuals.append(rel)
        streak = streak + 1 if np.array_equal(support, prev_support) else 1
        prev_support = support
        if streak >= refine.SUPPORT_STALL and rel <= refine.RESIDUAL_TOL:
            stop = "converged"
            break
    return sp.RefineResult(x=x, residual_history=np.asarray(residuals),
                           stop=stop)


@pytest.fixture
def htp_reference():
    return reference_htp_run


def reference_multi_restart(e, s, cfg=None, truth=None):
    """tp_mr running every restart: TP from each of the b anchors, HTP
    from every start, and the smallest gradient residual wins, ties to the
    smaller index."""
    cfg = cfg or sp.SolverConfigs()
    anchors = sp.diagonal_anchors(sp.y_diag(e), cfg.restarts)
    best = None
    for b_index, a in enumerate(anchors, start=1):
        est = sp.tp_init(e, s, anchor=a)
        refined = sp.htp_run(e, est.xhat, s)
        score = sp.gradient_residual(e, refined.x)
        if best is None or score < best[0]:
            best = (score, b_index, est, refined)
    score, b_min, est, refined = best
    return sp.SolveReport(
        x=refined.x, method="tp_mr",
        init_dist=None if truth is None else sp.relative_error(est.xhat,
                                                               truth),
        rel_error=None if truth is None else sp.relative_error(refined.x,
                                                               truth),
        init_elapsed=0.0, refine_elapsed=0.0, iterations=refined.iterations,
        degenerate=est.degenerate, chosen_restart=b_min,
        selection_residual=score, htp_stop=refined.stop,
        restarts_run=cfg.restarts)


@pytest.fixture
def multi_restart_reference():
    return reference_multi_restart


def _lexsort_top(values, k):
    # the top-k rule as a full sort: descending |value|, then index
    mag = np.abs(np.asarray(values, dtype=float))
    if k >= mag.size:
        return np.arange(mag.size, dtype=np.intp)
    return np.sort(np.lexsort((np.arange(mag.size), -mag))[:k])


def reference_tp_init(e, s, *, anchor=None):
    """Single-vector truncated power loop with one GEMV over all m rows
    per step and a sorting top-k, at the band, s' and step budget of
    ``initializers`` (read at call time, so a patched T_MAX applies).

    Returns the estimate and the projected TP candidate that the misfit
    fallback weighed against the start (None when no candidate was
    formed).
    """
    s_prime = min(2 * s, e.n)
    seed = modified_spectral_init(e, s, anchor=anchor)
    if seed.degenerate:
        return seed, None
    weights = truncation_weights(e)

    w = seed.xhat / e.nu
    iterations = 0
    for t in range(1, initializers.T_MAX + 1):
        v = e.A.T @ (weights * apply_sensing(e, w)) / e.m
        wt = np.zeros(e.n)
        top = _lexsort_top(v, s_prime)
        wt[top] = v[top]
        nrm = np.linalg.norm(wt)
        if nrm == 0.0:
            return replace(seed, degenerate=True, iterations_run=t), None
        w_next = wt / nrm
        step = dist(w_next, w)
        w = w_next
        iterations = t
        if step <= STEP_TOL:
            break

    keep = _lexsort_top(w, s)
    xs = np.zeros(e.n)
    xs[keep] = w[keep]
    xhat = e.nu * (xs / np.linalg.norm(xs))
    if magnitude_misfit(e, xhat) > magnitude_misfit(e, seed.xhat):
        return replace(seed, iterations_run=iterations), xhat
    return InitEstimate(xhat=xhat, support=keep, j0=seed.j0,
                        degenerate=False, iterations_run=iterations), xhat


@pytest.fixture
def tp_reference():
    return reference_tp_init


@pytest.fixture
def small_instance():
    """One seeded small problem where both support rules recover the true
    support exactly (needed by the exact-expectation seam tests)."""
    rng = sp.trial_rng(2057)
    x = sp.sample_signal(40, 4, rng)
    e = sp.measure(x, 800, rng)
    return x, e
