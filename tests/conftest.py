import numpy as np
import pytest

import sparsepr as sp
from sparsepr import refine
from sparsepr.model import apply_sensing, sgn


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
    converged = False
    for _ in range(cfg.max_iters):
        x, support = refine.htp_step(e, x, s, cfg)
        z = apply_sensing(e, x)
        res = float(np.linalg.norm(z - e.y * sgn(z)))
        rel = res / y_norm if y_norm > 0 else res
        residuals.append(rel)
        streak = streak + 1 if np.array_equal(support, prev_support) else 1
        prev_support = support
        converged = (streak >= refine.SUPPORT_STALL
                     and rel <= refine.RESIDUAL_TOL)
        if converged:
            break
    return sp.RefineResult(x=x, iterations=len(residuals),
                           converged=converged, final_residual=residuals[-1],
                           residual_history=np.asarray(residuals),
                           stop="converged" if converged else "cap")


@pytest.fixture
def htp_reference():
    return reference_htp_run


@pytest.fixture
def small_instance():
    """One seeded small problem where both support rules recover the true
    support exactly (needed by the exact-expectation seam tests)."""
    rng = sp.trial_rng(2057)
    x = sp.sample_signal(40, 4, rng)
    e = sp.measure(x, 800, rng)
    return x, e
