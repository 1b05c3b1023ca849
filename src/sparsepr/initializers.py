"""Support estimation and the three initializers for sparse phase retrieval.

All estimators work from the weighted covariance surrogate

    Y = (1/m) sum_i y_i^2 a_i a_i^T

and its band-truncated companion Ybar, which keeps only rows with
l*nu <= y_i <= u*nu. Neither matrix is ever materialized at full size:
products with Ybar cost O(m n) and only |S| x |S| principal blocks are
assembled densely.

Three initializers are provided:

* ``spectral_init``: support from the top-s diagonal entries of Y.
* ``modified_spectral_init``: anchor j0 = argmax Y_jj, support from the
  top-s entries of |Y e_j0|.
* ``tp_init``: modified-spectral start followed by truncated power
  iterations w_t = T_s'(Ybar w_{t-1}) / ||.||, then a final projection
  back to s-sparse vectors.

Each returns nu times a unit s-sparse vector, so the output has norm nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import SymMatrix, top_eigenvector
from .model import Ensemble, apply_sensing, dist

_CONTRACTION = 0.98   # per-iteration factor the default budget assumes
_BASIN = 0.125        # refinement basin radius the budget targets


def default_t_max(basin: float = _BASIN) -> int:
    """Iteration budget ceil(log(200/basin) / log(1/0.98)); 366 by default."""
    return math.ceil(math.log(200.0 / basin) / math.log(1.0 / _CONTRACTION))


DEFAULT_T_MAX = default_t_max()


@dataclass(frozen=True)
class InitConfig:
    """Initializer parameters.

    l, u: truncation band in units of nu (worked constants 0.5 and 10).
    s_prime: enlarged sparsity inside the truncated power loop; None means
        min(2 s, n), resolved at call time.
    t_max: iteration budget for the truncated power loop.
    step_tol: early stop once the sign-invariant step dist(w_t, w_{t-1})
        falls below this.
    """

    l: float = 0.5
    u: float = 10.0
    s_prime: int | None = None
    t_max: int = DEFAULT_T_MAX
    step_tol: float = 1e-8

    def __post_init__(self):
        if not (0 <= self.l < self.u):
            raise ValueError("need 0 <= l < u")
        if self.t_max < 0:
            raise ValueError("t_max must be nonnegative")

    def resolve_s_prime(self, s: int, n: int) -> int:
        sp = self.s_prime if self.s_prime is not None else min(2 * s, n)
        if not s <= sp <= n:
            raise ValueError("need s <= s_prime <= n")
        return sp


@dataclass(frozen=True)
class InitEstimate:
    """Initializer output: xhat = nu * (unit s-sparse direction).

    support holds the selected index set, j0 the anchor index (None when
    the estimator has no anchor), iterations_run the number of truncated
    power steps taken.
    """

    xhat: np.ndarray
    support: np.ndarray
    j0: int | None
    degenerate: bool
    iterations_run: int


def top_magnitude_indices(values, k: int) -> np.ndarray:
    """Indices of the k largest |values|; ties go to the smaller index.

    Returned sorted ascending. k >= len(values) returns every index.
    """
    mag = np.abs(np.asarray(values, dtype=float))
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= mag.size:
        return np.arange(mag.size, dtype=np.intp)
    order = np.lexsort((np.arange(mag.size), -mag))
    return np.sort(order[:k])


def truncate(w, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of w, zero the rest.

    Ties at the cut go to the smaller index; k >= len(w) copies w.
    """
    w = np.asarray(w, dtype=float)
    if k >= w.size:
        return w.copy()
    out = np.zeros_like(w)
    keep = top_magnitude_indices(w, k)
    out[keep] = w[keep]
    return out


def y_diag(e: Ensemble) -> np.ndarray:
    """Diagonal of Y: out[j] = (1/m) sum_i y_i^2 A[i,j]^2, matrix-free."""
    return (e.y * e.y) @ (e.A * e.A) / e.m


def y_column(e: Ensemble, j0: int) -> np.ndarray:
    """Column Y e_j0 = (1/m) sum_i y_i^2 A[i,j0] a_i, matrix-free."""
    if not 0 <= j0 < e.n:
        raise ValueError("column index out of range")
    return e.A.T @ (e.y * e.y * e.A[:, j0]) / e.m


def support_diag(e: Ensemble, s: int) -> np.ndarray:
    """Indices of the s largest diagonal entries of Y (absolute value)."""
    if not 1 <= s <= e.n:
        raise ValueError("need 1 <= s <= n")
    return top_magnitude_indices(y_diag(e), s)


def support_j0(e: Ensemble, s: int) -> tuple[np.ndarray, int]:
    """Anchor j0 = argmax Y_jj and the top-s entries of |Y e_j0|."""
    if not 1 <= s <= e.n:
        raise ValueError("need 1 <= s <= n")
    j0 = int(np.argmax(y_diag(e)))  # first occurrence: smallest index on ties
    return top_magnitude_indices(y_column(e, j0), s), j0


def truncation_weights(e: Ensemble, l: float, u: float) -> np.ndarray:
    """Row weights y_i^2 gated to the band [l*nu, u*nu]."""
    keep = (e.y >= l * e.nu) & (e.y <= u * e.nu)
    return np.where(keep, e.y * e.y, 0.0)


def ybar_matvec(e: Ensemble, w, l: float, u: float) -> np.ndarray:
    """Product Ybar w in O(m n) without materializing Ybar.

    Ybar w = (1/m) sum_i y_i^2 1{l nu <= y_i <= u nu} <a_i, w> a_i. Sparse
    inputs use a column-restricted first product; the result is identical
    up to roundoff.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (e.n,):
        raise ValueError("vector length must match the signal dimension")
    weights = truncation_weights(e, l, u)
    return e.A.T @ (weights * apply_sensing(e, w)) / e.m


def restricted_ybar(e: Ensemble, support, l: float, u: float) -> SymMatrix:
    """The |S| x |S| principal block of Ybar, assembled in O(m |S|^2)."""
    support = np.asarray(support, dtype=np.intp)
    if support.size < 1:
        raise ValueError("support must be nonempty")
    weights = truncation_weights(e, l, u)
    As = e.A[:, support]
    block = (As * weights[:, None]).T @ As / e.m
    return SymMatrix(block)


def _degenerate_estimate(e: Ensemble, s: int) -> InitEstimate:
    # all-zero observations: no usable signal energy, return the flagged zero
    return InitEstimate(xhat=np.zeros(e.n),
                        support=np.arange(s, dtype=np.intp),
                        j0=None, degenerate=True, iterations_run=0)


def _spectral_from_support(e: Ensemble, s: int, cfg: InitConfig,
                           support: np.ndarray, j0: int | None,
                           ybar_builder) -> InitEstimate:
    build = ybar_builder if ybar_builder is not None else restricted_ybar
    block = build(e, support, cfg.l, cfg.u)
    eig = top_eigenvector(block)
    x0 = np.zeros(e.n)
    x0[support] = eig.vector
    return InitEstimate(xhat=e.nu * x0, support=support, j0=j0,
                        degenerate=eig.degenerate, iterations_run=0)


def spectral_init(e: Ensemble, s: int, cfg: InitConfig | None = None, *,
                  ybar_builder=None) -> InitEstimate:
    """Baseline spectral initializer: support from the diagonal of Y."""
    cfg = cfg or InitConfig()
    if not 1 <= s <= e.n:
        raise ValueError("need 1 <= s <= n")
    if e.nu == 0.0:
        return _degenerate_estimate(e, s)
    return _spectral_from_support(e, s, cfg, support_diag(e, s), None,
                                  ybar_builder)


def modified_spectral_init(e: Ensemble, s: int, cfg: InitConfig | None = None,
                           *, anchor: int | None = None,
                           ybar_builder=None) -> InitEstimate:
    """Anchored spectral initializer: support from the top entries of |Y e_j0|.

    ``anchor`` overrides j0 (used by the multi-restart driver); the default
    argmax rule breaks ties toward the smaller index. ``ybar_builder`` is a
    test seam replacing ``restricted_ybar``.
    """
    cfg = cfg or InitConfig()
    if not 1 <= s <= e.n:
        raise ValueError("need 1 <= s <= n")
    if e.nu == 0.0:
        return _degenerate_estimate(e, s)
    if anchor is None:
        support, j0 = support_j0(e, s)
    else:
        if not 0 <= anchor < e.n:
            raise ValueError("anchor out of range")
        j0 = int(anchor)
        support = top_magnitude_indices(y_column(e, j0), s)
    return _spectral_from_support(e, s, cfg, support, j0, ybar_builder)


def magnitude_misfit(e: Ensemble, xhat) -> float:
    """Phaseless data misfit ||y - |A xhat|||_2 of a candidate estimate."""
    xhat = np.asarray(xhat, dtype=float)
    return float(np.linalg.norm(e.y - np.abs(apply_sensing(e, xhat))))


def tp_init(e: Ensemble, s: int, cfg: InitConfig | None = None, *,
            anchor: int | None = None, ybar_builder=None,
            matvec=None, w0=None) -> InitEstimate:
    """Truncated power method initializer.

    Starts from the modified-spectral direction, runs up to t_max steps of
    w_t = T_s'(Ybar w_{t-1}) with renormalization (stopping early once the
    sign-invariant step is below cfg.step_tol), then projects back to the
    s-sparse set and rescales to norm nu.

    The iterated estimate is kept only if it explains the observations at
    least as well as its own start (phaseless misfit ||y - |A xhat|||_2,
    the same data-residual selection the multi-restart driver applies
    across restarts); at small sample sizes the iteration can drift off
    support, and the fallback keeps the method no worse than its start.

    ``matvec`` and ``w0`` are test seams for the power loop; ``anchor``
    and ``ybar_builder`` pass through to the modified-spectral start. A
    zero iterate falls back to the modified-spectral output, flagged
    degenerate.
    """
    cfg = cfg or InitConfig()
    if not 1 <= s <= e.n:
        raise ValueError("need 1 <= s <= n")
    s_prime = cfg.resolve_s_prime(s, e.n)
    seed = modified_spectral_init(e, s, cfg, anchor=anchor,
                                  ybar_builder=ybar_builder)
    if seed.degenerate:
        return seed

    if w0 is not None:
        start = np.asarray(w0, dtype=float)
        start = start / np.linalg.norm(start)
    else:
        start = seed.xhat / e.nu
    mv = matvec if matvec is not None else ybar_matvec

    w = start
    iterations = 0
    for t in range(1, cfg.t_max + 1):
        wt = truncate(mv(e, w, cfg.l, cfg.u), s_prime)
        nrm = np.linalg.norm(wt)
        if nrm == 0.0:
            return replace(seed, degenerate=True, iterations_run=t)
        w_next = wt / nrm
        step = dist(w_next, w)
        w = w_next
        iterations = t
        if step <= cfg.step_tol:
            break

    keep = top_magnitude_indices(w, s)
    xs = np.zeros(e.n)
    xs[keep] = w[keep]
    x0 = xs / np.linalg.norm(xs)
    xhat = e.nu * x0

    start_keep = top_magnitude_indices(start, s)
    start_s = np.zeros(e.n)
    start_s[start_keep] = start[start_keep]
    start_hat = e.nu * start_s / np.linalg.norm(start_s)
    if magnitude_misfit(e, xhat) > magnitude_misfit(e, start_hat):
        return InitEstimate(xhat=start_hat, support=start_keep, j0=seed.j0,
                            degenerate=False, iterations_run=iterations)

    return InitEstimate(xhat=xhat, support=keep, j0=seed.j0,
                        degenerate=False, iterations_run=iterations)
