"""Support estimation and the three initializers for sparse phase retrieval.

All estimators work from the weighted covariance surrogate

    Y = (1/m) sum_i y_i^2 a_i a_i^T

and its band-truncated companion Ybar, which keeps only rows with
l*nu <= y_i <= u*nu. Neither matrix is ever materialized at full size:
products with Ybar cost O(m n) and only |S| x |S| principal blocks are
assembled densely.

Three initializers are provided:

* ``spectral_init``: support from the top-s diagonal entries of Y.
* ``modified_spectral_init``: anchor j0 = the first of
  ``diagonal_anchors`` (argmax Y_jj) unless one is given, support from the
  top-s entries of |Y e_j0|.
* ``tp_init``: modified-spectral start, at the same anchor, followed by
  truncated power iterations w_t = T_s'(Ybar w_{t-1}) / ||.|| on one
  vector, then a final projection back to s-sparse vectors.

Each returns nu times a unit s-sparse vector, so the output has norm nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import top_eigenvector
from .model import (ConfigError, Ensemble, _integer, _real, apply_sensing,
                    dist)

_CONTRACTION = 0.98   # per-iteration factor the default budget assumes
_BASIN = 0.125        # refinement basin radius the budget targets

# iteration budget ceil(log(200/basin) / log(1/0.98)) = 366
DEFAULT_T_MAX = math.ceil(math.log(200.0 / _BASIN)
                          / math.log(1.0 / _CONTRACTION))
STEP_TOL = 1e-8       # TP stops once dist(w_t, w_{t-1}) is at most this


@dataclass(frozen=True)
class InitConfig:
    """Initializer parameters, checked when built (ConfigError).

    l, u: truncation band in units of nu (worked constants 0.5 and 10),
        finite with 0 <= l < u.
    s_prime: enlarged sparsity inside the truncated power loop, an integer;
        None means min(2 s, n), resolved at call time.
    t_max: iteration budget for the truncated power loop, an integer >= 0.
    """

    l: float = 0.5
    u: float = 10.0
    s_prime: int | None = None
    t_max: int = DEFAULT_T_MAX

    def __post_init__(self):
        object.__setattr__(self, "l", _real(self.l, "l"))
        object.__setattr__(self, "u", _real(self.u, "u"))
        if self.s_prime is not None:
            object.__setattr__(self, "s_prime",
                               _integer(self.s_prime, "s_prime"))
        object.__setattr__(self, "t_max", _integer(self.t_max, "t_max"))
        if not (0 <= self.l < self.u):
            raise ConfigError("need 0 <= l < u")
        if self.t_max < 0:
            raise ConfigError("t_max must be nonnegative")

    def resolve_s_prime(self, s: int, n: int) -> int:
        sp = self.s_prime if self.s_prime is not None else min(2 * s, n)
        if not s <= sp <= n:
            raise ConfigError("need s <= s_prime <= n")
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


def top_magnitude_mask(values, k: int) -> np.ndarray:
    """Mask of the k largest |values| of a vector; ties go to the smaller
    index. k >= len(values) keeps everything."""
    mag = np.abs(np.asarray(values, dtype=float))
    if mag.ndim != 1:
        raise ValueError("values must be a vector")
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = mag.size
    if k >= n:
        return np.ones(n, dtype=bool)
    if k == 0:
        return np.zeros(n, dtype=bool)
    kth = np.partition(mag, n - k)[n - k]  # the k-th largest
    mask = mag > kth
    at_kth = mag == kth
    # the places left after the strict winners go to the ties at the cut,
    # smaller indices first
    room = k - np.count_nonzero(mask)
    return mask | (at_kth & (np.cumsum(at_kth) <= room))


def top_magnitude_indices(values, k: int) -> np.ndarray:
    """Indices of the k largest |values| of a vector, sorted ascending; ties
    go to the smaller index. k >= len(values) returns every index."""
    return np.flatnonzero(top_magnitude_mask(values, k))


def truncate(w, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of the vector w, zero the
    rest; ties at the cut go to the smaller index."""
    w = np.asarray(w, dtype=float)
    return np.where(top_magnitude_mask(w, k), w, 0.0)


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


def diagonal_anchors(diag, b: int) -> np.ndarray:
    """The b anchors of the anchored initializers: indices of the largest
    diagonal entries, largest first, ties to the smaller index."""
    diag = np.asarray(diag, dtype=float)
    return np.lexsort((np.arange(diag.size), -diag))[:b]


def _in_band(e: Ensemble, l: float, u: float) -> np.ndarray:
    return (e.y >= l * e.nu) & (e.y <= u * e.nu)


def truncation_weights(e: Ensemble, l: float, u: float) -> np.ndarray:
    """Row weights y_i^2 gated to the band [l*nu, u*nu]."""
    return np.where(_in_band(e, l, u), e.y * e.y, 0.0)


@dataclass(frozen=True)
class YbarOperator:
    """Ybar prepared for repeated products: a contiguous copy of the rows
    of A inside the band [l*nu, u*nu] and their weights y_i^2 / m."""

    rows: np.ndarray
    weights: np.ndarray


def ybar_operator(e: Ensemble, l: float, u: float) -> YbarOperator:
    """Prepare Ybar = (1/m) sum_i y_i^2 1{l nu <= y_i <= u nu} a_i a_i^T."""
    keep = _in_band(e, l, u)
    return YbarOperator(rows=e.A[keep], weights=e.y[keep] ** 2 / e.m)


def ybar_matvec(op: YbarOperator, w) -> np.ndarray:
    """Product Ybar w of a vector w, without materializing Ybar: two
    products with the in-band rows."""
    w = np.asarray(w, dtype=float)
    if w.shape != op.rows.shape[1:]:
        raise ValueError("vector length must match the signal dimension")
    return op.rows.T @ (op.weights * (op.rows @ w))


def restricted_ybar(e: Ensemble, support, l: float, u: float) -> np.ndarray:
    """The |S| x |S| principal block of Ybar, assembled in O(m |S|^2).

    Symmetric only up to roundoff; ``top_eigenvector`` averages it with
    its transpose.
    """
    support = np.asarray(support, dtype=np.intp)
    if support.size < 1:
        raise ValueError("support must be nonempty")
    weights = truncation_weights(e, l, u)
    As = e.A[:, support]
    return (As * weights[:, None]).T @ As / e.m


def _spectral_from_support(e: Ensemble, cfg: InitConfig, support: np.ndarray,
                           j0: int | None) -> InitEstimate:
    block = restricted_ybar(e, support, cfg.l, cfg.u)
    eig = top_eigenvector(block)
    x0 = np.zeros(e.n)
    x0[support] = eig.vector
    return InitEstimate(xhat=e.nu * x0, support=support, j0=j0,
                        degenerate=eig.degenerate, iterations_run=0)


def spectral_init(e: Ensemble, s: int,
                  cfg: InitConfig | None = None) -> InitEstimate:
    """Baseline spectral initializer: support from the diagonal of Y."""
    return _spectral_from_support(e, cfg or InitConfig(), support_diag(e, s),
                                  None)


def modified_spectral_init(e: Ensemble, s: int, cfg: InitConfig | None = None,
                           *, anchor: int | None = None) -> InitEstimate:
    """Anchored spectral initializer: support from the top entries of
    |Y e_j0|, with j0 = ``anchor``, by default the first diagonal anchor.

    All-zero observations give a zero block, so the estimate is the
    flagged zero with support 0..s-1.
    """
    if not 1 <= s <= e.n:
        raise ValueError("need 1 <= s <= n")
    j0 = int(diagonal_anchors(y_diag(e), 1)[0] if anchor is None else anchor)
    support = top_magnitude_indices(y_column(e, j0), s)
    return _spectral_from_support(e, cfg or InitConfig(), support, j0)


def magnitude_misfit(e: Ensemble, xhat) -> float:
    """Phaseless data misfit ||y - |A xhat|||_2 of a candidate estimate."""
    xhat = np.asarray(xhat, dtype=float)
    return float(np.linalg.norm(e.y - np.abs(apply_sensing(e, xhat))))


def tp_init(e: Ensemble, s: int, cfg: InitConfig | None = None, *,
            anchor: int | None = None) -> InitEstimate:
    """Truncated power method initializer.

    Starts from the modified-spectral direction anchored at ``anchor`` (by
    default the first diagonal anchor) and runs up to t_max steps of
    w_t = T_s'(Ybar w_{t-1}) with renormalization, stopping early once the
    sign-invariant step is at most STEP_TOL. The final iterate is
    projected back to the s-sparse set and rescaled to norm nu.

    The iterated estimate is kept only if it explains the observations at
    least as well as its start (phaseless misfit ||y - |A xhat|||_2, the
    same data-residual selection the multi-restart driver applies across
    restarts); at small sample sizes the iteration can drift off support,
    and the fallback then returns the modified-spectral estimate itself,
    with the steps taken in ``iterations_run``. A degenerate start is
    returned as it is, and a zero iterate at step t returns the start
    flagged degenerate with ``iterations_run=t``.
    """
    cfg = cfg or InitConfig()
    if not 1 <= s <= e.n:
        raise ValueError("need 1 <= s <= n")
    s_prime = cfg.resolve_s_prime(s, e.n)
    seed = modified_spectral_init(e, s, cfg, anchor=anchor)
    if seed.degenerate:
        return seed

    op = ybar_operator(e, cfg.l, cfg.u)
    w = seed.xhat / e.nu
    t = 0  # steps taken, 0 when t_max is 0
    for t in range(1, cfg.t_max + 1):
        wt = truncate(ybar_matvec(op, w), s_prime)
        nrm = np.linalg.norm(wt)
        if nrm == 0.0:
            return replace(seed, degenerate=True, iterations_run=t)
        w, w_prev = wt / nrm, w
        if dist(w, w_prev) <= STEP_TOL:
            break

    keep = top_magnitude_indices(w, s)
    xs = np.zeros(e.n)
    xs[keep] = w[keep]
    xhat = e.nu * (xs / np.linalg.norm(xs))
    if magnitude_misfit(e, xhat) > magnitude_misfit(e, seed.xhat):
        return replace(seed, iterations_run=t)
    return InitEstimate(xhat=xhat, support=keep, j0=seed.j0,
                        degenerate=False, iterations_run=t)
