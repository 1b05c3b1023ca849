"""Support estimation and the three initializers for sparse phase retrieval.

All estimators work from the weighted covariance surrogate

    Y = (1/m) sum_i y_i^2 a_i a_i^T

and its band-truncated companion Ybar, which keeps only rows with
L_BAND*nu <= y_i <= U_BAND*nu, the fixed band [0.5 nu, 10 nu]. Neither
matrix is ever materialized at full size, nor any row of A copied: a
product Ybar w reads only the columns of A where w is nonzero and then
makes one pass over A, and only |S| x |S| principal blocks are assembled
densely. Every kernel reads a row- or column-major A; on a column-major
one (``measure``'s) its column gathers are contiguous.

Three initializers are provided:

* ``spectral_init``: support from the top-s diagonal entries of Y.
* ``modified_spectral_init``: anchor j0 = the first of
  ``diagonal_anchors`` (argmax Y_jj) unless one is given, support from the
  top-s entries of |Y e_j0|.
* ``tp_init``: modified-spectral start, at the same anchor, followed by
  truncated power iterations w_t = T_s'(Ybar w_{t-1}) / ||.|| on one
  vector at s' = min(2 s, n), for at most T_MAX products with Ybar, then
  a final projection back to s-sparse vectors. Once the support of w_t
  has held for SUPPORT_HOLD steps, the loop is finished by one
  eigensolve: on a fixed support TP is the power method on the s' x s'
  principal block, so the block's top eigenvector is its fixed point.

Each returns nu times a unit s-sparse vector, so the output has norm nu.

One ranking rule (largest first, ties to the smaller index) selects each
support and TP's truncation T_s' by magnitude, and the anchors by Y_jj.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, replace

import numpy as np

from .linalg import checked_support, top_eigenvector
from .model import ConfigError, Ensemble, _integer, apply_sensing, dist

# truncation band [L_BAND*nu, U_BAND*nu] of Ybar (the worked constants)
L_BAND, U_BAND = 0.5, 10.0
# TP iteration budget ceil(log(200/0.125) / log(1/0.98)): a contraction by
# 0.98 per step reaching the refinement basin of radius 0.125 from 200
T_MAX = 366
STEP_TOL = 1e-8       # TP stops once dist(w_t, w_{t-1}) is at most this
# TP tries its eigensolve finish once supp(w_t) has equalled supp(w_{t-1})
# for this many consecutive steps (after one, the finish can pass its
# check where plain TP later moves the support and ends elsewhere)
SUPPORT_HOLD = 2


@dataclass(frozen=True)
class InitEstimate:
    """Initializer output: xhat = nu * (unit s-sparse direction).

    support holds the selected index set, j0 the anchor index (None when
    the estimator has no anchor), iterations_run the number of products
    with Ybar that TP made, its finish's check included (0 for the
    spectral initializers).
    """

    xhat: np.ndarray
    support: np.ndarray
    j0: int | None
    degenerate: bool
    iterations_run: int


# (ensemble, {key: value}) of the trial whose solves share their work
_TRIAL = contextvars.ContextVar("sparsepr_trial", default=None)


@contextlib.contextmanager
def _per_trial(e: Ensemble):
    """Within the block, ``_once`` computes each value for ``e`` once."""
    token = _TRIAL.set((e, {}))
    try:
        yield
    finally:
        _TRIAL.reset(token)


def _once(e: Ensemble, key, compute):
    """compute(); inside a ``_per_trial`` block of this very ensemble, the
    first result for ``key`` is kept and returned to every later call."""
    scope = _TRIAL.get()
    if scope is None or scope[0] is not e:
        return compute()
    if key not in scope[1]:
        scope[1][key] = compute()
    return scope[1][key]


def _sparsity(e: Ensemble, s) -> int:
    # 2.0 becomes 2; a bool or 2.5 is refused, never truncated
    s = _integer(s, "s")
    if not 1 <= s <= e.n:
        raise ConfigError(f"need 1 <= s <= n = {e.n}, got s = {s}")
    return s


def _ranked(values, k: int) -> np.ndarray:
    """Indices of the k largest entries of a vector, largest first, ties to
    the smaller index: the one ranking rule of every selection here.

    The result is ``np.argsort(-values, kind="stable")[:k]`` (NaN ranks
    last), found without the full sort: ``np.partition`` finds the k-th
    value c, and only the indices whose value is at least c, ties at the
    cut included, are stable-sorted. A NaN at the cut falls back to the
    full sort.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be a vector")
    if k < 0:
        raise ValueError("k must be nonnegative")
    neg = -values
    if 0 < k < neg.size:
        cut = np.partition(neg, k - 1)[k - 1]
        if not np.isnan(cut):
            keep = np.flatnonzero(neg <= cut)  # ascending: ties stay in order
            return keep[np.argsort(neg[keep], kind="stable")[:k]]
    return np.argsort(neg, kind="stable")[:k]


def top_magnitude_indices(values, k: int) -> np.ndarray:
    """Indices of the k largest |values| of a vector, sorted ascending; ties
    go to the smaller index. k >= len(values) returns every index."""
    return np.sort(_ranked(np.abs(values), k))


def truncate(w, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of the vector w, zero the
    rest; ties at the cut go to the smaller index."""
    w = np.asarray(w, dtype=float)
    keep = _ranked(np.abs(w), k)
    out = np.zeros_like(w)
    out[keep] = w[keep]
    return out


# columns per block of ``y_diag``: an m x _DIAG_COLS temporary
_DIAG_COLS = 32


def y_diag(e: Ensemble) -> np.ndarray:
    """Diagonal of Y: out[j] = (1/m) sum_i y_i^2 A[i,j]^2, matrix-free:
    one BLAS product (A[:, blk]^2)^T y^2 per block of _DIAG_COLS columns,
    so no m x n temporary is made."""
    y2 = e.y * e.y
    out = np.empty(e.n)
    for j in range(0, e.n, _DIAG_COLS):
        out[j:j + _DIAG_COLS] = np.square(e.A[:, j:j + _DIAG_COLS]).T @ y2
    return out / e.m


def y_column(e: Ensemble, j0: int) -> np.ndarray:
    """Column Y e_j0 = (1/m) sum_i y_i^2 A[i,j0] a_i, matrix-free."""
    if not 0 <= j0 < e.n:
        raise ValueError("column index out of range")
    return e.A.T @ (e.y * e.y * e.A[:, j0]) / e.m


def diagonal_anchors(diag, b: int) -> np.ndarray:
    """The b anchors of the anchored initializers: indices of the largest
    diagonal entries, largest first, ties to the smaller index."""
    return _ranked(diag, b)


def truncation_weights(e: Ensemble) -> np.ndarray:
    """Row weights y_i^2 gated to the band [L_BAND*nu, U_BAND*nu]."""
    in_band = (e.y >= L_BAND * e.nu) & (e.y <= U_BAND * e.nu)
    return np.where(in_band, e.y * e.y, 0.0)


@dataclass(frozen=True)
class YbarOperator:
    """Ybar prepared for repeated products: the ensemble's own A, not a
    copy, and the row weights ``truncation_weights(e) / m``, which are
    zero outside the band. They are kept because recomputing them adds
    2-5% to each product at n=1000, m=1500."""

    A: np.ndarray
    weights: np.ndarray


def ybar_operator(e: Ensemble) -> YbarOperator:
    """Prepare Ybar = (1/m) sum of y_i^2 a_i a_i^T over the in-band rows."""
    return YbarOperator(A=e.A, weights=truncation_weights(e) / e.m)


def ybar_matvec(op: YbarOperator, w) -> np.ndarray:
    """Product Ybar w of a vector w, without materializing Ybar: A w from
    the columns where w is nonzero, then one product with A^T."""
    w = np.asarray(w, dtype=float)
    if w.shape != op.A.shape[1:]:
        raise ValueError("vector length must match the signal dimension")
    nz = np.flatnonzero(w)
    return op.A.T @ (op.weights * (op.A[:, nz] @ w[nz]))


def restricted_ybar(e: Ensemble, support) -> np.ndarray:
    """The |S| x |S| principal block of Ybar, assembled in O(m |S|^2).

    ``support`` is checked by ``linalg.checked_support`` (ValueError) and
    must be nonempty.

    Symmetric only up to roundoff; ``top_eigenvector`` averages it with
    its transpose.
    """
    support = checked_support(support, e.n)
    if support.size < 1:
        raise ValueError("support must be nonempty")
    weights = truncation_weights(e)
    As = e.A[:, support]
    return (As * weights[:, None]).T @ As / e.m


def _block_top(e: Ensemble, support: np.ndarray) -> tuple[np.ndarray, bool]:
    """Top eigenvector of Ybar's block on ``support``, lifted to length n,
    and whether that block is degenerate (zero)."""
    eig = top_eigenvector(restricted_ybar(e, support))
    v = np.zeros(e.n)
    v[support] = eig.vector
    return v, eig.degenerate


def _spectral_from_support(e: Ensemble, support: np.ndarray,
                           j0: int | None) -> InitEstimate:
    v, degenerate = _block_top(e, support)
    return InitEstimate(xhat=e.nu * v, support=support, j0=j0,
                        degenerate=degenerate, iterations_run=0)


def spectral_init(e: Ensemble, s: int) -> InitEstimate:
    """Baseline spectral initializer: support from the top-s diagonal of Y."""
    s = _sparsity(e, s)
    diag = _once(e, "y_diag", lambda: y_diag(e))
    return _spectral_from_support(e, top_magnitude_indices(diag, s), None)


def modified_spectral_init(e: Ensemble, s: int, *,
                           anchor: int | None = None) -> InitEstimate:
    """Anchored spectral initializer: support from the top entries of
    |Y e_j0|, with j0 = ``anchor``, by default the first diagonal anchor.

    All-zero observations give a zero block, so the estimate is the
    flagged zero with support 0..s-1. Within a trial scope each (s, j0)
    is computed once, for this method and for ``tp_init``'s start alike.
    """
    s = _sparsity(e, s)
    if anchor is None:
        anchor = diagonal_anchors(_once(e, "y_diag", lambda: y_diag(e)), 1)[0]
    j0 = _integer(anchor, "anchor")
    return _once(e, ("modspec", s, j0), lambda: _spectral_from_support(
        e, top_magnitude_indices(y_column(e, j0), s), j0))


def magnitude_misfit(e: Ensemble, xhat) -> float:
    """Phaseless data misfit ||y - |A xhat|||_2 of a candidate estimate."""
    xhat = np.asarray(xhat, dtype=float)
    return float(np.linalg.norm(e.y - np.abs(apply_sensing(e, xhat))))


def tp_init(e: Ensemble, s: int, *,
            anchor: int | None = None) -> InitEstimate:
    """Truncated power method initializer.

    Starts from the modified-spectral direction anchored at ``anchor`` (by
    default the first diagonal anchor) and iterates w_t = T_s'(Ybar w_{t-1})
    with renormalization, at s' = min(2 s, n), stopping early once the
    sign-invariant step is at most STEP_TOL. Once supp(w_t) has equalled
    supp(w_{t-1}) for SUPPORT_HOLD consecutive steps, TP is the power
    method on that support's block, so the loop tries to finish with the
    block's top eigenvector v (sign matched to w_t): one more product
    checks that T_s'(Ybar v) keeps the support, and then w = v. A failed
    check, or a degenerate block, leaves the loop on w_t, and the finish
    is tried again only on a different settled support. The loop makes
    at most T_MAX products with Ybar, the checks included, and counts
    them in ``iterations_run``; the check needs one product of budget
    left. The final iterate is projected back to the s-sparse set and
    rescaled to norm nu.

    The iterated estimate is kept only if it explains the observations at
    least as well as its start (phaseless misfit ||y - |A xhat|||_2, the
    same data-residual selection the multi-restart driver applies across
    restarts); at small sample sizes the iteration can drift off support,
    and the fallback then returns the modified-spectral estimate itself,
    with the products made in ``iterations_run``. A degenerate start is
    returned as it is, and a zero iterate at product t returns the start
    flagged degenerate with ``iterations_run=t``.
    """
    s = _sparsity(e, s)
    seed = modified_spectral_init(e, s, anchor=anchor)
    if seed.degenerate:
        return seed

    op = ybar_operator(e)
    s_prime = min(2 * s, e.n)
    w = seed.xhat / e.nu
    support = tried = None  # supp(w_t); the support last tried to finish
    held = 0                # steps for which supp(w_t) has held
    t = 0                   # products with Ybar made
    while t < T_MAX:
        t += 1
        wt = truncate(ybar_matvec(op, w), s_prime)
        nrm = np.linalg.norm(wt)
        if nrm == 0.0:
            return replace(seed, degenerate=True, iterations_run=t)
        w, w_prev = wt / nrm, w
        if dist(w, w_prev) <= STEP_TOL:
            break
        # the start is s-sparse, so holding counts from w_1
        prev, support = support, np.flatnonzero(w)
        held = held + 1 if np.array_equal(support, prev) else 0
        if (held >= SUPPORT_HOLD and t < T_MAX
                and not np.array_equal(support, tried)):
            tried = support
            v, degenerate = _block_top(e, support)
            if not degenerate:
                # TP's fixed point on the support when T_s' keeps it,
                # signed to match w_t
                if v[support] @ w[support] < 0:
                    v[support] = -v[support]
                t += 1
                check = truncate(ybar_matvec(op, v), s_prime)
                if np.array_equal(np.flatnonzero(check), support):
                    w = v
                    break

    keep = top_magnitude_indices(w, s)
    xs = truncate(w, s)
    xhat = e.nu * (xs / np.linalg.norm(xs))
    # fires in about half to nine tenths of the trials at n=1000, s=25,
    # yet without it tp recovers 42 rather than 49 of 100 at m=500
    if magnitude_misfit(e, xhat) > magnitude_misfit(e, seed.xhat):
        return replace(seed, iterations_run=t)
    return InitEstimate(xhat=xhat, support=keep, j0=seed.j0,
                        degenerate=False, iterations_run=t)
