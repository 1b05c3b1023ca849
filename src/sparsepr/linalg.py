"""Dense symmetric eigen-kernel and support-restricted least squares.

Everything else in the package works matrix-free; the two dense kernels
live here. Both hand a small |S| x |S| matrix to ``numpy.linalg``: a
symmetric eigensolve for the top eigenpair and a Cholesky solve for
least squares. Both are deterministic functions of their inputs, and
the eigenvector sign is pinned so repeated runs agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TopEigResult:
    """Dominant eigenpair and its flags.

    ``converged`` is always True and ``iterations`` always 0: the pair
    comes from a direct LAPACK solve, not an iteration. ``degenerate``
    marks the zero matrix.
    """

    vector: np.ndarray
    value: float
    converged: bool
    degenerate: bool
    iterations: int


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its first nonzero component is nonnegative."""
    nz = np.flatnonzero(v)
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


def top_eigenvector(matrix) -> TopEigResult:
    """Top (largest algebraic) eigenpair of a finite square matrix, taken
    as symmetric: the solve runs on 0.5 * (M + M^T).

    One LAPACK call (``numpy.linalg.eigh``, whose last pair is the top one)
    computes the pair directly, so there are no power steps: the result
    always reports ``iterations=0`` and ``converged=True``. A LAPACK
    failure raises ``LinAlgError``. The returned vector has unit length
    and a nonnegative first nonzero component.

    A zero matrix yields (e_0, 0.0) with ``degenerate=True``. A matrix
    that is not 2-d and square, has order 0 or holds a non-finite entry
    raises ValueError.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square 2-d matrix")
    k = a.shape[0]
    if k < 1:
        raise ValueError("matrix order must be at least 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    # eigh reads one triangle, and an assembled block is symmetric only up
    # to roundoff; (a[i,j] + a[j,i]) / 2 is computed identically at both
    # positions, so M is symmetric to the last bit
    M = 0.5 * (a + a.T)

    if not M.any():
        v = np.zeros(k)
        v[0] = 1.0
        return TopEigResult(v, 0.0, True, True, 0)

    values, vectors = np.linalg.eigh(M)
    return TopEigResult(_fix_sign(vectors[:, -1]), float(values[-1]), True,
                        False, 0)


_RIDGE_SCALE = 1e-12


def restricted_least_squares(A, support, b):
    """Least squares over the columns of A indexed by ``support``.

    Solves min ||A[:, support] z - b||_2 through the normal equations: the
    restricted Gram matrix G = L L^T is factored by ``numpy.linalg.cholesky``
    and z comes from solves with L and then L^T (|support| is small, so the
    squared conditioning is acceptable). A rank-deficient Gram matrix
    falls back to a ridge of ``1e-12 * trace / |support|`` and flags
    the result.

    Returns:
        (x, ridged): x is a length-n vector, zero off the support; ridged
        is True when the ridge fallback was used.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-d array")
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError("b length must match the number of rows of A")
    support = np.asarray(support, dtype=np.intp).ravel()
    if support.size == 0:
        return np.zeros(n), False
    if support.size > m:
        raise ValueError("support larger than the number of equations")
    if np.unique(support).size != support.size:
        raise ValueError("support indices must be distinct")
    if support.min() < 0 or support.max() >= n:
        raise ValueError("support index out of range")

    As = A[:, support]
    gram = As.T @ As
    rhs = As.T @ b
    ridged = False
    try:
        L = np.linalg.cholesky(gram)
        z = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
    except np.linalg.LinAlgError:
        lam = _RIDGE_SCALE * float(np.trace(gram)) / support.size
        if lam <= 0.0:
            lam = _RIDGE_SCALE
        z = np.linalg.solve(gram + lam * np.eye(support.size), rhs)
        ridged = True

    x = np.zeros(n)
    x[support] = z
    return x, ridged
