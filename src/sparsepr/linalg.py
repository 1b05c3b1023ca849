"""Dense symmetric eigen-kernel and support-restricted least squares.

Everything else in the package works matrix-free; the two dense kernels
live here. Both hand a small |S| x |S| matrix to LAPACK: a symmetric
eigensolve for the top eigenpair and a Cholesky solve for least squares.
Both are deterministic functions of their inputs, and the eigenvector
sign is pinned so repeated runs agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SymMatrix:
    """Small dense symmetric matrix; the constructor symmetrizes by averaging.

    Attributes:
        order: matrix dimension (>= 1).
        entries: (order, order) float array, exactly symmetric as stored
            and read-only.
    """

    __slots__ = ("order", "entries")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("SymMatrix requires a square 2-d array")
        if a.shape[0] < 1:
            raise ValueError("SymMatrix order must be at least 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("SymMatrix entries must be finite")
        # (a[i,j] + a[j,i]) / 2 is computed identically at both positions,
        # so the stored matrix is symmetric to the last bit.
        sym = 0.5 * (a + a.T)
        sym.flags.writeable = False
        self.order = int(a.shape[0])
        self.entries = sym

    def __repr__(self):
        return f"SymMatrix(order={self.order})"


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


def top_eigenvector(matrix: SymMatrix) -> TopEigResult:
    """Top (largest algebraic) eigenpair of a symmetric matrix.

    One LAPACK call (``scipy.linalg.eigh`` restricted to the last index)
    computes the pair directly, so there are no power steps: the result
    always reports ``iterations=0`` and ``converged=True``. A LAPACK
    failure raises ``LinAlgError``. The returned vector has unit length
    and a nonnegative first nonzero component.

    A zero matrix yields (e_0, 0.0) with ``degenerate=True``.
    """
    if not isinstance(matrix, SymMatrix):
        matrix = SymMatrix(matrix)
    M = matrix.entries
    k = matrix.order

    if not M.any():
        v = np.zeros(k)
        v[0] = 1.0
        return TopEigResult(v, 0.0, True, True, 0)

    values, vectors = scipy.linalg.eigh(M, subset_by_index=[k - 1, k - 1],
                                        check_finite=False)
    return TopEigResult(_fix_sign(vectors[:, 0]), float(values[0]), True,
                        False, 0)


def restricted_least_squares(A, support, b, ridge_scale: float = 1e-12):
    """Least squares over the columns of A indexed by ``support``.

    Solves min ||A[:, support] z - b||_2 through the normal equations with
    a Cholesky factor of the restricted Gram matrix (|support| is small, so
    the squared conditioning is acceptable). A rank-deficient Gram matrix
    falls back to a ridge of ``ridge_scale * trace / |support|`` and flags
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
        cho = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
        z = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
    except scipy.linalg.LinAlgError:
        lam = ridge_scale * float(np.trace(gram)) / support.size
        if lam <= 0.0:
            lam = ridge_scale
        z = np.linalg.solve(gram + lam * np.eye(support.size), rhs)
        ridged = True

    x = np.zeros(n)
    x[support] = z
    return x, ridged
