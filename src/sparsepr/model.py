"""Signals, Gaussian magnitude measurements, and the recovery metrics.

The measurement model is y_i = |<a_i, x>| with i.i.d. standard normal
sensing rows a_i. Recovery is only identifiable up to a global sign, so
the distance and error metrics here minimize over that sign.

All sampling takes an explicit ``numpy.random.Generator``. The package
pairs these with counter-based Philox streams (see ``harness``), so trial
results are reproducible regardless of scheduling; bit-compatibility with
other implementations is not promised.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


def _integer(value, name: str) -> int:
    # an integer, or a float with an integral value: a bool, a string or a
    # fractional value is refused rather than truncated
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or (isinstance(value, float) and value.is_integer())):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _instance(value, cls, name: str):
    # None means the defaults, cls(); any other value must be a cls, so a
    # falsy or mistyped settings object is refused rather than replaced
    if value is None:
        return cls()
    if not isinstance(value, cls):
        raise ConfigError(f"{name} must be {cls.__name__}, got {value!r}")
    return value


def _real(value, name: str) -> float:
    # a finite number: a bool, a string, NaN or an infinity is refused
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past 1e308
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SparseSignal:
    """An s-sparse length-n vector stored as (support, values).

    Invariants: support is strictly increasing within [0, n), values are
    nonzero and aligned with support, and s >= 1 (the zero signal is not
    representable).
    """

    n: int
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        # copies: a write to the caller's arrays, or to a view of them,
        # must not reach the checked signal
        support = np.array(self.support, dtype=np.intp)
        values = np.array(self.values, dtype=float)
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if support.ndim != 1 or values.ndim != 1 or support.size != values.size:
            raise ValueError("support and values must be aligned 1-d arrays")
        if support.size < 1:
            raise ValueError("signal must have at least one nonzero entry")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if support[0] < 0 or support[-1] >= self.n:
            raise ValueError("support index out of range")
        if not np.all(np.isfinite(values)) or np.any(values == 0.0):
            raise ValueError("values must be finite and nonzero")
        support.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)

    @property
    def s(self) -> int:
        return int(self.support.size)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    @property
    def stable_sparsity(self) -> float:
        """||x||_2^2 / ||x||_inf^2, the effective number of large entries."""
        peak = float(np.max(np.abs(self.values)))
        return self.norm**2 / peak**2

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.n)
        x[self.support] = self.values
        return x

    @classmethod
    def from_dense(cls, x) -> "SparseSignal":
        x = np.asarray(x, dtype=float)
        support = np.flatnonzero(x)
        return cls(n=x.size, support=support, values=x[support])


@dataclass(frozen=True)
class Ensemble:
    """Sensing matrix A (m x n), magnitude observations y, and two values
    derived once at construction.

    nu = sqrt(mean(y^2)) estimates ||x||_2. ``col_norm_bound`` is an
    upper bound M on every column norm ||A[:, j]||_2, the square root of
    the largest squared column norm raised by that sum's worst rounding
    error; HTP's support certificate reads it. The squared norms come
    from the one pass over A that also proves its entries finite: a NaN
    or infinite entry leaves its column's sum non-finite. A finite A
    whose squares overflow is accepted, with an infinite bound.
    A complex A or y is refused. Construction marks A and y read-only, so
    an ensemble can be shared across threads, and neither value can go
    stale. y is always copied (m values) as float64. A float64 A that
    owns its data is frozen in place, without an m x n copy, so a view of
    it taken before construction is the caller's to leave alone; any
    other A (a view, whose base would stay writable, or another dtype) is
    copied to float64 before its column norms are taken. A may be row- or
    column-major, and every kernel reads either; the copies made here and
    by ``from_measurements``, and ``measure``'s A, are column-major.
    """

    n: int
    m: int
    A: np.ndarray
    y: np.ndarray
    nu: float = field(init=False)
    col_norm_bound: float = field(init=False)

    def __post_init__(self):
        if self.A.shape != (self.m, self.n):
            raise ValueError("A shape does not match (m, n)")
        if self.y.shape != (self.m,):
            raise ValueError("y length does not match m")
        if np.iscomplexobj(self.A) or np.iscomplexobj(self.y):
            raise ValueError("ensemble entries must be real")
        if np.any(self.y < 0):
            raise ValueError("observations must be nonnegative")
        A = self.A
        if not (A.flags.owndata and A.dtype == np.float64):
            A = np.array(A, dtype=float, order="F")
        col_sq = np.einsum("ij,ij->j", A, A)
        # a finite sum proves its column finite; a non-finite one is an
        # overflowed square only if every entry is finite
        if not ((np.all(np.isfinite(col_sq)) or np.all(np.isfinite(A)))
                and np.all(np.isfinite(self.y))):
            raise ValueError("ensemble entries must be finite")
        y = np.array(self.y, dtype=float)
        for name, array in (("A", A), ("y", y)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "nu", norm_estimate(y))
        # a sum of m squares is off by at most about (m + 1)/2 units of
        # roundoff; twice that also covers the product and the root
        slack = 1.0 + (self.m + 1) * np.finfo(float).eps
        object.__setattr__(self, "col_norm_bound", float(np.sqrt(
            col_sq.max(initial=0.0) * slack)))

    @classmethod
    def from_measurements(cls, A, y) -> "Ensemble":
        """An ensemble of copies, so the caller's A and y stay writable."""
        A = np.array(A, dtype=float, order="F")
        y = np.asarray(y, dtype=float)  # __post_init__ copies y
        return cls(n=A.shape[1], m=A.shape[0], A=A, y=y)


def sample_signal(n: int, s: int, rng: np.random.Generator) -> SparseSignal:
    """Uniformly random s-subset support with i.i.d. N(0,1) values.

    Zero value draws (probability zero, but possible in floating point)
    are re-sampled so the signal invariants hold.
    """
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n")
    support = np.sort(rng.choice(n, size=s, replace=False))
    values = rng.standard_normal(s)
    while np.any(values == 0.0):
        zeros = values == 0.0
        values[zeros] = rng.standard_normal(int(np.count_nonzero(zeros)))
    return SparseSignal(n=n, support=support, values=values)


# rows per standard_normal call of ``measure``: a small row-major block
_DRAW_ROWS = 128


def measure(x: SparseSignal, m: int, rng: np.random.Generator) -> Ensemble:
    """Draw m Gaussian sensing rows and record y_i = |<a_i, x>|.

    A is column-major, so the solvers' column gathers are contiguous. It
    holds rng.standard_normal((m, n)) bit for bit, drawn _DRAW_ROWS rows
    at a time, which leaves the generator where that one draw would.
    """
    if m < 1:
        raise ValueError("need at least one measurement")
    A = np.empty((m, x.n), order="F")
    for i in range(0, m, _DRAW_ROWS):
        A[i:i + _DRAW_ROWS] = rng.standard_normal((min(_DRAW_ROWS, m - i),
                                                   x.n))
    y = np.abs(A[:, x.support] @ x.values)
    return Ensemble(n=x.n, m=m, A=A, y=y)


def apply_sensing(e: Ensemble, x: np.ndarray) -> np.ndarray:
    """A x from the columns where x is nonzero, as every solver stage
    passes an s-sparse x; a dense x gives A @ x up to roundoff. An x
    whose shape is not (n,) raises ValueError."""
    if np.shape(x) != (e.n,):
        raise ValueError(f"x must have shape ({e.n},), got {np.shape(x)}")
    nz = np.flatnonzero(x)
    return e.A[:, nz] @ x[nz]


def sgn(z) -> np.ndarray:
    """Elementwise sign with sgn(0) := +1, so sign fixing is deterministic."""
    return np.where(z >= 0.0, 1.0, -1.0)


def norm_estimate(y) -> float:
    """nu = sqrt(mean(y_i^2)); zero only for an all-zero observation vector."""
    y = np.asarray(y, dtype=float)
    if y.size < 1:
        raise ValueError("need at least one observation")
    return float(np.sqrt(np.mean(y * y)))


def dist(u, v) -> float:
    """min over the global sign of the Euclidean distance between u and v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("length mismatch")
    return float(min(np.linalg.norm(u - v), np.linalg.norm(u + v)))


def relative_error(xhat, x) -> float:
    """Sign-invariant relative error dist(xhat, x) / ||x||_2."""
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        raise ValueError("ground truth must be nonzero")
    return dist(xhat, x) / nx


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _pdf_term(t: float, k: int) -> float:
    """t^k phi(t), and 0 where phi(t) underflows (t^k may overflow there)."""
    phi = math.exp(-0.5 * t * t) * _INV_SQRT_2PI
    return t**k * phi if phi else 0.0


def _cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / _SQRT2))


def truncated_gaussian_moment(k: int, a1: float, a2: float) -> float:
    """E[g^k ; a1 <= |g| <= a2] for g ~ N(0,1), k in {2, 4}, closed form.

    Integration by parts of g^k phi(g) over [a1, a2] (doubled by symmetry):

        E[g^2; .] = 2 [ (Phi(a2) - Phi(a1)) - (a2 phi(a2) - a1 phi(a1)) ]
        E[g^4; .] = 2 [ 3 (Phi(a2) - Phi(a1)) - (a2^3 phi(a2) - a1^3 phi(a1))
                        - 3 (a2 phi(a2) - a1 phi(a1)) ]

    Verified against adaptive quadrature in the test suite.
    """
    if k not in (2, 4):
        raise ValueError("moment order must be 2 or 4")
    if not (0 <= a1 < a2):
        raise ValueError("need 0 <= a1 < a2")
    cdf_gap = _cdf(a2) - _cdf(a1)
    edge1 = _pdf_term(a2, 1) - _pdf_term(a1, 1)
    if k == 2:
        return 2.0 * (cdf_gap - edge1)
    edge3 = _pdf_term(a2, 3) - _pdf_term(a1, 3)
    return 2.0 * (3.0 * cdf_gap - edge3 - 3.0 * edge1)
