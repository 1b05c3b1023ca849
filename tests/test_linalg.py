import numpy as np
import pytest
import scipy.optimize

from sparsepr import linalg
from sparsepr.linalg import (checked_support, restricted_least_squares,
                             top_eigenvector)


def rayleigh_oracle(M, samples=10**6, seed=0):
    """Brute-force top eigenpair: maximize v^T M v over random unit vectors,
    then polish with a general-purpose optimizer (independent of the
    eigensolver)."""
    rng = np.random.default_rng(seed)
    k = M.shape[0]
    best = None
    for start in range(0, samples, 200_000):
        block = rng.standard_normal((min(200_000, samples - start), k))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        quot = np.einsum("ij,jk,ik->i", block, M, block)
        i = int(np.argmax(quot))
        if best is None or quot[i] > best[0]:
            best = (quot[i], block[i])

    def neg_rayleigh(v):
        return -(v @ M @ v) / (v @ v)

    res = scipy.optimize.minimize(neg_rayleigh, best[1], method="BFGS",
                                  options={"gtol": 1e-12, "maxiter": 500})
    v = res.x / np.linalg.norm(res.x)
    return v, float(v @ M @ v)


class TestTopEigenvector:
    def test_symmetrizes_by_averaging(self):
        # eigh alone reads one triangle: [[1, 4], [4, 3]] has top value
        # 2 + sqrt(17), the average [[1, 3], [3, 3]] has 2 + sqrt(10)
        res = top_eigenvector([[1.0, 2.0], [4.0, 3.0]])
        avg = top_eigenvector([[1.0, 3.0], [3.0, 3.0]])
        assert np.array_equal(res.vector, avg.vector)
        assert res.value == avg.value == pytest.approx(2 + np.sqrt(10))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            top_eigenvector([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            top_eigenvector(np.zeros((2, 3)))

    def test_diagonal_matrix(self):
        res = top_eigenvector(np.diag([5.0, 1.0]))
        np.testing.assert_allclose(res.vector, [1.0, 0.0], atol=1e-9)
        assert res.value == pytest.approx(5.0, abs=1e-9)
        assert res.converged and not res.degenerate
        assert res.iterations == 0  # direct solve, no power steps

    def test_symmetric_2x2_closed_form(self):
        res = top_eigenvector([[2.0, 1.0], [1.0, 2.0]])
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(res.vector, [r, r], atol=1e-9)
        assert res.value == pytest.approx(3.0, abs=1e-9)

    def test_zero_matrix_degenerate(self):
        res = top_eigenvector(np.zeros((3, 3)))
        np.testing.assert_allclose(res.vector, [1.0, 0.0, 0.0])
        assert res.value == 0.0
        assert res.degenerate

    def test_matches_rayleigh_oracle_random_5x5(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        M = a + a.T
        oracle_v, oracle_val = rayleigh_oracle(M)
        res = top_eigenvector(M)
        angle = np.arccos(min(1.0, abs(oracle_v @ res.vector)))
        assert angle <= 1e-3
        assert res.value == pytest.approx(oracle_val, rel=1e-8)

    def test_rayleigh_lower_bound_many_matrices(self):
        # output quotient must reach the brute-force optimum minus tol
        rng = np.random.default_rng(21)
        for k in (2, 3, 4, 6):
            a = rng.standard_normal((k, k))
            M = a + a.T
            _, oracle_val = rayleigh_oracle(M, samples=200_000,
                                            seed=k)
            res = top_eigenvector(M)
            quot = res.vector @ M @ res.vector
            assert quot >= oracle_val - 1e-8

    def test_handles_dominant_negative_eigenvalue(self):
        # magnitude-top is negative; algebraic top must still be returned
        M = np.diag([1.0, -10.0])
        res = top_eigenvector(M)
        np.testing.assert_allclose(res.vector, [1.0, 0.0], atol=1e-9)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_start_exactly_on_lesser_eigenvector(self):
        # largest diagonal entry is an exact eigenvector of a lesser
        # eigenvalue; the top pair must still be found
        M = np.array([[1.05, 0.0, 0.0],
                      [0.0, 1.0, 0.9],
                      [0.0, 0.9, 1.0]])
        res = top_eigenvector(M)
        assert res.value == pytest.approx(1.9, abs=1e-9)
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(np.abs(res.vector), [0.0, r, r],
                                   atol=1e-8)

    def test_sign_convention(self):
        M = np.diag([4.0, 1.0])
        res = top_eigenvector(M)
        assert res.vector[0] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        M = a @ a.T
        r1 = top_eigenvector(M)
        r2 = top_eigenvector(M)
        assert np.array_equal(r1.vector, r2.vector)
        assert r1.value == r2.value


class TestRestrictedLeastSquares:
    def test_identity_system(self):
        x, ridged = restricted_least_squares(np.eye(3), [0, 1, 2],
                                             np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], atol=1e-12)
        assert not ridged

    def test_mean_of_two_equations(self):
        A = np.array([[1.0], [1.0]])
        x, _ = restricted_least_squares(A, [0], np.array([1.0, 3.0]))
        np.testing.assert_allclose(x, [2.0], atol=1e-12)

    def test_matches_elimination_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            A = rng.standard_normal((20, 8))
            b = rng.standard_normal(20)
            support = np.sort(rng.choice(8, size=3, replace=False))
            x, ridged = restricted_least_squares(A, support, b)
            As = A[:, support]
            oracle = np.linalg.solve(As.T @ As, As.T @ b)  # LU elimination
            np.testing.assert_allclose(x[support], oracle, atol=1e-10)
            off = np.setdiff1d(np.arange(8), support)
            assert np.all(x[off] == 0.0)
            assert not ridged

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((30, 10))
        b = rng.standard_normal(30)
        support = np.array([1, 4, 7, 9])
        x, _ = restricted_least_squares(A, support, b)
        resid = b - A @ x
        cross = A[:, support].T @ resid
        assert np.max(np.abs(cross)) <= 1e-8 * np.linalg.norm(b)

    def test_idempotent_on_fitted_values(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((25, 6))
        b = rng.standard_normal(25)
        support = np.array([0, 2, 5])
        x1, _ = restricted_least_squares(A, support, b)
        x2, _ = restricted_least_squares(A, support, A @ x1)
        np.testing.assert_allclose(x2, x1, atol=1e-12)

    def test_rank_deficient_sets_flag(self):
        A = np.zeros((4, 3))
        A[:, 0] = 1.0
        A[:, 1] = 1.0  # duplicate column: singular restricted Gram
        x, ridged = restricted_least_squares(A, [0, 1], np.ones(4))
        assert ridged
        assert np.all(np.isfinite(x))

    def test_rejects_bad_support(self):
        A = np.eye(3)
        with pytest.raises(ValueError):
            restricted_least_squares(A, [0, 0], np.ones(3))
        with pytest.raises(ValueError):
            restricted_least_squares(A, [5], np.ones(3))
        with pytest.raises(ValueError):
            restricted_least_squares(np.ones((1, 3)), [0, 1], np.ones(1))


class TestCheckedSupport:
    # one check for both support-restricted kernels: each bad support
    # raises ValueError instead of being cast, wrapped or solved on
    @pytest.mark.parametrize("support", [[0.5, 1.7], [0.9, 2.2]])
    def test_lstsq_refuses_fractional_indices(self, support):
        with pytest.raises(ValueError, match="integers"):
            restricted_least_squares(np.eye(3), support, np.ones(3))

    def test_lstsq_refuses_bool_mask(self):
        # [False, True] used to be read as the indices [0, 1]
        with pytest.raises(ValueError, match="mask"):
            restricted_least_squares(np.eye(3), np.array([False, True]),
                                     np.ones(3))

    @pytest.mark.parametrize("support", [[-1], [0, 3], [float("nan")],
                                         [float("inf")], [1e300]])
    def test_refuses_out_of_range_and_nonfinite(self, support):
        with pytest.raises(ValueError):
            checked_support(support, 3)

    def test_refuses_repeat_in_any_order(self):
        for support in ([2, 2], [2, 0, 2], [0, 1, 1]):
            with pytest.raises(ValueError, match="distinct"):
                checked_support(support, 3)

    def test_refuses_non_numeric(self):
        with pytest.raises(ValueError):
            checked_support(["a"], 3)

    def test_keeps_order_and_takes_integral_floats(self):
        got = checked_support([2.0, 0.0], 3)
        assert got.dtype == np.intp
        assert got.tolist() == [2, 0]
        assert checked_support(np.array([[1], [2]], dtype=np.int32),
                               3).tolist() == [1, 2]
        assert checked_support([], 3).size == 0

    def test_increasing_support_skips_the_sort(self, monkeypatch):
        # the supports HTP and TP pass are strictly increasing; those are
        # checked in one pass, without np.unique
        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique on an increasing support")

        monkeypatch.setattr(linalg.np, "unique", no_unique)
        assert checked_support(np.arange(0, 40, 3), 40).tolist() == list(
            range(0, 40, 3))
