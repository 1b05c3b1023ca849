from dataclasses import replace

import numpy as np
import pytest

import sparsepr as sp
from sparsepr import initializers
from sparsepr.initializers import (magnitude_misfit, top_magnitude_indices,
                                   truncation_weights)
from sparsepr.model import Ensemble


def one_row_ensemble(row, obs):
    A = np.array([row], dtype=float)
    return Ensemble.from_measurements(A, np.array([obs], dtype=float))


def exact_expectation_block(x, alpha, beta, support):
    """Idealized restricted matrix (the expectation of the truncated
    surrogate), patched in for ``restricted_ybar``."""
    xd = x.to_dense()
    sub = xd[support]
    block = (beta - alpha) * np.outer(sub, sub) + \
        alpha * x.norm**2 * np.eye(len(support))
    return block


class TestYDiag:
    def test_single_row(self):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        np.testing.assert_allclose(sp.y_diag(e), [4.0, 16.0])

    def test_zero_observations(self):
        e = one_row_ensemble([1.0, 2.0], 0.0)
        np.testing.assert_allclose(sp.y_diag(e), [0.0, 0.0])

    def test_monte_carlo_expectation(self):
        # diagonal expectation: ||x||^2 + 2 x_j^2 on support, ||x||^2 off
        rng = sp.trial_rng(31)
        x = sp.sample_signal(8, 3, rng)
        e = sp.measure(x, 200_000, rng)
        xd = x.to_dense()
        expected = x.norm**2 + 2 * xd**2
        assert np.max(np.abs(sp.y_diag(e) - expected)) <= 0.05 * x.norm**2


class TestYColumn:
    def test_single_row(self):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        np.testing.assert_allclose(sp.y_column(e, 1), [8.0, 16.0])

    def test_zero_column(self):
        e = one_row_ensemble([1.0, 0.0], 1.0)
        np.testing.assert_allclose(sp.y_column(e, 1), [0.0, 0.0])

    def test_out_of_range(self):
        e = one_row_ensemble([1.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            sp.y_column(e, 2)

    def test_monte_carlo_expectation(self):
        # anchored column: 2|x_j0 x_j| on support, 0 off support
        rng = sp.trial_rng(32)
        x = sp.sample_signal(8, 3, rng)
        e = sp.measure(x, 200_000, rng)
        xd = x.to_dense()
        j0 = int(x.support[np.argmax(np.abs(x.values))])
        col = np.abs(sp.y_column(e, j0))
        tol = 0.05 * x.norm**2
        for j in range(8):
            if j == j0:
                continue
            expected = 2 * abs(xd[j0] * xd[j])
            assert abs(col[j] - expected) <= tol


class TestSupportRules:
    def test_spectral_support_single_row(self):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        np.testing.assert_array_equal(sp.spectral_init(e, 1).support, [1])

    def test_spectral_support_full(self):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        np.testing.assert_array_equal(sp.spectral_init(e, 2).support, [0, 1])

    def test_spectral_support_recovery_rate(self):
        # exact set recovery needs m far beyond desk scale (the diag gap is
        # min_j x_j^2); the oracle-computed event at this m is energy
        # capture: the estimated set holds >= 95% of signal energy
        n, s, m = 64, 8, 5000
        hits = 0
        for t in range(100):
            rng = sp.trial_rng(sp.derive_trial_seed(41, n, s, m, t))
            x = sp.sample_signal(n, s, rng)
            e = sp.measure(x, m, rng)
            xd = x.to_dense()
            support = sp.spectral_init(e, s).support
            cap = np.linalg.norm(xd[support])**2 / x.norm**2
            hits += cap >= 0.95
        assert hits >= 75

    def test_anchored_support_hand_case(self):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        est = sp.modified_spectral_init(e, 1)
        assert est.j0 == 1
        np.testing.assert_array_equal(est.support, [1])

    def test_anchored_support_full(self):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        est = sp.modified_spectral_init(e, 2)
        np.testing.assert_array_equal(est.support, [0, 1])

    def test_diagonal_anchors_hand_case(self):
        np.testing.assert_array_equal(
            sp.diagonal_anchors([1.0, 3.0, 0.0, 3.0], 3), [1, 3, 0])

    def test_anchor_quality_rate(self):
        # anchor entry at least half the largest magnitude
        n, s, m = 64, 8, 3000
        hits = 0
        for t in range(100):
            rng = sp.trial_rng(sp.derive_trial_seed(43, n, s, m, t))
            x = sp.sample_signal(n, s, rng)
            e = sp.measure(x, m, rng)
            j0 = sp.diagonal_anchors(sp.y_diag(e), 1)[0]
            xd = x.to_dense()
            hits += abs(xd[j0]) >= 0.5 * np.max(np.abs(xd))
        assert hits >= 90


class TestTruncate:
    def test_top_two(self):
        np.testing.assert_allclose(sp.truncate([3.0, -1.0, 2.0], 2),
                                   [3.0, 0.0, 2.0])

    def test_k_at_least_length(self):
        w = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(sp.truncate(w, 3), w)
        np.testing.assert_allclose(sp.truncate(w, 10), w)

    def test_tie_breaks_to_smaller_index(self):
        np.testing.assert_allclose(sp.truncate([2.0, -2.0, 1.0], 1),
                                   [2.0, 0.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            w = rng.standard_normal(20)
            k = int(rng.integers(0, 22))
            once = sp.truncate(w, k)
            np.testing.assert_array_equal(sp.truncate(once, k), once)

    def test_norm_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            w = rng.standard_normal(15)
            k = int(rng.integers(0, 16))
            tk = np.linalg.norm(sp.truncate(w, k))
            assert tk <= np.linalg.norm(w) + 1e-15
            if np.count_nonzero(w) <= k:
                assert tk == pytest.approx(np.linalg.norm(w))

    def test_top_indices_tie_rule(self):
        np.testing.assert_array_equal(
            top_magnitude_indices([1.0, -1.0, 1.0], 2), [0, 1])

    @pytest.mark.parametrize("select", [top_magnitude_indices, sp.truncate,
                                        sp.diagonal_anchors])
    def test_negative_count_refused(self, select):
        # refused, not read as a slice from the end
        with pytest.raises(ValueError, match="nonnegative"):
            select([3.0, 1.0, 2.0], -1)

    @pytest.mark.parametrize("select", [top_magnitude_indices, sp.truncate,
                                        sp.diagonal_anchors])
    def test_non_vector_refused(self, select):
        with pytest.raises(ValueError, match="vector"):
            select(np.ones((2, 2)), 1)


class TestYbarMatvec:
    def test_indicator_one_single_row(self):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        # nu = 2, band [1, 20] contains y = 2
        w = np.array([1.0, 1.0])
        expected = 4.0 * 3.0 * np.array([1.0, 2.0])  # y^2 <a,w> a
        op = sp.ybar_operator(e)
        np.testing.assert_allclose(sp.ybar_matvec(op, w), expected)

    def test_all_rows_above_band(self, monkeypatch):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        monkeypatch.setattr(initializers, "L_BAND", 0.1)
        monkeypatch.setattr(initializers, "U_BAND", 0.5)
        op = sp.ybar_operator(e)  # band [0.2, 1] < 2
        out = sp.ybar_matvec(op, np.ones(2))
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_matches_dense_assembly(self, dense_ybar):
        rng = np.random.default_rng(0)
        for k in range(20):
            n = int(rng.integers(4, 13))
            m = int(rng.integers(10, 101))
            s = int(rng.integers(1, min(n, 4)))
            g = sp.trial_rng(900 + k)
            x = sp.sample_signal(n, s, g)
            e = sp.measure(x, m, g)
            w = g.standard_normal(n)
            dense = dense_ybar(e.A, e.y, e.nu, 0.5, 10.0)
            op = sp.ybar_operator(e)
            # dense, and s'-sparse as TP's iterates are
            for v in (w, sp.truncate(w, min(2 * s, n))):
                np.testing.assert_allclose(sp.ybar_matvec(op, v),
                                           dense @ v, atol=1e-12)

    def test_linear_in_w(self):
        g = sp.trial_rng(77)
        x = sp.sample_signal(30, 4, g)
        e = sp.measure(x, 100, g)
        u = g.standard_normal(30)
        v = g.standard_normal(30)
        a, b = 0.7, -1.3
        op = sp.ybar_operator(e)
        lhs = sp.ybar_matvec(op, a * u + b * v)
        rhs = a * sp.ybar_matvec(op, u) + b * sp.ybar_matvec(op, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * e.nu**2)

    def test_row_permutation_invariance(self):
        g = sp.trial_rng(78)
        x = sp.sample_signal(20, 3, g)
        e = sp.measure(x, 60, g)
        perm = g.permutation(60)
        e2 = Ensemble.from_measurements(e.A[perm], e.y[perm])
        w = g.standard_normal(20)
        np.testing.assert_allclose(
            sp.ybar_matvec(sp.ybar_operator(e), w),
            sp.ybar_matvec(sp.ybar_operator(e2), w),
            rtol=1e-10, atol=1e-12)


class TestRestrictedYbar:
    def test_single_index_single_row(self):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        block = sp.restricted_ybar(e, np.array([1]))
        np.testing.assert_allclose(block, [[16.0]])

    def test_agrees_with_matvec_on_indicators(self):
        g = sp.trial_rng(55)
        x = sp.sample_signal(12, 3, g)
        e = sp.measure(x, 80, g)
        S = np.array([1, 4, 9])
        block = sp.restricted_ybar(e, S)
        for col, j in enumerate(S):
            ind = np.zeros(12)
            ind[j] = 1.0
            full = sp.ybar_matvec(sp.ybar_operator(e), ind)
            np.testing.assert_allclose(block[:, col], full[S],
                                       atol=1e-12)

    def test_disjoint_support_near_isotropic(self):
        # off the signal support the expectation is alpha nu^2 I
        rng = sp.trial_rng(66)
        x = sp.sample_signal(8, 3, rng)
        e = sp.measure(x, 200_000, rng)
        S = np.setdiff1d(np.arange(8), x.support)[:3]
        block = sp.restricted_ybar(e, S)
        alpha = sp.truncated_gaussian_moment(2, 0.5, 10.0)
        tol = 0.05 * x.norm**2
        off = block - np.diag(np.diag(block))
        assert np.max(np.abs(off)) <= tol
        assert np.max(np.abs(np.diag(block) - alpha * e.nu**2)) <= tol

    def test_empty_support_rejected(self):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        with pytest.raises(ValueError):
            sp.restricted_ybar(e, np.array([], dtype=int))

    # each used to give a 2 x 2 block silently (cast, mask read as
    # indices, wrapped or repeated index), or an IndexError at n = 10
    @pytest.mark.parametrize("support", [[0.9, 2.2], [True, True], [-1, 3],
                                         [3, 3], [0, 12]])
    def test_bad_support_rejected(self, support):
        g = sp.trial_rng(67)
        e = sp.measure(sp.sample_signal(10, 2, g), 30, g)
        with pytest.raises(ValueError):
            sp.restricted_ybar(e, support)


class TestExpectationIdentity:
    def test_dense_truncated_matrix_matches_moments(self, dense_ybar):
        # idealized truncation (exact norm in the indicator) against
        # (beta - alpha) x x^T + alpha ||x||^2 I
        rng = sp.trial_rng(88)
        x = sp.sample_signal(8, 3, rng)
        e = sp.measure(x, 200_000, rng)
        xd = x.to_dense()
        alpha = sp.truncated_gaussian_moment(2, 0.5, 10.0)
        beta = sp.truncated_gaussian_moment(4, 0.5, 10.0)
        dense = dense_ybar(e.A, e.y, x.norm, 0.5, 10.0)
        expected = (beta - alpha) * np.outer(xd, xd) + \
            alpha * x.norm**2 * np.eye(8)
        assert np.max(np.abs(dense - expected)) <= 0.05 * x.norm**2


class TestModifiedSpectralInit:
    def test_exact_expectation_seam(self, small_instance, monkeypatch):
        x, e = small_instance
        support = sp.modified_spectral_init(e, x.s).support
        assert np.array_equal(support, x.support)  # seeded to recover S
        alpha = sp.truncated_gaussian_moment(2, 0.5, 10.0)
        beta = sp.truncated_gaussian_moment(4, 0.5, 10.0)

        def builder(e_, S):
            return exact_expectation_block(x, alpha, beta, S)

        monkeypatch.setattr(initializers, "restricted_ybar", builder)
        est = sp.modified_spectral_init(e, x.s)
        x0 = x.to_dense() / x.norm
        assert sp.dist(est.xhat / e.nu, x0) <= 1e-8

    def test_median_distance_at_generous_sampling(self):
        # regression band around the measured median (0.59 on these 60
        # seeds): the support rule finds about 11 of the 25 coordinates
        # here, and the start only has to land in HTP's basin
        n, s, m = 1000, 25, 1500
        dists = []
        for t in range(60):
            rng = sp.trial_rng(sp.derive_trial_seed(11, n, s, m, t))
            x = sp.sample_signal(n, s, rng)
            e = sp.measure(x, m, rng)
            est = sp.modified_spectral_init(e, s)
            dists.append(sp.relative_error(est.xhat, x.to_dense()))
        assert np.median(dists) <= 0.65

    def test_zero_observations_degenerate(self):
        A = np.ones((3, 4))
        e = Ensemble.from_measurements(A, np.zeros(3))
        est = sp.modified_spectral_init(e, 2)
        assert est.degenerate and est.j0 == 0
        np.testing.assert_array_equal(est.support, [0, 1])
        np.testing.assert_allclose(est.xhat, np.zeros(4))
        anchored = sp.modified_spectral_init(e, 2, anchor=3)
        assert anchored.degenerate and anchored.j0 == 3


class TestSpectralInit:
    def test_exact_expectation_seam(self, small_instance, monkeypatch):
        x, e = small_instance
        assert np.array_equal(sp.spectral_init(e, x.s).support, x.support)
        alpha = sp.truncated_gaussian_moment(2, 0.5, 10.0)
        beta = sp.truncated_gaussian_moment(4, 0.5, 10.0)

        def builder(e_, S):
            return exact_expectation_block(x, alpha, beta, S)

        monkeypatch.setattr(initializers, "restricted_ybar", builder)
        est = sp.spectral_init(e, x.s)
        assert sp.dist(est.xhat / e.nu, x.to_dense() / x.norm) <= 1e-8

    def test_zero_observations_degenerate(self):
        A = np.ones((2, 3))
        e = Ensemble.from_measurements(A, np.zeros(2))
        est = sp.spectral_init(e, 1)
        assert est.degenerate and est.j0 is None
        np.testing.assert_array_equal(est.support, [0])
        np.testing.assert_allclose(est.xhat, np.zeros(3))

    @pytest.mark.parametrize("s", [0, 3])
    def test_sparsity_out_of_range_rejected(self, s):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        with pytest.raises(ValueError, match=r"need 1 <= s <= n"):
            sp.spectral_init(e, s)


class TestTpInit:
    def test_t_max_zero_equals_modified_spectral(self, small_instance,
                                                 monkeypatch):
        x, e = small_instance
        monkeypatch.setattr(initializers, "T_MAX", 0)
        tp = sp.tp_init(e, x.s)
        ms = sp.modified_spectral_init(e, x.s)
        np.testing.assert_allclose(tp.xhat, ms.xhat, atol=1e-12 * e.nu)
        assert tp.j0 == ms.j0

    def test_exact_expectation_fixed_point(self, small_instance,
                                           monkeypatch):
        # with Ybar replaced by its expectation, the start is x0 and the
        # power loop keeps it
        x, e = small_instance
        xd = x.to_dense()
        x0 = xd / x.norm
        alpha = sp.truncated_gaussian_moment(2, 0.5, 10.0)
        beta = sp.truncated_gaussian_moment(4, 0.5, 10.0)

        def builder(e_, S):
            return exact_expectation_block(x, alpha, beta, S)

        def exact_mv(op, w):
            return ((beta - alpha) * np.multiply.outer(xd, xd @ w)
                    + alpha * x.norm**2 * w)

        monkeypatch.setattr(initializers, "restricted_ybar", builder)
        monkeypatch.setattr(initializers, "ybar_matvec", exact_mv)
        monkeypatch.setattr(initializers, "T_MAX", 25)
        est = sp.tp_init(e, x.s)
        assert sp.dist(est.xhat / e.nu, x0) <= 1e-10

    def test_fallback_returns_the_start(self, small_instance, monkeypatch):
        # a power loop pinned to an off-support coordinate explains the
        # data worse than its start, so TP keeps the modified-spectral
        # estimate itself
        x, e = small_instance
        off = int(np.setdiff1d(np.arange(x.n), x.support)[0])

        def off_support_mv(op, w):
            out = np.zeros_like(w)
            out[off] = 1.0
            return out

        ms = sp.modified_spectral_init(e, x.s)
        monkeypatch.setattr(initializers, "ybar_matvec", off_support_mv)
        tp = sp.tp_init(e, x.s)
        assert tp.xhat.tobytes() == ms.xhat.tobytes()
        assert np.array_equal(tp.support, ms.support)
        assert tp.j0 == ms.j0
        assert not tp.degenerate
        assert tp.iterations_run >= 1

    def test_success_ordering_at_marginal_sampling(self):
        # paired-two-stage comparison at a marginal sample size; spectral's
        # curve sits at or below modified spectral's in this regime only:
        # past saturation the single anchor's failure tail puts modified
        # spectral below spectral (criterion 4 prints that margin per m)
        n, s, m = 1000, 25, 800
        wins = {"spectral": 0, "modified_spectral": 0, "tp": 0}
        for t in range(100):
            rng = sp.trial_rng(sp.derive_trial_seed(47, n, s, m, t))
            x = sp.sample_signal(n, s, rng)
            e = sp.measure(x, m, rng)
            xd = x.to_dense()
            for meth in wins:
                rep = sp.solve_two_stage(e, s, meth, truth=xd)
                wins[meth] += rep.rel_error <= 1e-3
        assert wins["tp"] >= wins["modified_spectral"] - 5
        assert wins["spectral"] <= wins["modified_spectral"] + 5

    def test_sparsity_and_norm_invariants(self):
        rng = sp.trial_rng(59)
        for _ in range(10):
            x = sp.sample_signal(60, 6, rng)
            e = sp.measure(x, 300, rng)
            for init in (sp.spectral_init, sp.modified_spectral_init,
                         sp.tp_init):
                est = init(e, 6)
                assert np.count_nonzero(est.xhat) <= 6
                assert np.linalg.norm(est.xhat) == pytest.approx(
                    e.nu, rel=1e-12)

    def test_zero_observations_degenerate(self):
        A = np.ones((3, 5))
        e = Ensemble.from_measurements(A, np.zeros(3))
        est = sp.tp_init(e, 2)
        assert est.degenerate and est.j0 == 0
        assert est.iterations_run == 0
        np.testing.assert_array_equal(est.support, [0, 1])
        np.testing.assert_allclose(est.xhat, np.zeros(5))

    def test_s_prime_validation(self, monkeypatch):
        # the power loop truncates to s' = min(2 s, n), which lies in
        # [s, n] for every valid s, the finish's check product too, and
        # the final projection to s
        rng = sp.trial_rng(61)
        x = sp.sample_signal(20, 3, rng)
        e = sp.measure(x, 50, rng)
        real = initializers.truncate
        for s, s_prime in [(3, 6), (10, 20), (13, 20), (20, 20)]:
            levels = []

            def spy(w, k):
                levels.append(k)
                return real(w, k)

            monkeypatch.setattr(initializers, "truncate", spy)
            est = sp.tp_init(e, s)
            assert est.iterations_run >= 1
            assert levels == [s_prime] * est.iterations_run + [s]
        with pytest.raises(ValueError, match="1 <= s <= n"):
            sp.tp_init(e, 21)

    def test_row_permutation_invariance(self):
        g = sp.trial_rng(63)
        x = sp.sample_signal(30, 4, g)
        e = sp.measure(x, 150, g)
        perm = g.permutation(150)
        e2 = Ensemble.from_measurements(e.A[perm], e.y[perm])
        a = sp.tp_init(e, 4)
        b = sp.tp_init(e2, 4)
        np.testing.assert_allclose(a.xhat, b.xhat, rtol=1e-9, atol=1e-11)


# (n, s, m) from undersampled to oversampled; T_MAX varies by case
TP_CELLS = [(n, s, m) for n in (30, 64, 120, 200) for s in (2, 5, 9)
            for m in (int(1.2 * s * np.log(n)), 4 * s * int(np.log(n)),
                      12 * s * int(np.log(n)))]
# cells with 2 s >= n, where TP truncates to s' = n, that is, not at all
FULL_LEVEL_CELLS = [(n, s, m) for n, s in ((16, 9), (30, 15))
                    for m in (int(1.2 * s * np.log(n)), 4 * s * int(np.log(n)),
                              12 * s * int(np.log(n)))]


@pytest.fixture
def tp_log(monkeypatch):
    """Call log of tp_init's seams, in call order: ("mv", w) for each
    product with Ybar, ("block", support) for each block assembled and
    ("eig", result) for each eigensolve. Clear it before each call to be
    read."""
    log = []
    real_mv, real_eig = initializers.ybar_matvec, initializers.top_eigenvector
    real_block = initializers.restricted_ybar

    def block(e, support):
        log.append(("block", np.array(support)))
        return real_block(e, support)

    def mv(op, w):
        log.append(("mv", np.array(w, dtype=float)))
        return real_mv(op, w)

    def eig(matrix):
        result = real_eig(matrix)
        log.append(("eig", result))
        return result

    monkeypatch.setattr(initializers, "ybar_matvec", mv)
    monkeypatch.setattr(initializers, "top_eigenvector", eig)
    monkeypatch.setattr(initializers, "restricted_ybar", block)
    return log


def finish_attempts(log):
    """Positions of the eigensolves of TP's finish: those made after TP's
    first product (the start's own eigensolve comes before it)."""
    first = next((i for i, (kind, _) in enumerate(log) if kind == "mv"),
                 len(log))
    return [i for i, (kind, _) in enumerate(log)
            if kind == "eig" and i > first]


def finish_checks(log):
    """(support S', input v) of each of the finish's check products."""
    return [(log[i - 1][1], log[i + 1][1]) for i in finish_attempts(log)
            if not log[i][1].degenerate]


def check_passes(e, check, s_prime):
    # the finish's check, on the unpatched product: T_s'(Ybar v) keeps
    # exactly the support S'
    support, v = check
    u = sp.truncate(sp.ybar_matvec(sp.ybar_operator(e), v), s_prime)
    return np.array_equal(np.flatnonzero(u), support)


def tp_instance(n, s, m, seed=91, trial=0):
    rng = sp.trial_rng(sp.derive_trial_seed(seed, n, s, m, trial))
    x = sp.sample_signal(n, s, rng)
    return x, sp.measure(x, m, rng)


class TestTpRestarts:
    def test_matches_single_vector_reference(self, tp_reference, tp_log,
                                             monkeypatch):
        # the reference is plain TP. Where the finish fires, TP ends on the
        # fixed point that plain TP, given the full budget, stops up to
        # STEP_TOL short of; elsewhere TP's iterates are plain TP's, with
        # one product of budget spent on each failed check
        t_maxes = [0, 1, 5, initializers.T_MAX]
        fell_back = {True: 0, False: 0}
        fired = 0
        for k, (n, s, m) in enumerate(TP_CELLS + FULL_LEVEL_CELLS):
            t_max = t_maxes[k % 4]
            x, e = tp_instance(n, s, m)
            for a in sp.diagonal_anchors(sp.y_diag(e), 4):
                monkeypatch.setattr(initializers, "T_MAX", t_max)
                tp_log.clear()
                got = sp.tp_init(e, s, anchor=a)
                checks = finish_checks(tp_log)
                passed = bool(checks) and check_passes(e, checks[-1],
                                                       min(2 * s, n))
                fired += passed
                # the reference reads the patched budget too
                monkeypatch.setattr(initializers, "T_MAX",
                                    t_maxes[-1] if passed
                                    else t_max - len(checks))
                want, candidate = tp_reference(e, s, anchor=a)
                seed = sp.modified_spectral_init(e, s, anchor=a)
                np.testing.assert_array_equal(got.support, want.support)
                assert got.j0 == want.j0 == a
                assert got.degenerate == want.degenerate
                if passed:
                    assert got.iterations_run <= want.iterations_run
                    atol = 1e-7
                else:
                    assert (got.iterations_run
                            == want.iterations_run + len(checks))
                    atol = 1e-12
                np.testing.assert_allclose(got.xhat, want.xhat, rtol=0,
                                           atol=atol * e.nu)
                kept = want.xhat.tobytes() == seed.xhat.tobytes()
                # where the TP candidate equals its start to roundoff the
                # misfit comparison is a coin toss with no effect on xhat
                if sp.dist(candidate, seed.xhat) > 1e-12 * e.nu:
                    assert (got.xhat.tobytes() == seed.xhat.tobytes()) == kept
                    fell_back[kept] += 1
        assert fell_back[True] > 0 and fell_back[False] > 0
        assert fired > 0

    def test_fallback_fires_and_not_when_undersampled(self):
        fired = set()
        for n, s, m in TP_CELLS[::3]:  # the smallest m of each (n, s)
            rng = sp.trial_rng(sp.derive_trial_seed(91, n, s, m, 0))
            x = sp.sample_signal(n, s, rng)
            e = sp.measure(x, m, rng)
            for a in sp.diagonal_anchors(sp.y_diag(e), 4):
                got = sp.tp_init(e, s, anchor=a)
                seed = sp.modified_spectral_init(e, s, anchor=a)
                fired.add(got.xhat.tobytes() == seed.xhat.tobytes())
        assert fired == {True, False}

    def test_zero_observations_return_the_flagged_starts(self,
                                                       tp_reference):
        e = Ensemble.from_measurements(np.ones((6, 40)), np.zeros(6))
        for a in [0, 7, 39]:
            got = sp.tp_init(e, 3, anchor=a)
            want, candidate = tp_reference(e, 3, anchor=a)
            assert candidate is None
            assert got.degenerate and want.degenerate
            assert got.xhat.tobytes() == want.xhat.tobytes()
            np.testing.assert_array_equal(got.support, want.support)
            assert got.j0 == want.j0 == a
            assert got.iterations_run == want.iterations_run == 0

    def test_zero_step_returns_the_flagged_start(self, small_instance,
                                                 monkeypatch):
        # a product that vanishes at step 2: TP returns its start flagged
        # degenerate with iterations_run=2
        x, e = small_instance
        real = initializers.ybar_matvec
        calls = []

        def vanishing(op, w):
            out = real(op, w)
            calls.append(w.shape)
            return np.zeros_like(out) if len(calls) == 2 else out

        a = sp.diagonal_anchors(sp.y_diag(e), 2)[1]
        monkeypatch.setattr(initializers, "ybar_matvec", vanishing)
        monkeypatch.setattr(initializers, "T_MAX", 5)
        got = sp.tp_init(e, x.s, anchor=a)
        seed = sp.modified_spectral_init(e, x.s, anchor=a)
        assert got.degenerate and got.iterations_run == 2
        assert got.xhat.tobytes() == seed.xhat.tobytes()
        assert got.j0 == a
        assert calls == [(x.n,), (x.n,)]

    def test_tp_init_defaults_to_the_first_anchor(self, small_instance):
        x, e = small_instance
        one = sp.tp_init(e, x.s)
        first = sp.diagonal_anchors(sp.y_diag(e), 1)[0]
        anchored = sp.tp_init(e, x.s, anchor=first)
        assert one.xhat.tobytes() == anchored.xhat.tobytes()
        assert one.iterations_run == anchored.iterations_run
        assert one.j0 == anchored.j0 == sp.modified_spectral_init(e, x.s).j0

    def test_multi_restart_matches_per_anchor_loop(self):
        for n, s, m in [(64, 5, 80), (120, 9, 144), (200, 9, 180),
                        (200, 5, 100)]:
            rng = sp.trial_rng(sp.derive_trial_seed(92, n, s, m, 0))
            x = sp.sample_signal(n, s, rng)
            e = sp.measure(x, m, rng)
            cfg = sp.SolverConfigs(restarts=6)
            rep = sp.solve_multi_restart(e, s, cfg)
            best = None
            anchors = sp.diagonal_anchors(sp.y_diag(e), 6)
            for b, a in enumerate(anchors, start=1):
                est = sp.tp_init(e, s, anchor=a)
                refined = sp.htp_run(e, est.xhat, s)
                score = sp.gradient_residual(e, refined.x)
                if best is None or score < best[0]:
                    best = (score, b, refined.x)
            assert rep.chosen_restart == best[1]
            np.testing.assert_allclose(rep.x, best[2], rtol=0, atol=1e-12)


class TestTpFinish:
    def test_check_input_is_the_fixed_point(self, tp_log):
        # a check that passes was made on TP's fixed point to roundoff, and
        # it is TP's last product
        fired = 0
        for n, s, m in TP_CELLS + FULL_LEVEL_CELLS:
            x, e = tp_instance(n, s, m)
            for a in sp.diagonal_anchors(sp.y_diag(e), 4):
                tp_log.clear()
                sp.tp_init(e, s, anchor=a)
                checks = finish_checks(tp_log)
                for i, (support, v) in enumerate(checks):
                    if not check_passes(e, (support, v), min(2 * s, n)):
                        continue
                    u = sp.truncate(sp.ybar_matvec(sp.ybar_operator(e), v),
                                    min(2 * s, n))
                    assert sp.dist(u / np.linalg.norm(u), v) <= 1e-12
                    assert i == len(checks) - 1 and tp_log[-1][1] is v
                    fired += 1
        assert fired > 0

    @pytest.mark.parametrize("t_max", range(6))
    def test_budget_counts_every_product(self, t_max, tp_log, monkeypatch):
        # iterations_run counts each product, the checks included, within
        # T_MAX; the finish needs three products and one more to check
        monkeypatch.setattr(initializers, "T_MAX", t_max)
        attempts = 0
        for n, s, m in TP_CELLS + FULL_LEVEL_CELLS:
            x, e = tp_instance(n, s, m)
            for a in sp.diagonal_anchors(sp.y_diag(e), 4):
                tp_log.clear()
                est = sp.tp_init(e, s, anchor=a)
                products = sum(kind == "mv" for kind, _ in tp_log)
                assert est.iterations_run == products <= t_max
                attempts += len(finish_attempts(tp_log))
        assert (attempts > 0) == (t_max >= 4)

    def test_failed_check_continues_plain_tp(self, tp_reference, tp_log,
                                             monkeypatch):
        # an eigensolve that returns a coordinate vector on the support
        # fails the check (where it passes, TP rightly stops on it), and TP
        # goes on from its own iterate: the result is plain TP's, at one
        # more product per failed check
        logged_eig = initializers.top_eigenvector

        def coordinate(matrix):
            result = logged_eig(matrix)
            if not any(kind == "mv" for kind, _ in tp_log):
                return result   # the start's eigensolve
            v = np.zeros(len(matrix))
            v[0] = 1.0
            return replace(result, vector=v)

        monkeypatch.setattr(initializers, "top_eigenvector", coordinate)
        failed = 0
        for n, s, m in TP_CELLS + FULL_LEVEL_CELLS:
            x, e = tp_instance(n, s, m)
            for a in sp.diagonal_anchors(sp.y_diag(e), 4):
                tp_log.clear()
                want, _ = tp_reference(e, s, anchor=a)
                tp_log.clear()
                got = sp.tp_init(e, s, anchor=a)
                checks = finish_checks(tp_log)
                if checks and check_passes(e, checks[-1], min(2 * s, n)):
                    continue
                np.testing.assert_array_equal(got.support, want.support)
                assert got.j0 == want.j0 and got.degenerate == want.degenerate
                assert got.iterations_run == want.iterations_run + len(checks)
                np.testing.assert_allclose(got.xhat, want.xhat, rtol=0,
                                           atol=1e-12 * e.nu)
                failed += len(checks)
        assert failed > 0

    @pytest.mark.parametrize("s, m", [(5, 100), (5, 400), (10, 200),
                                      (10, 800), (20, 200), (20, 400)])
    def test_htp_output_matches_plain_tp(self, tp_reference, s, m):
        # the finish moves TP's estimate by roundoff only, so HTP from it
        # returns plain TP's refined x bit for bit, in as many steps
        n = 200
        for t in range(8):
            x, e = tp_instance(n, s, m, seed=11, trial=t)
            got = sp.htp_run(e, sp.tp_init(e, s).xhat, s)
            want = sp.htp_run(e, tp_reference(e, s)[0].xhat, s)
            assert got.x.tobytes() == want.x.tobytes()
            assert got.iterations == want.iterations

class TestMagnitudeMisfit:
    def test_zero_estimate_misfit_is_y_norm(self):
        e = one_row_ensemble([1.0, 2.0], 2.0)
        assert magnitude_misfit(e, np.zeros(2)) == pytest.approx(2.0)

    def test_truth_has_zero_misfit(self, small_instance):
        x, e = small_instance
        assert magnitude_misfit(e, x.to_dense()) <= 1e-10


class TestTruncationWeights:
    def test_band_keeps_interior_rows_only(self, monkeypatch):
        A = np.array([[1.0], [1.0], [1.0], [1.0]])
        y = np.array([1.0, 2.0, 4.0, 8.0])
        e = Ensemble.from_measurements(A, y)  # nu ~ 4.61
        monkeypatch.setattr(initializers, "L_BAND", 0.4)
        monkeypatch.setattr(initializers, "U_BAND", 1.1)
        w = truncation_weights(e)  # band ~ [1.84, 5.07]
        np.testing.assert_allclose(w, [0.0, 4.0, 16.0, 0.0])

    def test_degenerate_band_keeps_exact_matches(self, monkeypatch):
        A = np.ones((2, 1))
        y = np.array([2.0, 2.0])
        e = Ensemble.from_measurements(A, y)  # nu = 2 exactly
        monkeypatch.setattr(initializers, "L_BAND", 1.0)
        monkeypatch.setattr(initializers, "U_BAND", 1.0)
        w = truncation_weights(e)  # band [2, 2], edges inclusive
        np.testing.assert_allclose(w, [4.0, 4.0])
