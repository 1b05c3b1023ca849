import math

import numpy as np
import pytest
import scipy.integrate

import sparsepr as sp
from sparsepr import initializers, model, pipeline, refine
from sparsepr.model import apply_sensing, sgn


class TestSparseSignal:
    def test_basic_fields(self):
        x = sp.SparseSignal(n=6, support=np.array([1, 4]),
                            values=np.array([2.0, -1.0]))
        assert x.s == 2
        np.testing.assert_allclose(x.to_dense(), [0, 2.0, 0, 0, -1.0, 0])

    def test_stable_sparsity_bounds(self):
        rng = sp.trial_rng(1)
        for _ in range(50):
            x = sp.sample_signal(50, 7, rng)
            assert 1.0 <= x.stable_sparsity <= 7.0 + 1e-12

    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError):
            sp.SparseSignal(n=5, support=np.array([3, 1]),
                            values=np.array([1.0, 1.0]))

    def test_rejects_zero_values(self):
        with pytest.raises(ValueError):
            sp.SparseSignal(n=5, support=np.array([1]),
                            values=np.array([0.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sp.SparseSignal(n=5, support=np.array([], dtype=int),
                            values=np.array([]))

    def test_write_through_a_view_leaves_the_signal_whole(self):
        # a write to the caller's buffer would break the nonzero invariant
        buf = np.array([3.0, 4.0, 9.0])
        idx = np.array([0, 3, 4])
        x = sp.SparseSignal(n=5, support=idx[:2], values=buf[:2])
        buf[0], idx[0] = 0.0, 1
        np.testing.assert_array_equal(x.values, [3.0, 4.0])
        np.testing.assert_array_equal(x.support, [0, 3])


class TestSampleSignal:
    def test_full_support_forced(self):
        x = sp.sample_signal(5, 5, sp.trial_rng(0))
        np.testing.assert_array_equal(x.support, np.arange(5))

    def test_deterministic_given_stream(self):
        a = sp.sample_signal(1000, 25, sp.trial_rng(7))
        b = sp.sample_signal(1000, 25, sp.trial_rng(7))
        np.testing.assert_array_equal(a.support, b.support)
        np.testing.assert_array_equal(a.values, b.values)

    def test_support_frequency_uniform(self):
        # each index should appear with frequency s/n = 0.1 +- 0.01
        rng = sp.trial_rng(123)
        counts = np.zeros(100)
        draws = 10_000
        for _ in range(draws):
            counts[sp.sample_signal(100, 10, rng).support] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 0.1) <= 0.01)

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            sp.sample_signal(5, 6, sp.trial_rng(0))


class TestMeasure:
    def test_single_row_arithmetic(self):
        x = sp.SparseSignal(n=2, support=np.array([0, 1]),
                            values=np.array([3.0, 1.0]))
        A = np.array([[1.0, -2.0]])
        y = np.abs(A[:, x.support] @ x.values)
        assert y[0] == pytest.approx(1.0)  # |3 - 2|

    def test_observations_match_magnitude_map(self):
        rng = sp.trial_rng(3)
        x = sp.sample_signal(20, 4, rng)
        e = sp.measure(x, 30, rng)
        np.testing.assert_allclose(e.y, np.abs(e.A @ x.to_dense()),
                                   atol=1e-12)
        assert np.all(e.y >= 0)

    def test_orthogonal_row_gives_zero(self):
        x = sp.SparseSignal(n=3, support=np.array([0]),
                            values=np.array([2.0]))
        e = sp.Ensemble.from_measurements(np.array([[0.0, 1.0, 2.0]]),
                                          np.array([0.0]))
        assert e.y[0] == 0.0
        assert e.nu == 0.0

    def test_mean_square_concentrates(self):
        # empirical second moment of y within the stated deviation band
        rng = sp.trial_rng(55)
        x = sp.sample_signal(8, 3, rng)
        m = 100_000
        e = sp.measure(x, m, rng)
        bound = 3 * math.sqrt(math.log(m * x.n) / m) * x.norm**2
        assert abs(np.mean(e.y**2) - x.norm**2) <= bound

    def test_ensemble_arrays_read_only(self):
        rng = sp.trial_rng(2)
        e = sp.measure(sp.sample_signal(10, 2, rng), 5, rng)
        with pytest.raises(ValueError):
            e.A[0, 0] = 1.0

    def test_directly_built_ensemble_arrays_read_only(self):
        # y is copied, so a write to the caller's y cannot leave nu stale;
        # an A that owns its data is frozen in place rather than copied
        a, y = np.ones((2, 3)), np.array([3.0, 4.0])
        e = sp.Ensemble(n=3, m=2, A=a, y=y)
        with pytest.raises(ValueError):
            e.y[0] = 0.0
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
        y[0] = 0.0
        np.testing.assert_array_equal(e.y, [3.0, 4.0])
        assert e.nu == sp.norm_estimate([3.0, 4.0])

    def test_view_of_y_made_before_construction_leaves_nu_current(self):
        y = np.array([3.0, 4.0])
        v = y[:]
        e = sp.Ensemble(n=3, m=2, A=np.ones((2, 3)), y=y)
        v[0] = 0.0
        np.testing.assert_array_equal(e.y, [3.0, 4.0])
        assert e.nu == sp.norm_estimate(e.y)

    def test_write_through_a_view_leaves_nu_current(self):
        # the base of a view stays writable, so views are copied
        buf = np.array([3.0, 4.0, 9.0])
        block = np.ones((3, 3))
        e = sp.Ensemble(n=3, m=2, A=block[:2], y=buf[:2])
        buf[0], block[0, 0] = 0.0, 5.0
        np.testing.assert_array_equal(e.y, [3.0, 4.0])
        assert e.nu == sp.norm_estimate(e.y)
        assert e.A[0, 0] == 1.0

    def test_from_measurements_leaves_callers_arrays_writable(self):
        a, y = np.ones((2, 3)), np.array([3.0, 4.0])
        e = sp.Ensemble.from_measurements(a, y)
        a[0, 0], y[0] = 2.0, 0.0  # copies were frozen, not these
        assert e.A[0, 0] == 1.0 and e.y[0] == 3.0
        assert not (e.A.flags.writeable or e.y.flags.writeable)

    @pytest.mark.parametrize("n, m", [
        (1, 1), (1, 300), (5, 1), (200, 300),
        (3, model._DRAW_ROWS), (7, 2 * model._DRAW_ROWS + 1)])
    def test_measure_draws_the_generators_stream(self, n, m):
        # column-major, yet bit for bit the single row-major draw, and the
        # generator is left where that draw leaves it
        x = sp.SparseSignal(n=n, support=np.arange(min(n, 3)),
                            values=np.arange(1.0, min(n, 3) + 1))
        rng, ref_rng = sp.trial_rng(9), sp.trial_rng(9)
        e = sp.measure(x, m, rng)
        ref = ref_rng.standard_normal((m, n))
        assert e.A.flags.f_contiguous
        assert np.array_equal(e.A, ref)
        assert np.array_equal(e.y, np.abs(ref[:, x.support] @ x.values))
        assert np.array_equal(rng.standard_normal(4),
                              ref_rng.standard_normal(4))

    def test_copies_of_a_are_column_major(self):
        a = np.ones((4, 3))
        copied = sp.Ensemble.from_measurements(a, np.ones(4))
        view = sp.Ensemble(n=3, m=2, A=a[:2], y=np.ones(2))
        assert copied.A.flags.f_contiguous and view.A.flags.f_contiguous
        # an owning A stays in place, in its own layout
        assert sp.Ensemble(n=3, m=4, A=a, y=np.ones(4)).A is a

    def test_nu_derived_not_passed(self):
        e = sp.Ensemble.from_measurements(np.ones((2, 3)), [3.0, 4.0])
        assert e.nu == sp.norm_estimate([3.0, 4.0])
        with pytest.raises(TypeError):
            sp.Ensemble(n=3, m=2, A=e.A, y=e.y, nu=1.0)
        with pytest.raises(TypeError):
            sp.Ensemble(n=3, m=2, A=e.A, y=e.y, col_norm_bound=1.0)


def _column_norms(A):
    # each column's norm from a correctly rounded sum, apart from the
    # squares and the root: independent of the einsum that builds M
    return [math.sqrt(math.fsum(v * v for v in col)) for col in A.T]


class TestEnsembleChecks:
    # the finiteness check and the column-norm bound share one pass over A

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_a_refused(self, order, bad):
        A = np.ones((4, 3), order=order)
        A[2, 1] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            sp.Ensemble(n=3, m=4, A=A, y=np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_y_refused(self, bad):
        y = np.ones(4)
        y[3] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            sp.Ensemble(n=3, m=4, A=np.ones((4, 3)), y=y)

    def test_overflowing_squares_accepted_with_infinite_bound(self):
        # 1e200 is finite, its square is not: the entries are still checked
        A = np.ones((4, 3), order="F")
        A[1, 2] = 1e200
        e = sp.Ensemble(n=3, m=4, A=A, y=np.ones(4))
        assert e.col_norm_bound == math.inf

    @pytest.mark.parametrize("A", [
        np.array([[1, 0], [0, 1], [1, 1]], dtype=bool),
        # the squares, 9e18 each, wrap when summed in int64
        np.full((2, 2), 3_000_000_000, dtype=np.int64),
        # 1 + 2^-24 rounds to 1 in float32
        np.array([[1.0, 1.0], [2.0**-12, 0.0]], dtype=np.float32),
    ], ids=["bool", "int64", "float32"])
    def test_other_dtype_copied_to_float64_with_sound_bound(self, A):
        e = sp.Ensemble(n=2, m=A.shape[0], A=A, y=np.ones(A.shape[0]))
        assert e.A.dtype == np.float64
        np.testing.assert_array_equal(e.A, A.astype(float))
        assert all(e.col_norm_bound >= v for v in _column_norms(e.A))

    @pytest.mark.parametrize("field", ["A", "y"])
    def test_complex_entries_refused(self, field):
        arrays = {"A": np.ones((4, 3)), "y": np.ones(4)}
        arrays[field] = arrays[field].astype(complex)
        with pytest.raises(ValueError, match="must be real"):
            sp.Ensemble(n=3, m=4, **arrays)

    @pytest.mark.parametrize("source", ["measure", "from_measurements",
                                        "load_instance"])
    def test_bound_covers_every_column_norm(self, source, tmp_path):
        rng = sp.trial_rng(12)
        x = sp.sample_signal(40, 4, rng)
        e = sp.measure(x, 300, rng)
        if source == "from_measurements":
            # row-major rows with very unequal scales
            scales = np.geomspace(1e-3, 1e3, e.m)[:, None]
            e = sp.Ensemble.from_measurements(
                np.ascontiguousarray(e.A * scales), e.y)
        elif source == "load_instance":
            path = tmp_path / "inst.spr1"
            sp.save_instance(path, x, e)
            e, _ = sp.load_instance(path)
        norms = _column_norms(e.A)
        assert all(e.col_norm_bound >= v for v in norms)
        np.testing.assert_allclose(e.col_norm_bound, max(norms), rtol=1e-12)


class TestApplySensing:
    def test_sparse_gather_matches_dense(self):
        rng = sp.trial_rng(4)
        e = sp.measure(sp.sample_signal(40, 3, rng), 25, rng)
        # one gather path for the zero x, sparse x and the all-nonzero x
        for k in (0, 1, 10, 11, 40):
            x = np.zeros(40)
            x[:k] = rng.standard_normal(k)
            assert np.count_nonzero(x) == k
            np.testing.assert_allclose(apply_sensing(e, x), e.A @ x,
                                       atol=1e-12)

    @pytest.mark.parametrize("length", [40, 52])
    @pytest.mark.parametrize("call", [
        lambda e, x: refine.htp_step(e, x, 3),
        lambda e, x: refine.htp_run(e, x, 3),
        initializers.magnitude_misfit,
        pipeline.gradient_residual,
    ], ids=["htp_step", "htp_run", "magnitude_misfit", "gradient_residual"])
    def test_wrong_length_refused(self, call, length):
        # unchecked, a short x would read as zero-padded, a long one as cut
        rng = sp.trial_rng(6)
        x = sp.sample_signal(50, 3, rng)
        e = sp.measure(x, 60, rng)
        x_wrong = np.zeros(length)
        x_wrong[:40] = x.to_dense()[:40]
        with pytest.raises(ValueError, match="shape"):
            call(e, x_wrong)

    def test_sgn_maps_zero_to_plus_one(self):
        np.testing.assert_array_equal(sgn(np.array([-2.0, 0.0, -0.0, 3.0])),
                                      [-1.0, 1.0, 1.0, 1.0])


class TestNormEstimate:
    def test_arithmetic(self):
        assert sp.norm_estimate([3.0, 4.0]) == pytest.approx(
            math.sqrt(25 / 2))

    def test_constant_vector(self):
        assert sp.norm_estimate([2.5] * 7) == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sp.norm_estimate([])

    def test_concentration_event_rate(self):
        # deviation event holds in all but a handful of 100 ensembles
        n, s, m = 64, 8, 2000
        failures = 0
        for t in range(100):
            rng = sp.trial_rng(sp.derive_trial_seed(17, n, s, m, t))
            x = sp.sample_signal(n, s, rng)
            e = sp.measure(x, m, rng)
            bound = 3 * math.sqrt(math.log(m * n) / m) * x.norm**2
            failures += abs(e.nu**2 - x.norm**2) > bound
        assert failures <= 5


class TestDist:
    def test_identity_and_sign(self):
        u = np.array([1.0, -2.0, 3.0])
        assert sp.dist(u, u) == 0.0
        assert sp.dist(u, -u) == 0.0

    def test_orthogonal_units(self):
        assert sp.dist([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.sqrt(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sp.dist([1.0], [1.0, 2.0])

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(99)
        u = rng.standard_normal((10_000, 3, 8))
        for u1, u2, u3 in u:
            d12 = sp.dist(u1, u2)
            assert d12 <= sp.dist(u1, u3) + sp.dist(u2, u3) + 1e-12

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            c = rng.standard_normal()
            assert sp.dist(c * u, c * v) == pytest.approx(
                abs(c) * sp.dist(u, v), rel=1e-12, abs=1e-12)


class TestRelativeError:
    def test_exact_and_sign(self):
        x = np.array([1.0, 2.0, 0.0])
        assert sp.relative_error(x, x) == 0.0
        assert sp.relative_error(-x, x) == 0.0

    def test_scalar_perturbation(self):
        x = np.array([3.0, -4.0])
        assert sp.relative_error(1.001 * x, x) == pytest.approx(1e-3)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            sp.relative_error(np.ones(3), np.zeros(3))


class TestTruncatedGaussianMoment:
    def test_reference_band_constants(self):
        assert sp.truncated_gaussian_moment(2, 0.5, 10) == pytest.approx(
            0.969, abs=1e-3)
        assert sp.truncated_gaussian_moment(4, 0.5, 10) == pytest.approx(
            2.995, abs=1e-3)

    def test_reference_band_bounds(self):
        alpha = sp.truncated_gaussian_moment(2, 0.5, 10.0)
        beta = sp.truncated_gaussian_moment(4, 0.5, 10.0)
        assert 0 <= alpha <= 1
        assert 0 <= beta <= 3
        assert beta / alpha >= 2

    def test_full_second_moment(self):
        assert sp.truncated_gaussian_moment(2, 0.0, 40.0) == pytest.approx(
            1.0, abs=1e-9)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(12)
        for k in (2, 4):
            for _ in range(10):
                a1 = float(rng.uniform(0, 2))
                a2 = a1 + float(rng.uniform(0.1, 6))
                target, _ = scipy.integrate.quad(
                    lambda g: 2 * g**k * math.exp(-g * g / 2)
                    / math.sqrt(2 * math.pi), a1, a2)
                ours = sp.truncated_gaussian_moment(k, a1, a2)
                assert ours == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("a2", [1e200, math.inf])
    @pytest.mark.parametrize("a1", [0.0, 0.5, 2.0])
    def test_far_edge_is_the_upper_tail(self, a1, a2):
        # phi(a2) underflows to 0 (and a2^3 overflows), so the band is the
        # tail |g| >= a1: 2 a1 phi(a1) + P(|g| >= a1) for order 2 and
        # 2 (a1^3 + 3 a1) phi(a1) + 3 P(|g| >= a1) for order 4
        tail = math.erfc(a1 / math.sqrt(2))
        phi = math.exp(-a1 * a1 / 2) / math.sqrt(2 * math.pi)
        assert sp.truncated_gaussian_moment(2, a1, a2) == pytest.approx(
            2 * a1 * phi + tail, rel=1e-12)
        assert sp.truncated_gaussian_moment(4, a1, a2) == pytest.approx(
            2 * (a1**3 + 3 * a1) * phi + 3 * tail, rel=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            sp.truncated_gaussian_moment(3, 0.0, 1.0)

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            sp.truncated_gaussian_moment(2, 1.0, 1.0)

