import math

import numpy as np
import pytest
import scipy.integrate

import sparsepr as sp
from sparsepr.model import TruncationMoments, apply_sensing, sgn


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

    def test_nu_derived_not_passed(self):
        e = sp.Ensemble.from_measurements(np.ones((2, 3)), [3.0, 4.0])
        assert e.nu == sp.norm_estimate([3.0, 4.0])
        with pytest.raises(TypeError):
            sp.Ensemble(n=3, m=2, A=e.A, y=e.y, nu=1.0)


class TestApplySensing:
    def test_sparse_gather_matches_dense(self):
        rng = sp.trial_rng(4)
        e = sp.measure(sp.sample_signal(40, 3, rng), 25, rng)
        for k in (0, 1, 10, 11, 40):  # gather up to n // 4 = 10 nonzeros
            x = np.zeros(40)
            x[:k] = rng.standard_normal(k)
            np.testing.assert_allclose(apply_sensing(e, x), e.A @ x,
                                       atol=1e-12)

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

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            sp.truncated_gaussian_moment(3, 0.0, 1.0)

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            sp.truncated_gaussian_moment(2, 1.0, 1.0)


class TestTruncationMoments:
    def test_for_band(self):
        tm = TruncationMoments.for_band(0.5, 10.0)
        assert 0 <= tm.alpha <= 1
        assert 0 <= tm.beta <= 3
        assert tm.beta / tm.alpha >= 2
