import warnings

import numpy as np
import pytest

import sparsepr as sp
from sparsepr.refine import SUPPORT_STALL


def perturbed_start(x, radius_frac, rng):
    """s-sparse point at exactly radius_frac * ||x|| from x (on-support)."""
    xd = x.to_dense()
    bump = np.zeros(x.n)
    bump[x.support] = rng.standard_normal(x.s)
    bump *= radius_frac * x.norm / np.linalg.norm(bump)
    return xd + bump


class TestHtpStep:
    def test_truth_is_fixed_point(self):
        rng = sp.trial_rng(70)
        x = sp.sample_signal(40, 5, rng)
        e = sp.measure(x, 200, rng)
        xd = x.to_dense()
        x1, support = sp.htp_step(e, xd, 5)
        np.testing.assert_allclose(x1, xd, atol=1e-10)
        np.testing.assert_array_equal(support, x.support)

    def test_negated_truth_is_fixed_point(self):
        rng = sp.trial_rng(71)
        x = sp.sample_signal(40, 5, rng)
        e = sp.measure(x, 200, rng)
        xd = x.to_dense()
        x1, _ = sp.htp_step(e, -xd, 5)
        np.testing.assert_allclose(x1, -xd, atol=1e-10)

    def test_output_is_s_sparse(self):
        rng = sp.trial_rng(72)
        x = sp.sample_signal(50, 4, rng)
        e = sp.measure(x, 150, rng)
        x1, support = sp.htp_step(e, np.zeros(50), 4)
        assert np.count_nonzero(x1) <= 4
        assert support.size == 4

    def test_rejects_dense_iterate(self):
        rng = sp.trial_rng(73)
        x = sp.sample_signal(20, 2, rng)
        e = sp.measure(x, 60, rng)
        with pytest.raises(ValueError):
            sp.htp_step(e, np.ones(20), 2)


class TestHtpRun:
    def test_truth_converges_within_stall_window(self):
        rng = sp.trial_rng(74)
        x = sp.sample_signal(40, 5, rng)
        e = sp.measure(x, 200, rng)
        res = sp.htp_run(e, x.to_dense(), 5)
        assert res.converged
        assert res.iterations <= SUPPORT_STALL
        np.testing.assert_allclose(res.x, x.to_dense(), atol=1e-10)

    def test_zero_start_output_contract(self):
        rng = sp.trial_rng(75)
        x = sp.sample_signal(60, 6, rng)
        e = sp.measure(x, 100, rng)
        res = sp.htp_run(e, np.zeros(60), 6)
        assert np.count_nonzero(res.x) <= 6
        assert res.iterations <= sp.HtpConfig().max_iters
        assert np.all(np.isfinite(res.residual_history))

    def test_local_convergence_from_close_start(self):
        n, s, m = 100, 5, 300
        for t in range(20):
            rng = sp.trial_rng(sp.derive_trial_seed(76, n, s, m, t))
            x = sp.sample_signal(n, s, rng)
            e = sp.measure(x, m, rng)
            x0 = perturbed_start(x, 0.1, rng)
            res = sp.htp_run(e, x0, s)
            assert sp.relative_error(res.x, x.to_dense()) <= 1e-6
            assert res.iterations <= 50

    def test_residual_monitoring_property(self):
        rng = sp.trial_rng(77)
        x = sp.sample_signal(80, 6, rng)
        e = sp.measure(x, 400, rng)
        res = sp.htp_run(e, perturbed_start(x, 0.1, rng), 6)
        hist = res.residual_history
        assert np.all(np.isfinite(hist))
        if res.converged and hist.size >= 2:
            tail = hist[-SUPPORT_STALL:]
            if np.any(np.diff(tail) > 1e-10):
                warnings.warn("residual rose over the stall window")

    def test_deterministic(self):
        rng = sp.trial_rng(78)
        x = sp.sample_signal(50, 4, rng)
        e = sp.measure(x, 200, rng)
        x0 = perturbed_start(x, 0.3, sp.trial_rng(1))
        r1 = sp.htp_run(e, x0, 4)
        r2 = sp.htp_run(e, x0, 4)
        assert np.array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations

    def test_every_iterate_s_sparse(self):
        rng = sp.trial_rng(79)
        x = sp.sample_signal(30, 3, rng)
        e = sp.measure(x, 50, rng)
        state = np.zeros(30)
        for _ in range(10):
            state, _ = sp.htp_step(e, state, 3)
            assert np.count_nonzero(state) <= 3


class TestHtpConfig:
    def test_step_size_bounds(self):
        with pytest.raises(ValueError):
            sp.HtpConfig(mu=0.0)
        with pytest.raises(ValueError):
            sp.HtpConfig(mu=2.0)

    def test_iteration_floor(self):
        with pytest.raises(ValueError):
            sp.HtpConfig(max_iters=0)
