import warnings

import numpy as np
import pytest

import sparsepr as sp
from sparsepr import refine
from sparsepr.model import ConfigError
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


# (n, s, m, trial, start): small undersampled cells, where many runs end
# at a fixed point or in a cycle far from the truth, plus easy ones
FIXED_POINT_CASES = [(n, s, m, t, start)
                     for n, s, m in [(100, 10, 60), (200, 20, 100),
                                     (200, 10, 100), (200, 20, 200)]
                     for t in range(4)
                     for start in ("zero", "spectral")]


def _case(n, s, m, t, start):
    rng = sp.trial_rng(sp.derive_trial_seed(5, n, s, m, t))
    x = sp.sample_signal(n, s, rng)
    e = sp.measure(x, m, rng)
    x0 = np.zeros(n) if start == "zero" else sp.spectral_init(e, s).xhat
    return e, x0


class TestFixedPointExit:
    @pytest.mark.parametrize("max_iters", [3, 8, 100])
    def test_same_estimate_as_running_to_the_cap(self, max_iters,
                                                 htp_reference):
        cfg = sp.HtpConfig(max_iters=max_iters)
        shortened = 0
        for n, s, m, t, start in FIXED_POINT_CASES:
            e, x0 = _case(n, s, m, t, start)
            res = sp.htp_run(e, x0, s, cfg)
            ref = htp_reference(e, x0, s, cfg)
            assert res.x.tobytes() == ref.x.tobytes()
            assert res.final_residual == ref.final_residual
            assert res.converged == ref.converged
            assert res.iterations <= ref.iterations
            np.testing.assert_array_equal(
                res.residual_history, ref.residual_history[:res.iterations])
            assert res.stop in refine.STOPS
            assert (res.stop == "converged") == res.converged
            if res.stop == "cap":
                assert res.iterations == max_iters
            shortened += res.iterations < ref.iterations
        if max_iters == 100:
            assert shortened >= len(FIXED_POINT_CASES) // 2

    def test_identity_step_stops_after_one_step(self, monkeypatch):
        rng = sp.trial_rng(80)
        x = sp.sample_signal(30, 3, rng)
        e = sp.measure(x, 60, rng)
        x0 = perturbed_start(x, 0.5, rng)
        monkeypatch.setattr(refine, "htp_step",
                            lambda e, x, s: (x, np.flatnonzero(x)))
        res = sp.htp_run(e, x0, 3)
        assert res.stop == "fixed_point"
        assert res.iterations == 1
        assert not res.converged
        assert res.x.tobytes() == x0.tobytes()

    @pytest.mark.parametrize("max_iters,stop,converged", [
        (100, "converged", True),
        (1, "cap", False),  # no step left: the stall rule never fired
    ])
    def test_identity_step_at_a_solution(self, max_iters, stop, converged,
                                         monkeypatch, htp_reference):
        rng = sp.trial_rng(81)
        x = sp.sample_signal(30, 3, rng)
        e = sp.measure(x, 60, rng)
        monkeypatch.setattr(refine, "htp_step",
                            lambda e, x, s: (x, np.flatnonzero(x)))
        cfg = sp.HtpConfig(max_iters=max_iters)
        res = sp.htp_run(e, x.to_dense(), 3, cfg)
        ref = htp_reference(e, x.to_dense(), 3, cfg)
        assert res.final_residual <= refine.RESIDUAL_TOL
        assert (res.stop, res.iterations) == (stop, 1)
        assert res.converged == ref.converged == converged

    def test_never_repeating_step_runs_to_the_cap(self, monkeypatch):
        rng = sp.trial_rng(82)
        x = sp.sample_signal(30, 3, rng)
        e = sp.measure(x, 60, rng)

        def drifting(e, x_k, s):
            x_next = np.array(x_k, dtype=float)
            x_next[0] += 1.0
            return x_next, np.array([0])

        monkeypatch.setattr(refine, "htp_step", drifting)
        res = sp.htp_run(e, np.zeros(30), 3, sp.HtpConfig(max_iters=7))
        assert res.stop == "cap"
        assert res.iterations == 7
        assert not res.converged


class TestHtpConfig:
    def test_step_size_bounds(self):
        # the step size is a constant now; it must stay inside (0, 2)
        assert 0 < refine.MU < 2

    def test_iteration_floor(self):
        with pytest.raises(ValueError):
            sp.HtpConfig(max_iters=0)

    @pytest.mark.parametrize("cfg", [0, {}, "", {"max_iters": 5},
                                     sp.SolverConfigs()],
                             ids=["zero", "dict", "str", "cap-dict",
                                  "SolverConfigs"])
    def test_run_cfg_not_htp_config_refused_before_work(self, cfg,
                                                        monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("stepped with a refused cfg")

        monkeypatch.setattr(refine, "htp_step", no_work)
        e = sp.Ensemble.from_measurements(np.ones((4, 6)), np.ones(4))
        with pytest.raises(ConfigError, match="cfg"):
            sp.htp_run(e, np.zeros(6), 2, cfg)


# (s, m, trial, initializer): the n=200 runs of grid seed 11 where HTP
# falls into an exact 2-cycle and, without the cycle exit, runs to the cap
CYCLE_CASES = [(10, 100, 5, "modified_spectral"),
               (10, 100, 7, "modified_spectral"),
               (20, 100, 3, "modified_spectral"),
               (20, 200, 2, "modified_spectral"),
               (10, 100, 5, "tp"), (20, 100, 3, "tp"), (20, 200, 2, "tp")]

_STARTS = {"modified_spectral": sp.modified_spectral_init, "tp": sp.tp_init}


class TestCycleExit:
    @pytest.mark.parametrize("max_iters", [100, 101])
    @pytest.mark.parametrize("s, m, t, init", CYCLE_CASES)
    def test_same_estimate_as_running_to_the_cap(self, s, m, t, init,
                                                 max_iters, htp_reference):
        rng = sp.trial_rng(sp.derive_trial_seed(11, 200, s, m, t))
        x = sp.sample_signal(200, s, rng)
        e = sp.measure(x, m, rng)
        x0 = _STARTS[init](e, s).xhat
        cfg = sp.HtpConfig(max_iters=max_iters)
        res = sp.htp_run(e, x0, s, cfg)
        ref = htp_reference(e, x0, s, cfg)
        assert (ref.stop, ref.iterations) == ("cap", max_iters)
        assert res.stop == "cycle" and not res.converged
        assert res.iterations <= 20
        assert res.x.tobytes() == ref.x.tobytes()
        assert res.final_residual == ref.final_residual
        np.testing.assert_array_equal(
            res.residual_history, ref.residual_history[:res.iterations])

    @pytest.mark.parametrize("max_iters", [7, 8])
    def test_parity_picks_the_iterate_at_the_cap(self, max_iters,
                                                 monkeypatch, htp_reference):
        rng = sp.trial_rng(83)
        x = sp.sample_signal(30, 3, rng)
        e = sp.measure(x, 60, rng)
        a = x.to_dense()
        a[x.support[0]] *= 2.0
        b = x.to_dense()
        b[x.support[1]] *= 3.0

        def swap(e, x_k, s):
            x_next = b if np.array_equal(x_k, a) else a
            return x_next.copy(), x.support

        monkeypatch.setattr(refine, "htp_step", swap)
        cfg = sp.HtpConfig(max_iters=max_iters)
        res = sp.htp_run(e, np.zeros(30), 3, cfg)
        ref = htp_reference(e, np.zeros(30), 3, cfg)
        # a, b, a: the cycle shows at step 3 and the cap is at 7 or 8
        assert res.stop == "cycle"
        assert res.iterations == (3 if max_iters == 7 else 4)
        assert res.x.tobytes() == ref.x.tobytes()
        assert res.x.tobytes() == (a if max_iters % 2 else b).tobytes()
        assert res.final_residual == ref.final_residual

    def test_cycle_through_a_solution_runs_to_the_cap(self, monkeypatch,
                                                      htp_reference):
        # one iterate of the cycle fits the data, but the support changes
        # every step, so the stall rule never fires
        rng = sp.trial_rng(84)
        x = sp.sample_signal(30, 3, rng)
        e = sp.measure(x, 60, rng)
        truth = x.to_dense()
        off = np.zeros(30)
        off[np.setdiff1d(np.arange(30), x.support)[:3]] = 1.0

        def swap(e, x_k, s):
            x_next = off if np.array_equal(x_k, truth) else truth
            return x_next.copy(), np.flatnonzero(x_next)

        monkeypatch.setattr(refine, "htp_step", swap)
        cfg = sp.HtpConfig(max_iters=9)
        res = sp.htp_run(e, np.zeros(30), 3, cfg)
        ref = htp_reference(e, np.zeros(30), 3, cfg)
        assert (res.stop, res.iterations) == ("cap", 9)
        assert res.x.tobytes() == ref.x.tobytes() == truth.tobytes()
        assert not res.converged and not ref.converged
