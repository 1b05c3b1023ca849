import dataclasses
import inspect

import numpy as np
import pytest

import sparsepr as sp
from sparsepr import initializers, pipeline
from sparsepr.initializers import y_diag
from sparsepr.model import apply_sensing


@pytest.fixture(scope="module")
def solved_instance():
    rng = sp.trial_rng(300)
    x = sp.sample_signal(120, 6, rng)
    e = sp.measure(x, 500, rng)
    return x, e


class TestSolveTwoStage:
    def test_report_fields(self, solved_instance):
        x, e = solved_instance
        rep = sp.solve_two_stage(e, x.s, "tp", truth=x.to_dense())
        assert rep.method == "tp"
        assert rep.rel_error is not None and rep.rel_error >= 0
        assert rep.init_dist is not None and rep.init_dist >= 0
        assert rep.iterations >= 1
        assert rep.chosen_restart is None
        assert rep.init_elapsed >= 0 and rep.refine_elapsed >= 0

    def test_without_truth_metrics_none(self, solved_instance):
        x, e = solved_instance
        rep = sp.solve_two_stage(e, x.s, "spectral")
        assert rep.rel_error is None and rep.init_dist is None

    def test_oversampled_recovery(self, solved_instance):
        x, e = solved_instance
        rep = sp.solve_two_stage(e, x.s, "tp", truth=x.to_dense())
        assert rep.rel_error <= 1e-3

    def test_unknown_method(self, solved_instance):
        x, e = solved_instance
        with pytest.raises(ValueError):
            sp.solve_two_stage(e, x.s, "tp_mr")

    def test_degenerate_input_still_reports(self):
        e = sp.Ensemble.from_measurements(np.ones((4, 6)), np.zeros(4))
        rep = sp.solve_two_stage(e, 2, "tp")
        assert rep.degenerate
        assert np.count_nonzero(rep.x) <= 2


class TestSolveMultiRestart:
    def test_single_restart_matches_two_stage(self, solved_instance):
        x, e = solved_instance
        xd = x.to_dense()
        mr = sp.solve_multi_restart(e, x.s, sp.SolverConfigs(restarts=1),
                                    truth=xd)
        ts = sp.solve_two_stage(e, x.s, "tp", truth=xd)
        assert np.array_equal(mr.x, ts.x)
        assert mr.iterations == ts.iterations
        assert mr.chosen_restart == 1

    def test_first_anchor_matches_argmax_rule(self, solved_instance):
        x, e = solved_instance
        diag = y_diag(e)
        (first,) = sp.diagonal_anchors(diag, 1)
        assert first == np.argmax(diag)
        assert sp.modified_spectral_init(e, x.s).j0 == first
        assert sp.tp_init(e, x.s).j0 == first

    def test_exact_recovery_has_zero_residual_and_wins(self, solved_instance):
        x, e = solved_instance
        rep = sp.solve_multi_restart(e, x.s, sp.SolverConfigs(restarts=3),
                                     truth=x.to_dense())
        assert rep.rel_error <= 1e-6
        assert rep.selection_residual <= 1e-6 * e.nu**2 * e.m

    def test_selection_residual_reproducible(self, solved_instance):
        x, e = solved_instance
        rep = sp.solve_multi_restart(e, x.s, sp.SolverConfigs(restarts=4))
        again = sp.gradient_residual(e, rep.x)
        assert again == pytest.approx(rep.selection_residual, abs=1e-12)

    def test_restarts_above_n_run_every_anchor_once(self):
        # an undersampled instance on which no restart converges, so
        # restarts=n runs all n anchors; a larger cap has no more to run
        n, s, m = 16, 4, 12
        rng = sp.trial_rng(sp.derive_trial_seed(7, n, s, m, 0))
        x = sp.sample_signal(n, s, rng)
        e = sp.measure(x, m, rng)
        at_n, above = (sp.solve_multi_restart(e, s, sp.SolverConfigs(
            restarts=b), truth=x.to_dense()) for b in (n, n + 5))
        assert at_n.restarts_run == above.restarts_run == n
        assert at_n.x.tobytes() == above.x.tobytes()
        for f in dataclasses.fields(sp.SolveReport):
            if f.name not in ("x", "init_elapsed", "refine_elapsed"):
                assert getattr(above, f.name) == getattr(at_n, f.name), f.name

    def test_deterministic(self, solved_instance):
        x, e = solved_instance
        r1 = sp.solve_multi_restart(e, x.s, sp.SolverConfigs(restarts=3))
        r2 = sp.solve_multi_restart(e, x.s, sp.SolverConfigs(restarts=3))
        assert np.array_equal(r1.x, r2.x)
        assert r1.chosen_restart == r2.chosen_restart

    def test_fixed_point_exit_keeps_the_winner(self, monkeypatch,
                                               htp_reference):
        # an undersampled instance where most restarts end at a fixed point
        rng = sp.trial_rng(sp.derive_trial_seed(5, 200, 20, 100, 0))
        x = sp.sample_signal(200, 20, rng)
        e = sp.measure(x, 100, rng)
        cfg = sp.SolverConfigs(restarts=6)
        fast = sp.solve_multi_restart(e, 20, cfg, truth=x.to_dense())
        monkeypatch.setattr(pipeline, "htp_run", htp_reference)
        slow = sp.solve_multi_restart(e, 20, cfg, truth=x.to_dense())
        assert fast.x.tobytes() == slow.x.tobytes()
        assert fast.chosen_restart == slow.chosen_restart
        assert fast.selection_residual == slow.selection_residual
        assert fast.iterations < slow.iterations
        assert fast.htp_stop == "fixed_point"

    def test_reports_why_the_chosen_run_stopped(self, solved_instance):
        x, e = solved_instance
        rep = sp.solve_multi_restart(e, x.s, sp.SolverConfigs(restarts=3))
        assert rep.htp_stop == "converged"
        two = sp.solve_two_stage(e, x.s, "tp")
        assert two.htp_stop == "converged"


def _instance(n, s, m, t, seed=11):
    rng = sp.trial_rng(sp.derive_trial_seed(seed, n, s, m, t))
    x = sp.sample_signal(n, s, rng)
    return x, sp.measure(x, m, rng)


# (n, s, m) cells of grid seed 11, 4 trials each: restart 1 converges in
# 14 of the 32 instances, a later restart in 8 and none in 10
EQUIVALENCE_CELLS = [(200, 5, 100), (200, 10, 100), (200, 20, 100),
                     (200, 10, 200), (200, 20, 200), (200, 20, 400),
                     (120, 6, 60), (120, 6, 40)]


class TestEarlyStop:
    def test_same_restart_as_running_every_restart(
            self, multi_restart_reference):
        outcomes = set()
        for n, s, m in EQUIVALENCE_CELLS:
            for t in range(4):
                x, e = _instance(n, s, m, t)
                xd = x.to_dense()
                rep = sp.solve_multi_restart(e, s, truth=xd)
                ref = multi_restart_reference(e, s, truth=xd)
                assert rep.chosen_restart == ref.chosen_restart
                assert (rep.rel_error <= 1e-3) == (ref.rel_error <= 1e-3)
                assert rep.iterations == ref.iterations
                assert np.max(np.abs(rep.x - ref.x)) <= 1e-12 * e.nu
                if rep.htp_stop == "converged":
                    outcomes.add("first" if rep.restarts_run == 1
                                 else "later")
                else:
                    assert rep.restarts_run == ref.restarts_run == 20
                    outcomes.add("none")
                if rep.restarts_run == 1:
                    assert rep.x.tobytes() == ref.x.tobytes()
        assert outcomes == {"first", "later", "none"}

    def test_converged_tp_is_restart_one(self):
        checked = 0
        for n, s, m in EQUIVALENCE_CELLS:
            for t in range(4):
                x, e = _instance(n, s, m, t)
                xd = x.to_dense()
                tp = sp.solve_two_stage(e, s, "tp", truth=xd)
                if tp.htp_stop != "converged":
                    continue
                mr = sp.solve_multi_restart(e, s, truth=xd)
                assert mr.x.tobytes() == tp.x.tobytes()
                assert mr.init_dist == tp.init_dist
                assert mr.rel_error == tp.rel_error
                assert mr.iterations == tp.iterations
                assert mr.htp_stop == tp.htp_stop
                assert (mr.chosen_restart, mr.restarts_run) == (1, 1)
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("cell, first_converged", [
        ((200, 20, 400, 0), 1),  # restart 1 converges
        ((200, 20, 200, 1), 3),  # restart 3 is the first to converge
        ((200, 20, 100, 0), None),  # no restart converges
    ])
    def test_no_work_after_the_first_converged_restart(
            self, cell, first_converged, monkeypatch):
        x, e = _instance(*cell)
        tp_anchors, htp_runs = [], []

        def counting_tp(e, s, *, anchor=None):
            tp_anchors.append(anchor)
            return sp.tp_init(e, s, anchor=anchor)

        def counting_htp(e, x0, s, cfg=None):
            result = sp.htp_run(e, x0, s, cfg)
            htp_runs.append(result.converged)
            return result

        monkeypatch.setattr(pipeline, "tp_init", counting_tp)
        monkeypatch.setattr(pipeline, "htp_run", counting_htp)
        rep = sp.solve_multi_restart(e, cell[1])
        runs = 20 if first_converged is None else first_converged
        assert tp_anchors == sp.diagonal_anchors(y_diag(e), runs).tolist()
        assert htp_runs == [False] * (runs - 1) + [first_converged
                                                   is not None]
        assert rep.restarts_run == runs

    def test_one_restart_runs_tp_once(self, monkeypatch):
        # restart 1 fails and there is no other anchor to try
        x, e = _instance(200, 20, 100, 0)
        tp_anchors = []

        def counting_tp(e, s, *, anchor=None):
            tp_anchors.append(anchor)
            return sp.tp_init(e, s, anchor=anchor)

        monkeypatch.setattr(pipeline, "tp_init", counting_tp)
        rep = sp.solve_multi_restart(e, 20, sp.SolverConfigs(restarts=1))
        assert tp_anchors == sp.diagonal_anchors(y_diag(e), 1).tolist()
        assert (rep.chosen_restart, rep.restarts_run) == (1, 1)
        assert rep.htp_stop != "converged"


def _n30_m80():
    rng = sp.trial_rng(3)
    x = sp.sample_signal(30, 3, rng)
    return x, sp.measure(x, 80, rng)


_SOLVERS = {
    "two_stage_tp": lambda e, s: sp.solve_two_stage(e, s, "tp"),
    "two_stage_spectral": lambda e, s: sp.solve_two_stage(e, s, "spectral"),
    "multi_restart": lambda e, s: sp.solve_multi_restart(e, s),
}
_INITS = {"tp_init": sp.tp_init, "spectral_init": sp.spectral_init,
          "modified_spectral_init": sp.modified_spectral_init}


class TestSparsityCheck:
    @pytest.mark.parametrize("solver", list(_SOLVERS))
    @pytest.mark.parametrize("s", [True, 2.5, 0, 31, 81],
                             ids=["True", "2.5", "0", "above-n", "above-m"])
    def test_solvers_refuse_s_before_work(self, solver, s, monkeypatch):
        # a bool once ran silently as s = 1
        def no_work(*args, **kwargs):
            raise AssertionError("solved with a refused s")

        for name in ("y_diag", "tp_init", "htp_run"):
            monkeypatch.setattr(pipeline, name, no_work)
        for name in list(pipeline._INITIALIZERS):
            monkeypatch.setitem(pipeline._INITIALIZERS, name, no_work)
        _, e = _n30_m80()
        with pytest.raises(pipeline.ConfigError, match=r"\bs\b"):
            _SOLVERS[solver](e, s)

    @pytest.mark.parametrize("solver", list(_SOLVERS))
    def test_solvers_take_an_integral_float_s(self, solver):
        # s = 2.0 once raised TypeError in a slice, after y_diag had run
        _, e = _n30_m80()
        as_int, as_float = (_SOLVERS[solver](e, s) for s in (2, 2.0))
        assert as_float.x.tobytes() == as_int.x.tobytes()

    @pytest.mark.parametrize("init", list(_INITS))
    def test_initializers_refuse_a_bool_or_fractional_s(self, init):
        _, e = _n30_m80()
        for s in (True, 2.5):
            with pytest.raises(pipeline.ConfigError, match="integer"):
                _INITS[init](e, s)
        assert _INITS[init](e, 2.0).xhat.tobytes() == \
            _INITS[init](e, 2).xhat.tobytes()


class TestGradientResidual:
    def test_zero_for_perfect_fit(self, solved_instance):
        x, e = solved_instance
        assert sp.gradient_residual(e, x.to_dense()) <= 1e-8

    def test_positive_for_bad_fit(self, solved_instance):
        x, e = solved_instance
        assert sp.gradient_residual(e, np.zeros(e.n)) > 0


def _close(a, b):
    # agreement to 1e-12 relative, in norm
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(b), 1e-300)


class TestLayout:
    """Every kernel gives the same result on a row- and a column-major A,
    up to the roundoff of a different summation order."""

    @pytest.fixture(params=[(200, 10, 300, 0), (120, 6, 60, 1)])
    def pair(self, request):
        x, e = _instance(*request.param)
        e_c = sp.Ensemble(n=e.n, m=e.m, A=np.ascontiguousarray(e.A), y=e.y)
        e_f = sp.Ensemble.from_measurements(e_c.A, e.y)
        assert e_c.A.flags.c_contiguous and e_f.A.flags.f_contiguous
        return x, e_c, e_f

    def test_kernels(self, pair):
        x, e_c, e_f = pair
        s, g = x.s, sp.trial_rng(5)
        S = np.sort(g.choice(e_c.n, size=s, replace=False))
        xs = np.zeros(e_c.n)
        xs[S] = g.standard_normal(s)
        for kernel in (lambda e: apply_sensing(e, xs),
                       sp.y_diag,
                       lambda e: sp.y_column(e, int(S[0])),
                       lambda e: sp.restricted_ybar(e, S),
                       lambda e: sp.restricted_least_squares(e.A, S, e.y)[0],
                       lambda e: [sp.gradient_residual(e, xs)]):
            assert _close(kernel(e_f), kernel(e_c))

    def test_ybar_matvec(self, pair):
        x, e_c, e_f = pair
        w = sp.trial_rng(6).standard_normal(e_c.n)
        for v in (w, sp.truncate(w, 2 * x.s)):
            assert _close(sp.ybar_matvec(sp.ybar_operator(e_f), v),
                          sp.ybar_matvec(sp.ybar_operator(e_c), v))
        zero = np.zeros(e_c.n)
        for e in (e_c, e_f):
            assert not sp.ybar_matvec(sp.ybar_operator(e), zero).any()

    def test_tp_and_htp(self, pair):
        x, e_c, e_f = pair
        tp_c, tp_f = sp.tp_init(e_c, x.s), sp.tp_init(e_f, x.s)
        assert np.array_equal(tp_f.support, tp_c.support)
        assert _close(tp_f.xhat, tp_c.xhat)
        run_c = sp.htp_run(e_c, tp_c.xhat, x.s)
        run_f = sp.htp_run(e_f, tp_c.xhat, x.s)
        assert _close(run_f.x, run_c.x)
        assert run_f.stop == run_c.stop


class TestSolverConfigs:
    def test_restart_floor(self):
        with pytest.raises(ValueError):
            sp.SolverConfigs(restarts=0)

    def test_only_restarts_is_settable(self):
        # the band, s', TP's budget, HTP's step and HTP's cap are constants
        assert [f.name for f in dataclasses.fields(sp.SolverConfigs)] == [
            "restarts"]
        assert not hasattr(sp, "InitConfig")

    def test_solve_path_signatures(self):
        def params(fn):
            return [("*" if p.kind is p.KEYWORD_ONLY else "") + p.name
                    for p in inspect.signature(fn).parameters.values()]

        assert params(sp.solve_two_stage) == ["e", "s", "method", "*truth"]
        assert params(sp.ybar_operator) == ["e"]
        assert params(sp.restricted_ybar) == ["e", "support"]
        assert params(initializers.truncation_weights) == ["e"]

    def test_stale_settings_argument_fails_at_the_call(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("initialized with a stale argument")

        monkeypatch.setitem(pipeline._INITIALIZERS, "tp", no_work)
        e = sp.Ensemble.from_measurements(np.ones((4, 6)), np.ones(4))
        with pytest.raises(TypeError):
            sp.solve_two_stage(e, 2, "tp", sp.SolverConfigs())

    @pytest.mark.parametrize("cfg", [{}, 0, "", [], {"restarts": 3},
                                     sp.HtpConfig()],
                             ids=["dict", "zero", "str", "list",
                                  "restarts-dict", "HtpConfig"])
    def test_multi_restart_cfg_not_solver_configs_refused_before_work(
            self, cfg, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("solved with a refused cfg")

        monkeypatch.setattr(pipeline, "y_diag", no_work)
        e = sp.Ensemble.from_measurements(np.ones((4, 6)), np.ones(4))
        with pytest.raises(pipeline.ConfigError, match="cfg"):
            sp.solve_multi_restart(e, 2, cfg)
