import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import sparsepr as sp
from sparsepr import cli, harness, initializers, pipeline
from sparsepr.harness import (ConfigError, grid_from_dict, run_grid,
                              splitmix64)


class TestSeedDerivation:
    def test_splitmix64_reference_values(self):
        # splitmix64(i) for seed 0 advanced by the golden-gamma increment
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_distinct_across_fields(self):
        base = sp.derive_trial_seed(1, 100, 5, 200, 0)
        assert base != sp.derive_trial_seed(2, 100, 5, 200, 0)
        assert base != sp.derive_trial_seed(1, 101, 5, 200, 0)
        assert base != sp.derive_trial_seed(1, 100, 6, 200, 0)
        assert base != sp.derive_trial_seed(1, 100, 5, 201, 0)
        assert base != sp.derive_trial_seed(1, 100, 5, 200, 1)

    def test_64_bit_range(self):
        s = sp.derive_trial_seed(2**63, 10**6, 10**3, 10**5, 10**4)
        assert 0 <= s < 2**64


class TestRunTrial:
    def test_byte_identical_records(self):
        a = sp.run_trial(64, 4, 200, "tp", 0, 9, record_timing=False)
        b = sp.run_trial(64, 4, 200, "tp", 0, 9, record_timing=False)
        assert a == b
        assert a.elapsed_ms == 0.0

    def test_timing_on_preserves_science_fields(self):
        a = sp.run_trial(64, 4, 200, "tp", 0, 9)
        b = sp.run_trial(64, 4, 200, "tp", 0, 9)
        assert dataclasses.replace(a, elapsed_ms=0.0) == \
            dataclasses.replace(b, elapsed_ms=0.0)

    def test_heavily_oversampled_easy_regime(self):
        successes = sum(
            sp.run_trial(64, 2, 128, "tp", t, 5, record_timing=False).success
            for t in range(100))
        assert successes >= 95

    def test_dense_boundary_allowed(self):
        rec = sp.run_trial(6, 6, 40, "tp", 0, 3, record_timing=False)
        assert rec.s == rec.n == 6
        assert math.isfinite(rec.rel_error)

    def test_success_flag_definition(self):
        rec = sp.run_trial(32, 3, 160, "tp", 0, 1, record_timing=False)
        assert rec.success == (rec.rel_error <= 1e-3)

    def test_methods_share_data_seed(self):
        a = sp.run_trial(32, 3, 100, "tp", 0, 1, record_timing=False)
        b = sp.run_trial(32, 3, 100, "spectral", 0, 1, record_timing=False)
        assert a.seed_used == b.seed_used

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            sp.run_trial(10, 2, 20, "nope", 0, 1)

    @pytest.mark.parametrize("s,m", [(11, 20), (0, 20), (2, 0), (5, 4)],
                             ids=["11-20", "0-20", "2-0", "5-4"])
    def test_out_of_range_cell_rejected_before_sampling(self, s, m,
                                                        monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled an invalid cell")

        monkeypatch.setattr(harness, "sample_signal", no_sampling)
        with pytest.raises(ConfigError):
            sp.run_trial(10, s, m, "tp", 0, 1)

    def test_more_restarts_than_coordinates_capped_at_n(self):
        # no restart converges on this undersampled cell, so restarts=n
        # already runs every anchor
        at_n, above = (sp.run_trial(10, 3, 8, "tp_mr", 1, 7,
                                    sp.SolverConfigs(restarts=b),
                                    record_timing=False) for b in (10, 15))
        assert above == at_n

    @pytest.mark.parametrize("seed,trial_index,field", [
        (-1, 0, "seed"), (2**64, 0, "seed"),
        (1, -1, "trial_index"), (1, 2**64, "trial_index"),
    ])
    def test_value_outside_64_bits_rejected_before_sampling(
            self, seed, trial_index, field, monkeypatch):
        # derive_trial_seed folds mod 2^64: -1 would alias 2^64 - 1
        def no_sampling(*args):
            raise AssertionError("sampled an invalid cell")

        monkeypatch.setattr(harness, "sample_signal", no_sampling)
        with pytest.raises(ConfigError, match=field):
            sp.run_trial(10, 2, 20, "tp", trial_index, seed)

    def test_largest_64_bit_seed_and_trial_index_accepted(self):
        rec = sp.run_trial(10, 2, 20, "tp", 2**64 - 1, 2**64 - 1,
                           record_timing=False)
        assert rec.trial_index == 2**64 - 1
        assert rec.seed_used == sp.derive_trial_seed(
            2**64 - 1, 10, 2, 20, 2**64 - 1)

    def test_restarts_bind_tp_mr_only(self):
        rec = sp.run_trial(10, 2, 20, "tp", 0, 1,
                           sp.SolverConfigs(restarts=11), record_timing=False)
        assert rec.chosen_restart is None


    def test_integral_float_cell_is_the_integer_cell(self):
        assert sp.run_trial(64, 2.0, 100.0, "tp", 0, 3,
                            record_timing=False) == \
            sp.run_trial(64, 2, 100, "tp", 0, 3, record_timing=False)

    @pytest.mark.parametrize("s,m,trial_index", [
        (2.5, 100, 0), (2, 100.5, 0), (True, 100, 0), (2, 100, 0.5),
    ])
    def test_fractional_cell_rejected_before_sampling(self, s, m,
                                                      trial_index,
                                                      monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled an invalid cell")

        monkeypatch.setattr(harness, "sample_signal", no_sampling)
        with pytest.raises(ConfigError):
            sp.run_trial(64, s, m, "tp", trial_index, 3)


class TestSettingsCheckThemselves:
    """Each settings dataclass refuses a mistyped field when built, so
    Python, grid JSON and the CLI refuse the same values."""

    @pytest.mark.parametrize("build,field", [
        # sparsepr moments checks its band itself
        (lambda: cli._cmd_moments(argparse.Namespace(l=False, u=10.0)), "l"),
        (lambda: cli._cmd_moments(argparse.Namespace(l=0.0, u=math.inf)),
         "u"),
        (lambda: sp.HtpConfig(max_iters=True), "max_iters"),
        (lambda: sp.HtpConfig(max_iters=2.5), "max_iters"),
        (lambda: sp.SolverConfigs(restarts=2.5), "restarts"),
        (lambda: sp.ExperimentGrid(n=10, s_list=(2.7,), m_list=(20,),
                                   trials=1, seed=0, methods=("tp",)),
         "s_list"),
        (lambda: sp.ExperimentGrid(n=10, s_list=(2,), m_list=(20,),
                                   trials=1.5, seed=0, methods=("tp",)),
         "trials"),
        (lambda: sp.ExperimentGrid(n=10, s_list=(2,), m_list=(20,),
                                   trials=1, seed=0, methods=("tp",),
                                   success_threshold=math.inf),
         "success_threshold"),
    ], ids=["l-False", "u-inf", "max_iters-True", "max_iters-2.5",
            "restarts-2.5", "s_list-2.7", "trials-1.5", "threshold-inf"])
    def test_mistyped_field_refused_by_name(self, build, field):
        with pytest.raises(ConfigError, match=field):
            build()

    @pytest.mark.parametrize("field,values", [
        ("s_list", (2, 2)), ("s_list", (2, 3, 2.0)), ("m_list", (60, 60)),
        ("methods", ("tp", "tp")),
    ])
    def test_repeated_grid_entry_refused_before_sampling(self, field, values,
                                                         monkeypatch):
        # a repeated entry would solve the same trials twice and count
        # them twice in summary_table
        def no_sampling(*args):
            raise AssertionError("sampled a cell of an invalid grid")

        monkeypatch.setattr(harness, "sample_signal", no_sampling)
        cell = {"s_list": (2,), "m_list": (60,), "methods": ("tp",),
                field: values}
        with pytest.raises(ConfigError, match=f"{field} repeats"):
            sp.ExperimentGrid(n=32, trials=3, seed=1, **cell)

    @pytest.mark.parametrize("configs", [
        None, {"restarts": 5}, sp.HtpConfig(),
    ], ids=["None", "dict", "HtpConfig"])
    def test_grid_configs_not_solver_configs_refused(self, configs):
        with pytest.raises(ConfigError, match="configs"):
            sp.ExperimentGrid(n=10, s_list=(2,), m_list=(20,), trials=1,
                              seed=0, methods=("tp",), configs=configs)

    def test_run_trial_configs_not_solver_configs_refused(self):
        with pytest.raises(ConfigError, match="configs"):
            sp.run_trial(10, 2, 20, "tp", 0, 0, configs=sp.HtpConfig())

    @pytest.mark.parametrize("configs", [{}, 0, "", []],
                             ids=["dict", "zero", "str", "list"])
    def test_run_trial_falsy_configs_refused_before_sampling(
            self, configs, monkeypatch):
        # a falsy value is not None: it is refused, not read as defaults
        def no_sampling(*args):
            raise AssertionError("sampled with refused configs")

        monkeypatch.setattr(harness, "sample_signal", no_sampling)
        with pytest.raises(ConfigError, match="configs"):
            sp.run_trial(16, 2, 40, "tp", 0, 1, configs=configs)

    @pytest.mark.parametrize("method", ["tp", "tp_mr", "spectral"])
    @pytest.mark.parametrize("configs", [sp.HtpConfig(), {"restarts": 3}],
                             ids=["HtpConfig", "dict"])
    def test_solve_configs_not_solver_configs_refused_before_work(
            self, configs, method, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("solved with refused configs")

        for name in ("solve_two_stage", "solve_multi_restart"):
            monkeypatch.setattr(harness, name, no_work)
        e = sp.Ensemble.from_measurements(np.ones((4, 6)), np.ones(4))
        with pytest.raises(ConfigError, match="configs"):
            sp.solve(e, 2, method, configs)

    def test_integral_floats_become_ints(self):
        assert type(sp.HtpConfig(max_iters=50.0).max_iters) is int
        assert sp.HtpConfig(max_iters=50.0).max_iters == 50
        grid = sp.ExperimentGrid(n=10.0, s_list=(2.0,), m_list=(np.int64(20),),
                                 trials=1, seed=0, methods=("tp",),
                                 configs=sp.SolverConfigs(restarts=3.0))
        assert (grid.n, grid.s_list, grid.m_list, grid.configs.restarts) \
            == (10, (2,), (20,), 3)
        assert all(type(v) is int for v in
                   (grid.n, *grid.s_list, *grid.m_list, grid.configs.restarts))


class TestSolve:
    def test_unknown_method(self):
        rng = sp.trial_rng(3)
        e = sp.measure(sp.sample_signal(10, 2, rng), 20, rng)
        with pytest.raises(ConfigError):
            harness.solve(e, 2, "nope")

    @pytest.mark.parametrize("method", ["tp", "tp_mr", "spectral"])
    @pytest.mark.parametrize("s", [True, 2.5, "2", 0, 31, 81],
                             ids=["True", "2.5", "str", "0", "above-n",
                                  "above-m"])
    def test_bad_s_refused_before_work(self, s, method, monkeypatch):
        # s is checked as a grid checks it, before any initializer runs
        def no_work(*args, **kwargs):
            raise AssertionError("solved with a refused s")

        for name in list(pipeline._INITIALIZERS):
            monkeypatch.setitem(pipeline._INITIALIZERS, name, no_work)
        for name in ("y_diag", "tp_init"):
            monkeypatch.setattr(pipeline, name, no_work)
        rng = sp.trial_rng(3)
        e = sp.measure(sp.sample_signal(30, 3, rng), 80, rng)
        with pytest.raises(ConfigError, match=r"\bs\b"):
            harness.solve(e, s, method)

    @pytest.mark.parametrize("solver,method", [
        (sp.solve_two_stage, "nope"), (sp.solve_two_stage, "tp_mr"),
        (sp.solve, "nope")], ids=["two-stage-nope", "two-stage-tp_mr",
                                  "solve-nope"])
    def test_unknown_method_refused_before_work(self, solver, method,
                                                monkeypatch):
        # the two-stage solver holds the one method check of the solve path
        def no_work(*args, **kwargs):
            raise AssertionError("solved with an unknown method")

        for name in list(pipeline._INITIALIZERS):
            monkeypatch.setitem(pipeline._INITIALIZERS, name, no_work)
        monkeypatch.setattr(pipeline, "tp_init", no_work)
        rng = sp.trial_rng(3)
        e = sp.measure(sp.sample_signal(10, 2, rng), 20, rng)
        with pytest.raises(ConfigError, match="unknown"):
            solver(e, 2, method)

    @pytest.mark.parametrize("method", ["tp", "tp_mr", "spectral"])
    def test_integral_float_s_solves_as_int(self, method):
        rng = sp.trial_rng(3)
        x = sp.sample_signal(30, 3, rng)
        e = sp.measure(x, 80, rng)
        as_int = harness.solve(e, 2, method, truth=x.to_dense())
        as_float = harness.solve(e, 2.0, method, truth=x.to_dense())
        assert as_float.x.tobytes() == as_int.x.tobytes()
        assert as_float.rel_error == as_int.rel_error

    def test_grid_and_cli_reach_the_harness_solver(self, tmp_path,
                                                   monkeypatch):
        # benchmarks check solver outputs by patching these harness names
        calls = []
        real = harness.solve_multi_restart

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_multi_restart", spy)
        grid = sp.ExperimentGrid(n=24, s_list=(2,), m_list=(60,), trials=1,
                                 seed=3, methods=("tp_mr",),
                                 configs=sp.SolverConfigs(restarts=2))
        run_grid(grid, record_timing=False)
        assert len(calls) == 1
        rng = sp.trial_rng(5)
        x = sp.sample_signal(24, 2, rng)
        path = tmp_path / "inst.spr1"
        sp.save_instance(path, x, sp.measure(x, 60, rng))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["solve", "--instance", str(path), "--s", "2",
                             "--method", "tpmr"])
        assert code == 0 and len(calls) == 2


@pytest.fixture(scope="module")
def small_grid():
    return sp.ExperimentGrid(n=32, s_list=(3,), m_list=(60, 120), trials=5,
                             seed=77, methods=("spectral", "tp"))


# runs a trial, so the pin has read the memory map once, then loads
# scipy's own OpenBLAS, sets its threads to 2 and reads its count inside
# the pin and after it
_LATE_BLAS_SCRIPT = """
import ctypes, json
import sparsepr as sp
from sparsepr import harness

def openblas_paths():
    with open("/proc/self/maps") as maps:
        return {line.split(None, 5)[-1].strip()
                for line in maps if "openblas" in line}

sp.run_trial(40, 3, 120, "tp", 0, 1)
early = openblas_paths()
import scipy.linalg
late = []
for path in sorted(openblas_paths() - early):
    lib = ctypes.CDLL(path)
    late += [(getattr(lib, get), getattr(lib, put))
             for get, put in harness._BLAS_THREAD_API
             if hasattr(lib, get) and hasattr(lib, put)]
for _, put in late:
    put(2)
counts = {"set": [get() for get, _ in late]}
with harness._single_blas_thread():
    counts["inside"] = [get() for get, _ in late]
counts["after"] = [get() for get, _ in late]
print(json.dumps(counts))
"""


# patches harness.solve with a spy that refuses to solve unless every
# OpenBLAS reads one thread, then runs a 2-worker grid; the patch reaches
# the workers only where the pool forks them
_POOLED_PIN_SCRIPT = """
import multiprocessing, sys
import sparsepr as sp
from sparsepr import harness

if multiprocessing.get_start_method() != "fork":
    sys.exit("skip: pool workers do not fork, so the spy misses them")
if not harness._blas_thread_controls():
    sys.exit("skip: no OpenBLAS found to pin")
solve = harness.solve

def spy(*args, **kwargs):
    counts = [get() for get, _ in harness._blas_thread_controls()]
    if counts != [1] * len(counts):
        raise AssertionError(f"solved with BLAS thread counts {counts}")
    return solve(*args, **kwargs)

harness.solve = spy
grid = sp.ExperimentGrid(n=1000, s_list=(5,), m_list=(150,), trials=2,
                         seed=3, methods=("tp",))
print(len(sp.run_grid(grid, parallelism=2, record_timing=False).records))
"""


class TestRunGrid:
    def test_record_count_and_order(self, small_grid):
        result = run_grid(small_grid, parallelism=1, record_timing=False)
        assert len(result.records) == 2 * 5 * 2  # methods x trials x m
        keys = [(r.method, r.s, r.m, r.trial_index) for r in result.records]
        assert keys == sorted(keys)

    def test_aggregate_matches_mean_success(self, small_grid):
        result = run_grid(small_grid, parallelism=1, record_timing=False)
        for cell in result.cells:
            grp = [r for r in result.records
                   if (r.method, r.s, r.m) == (cell.method, cell.s, cell.m)]
            assert cell.trials == len(grp)
            assert cell.success_rate == pytest.approx(
                np.mean([r.success for r in grp]))

    def test_parallelism_invariance_byte_identical_csv(self, small_grid):
        serial = run_grid(small_grid, parallelism=1, record_timing=False)
        pooled = run_grid(small_grid, parallelism=2, record_timing=False)
        assert sp.emit_csv(serial.records) == sp.emit_csv(pooled.records)

    def test_blas_held_to_one_thread_then_restored(self, small_grid,
                                                   monkeypatch):
        controls = harness._blas_thread_controls()
        if os.access("/proc/self/maps", os.R_OK):
            # numpy's OpenBLAS is in the map, so the pin has a control
            assert controls
        before = [get() for get, _ in controls]
        seen = []
        solve = harness.solve

        def spy(*args, **kwargs):
            seen.append([get() for get, _ in controls])
            return solve(*args, **kwargs)

        monkeypatch.setattr(harness, "solve", spy)
        run_grid(small_grid, parallelism=1, record_timing=False)
        assert seen and all(counts == [1] * len(controls) for counts in seen)
        assert [get() for get, _ in controls] == before

    def test_blas_loaded_after_the_first_trial_is_pinned(self):
        pytest.importorskip("scipy")
        if not os.access("/proc/self/maps", os.R_OK):
            pytest.skip("no memory map to find OpenBLAS in")
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", _LATE_BLAS_SCRIPT],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout.splitlines()[-1])
        if not counts["set"] or counts["set"] != [2] * len(counts["set"]):
            pytest.skip("scipy loads no second OpenBLAS that runs 2 threads")
        assert counts["inside"] == [1] * len(counts["set"])
        assert counts["after"] == counts["set"]

    def test_pool_workers_pin_blas_without_the_variable(self):
        if not os.access("/proc/self/maps", os.R_OK):
            pytest.skip("no memory map to find OpenBLAS in")
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", _POOLED_PIN_SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        if proc.stderr.startswith("skip: "):
            pytest.skip(proc.stderr[len("skip: "):].strip())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2"

    def test_matches_individual_run_trial(self, small_grid):
        result = run_grid(small_grid, parallelism=1, record_timing=False)
        rec = next(r for r in result.records
                   if r.method == "tp" and r.m == 60 and r.trial_index == 2)
        alone = sp.run_trial(32, 3, 60, "tp", 2, 77, record_timing=False)
        assert rec == alone

    def test_more_restarts_than_coordinates_same_csv_as_n(self):
        # n anchors exist, so a cap above n runs what restarts=n runs
        def csv(b):
            return sp.emit_csv(run_grid(sp.ExperimentGrid(
                n=16, s_list=(4,), m_list=(12,), trials=2, seed=7,
                methods=("tp", "tp_mr"),
                configs=sp.SolverConfigs(restarts=b)),
                record_timing=False).records)

        assert csv(21) == csv(16)

    def test_restarts_up_to_n_accepted(self):
        grid = sp.ExperimentGrid(n=16, s_list=(2,), m_list=(40,), trials=1,
                                 seed=1, methods=("tp_mr",),
                                 configs=sp.SolverConfigs(restarts=16))
        records = run_grid(grid, record_timing=False).records
        assert 1 <= records[0].chosen_restart <= 16

    def test_invalid_parallelism(self, small_grid):
        with pytest.raises(ConfigError):
            run_grid(small_grid, parallelism=0)

    def test_parallelism_must_be_an_integer(self, small_grid):
        for bad in (2.5, "2"):
            with pytest.raises(ConfigError, match="parallelism"):
                run_grid(small_grid, parallelism=bad)
        assert run_grid(small_grid, parallelism=2.0,
                        record_timing=False) == run_grid(
            small_grid, parallelism=1, record_timing=False)

    def test_workers_capped_by_tasks_and_cpus(self, monkeypatch):
        # the pool size is computed, never started, at these sizes
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(4)), raising=False)
        assert harness._workers(10**6, 10**6) == 4
        assert harness._workers(10**6, 3) == 3
        assert harness._workers(2, 10**6) == 2
        assert harness._workers(5, 0) == 1
        # where the platform reports no affinity mask, the CPU count caps
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        assert harness._workers(10**6, 10**6) == 4
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._workers(10**6, 10**6) == 1

    def test_workers_capped_by_the_affinity_mask(self, monkeypatch):
        # a process pinned to one of 4 CPUs gets one worker
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        assert harness._workers(4, 10) == 1


def _sharing_grid(methods):
    # trial 1 goes past restart 1 (tp_mr picks restart 2), trials 0 and
    # 2 converge at restart 1
    return sp.ExperimentGrid(n=40, s_list=(4,), m_list=(30,), trials=3,
                             seed=1, methods=methods,
                             configs=sp.SolverConfigs(restarts=4))


def _counting(calls, fn, inside=None):
    # a seam that records, per call, whether tp_mr was being solved
    def counted(*args, **kwargs):
        calls.append(bool(inside))
        return fn(*args, **kwargs)
    return counted


class TestPerTrialSharing:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_solve_order_never_moves_a_record(self, parallelism):
        forward = run_grid(_sharing_grid(("tp", "tp_mr")), parallelism,
                           record_timing=False).records
        backward = run_grid(_sharing_grid(("tp_mr", "tp")), parallelism,
                            record_timing=False).records
        assert forward == backward
        assert {r.chosen_restart for r in forward} == {None, 1, 2}
        # each record matches a trial that solved its method alone
        assert forward == [
            sp.run_trial(40, 4, 30, r.method, r.trial_index, 1,
                         sp.SolverConfigs(restarts=4), record_timing=False)
            for r in forward]

    @pytest.mark.parametrize("methods", [("tp", "tp_mr"), ("tp_mr", "tp"),
                                         tuple(pipeline.METHODS)])
    def test_a_cell_returns_records_in_grid_order(self, methods):
        grid = _sharing_grid(methods)
        records = harness._cell_task((grid, False, 4, 30, 0))
        assert [r.method for r in records] == list(methods)

    def test_restart_one_runs_once_inside_tp_mr(self, monkeypatch):
        in_tp_mr = []
        solve_mr = harness.solve_multi_restart

        def marked(*args, **kwargs):
            in_tp_mr.append(True)
            try:
                return solve_mr(*args, **kwargs)
            finally:
                in_tp_mr.pop()

        tp_calls, htp_calls = [], []
        monkeypatch.setattr(harness, "solve_multi_restart", marked)
        monkeypatch.setattr(pipeline, "tp_init",
                            _counting(tp_calls, pipeline.tp_init, in_tp_mr))
        monkeypatch.setattr(pipeline, "htp_run",
                            _counting(htp_calls, pipeline.htp_run, in_tp_mr))
        tp, mr = harness._cell_task((_sharing_grid(("tp", "tp_mr")), False,
                                     4, 30, 0))
        assert mr.chosen_restart == 1 and mr.success
        assert (tp.rel_error, tp.htp_iters) == (mr.rel_error, mr.htp_iters)
        assert tp_calls == htp_calls == [True]

    def test_y_diag_runs_once_in_a_four_method_trial(self, monkeypatch):
        calls = []
        for module in (pipeline, initializers):
            monkeypatch.setattr(module, "y_diag",
                                _counting(calls, initializers.y_diag))
        grid = _sharing_grid(tuple(pipeline.METHODS))
        assert len(harness._cell_task((grid, False, 4, 30, 0))) == 4
        assert len(calls) == 1

    def test_modified_spectral_start_runs_once_in_a_trial(self,
                                                          monkeypatch):
        # tp's start is the modified-spectral estimate at the same anchor
        calls = []
        monkeypatch.setattr(initializers, "y_column",
                            _counting(calls, initializers.y_column))
        grid = _sharing_grid(("modified_spectral", "tp"))
        records = harness._cell_task((grid, False, 4, 30, 0))
        assert len(calls) == 1
        assert records == [
            sp.run_trial(40, 4, 30, r.method, r.trial_index, 1,
                         sp.SolverConfigs(restarts=4), record_timing=False)
            for r in records]
        assert len(calls) == 3  # solved alone, each start is computed

    def test_nothing_is_kept_outside_a_cell(self, monkeypatch):
        rng = sp.trial_rng(3)
        x = sp.sample_signal(30, 3, rng)
        e = sp.measure(x, 80, rng)
        calls = []
        monkeypatch.setattr(pipeline, "htp_run",
                            _counting(calls, pipeline.htp_run))
        first = sp.solve(e, 3, "tp")
        second = sp.solve(e, 3, "tp")
        assert len(calls) == 2
        assert first.x.tobytes() == second.x.tobytes()

    def test_a_reused_restart_is_charged_its_stage_times(self, monkeypatch):
        # HTP takes at least 50 ms here, so the tp call that reuses
        # restart 1 returns far sooner than restart 1 took
        htp_run = pipeline.htp_run

        def slow_htp(*args, **kwargs):
            time.sleep(0.05)
            return htp_run(*args, **kwargs)

        reports = []
        solve_mr = harness.solve_multi_restart

        def kept(*args, **kwargs):
            reports.append(solve_mr(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(pipeline, "htp_run", slow_htp)
        monkeypatch.setattr(harness, "solve_multi_restart", kept)
        tp, mr = harness._cell_task((_sharing_grid(("tp", "tp_mr")), True,
                                     4, 30, 0))
        (report,) = reports
        assert report.restarts_run == 1
        stages_ms = 1e3 * (report.init_elapsed + report.refine_elapsed)
        assert tp.elapsed_ms >= stages_ms >= 50
        assert mr.elapsed_ms >= stages_ms


class TestWilsonInterval:
    def test_hand_case_all_failures(self):
        # k=0, n=10, z=1.96: [0, z^2/(n+z^2)]
        low, high = sp.wilson_interval(0, 10)
        assert low == 0.0
        assert high == pytest.approx(1.96**2 / (10 + 1.96**2))

    def test_hand_case_all_successes(self):
        low, high = sp.wilson_interval(10, 10)
        assert high == 1.0
        assert low == pytest.approx(10 / (10 + 1.96**2))

    def test_hand_case_half(self):
        # k=5, n=10: center (0.5 + z^2/20) / (1 + z^2/10), half-width
        # z sqrt(0.025 + z^2/400) / (1 + z^2/10)
        z = 1.96
        low, high = sp.wilson_interval(5, 10)
        center = (0.5 + z * z / 20) / (1 + z * z / 10)
        half = z * math.sqrt(0.025 + z * z / 400) / (1 + z * z / 10)
        assert low == pytest.approx(center - half)
        assert high == pytest.approx(center + half)

    def test_bounds(self):
        with pytest.raises(ValueError):
            sp.wilson_interval(5, 0)
        with pytest.raises(ValueError):
            sp.wilson_interval(11, 10)


class TestCsv:
    def test_empty_records_header_only(self):
        assert sp.emit_csv([]) == (
            "n,s,m,trial,method,seed,success,rel_error,init_dist,"
            "htp_iters,chosen_restart,elapsed_ms\n")

    def test_one_record_two_lines(self):
        rec = sp.run_trial(16, 2, 40, "tp", 0, 1, record_timing=False)
        text = sp.emit_csv([rec])
        assert len(text.strip().splitlines()) == 2

    def test_round_trip(self):
        configs = sp.SolverConfigs(restarts=3)
        records = [
            sp.run_trial(16, 2, 40, meth, t, 1, configs=configs,
                         record_timing=False)
            for meth in ("tp", "tp_mr") for t in range(3)
        ]
        assert sp.parse_csv(sp.emit_csv(records)) == records

    def test_chosen_restart_empty_for_two_stage(self):
        rec = sp.run_trial(16, 2, 40, "tp", 0, 1, record_timing=False)
        line = sp.emit_csv([rec]).splitlines()[1]
        assert line.split(",")[10] == ""

    def test_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            sp.parse_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("cell", ["yes", "true", "", "2", " 1"])
    def test_success_cell_must_be_0_or_1(self, cell):
        text = harness.CSV_HEADER + f"\n1,1,1,0,tp,1,{cell},0.5,0,1,,0\n"
        with pytest.raises(ValueError, match="success must be 0 or 1"):
            sp.parse_csv(text)


class TestGridFromDict:
    def test_minimal_config(self):
        grid = grid_from_dict({
            "n": 64, "s_list": [4], "m_list": [100, 200], "trials": 3,
            "seed": 1, "methods": ["tp"],
        })
        assert grid.m_list == (100, 200)
        assert grid.success_threshold == 1e-3

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            grid_from_dict({"n": 64, "s_list": [4], "m_list": [100],
                            "trials": 1, "seed": seed, "methods": ["tp"]})

    def test_config_sections(self):
        grid = grid_from_dict({
            "n": 64, "s_list": [4], "m_list": [100], "trials": 1,
            "seed": 1, "methods": ["tp_mr"],
            "configs": {"restarts": 7},
        })
        assert grid.configs == sp.SolverConfigs(restarts=7)
        # HTP's cap is not a grid setting: "htp" is an unknown key
        with pytest.raises(ConfigError, match="unknown configs keys.*htp"):
            grid_from_dict({
                "n": 64, "s_list": [4], "m_list": [100], "trials": 1,
                "seed": 1, "methods": ["tp_mr"],
                "configs": {"htp": {"max_iters": 5}, "restarts": 7},
            })

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            grid_from_dict({"n": 4, "s_list": [1], "m_list": [2],
                            "trials": 1, "seed": 0, "methods": ["tp"],
                            "bogus": 1})

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError):
            grid_from_dict({"n": 4})

    def test_invalid_method_rejected(self):
        with pytest.raises(ConfigError):
            grid_from_dict({"n": 4, "s_list": [1], "m_list": [2],
                            "trials": 1, "seed": 0, "methods": ["magic"]})

    def test_sparsity_bound_rejected(self):
        with pytest.raises(ConfigError):
            sp.ExperimentGrid(n=4, s_list=(5,), m_list=(10,), trials=1,
                              seed=0, methods=("tp",))

    @pytest.mark.parametrize("key,value", [
        ("s_list", "25"), ("m_list", "300"), ("methods", "tp"),
        ("trials", 1.9), ("trials", True), ("seed", 1.5), ("n", True),
        ("n", "64"), ("s_list", [True]), ("m_list", [100.5]),
    ])
    def test_reinterpretable_values_rejected(self, key, value):
        data = {"n": 64, "s_list": [4], "m_list": [100], "trials": 1,
                "seed": 1, "methods": ["tp"], key: value}
        with pytest.raises(ConfigError):
            grid_from_dict(data)

    def test_integral_float_accepted(self):
        grid = grid_from_dict({"n": 64.0, "s_list": [4], "m_list": [100],
                               "trials": 2.0, "seed": 1, "methods": ["tp"],
                               "configs": {"restarts": 5.0}})
        assert grid.n == 64 and grid.trials == 2
        assert type(grid.configs.restarts) is int
        assert grid.configs.restarts == 5

    @pytest.mark.parametrize("configs", [
        {"restarts": True}, {"restarts": 2.5},
        {"init": {"eig_tol": 1e-10}}, {"htp": {"max_iters": True}},
        {"init": {"t_max": 1.5}}, {"init": {"s_prime": 2.5}},
        {"htp": {"support_stall": "2"}}, {"init": {"l": "0.5"}},
        {"htp": {"mu": math.nan}}, {"init": {"u": math.inf}},
        {"htp": {"residual_tol": False}}, {"init": {"t_max": None}},
        None, [], {"init": {"step_tol": 1e-6}},
        {"htp": {"residual_tol": 1e-10}}, {"htp": {"support_stall": 3}},
        {"init": {"s_prime": 3}}, {"init": {"s_prime": 65}},
    ])
    def test_bad_configs_section_rejected(self, configs):
        with pytest.raises(ConfigError):
            grid_from_dict({"n": 64, "s_list": [4], "m_list": [100],
                            "trials": 1, "seed": 1, "methods": ["tp"],
                            "configs": configs})

    @pytest.mark.parametrize("threshold", [
        "0.001", True, math.nan, math.inf, 10**400, 0, -1e-3])
    def test_bad_success_threshold_rejected(self, threshold):
        with pytest.raises(ConfigError):
            grid_from_dict({"n": 64, "s_list": [4], "m_list": [100],
                            "trials": 1, "seed": 1, "methods": ["tp"],
                            "success_threshold": threshold})

    def test_nan_threshold_rejected_from_python(self):
        with pytest.raises(ConfigError):
            sp.ExperimentGrid(n=4, s_list=(1,), m_list=(10,), trials=1,
                              seed=0, methods=("tp",),
                              success_threshold=math.nan)


class TestSummaryTable:
    def test_renders_every_cell(self, small_grid):
        result = run_grid(small_grid, parallelism=1, record_timing=False)
        table = sp.summary_table(result.cells)
        assert len(table.splitlines()) == 2 + len(result.cells)
        assert "wilson95" in table.splitlines()[0]
