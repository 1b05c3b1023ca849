import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sparsepr as sp
from sparsepr import harness, pipeline
from sparsepr.cli import main


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "sparsepr"] + args,
                          capture_output=True, text=True, **kwargs)


class TestMoments:
    def test_worked_constants(self):
        proc = run_cli(["moments", "--l", "0.5", "--u", "10"])
        assert proc.returncode == 0
        values = dict(line.replace(" ", "").split("=")
                      for line in proc.stdout.strip().splitlines())
        assert float(values["alpha"]) == pytest.approx(0.969, abs=1e-3)
        assert float(values["beta"]) == pytest.approx(2.995, abs=1e-3)

    def test_far_finite_edge_is_the_whole_line(self):
        # u^3 overflows a float; phi(u) underflows, so the band is |g| >= 0
        proc = run_cli(["moments", "--l", "0", "--u", "1e200"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "alpha = 1\nbeta = 3\n"

    def test_invalid_band_is_config_error(self):
        proc = run_cli(["moments", "--l", "5", "--u", "1"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("band", [["--l", "0", "--u", "inf"],
                                      ["--l", "nan", "--u", "1"]])
    def test_nonfinite_band_exits_2(self, band):
        proc = run_cli(["moments", *band])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestTrial:
    def test_json_record_on_stdout(self):
        code = None
        import contextlib
        import io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["trial", "--n", "48", "--s", "3", "--m", "120",
                         "--method", "tp", "--seed", "4"])
        assert code == 0
        record = json.loads(out.getvalue())
        assert record["method"] == "tp"
        assert record["n"] == 48
        assert record["success"] in (True, False)

    def test_method_alias_tpmr(self):
        import contextlib
        import io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["trial", "--n", "48", "--s", "3", "--m", "120",
                         "--method", "tpmr", "--seed", "4", "--b", "2"])
        assert code == 0
        record = json.loads(out.getvalue())
        assert record["method"] == "tp_mr"
        assert record["chosen_restart"] in (1, 2)

    def test_bad_usage_exits_2(self):
        proc = run_cli(["trial", "--n", "10"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("flags", [["--s", "41"], ["--b", "0"],
                                       # a later flag overrides the first
                                       ["--s", "0"],
                                       ["--seed", "-1"],
                                       ["--seed", str(2**64)],
                                       ["--trial-index", "-1"],
                                       ["--trial-index", str(2**64)]])
    def test_refused_setting_exits_2_before_sampling(self, flags,
                                                     monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled with a refused setting")

        monkeypatch.setattr(harness, "sample_signal", no_sampling)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["trial", "--n", "16", "--s", "2", "--m", "40",
                         "--method", "tp", "--seed", "1", *flags])
        assert code == 2
        assert stderr.getvalue().startswith("error:")

    @pytest.mark.parametrize("flags", [["--l", "0.5"], ["--u", "10"],
                                       ["--s-prime", "4"], ["--t-max", "366"],
                                       ["--mu", "0.95"], ["--max-iters", "5"],
                                       ["--max-iters", "100"]])
    def test_retired_setting_flag_exits_2_before_sampling(self, flags,
                                                          monkeypatch):
        # the band, s', TP's budget, HTP's step and HTP's cap are
        # constants: even their old default values are refused
        def no_sampling(*args):
            raise AssertionError("sampled with a retired flag")

        monkeypatch.setattr(harness, "sample_signal", no_sampling)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                pytest.raises(SystemExit) as exc:
            main(["trial", "--n", "16", "--s", "2", "--m", "40",
                  "--method", "tp", "--seed", "1", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flags[0] in stderr.getvalue()

    @pytest.mark.parametrize("name,alias", [("tp_mr", "tpmr"),
                                            ("modified_spectral", "modspec")])
    def test_method_name_and_alias_print_the_same_record(self, name, alias):
        records = []
        for method in (name, alias):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["trial", "--n", "48", "--s", "3", "--m", "120",
                             "--method", method, "--seed", "4"])
            assert code == 0
            record = json.loads(out.getvalue())
            del record["elapsed_ms"]
            records.append(record)
        assert records[0] == records[1]
        assert records[0]["method"] == name


class TestGrid:
    def test_writes_csv_and_summary(self, tmp_path):
        config = {
            "n": 32, "s_list": [3], "m_list": [60, 120], "trials": 2,
            "seed": 5, "methods": ["spectral", "tp"],
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "results.csv"
        proc = run_cli(["grid", "--config", str(cfg_path), "--threads", "1",
                        "--out", str(out_path), "--no-timing"])
        assert proc.returncode == 0, proc.stderr
        records = sp.parse_csv(out_path.read_text())
        assert len(records) == 2 * 2 * 2
        assert "wilson95" in proc.stdout

    def test_env_var_thread_default(self, tmp_path):
        config = {"n": 16, "s_list": [2], "m_list": [40], "trials": 1,
                  "seed": 1, "methods": ["tp"]}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli(["grid", "--config", str(cfg_path), "--out",
                        str(tmp_path / "r.csv"), "--no-timing"],
                       env={**os.environ, "SPARSEPR_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr

    def test_missing_config_file_exits_3(self, tmp_path):
        proc = run_cli(["grid", "--config", str(tmp_path / "nope.json")])
        assert proc.returncode == 3

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"n": 8}))
        proc = run_cli(["grid", "--config", str(cfg_path)])
        assert proc.returncode == 2

    @pytest.mark.parametrize("extra", [
        {"configs": {"htp": {"max_iters": True}}},
        {"configs": {"init": {"t_max": 1.5}}},
        {"success_threshold": float("nan")},
        {"configs": {"htp": {"residual_tol": 1e-10}}},
    ])
    def test_mistyped_setting_exits_2(self, tmp_path, extra):
        config = {"n": 16, "s_list": [2], "m_list": [40], "trials": 1,
                  "seed": 1, "methods": ["tp"], **extra}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli(["grid", "--config", str(cfg_path), "--out",
                        str(tmp_path / "r.csv")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1

    def test_bad_s_prime_exits_2_before_sampling(self, tmp_path,
                                                  monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled a cell of an invalid grid")

        monkeypatch.setattr(harness, "sample_signal", no_sampling)
        config = {"n": 16, "s_list": [2], "m_list": [40], "trials": 1,
                  "seed": 1, "methods": ["tp"],
                  "configs": {"init": {"s_prime": 1}}}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "r.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["grid", "--config", str(cfg_path), "--threads",
                         "1", "--out", str(out_path)])
        assert code == 2
        assert stderr.getvalue().startswith("error:")
        assert "init" in stderr.getvalue()
        assert not out_path.exists()

    @pytest.mark.parametrize("configs,name", [
        ({"init": {}}, "init"), ({"init": {"l": 0.5, "u": 10.0}}, "init"),
        ({"htp": {"mu": 0.95}}, "htp"), ({"htp": {"max_iters": 5}}, "htp"),
        ({"htp": {"max_iters": 100}}, "htp"),
    ], ids=["init-empty", "init-band", "htp-mu", "htp-cap",
            "htp-cap-default"])
    def test_retired_setting_exits_2_before_sampling(self, tmp_path,
                                                     monkeypatch, configs,
                                                     name):
        # even the retired settings' old defaults are refused by name
        def no_sampling(*args):
            raise AssertionError("sampled a cell of an invalid grid")

        monkeypatch.setattr(harness, "sample_signal", no_sampling)
        config = {"n": 16, "s_list": [2], "m_list": [40], "trials": 1,
                  "seed": 1, "methods": ["tp"], "configs": configs}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "r.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["grid", "--config", str(cfg_path), "--threads",
                         "1", "--out", str(out_path)])
        assert code == 2
        assert stderr.getvalue().startswith("error: unknown")
        assert repr(name) in stderr.getvalue()
        assert not out_path.exists()

    def test_more_restarts_than_coordinates_writes_the_csv_of_n(
            self, tmp_path):
        csvs = []
        for restarts in (20, 16):
            config = {"n": 16, "s_list": [4], "m_list": [12], "trials": 2,
                      "seed": 7, "methods": ["tp", "tp_mr"],
                      "configs": {"restarts": restarts}}
            cfg_path = tmp_path / "grid.json"
            cfg_path.write_text(json.dumps(config))
            out_path = tmp_path / f"r{restarts}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["grid", "--config", str(cfg_path), "--threads",
                             "1", "--out", str(out_path), "--no-timing"])
            assert code == 0
            csvs.append(out_path.read_text())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_2_before_sampling(
            self, tmp_path, monkeypatch, seed):
        def no_sampling(*args):
            raise AssertionError("sampled a cell of an invalid grid")

        monkeypatch.setattr(harness, "sample_signal", no_sampling)
        config = {"n": 16, "s_list": [2], "m_list": [40], "trials": 1,
                  "seed": seed, "methods": ["tp"]}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "r.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["grid", "--config", str(cfg_path), "--threads",
                         "1", "--out", str(out_path)])
        assert code == 2
        assert "seed must lie in [0, 2^64)" in stderr.getvalue()
        assert not out_path.exists()

    @pytest.mark.parametrize("repeat", [
        {"s_list": [2, 2]}, {"m_list": [40, 40.0]},
        {"methods": ["tp", "spectral", "tp"]},
    ])
    def test_repeated_entry_exits_2_before_sampling(self, tmp_path,
                                                    monkeypatch, repeat):
        def no_sampling(*args):
            raise AssertionError("sampled a cell of an invalid grid")

        monkeypatch.setattr(harness, "sample_signal", no_sampling)
        config = {"n": 16, "s_list": [2], "m_list": [40], "trials": 3,
                  "seed": 1, "methods": ["tp"], **repeat}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "r.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["grid", "--config", str(cfg_path), "--threads",
                         "1", "--out", str(out_path)])
        assert code == 2
        assert "repeats" in stderr.getvalue()
        assert not out_path.exists()

    def test_unwritable_out_exits_3_before_solving(self, tmp_path,
                                                   monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("ran a grid with nowhere to write it")

        monkeypatch.setattr(harness, "run_grid", no_run)
        config = {"n": 16, "s_list": [2], "m_list": [40], "trials": 1,
                  "seed": 1, "methods": ["tp"]}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["grid", "--config", str(cfg_path), "--out",
                         str(tmp_path / "no" / "such" / "out.csv")])
        assert code == 3
        assert stderr.getvalue().startswith("error:")

    @pytest.mark.parametrize("flag,env", [("0", None), (None, "0"),
                                          (None, "two")])
    def test_refused_worker_count_exits_2_leaving_no_out(self, tmp_path,
                                                         monkeypatch, flag,
                                                         env):
        config = {"n": 16, "s_list": [2], "m_list": [40], "trials": 1,
                  "seed": 1, "methods": ["tp"]}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "r.csv"
        monkeypatch.delenv("SPARSEPR_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("SPARSEPR_THREADS", env)
        threads = [] if flag is None else ["--threads", flag]
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["grid", "--config", str(cfg_path), "--out",
                         str(out_path)] + threads)
        assert code == 2
        assert not out_path.exists()

    def test_out_replaced_only_by_a_finished_run(self, tmp_path,
                                                 monkeypatch):
        config = {"n": 16, "s_list": [2], "m_list": [40], "trials": 1,
                  "seed": 1, "methods": ["tp"]}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "r.csv"
        old = "an earlier, longer file\n" * 50
        out_path.write_text(old)
        args = ["grid", "--config", str(cfg_path), "--threads", "1",
                "--out", str(out_path), "--no-timing"]

        def failing_run(*args, **kwargs):
            raise sp.harness.ConfigError("refused")

        with monkeypatch.context() as patch:
            patch.setattr(harness, "run_grid", failing_run)
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(args) == 2
        assert out_path.read_text() == old
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args) == 0
        assert out_path.read_text() == sp.emit_csv(sp.run_grid(
            sp.ExperimentGrid(**config), record_timing=False).records)

    def test_invalid_json_exits_2(self, tmp_path):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text("{not json")
        proc = run_cli(["grid", "--config", str(cfg_path)])
        assert proc.returncode == 2


class TestSolve:
    def test_recovers_saved_instance(self, tmp_path):
        rng = sp.trial_rng(41)
        x = sp.sample_signal(64, 4, rng)
        e = sp.measure(x, 300, rng)
        path = tmp_path / "inst.spr1"
        sp.save_instance(path, x, e)
        proc = run_cli(["solve", "--instance", str(path), "--s", "4",
                        "--method", "tp"])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        recovered = np.array([float(t) for t in lines[0].split()])
        assert recovered.size == 64
        report = json.loads(lines[1])
        assert report["rel_error"] <= 1e-3
        assert sp.relative_error(recovered, x.to_dense()) <= 1e-3

    def test_multi_restart_reports_chosen_restart(self, tmp_path):
        rng = sp.trial_rng(41)
        x = sp.sample_signal(64, 4, rng)
        path = tmp_path / "inst.spr1"
        sp.save_instance(path, x, sp.measure(x, 300, rng))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["solve", "--instance", str(path), "--s", "4",
                         "--method", "tpmr"])
        assert code == 0
        report = json.loads(out.getvalue().splitlines()[1])
        assert report["method"] == "tp_mr"
        assert 1 <= report["chosen_restart"] <= report["restarts_run"] <= 20

    @pytest.mark.parametrize("method", ["tp", "tpmr"])
    def test_reports_why_htp_stopped(self, tmp_path, method):
        rng = sp.trial_rng(41)
        x = sp.sample_signal(64, 4, rng)
        path = tmp_path / "inst.spr1"
        sp.save_instance(path, x, sp.measure(x, 300, rng))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["solve", "--instance", str(path), "--s", "4",
                         "--method", method])
        assert code == 0
        report = json.loads(out.getvalue().splitlines()[1])
        assert report["htp_stop"] == "converged"
        # restart 1 is the tp solve, so a converged tp_mr stops there
        assert report["restarts_run"] == (1 if method == "tpmr" else None)

    def test_tpmr_below_the_default_restart_count_runs(self, tmp_path):
        # n = 10 is below the default b = 20, which solve cannot change
        n, s, m = 10, 3, 8
        rng = sp.trial_rng(sp.derive_trial_seed(7, n, s, m, 1))
        x = sp.sample_signal(n, s, rng)
        path = tmp_path / "inst.spr1"
        sp.save_instance(path, x, sp.measure(x, m, rng))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["solve", "--instance", str(path), "--s", str(s),
                         "--method", "tpmr"])
        assert code == 0
        report = json.loads(out.getvalue().splitlines()[1])
        assert 1 <= report["chosen_restart"] <= report["restarts_run"] <= n

    def test_s_above_m_exits_2_before_solving(self, tmp_path, monkeypatch,
                                              capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved with s > m")

        # the solver checks s before its first stage
        for name in ("y_diag", "tp_init", "htp_run"):
            monkeypatch.setattr(pipeline, name, no_solve)
        rng = sp.trial_rng(5)
        x = sp.sample_signal(10, 3, rng)
        path = tmp_path / "inst.spr1"
        sp.save_instance(path, x, sp.measure(x, 5, rng))
        code = main(["solve", "--instance", str(path), "--s", "8",
                     "--method", "tp"])
        assert code == 2
        assert "s = 8 > m = 5" in capsys.readouterr().err

    def test_malformed_instance_exits_2(self, tmp_path):
        path = tmp_path / "bad.spr1"
        path.write_text("SPR1 1 1\n")
        proc = run_cli(["solve", "--instance", str(path), "--s", "1",
                        "--method", "tp"])
        assert proc.returncode == 2

    def test_undecodable_instance_exits_2_naming_line(self, tmp_path):
        path = tmp_path / "bad.spr1"
        path.write_bytes(b"SPR1 2 1 1\n0 1\n1 \xff0\n1\n")
        proc = run_cli(["solve", "--instance", str(path), "--s", "1",
                        "--method", "tp"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: line 3:")

    def test_missing_instance_exits_3(self, tmp_path):
        proc = run_cli(["solve", "--instance", str(tmp_path / "x.spr1"),
                        "--s", "1", "--method", "tp"])
        assert proc.returncode == 3
