import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sparsepr as sp
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

    def test_invalid_band_is_config_error(self):
        proc = run_cli(["moments", "--l", "5", "--u", "1"])
        assert proc.returncode == 2


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

    def test_malformed_instance_exits_2(self, tmp_path):
        path = tmp_path / "bad.spr1"
        path.write_text("SPR1 1 1\n")
        proc = run_cli(["solve", "--instance", str(path), "--s", "1",
                        "--method", "tp"])
        assert proc.returncode == 2

    def test_missing_instance_exits_3(self, tmp_path):
        proc = run_cli(["solve", "--instance", str(tmp_path / "x.spr1"),
                        "--s", "1", "--method", "tp"])
        assert proc.returncode == 3
