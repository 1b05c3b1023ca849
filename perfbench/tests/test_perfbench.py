"""Tests of the benchmark itself, at toy sizes.

Run from the repository root: python -m pytest -q perfbench/tests
"""

import dataclasses
import hashlib
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import sparsepr as sp
from sparsepr import harness, instance_io
from perfbench import bench, tracing, workloads
from perfbench.workloads import WORKLOADS, toy

from conftest import ROOT


def _toy(name, **changes):
    return toy(WORKLOADS[name], **changes)


def test_benchmark_json_names_what_the_code_measures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_workload_emits_every_metric(name, tmp_path):
    result, lines = bench.end_to_end(_toy(name), 3, 0.0, tmp_path,
                                     cold_starts=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        bench.END_TO_END_UNITS
    assert all(math.isfinite(v["value"]) and v["value"] > 0
               for v in metrics.values())

    donors = [toy(d) for d in bench.donors(WORKLOADS[name])]
    result, lines = bench.per_layer(_toy(name), 3, tmp_path, tmp_path,
                                    donors)
    assert result["correct"], lines
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        tracing.LAYER_UNITS
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if name != "instance_files":   # file layers come from a donor batch
        assert any(line.endswith("of instance_files: " + line.split(": ")[-1])
                   and "instance_io.save_ms" in line for line in lines)
    assert (tmp_path / f"trace-{name}-seed3.json").is_file()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_leaves_outputs_unchanged(name, tmp_path):
    w = _toy(name, per_batch=2, quota=2)
    plain = workloads.run(w, 5, 0.0, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = workloads.run(w, 5, 0.0, tmp_path)
    assert traced.fingerprint == plain.fingerprint
    assert traced.recovered == plain.recovered
    assert traced.failed == plain.failed == 0
    assert tracer.spans
    # every wrapper is gone again
    assert sp.harness.solve_two_stage is sp.pipeline.solve_two_stage
    assert sp.initializers.ybar_matvec.__module__ == "sparsepr.initializers"


def test_fingerprint_is_the_untimed_grid_csv(tmp_path):
    w = _toy("grid_recovered", per_batch=4)
    tally = workloads.run(w, 9, 0.0, tmp_path)
    grid = harness.ExperimentGrid(
        n=w.n, s_list=(w.s,), m_list=(w.m,), trials=w.per_batch,
        seed=workloads.batch_seed(9, 0), methods=w.methods)
    csv = harness.emit_csv(harness.run_grid(grid, record_timing=False).records)
    assert tally.fingerprint == hashlib.sha256(csv.encode()).hexdigest()


def test_a_raising_solver_counts_as_failed_ops(tmp_path, monkeypatch):
    real = harness.solve_two_stage

    def flaky(e, s, method, *args, **kwargs):
        if method == "tp":
            raise RuntimeError("injected")
        return real(e, s, method, *args, **kwargs)

    monkeypatch.setattr(harness, "solve_two_stage", flaky)
    w = _toy("grid_recovered", per_batch=2, quota=2)
    result, lines = bench.end_to_end(w, 4, 0.0, tmp_path, cold_starts=1)
    assert result["attempted"] == 12          # every batch still ran
    assert result["failed"] == 4              # the tp calls
    assert not result["correct"]
    assert result["metrics"]["ok_rate"]["value"] == pytest.approx(8 / 12)
    assert result["metrics"]["success_rate"]["value"] <= 8 / 12
    assert any("injected" in line for line in lines)


def test_an_invalid_solver_output_counts_as_failed(tmp_path, monkeypatch):
    real = harness.solve_two_stage

    def dense(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, x=np.ones_like(report.x))

    monkeypatch.setattr(harness, "solve_two_stage", dense)
    tally = workloads.run(_toy("grid_recovered"), 4, 0.0, tmp_path)
    assert tally.failed == tally.attempted == 3
    assert sum(tally.recovered.values()) == 0
    assert "nonzeros" in tally.problems[0]


def test_a_failing_cli_solve_counts_as_failed(tmp_path, monkeypatch):
    def unreadable(path):
        raise instance_io.InstanceFormatError(1, "injected")

    monkeypatch.setattr(instance_io, "load_instance", unreadable)
    tally = workloads.run(_toy("instance_files", quota=3), 4, 0.0, tmp_path)
    assert tally.attempted == 3 and tally.failed == 3
    assert tally.problems[0] == "cli exited with code 2"


def test_tail_percentile_keeps_ten_samples_beyond_it():
    w = WORKLOADS["grid_recovered"]
    samples = w.quota * w.per_batch * len(w.methods)
    assert samples * (1 - w.tail_pct / 100) >= 10
    assert samples * (1 - (w.tail_pct + 1) / 100) < 10
    # 12 tp_mr calls cannot put ten beyond any percentile: the floor
    assert WORKLOADS["multi_restart"].tail_pct == workloads.TAIL_FLOOR
    tally = workloads.Tally(latencies_ms=list(range(1, 201)))
    p50, tail, beyond = bench.latency(tally, 95)
    assert (p50, beyond) == (100.5, 10) and 190 < tail < 191


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_recovered",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
