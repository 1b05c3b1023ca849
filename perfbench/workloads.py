"""Workloads of the benchmark and the loops that run them.

Every workload drives sparsepr through its public entry points only:
``harness.run_grid`` for the Monte Carlo grids, ``instance_io`` and
``cli.main`` for instance files. Calls go through module attributes
(``harness.run_grid(...)``, never a name bound at import), so the wrappers
of ``perfbench.tracing`` and the output checks below see every call.

A run first completes the workload's quota of batches, whose inputs follow
from the seed alone: success_rate and the behaviour fingerprint come from
the quota, so they are exact functions of the seed. It then adds batches
for timing only while the next one is expected to end within the run's
seconds, so faster code measures more operations in the same time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsepr import cli, harness, instance_io, model, pipeline

SUCCESS_THRESHOLD = 1e-3

# op_ms_tail is the highest whole percentile with at least ten quota
# samples beyond it, but never below this one: slower workloads cannot
# hold forty samples in one run.
TAIL_FLOOR = 75


@dataclass(frozen=True)
class Workload:
    """One input set: an (n, s, m) cell, its methods and its batch plan.

    A batch is ``per_batch`` trials of every method (a grid) or
    ``per_batch`` save-and-solve operations (instance files). Latency
    percentiles and success_rate cover the calls of ``measured_methods``
    (empty: every method).
    """

    name: str
    n: int
    s: int
    m: int
    methods: tuple[str, ...]
    per_batch: int
    quota: int
    files: bool = False
    restarts: int = 20
    measured_methods: tuple[str, ...] = ()

    @property
    def measured(self) -> tuple[str, ...]:
        return self.measured_methods or self.methods

    @property
    def ops_per_batch(self) -> int:
        return self.per_batch * (1 if self.files else len(self.methods))

    @property
    def tail_pct(self) -> int:
        """Highest whole percentile with >= 10 quota samples beyond it,
        or TAIL_FLOOR when there are fewer than 40 samples."""
        samples = self.quota * self.per_batch * len(self.measured)
        return max(TAIL_FLOOR, math.floor(100 * (1 - 10 / samples)))


TWO_STAGE = ("spectral", "modified_spectral", "tp")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Each quota takes 75-90% of a 30 s run on a 2-CPU x86-64 machine.
WORKLOADS = {w.name: w for w in (
    Workload(name="grid_recovered", n=1000, s=25, m=1500, methods=TWO_STAGE,
             per_batch=10, quota=18),
    # tp is the paired single-start reference and costs 1/60 of a tp_mr
    # call. Pooled with tp, the median latency would fall in the gap
    # between the two groups, and tp's ~70% recovery over a dozen calls would
    # make success_rate swing between seeds; tp's recovery is gated on the
    # three other workloads.
    Workload(name="multi_restart", n=1000, s=35, m=800,
             methods=("tp", "tp_mr"), per_batch=1, quota=12,
             measured_methods=("tp_mr",)),
    # s=15, where tp recovers about 99% of instances at m=900 (s=25: 93%),
    # so that 15 quota ops hold success_rate steady between seeds. The
    # file size depends on n and m only, and the solve is ~2% of an op.
    Workload(name="instance_files", n=1000, s=15, m=900, methods=("tp",),
             per_batch=1, quota=15, files=True),
)}


def toy(w: Workload, **changes) -> Workload:
    """The same workload shrunk to a fraction of a second."""
    base = dict(n=60, s=3, m=240, per_batch=1, quota=1, restarts=2)
    base.update(changes)
    return dataclasses.replace(w, **base)


# Toy runs that call every layer once, as warm-up before anything is timed.
WARM_UP = (
    toy(WORKLOADS["grid_recovered"], name="warm_up_grid",
        methods=pipeline.METHODS),
    toy(WORKLOADS["instance_files"], name="warm_up_files"),
)


@dataclass
class Tally:
    """Counts and samples of one pass over a workload."""

    attempted: int = 0
    failed: int = 0
    quota_ops: Counter = field(default_factory=Counter)  # per method
    recovered: Counter = field(default_factory=Counter)  # per method
    latencies_ms: list = field(default_factory=list)
    quota_outputs: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    wall_s: float = 0.0

    def fail(self, problem: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 5:
            self.problems.append(problem)

    def success_rate(self, methods) -> float:
        """Recovered over attempted quota ops of ``methods``."""
        return (sum(self.recovered[m] for m in methods)
                / sum(self.quota_ops[m] for m in methods))

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the quota's outputs with timings zeroed."""
        return hashlib.sha256("".join(self.quota_outputs).encode()).hexdigest()


def batch_seed(seed: int, batch: int) -> int:
    """Grid seed of one batch; distinct for every (seed, batch < 2^20)."""
    return (seed << 20) + batch


def check_x(x, n: int, s: int) -> str | None:
    """Why a solver output is invalid, or None when it is a valid estimate."""
    x = np.asarray(x)
    if x.shape != (n,):
        return f"x has shape {x.shape}, expected ({n},)"
    if not np.all(np.isfinite(x)):
        return "x is not finite"
    nnz = int(np.count_nonzero(x))
    if nnz > s:
        return f"x has {nnz} nonzeros, more than s = {s}"
    return None


def rel_error(x, truth) -> float:
    """Sign-invariant relative error, computed apart from sparsepr.model."""
    x = np.asarray(x, dtype=float)
    truth = np.asarray(truth, dtype=float)
    best = min(np.linalg.norm(x - truth), np.linalg.norm(x + truth))
    return float(best / np.linalg.norm(truth))


def _agrees(reported, recomputed: float) -> bool:
    return (reported is not None
            and math.isclose(reported, recomputed, rel_tol=1e-9,
                             abs_tol=1e-12))


def _failed_report(n: int) -> pipeline.SolveReport:
    return pipeline.SolveReport(
        x=np.zeros(n), method="failed", init_dist=math.inf,
        rel_error=math.inf, init_elapsed=0.0, refine_elapsed=0.0,
        iterations=0, degenerate=True)


def _checked(solve, tally: Tally):
    """Wrap a solver so that a raise or an invalid output counts as a
    failed op and yields an unrecovered report, and run_grid goes on."""
    def solve_checked(e, s, *args, truth=None, **kwargs):
        try:
            report = solve(e, s, *args, truth=truth, **kwargs)
        except Exception:  # a failing op is counted, the run continues
            tally.fail(traceback.format_exc(limit=3))
            return _failed_report(e.n)
        problem = check_x(report.x, e.n, s)
        if problem is None and truth is not None and not _agrees(
                report.rel_error, rel_error(report.x, truth)):
            problem = f"reported rel_error {report.rel_error} is wrong"
        if problem is not None:
            tally.fail(problem)
            return _failed_report(e.n)
        return report
    return solve_checked


@contextlib.contextmanager
def patched(targets):
    """Replace module attributes for the duration of the block.

    ``targets`` holds (module, attribute, make) triples; ``make`` receives
    the current value and returns its replacement.
    """
    saved = []
    try:
        for module, attr, make in targets:
            old = getattr(module, attr)
            saved.append((module, attr, old))
            setattr(module, attr, make(old))
        yield
    finally:
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)


def _grid_batch(w: Workload, seed: int, batch: int, in_quota: bool,
                tally: Tally) -> None:
    grid = harness.ExperimentGrid(
        n=w.n, s_list=(w.s,), m_list=(w.m,), trials=w.per_batch,
        seed=batch_seed(seed, batch), methods=w.methods,
        success_threshold=SUCCESS_THRESHOLD,
        configs=harness.SolverConfigs(restarts=w.restarts))
    tally.attempted += w.ops_per_batch
    try:
        records = harness.run_grid(grid, parallelism=1).records
    except Exception:  # e.g. sampling raised: the whole batch failed
        tally.fail(traceback.format_exc(limit=3), w.ops_per_batch)
        records = []
    tally.latencies_ms.extend(
        r.elapsed_ms for r in records if r.method in w.measured)
    if in_quota:
        for method in w.methods:
            tally.quota_ops[method] += w.per_batch
        tally.recovered.update(r.method for r in records if r.success)
        tally.quota_outputs.append(harness.emit_csv(
            [dataclasses.replace(r, elapsed_ms=0.0) for r in records]))


def _file_op(w: Workload, seed: int, index: int, path: Path, in_quota: bool,
             tally: Tally) -> None:
    rng = harness.trial_rng(
        harness.derive_trial_seed(seed, w.n, w.s, w.m, index))
    signal = model.sample_signal(w.n, w.s, rng)
    ensemble = model.measure(signal, w.m, rng)
    out = io.StringIO()
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        instance_io.save_instance(path, signal, ensemble)
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["solve", "--instance", str(path),
                             "--s", str(w.s), "--method", w.methods[0]])
    except Exception:  # a failing op is counted, the run continues
        code, problem = None, traceback.format_exc(limit=3)
    tally.latencies_ms.append((time.perf_counter() - t0) * 1e3)
    recovered = False
    x_line = ""
    if code is not None:
        problem, x_line, err = _check_cli_output(code, out.getvalue(), w,
                                                 signal.to_dense())
        recovered = problem is None and err <= SUCCESS_THRESHOLD
    if problem is not None:
        tally.fail(problem)
    if in_quota:
        tally.quota_ops[w.methods[0]] += 1
        tally.recovered[w.methods[0]] += recovered
        tally.quota_outputs.append(x_line + "\n")


def _check_cli_output(code, text, w: Workload, truth):
    """(problem or None, printed x line, recomputed rel_error)."""
    if code != 0:
        return f"cli exited with code {code}", "", math.inf
    lines = text.splitlines()
    try:
        x = np.array([float(t) for t in lines[0].split()])
        info = json.loads(lines[1])
    except (IndexError, ValueError):
        return "cli output is not an x line and a JSON line", "", math.inf
    problem = check_x(x, w.n, w.s)
    if problem is not None:
        return problem, lines[0], math.inf
    err = rel_error(x, truth)
    if not _agrees(info.get("rel_error"), err):
        return f"cli rel_error {info.get('rel_error')} is wrong", lines[0], err
    return None, lines[0], err


def run(w: Workload, seed: int, seconds: float, workdir: Path) -> Tally:
    """Run the quota, then more batches while the next is expected to end
    within ``seconds``; ``seconds=0`` runs the quota only.

    Solvers reached through run_grid are checked as they return; the CLI
    is checked from what it prints. ``workdir`` holds the temporary
    instance files.
    """
    tally = Tally()
    guards = [(harness, name, lambda f: _checked(f, tally))
              for name in ("solve_two_stage", "solve_multi_restart")]
    with patched(guards), tempfile.TemporaryDirectory(
            prefix=".perfbench-", dir=workdir) as tmp:
        path = Path(tmp) / "instance.spr1"
        start = time.perf_counter()
        batch = 0
        while True:
            elapsed = time.perf_counter() - start
            if batch >= w.quota and elapsed * (batch + 1) / batch > seconds:
                break
            in_quota = batch < w.quota
            if w.files:
                for j in range(w.per_batch):
                    _file_op(w, seed, batch * w.per_batch + j, path,
                             in_quota, tally)
            else:
                _grid_batch(w, seed, batch, in_quota, tally)
            batch += 1
        tally.wall_s = time.perf_counter() - start
    return tally
