"""Monte Carlo experiment engine: seeded trials, grids, CSV emission.

Seeding contract
----------------
Every trial derives one 64-bit data seed from
(grid_seed, n, s, m, trial_index) with ``derive_trial_seed`` (a splitmix64
fold, documented bit-exactly in that function) and feeds it as the key of
a counter-based Philox generator. The method name does not enter the data
seed, so all methods in a grid cell solve the same signal and ensemble
(paired comparisons); the solvers themselves draw no randomness.

``elapsed_ms`` is clock time and therefore never reproducible; pass
``record_timing=False`` to pin it to 0.0, under which records and CSV
output are byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
from dataclasses import dataclass, field, fields
import math
import os
import time

import numpy as np

from .initializers import _per_trial
from .model import (ConfigError, Ensemble, _instance, _integer, _real,
                    measure, sample_signal)
from .pipeline import (METHODS, SolveReport, SolverConfigs,
                       solve_multi_restart, solve_two_stage)

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """One splitmix64 scramble of a 64-bit value."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(grid_seed: int, n: int, s: int, m: int,
                      trial_index: int) -> int:
    """64-bit per-trial data seed, bit-exactly:

        h = splitmix64(grid_seed mod 2^64)
        for v in (n, s, m, trial_index):
            h = splitmix64(h XOR (v mod 2^64))

    The result keys the Philox stream a trial samples its signal and
    ensemble from. The method is deliberately excluded (paired design).
    """
    h = splitmix64(grid_seed & _MASK64)
    for v in (n, s, m, trial_index):
        h = splitmix64(h ^ (v & _MASK64))
    return h


def _word64(value, name: str) -> int:
    # derive_trial_seed folds its inputs mod 2^64: refuse what would alias
    if not 0 <= (value := _integer(value, name)) <= _MASK64:
        raise ConfigError(f"{name} must lie in [0, 2^64), got {value}")
    return value


def trial_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one trial (Philox, 64-bit key)."""
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class TrialRecord:
    """One solved Monte Carlo instance. elapsed_ms is the larger of the
    solve's wall time and its init plus refine time (``_cell_task``), or
    0.0 under record_timing=False."""

    n: int
    s: int
    m: int
    trial_index: int
    method: str
    seed_used: int
    success: bool
    rel_error: float
    init_dist: float
    htp_iters: int
    chosen_restart: int | None
    elapsed_ms: float


@dataclass(frozen=True)
class ExperimentGrid:
    """A (method, s, m, trial) product driving ``run_grid``.

    Checked when built, else ConfigError: n, trials, seed and every s and
    m are integers (integral floats become ints), seed lies in [0, 2^64),
    configs is a SolverConfigs, success_threshold is a finite number, and
    no value is out of range or repeated within s_list, m_list or methods.
    """

    n: int
    s_list: tuple[int, ...]
    m_list: tuple[int, ...]
    trials: int
    seed: int
    methods: tuple[str, ...]
    success_threshold: float = 1e-3
    configs: SolverConfigs = field(default_factory=SolverConfigs)

    def __post_init__(self):
        for name in ("n", "trials"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "seed", _word64(self.seed, "seed"))
        for name in ("s_list", "m_list"):
            object.__setattr__(self, name, tuple(
                _integer(v, f"{name} item") for v in getattr(self, name)))
        object.__setattr__(self, "success_threshold", _real(
            self.success_threshold, "success_threshold"))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.n < 1 or not self.s_list or not self.m_list:
            raise ConfigError("grid needs n >= 1 and nonempty s/m lists")
        if any(not 1 <= s <= self.n for s in self.s_list):
            raise ConfigError("every s must satisfy 1 <= s <= n")
        if self.configs is None:  # a grid holds settings, never None
            raise ConfigError("configs must be SolverConfigs, got None")
        _instance(self.configs, SolverConfigs, "configs")
        if any(m < 1 for m in self.m_list):
            raise ConfigError("every m must be positive")
        if max(self.s_list) > min(self.m_list):
            # HTP's least squares on s columns needs at least s equations
            raise ConfigError(f"every s must be at most every m: s = "
                              f"{max(self.s_list)} > m = {min(self.m_list)}")
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        if not self.success_threshold > 0:
            raise ConfigError("success threshold must be positive")
        unknown = [meth for meth in self.methods if meth not in METHODS]
        if unknown or not self.methods:
            raise ConfigError(f"methods must be a nonempty subset of {METHODS}")
        for name in ("s_list", "m_list", "methods"):
            # a repeated entry would solve the same trials again and count
            # them twice in the cell's summary
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} repeats a value: {list(values)}")


# thread-count (getter, setter) names of upstream OpenBLAS and of the
# scipy-openblas build numpy's wheels ship; 64_ marks 64-bit-integer builds
_BLAS_THREAD_API = [(f"{lib}_get_num_threads{tag}",
                     f"{lib}_set_num_threads{tag}")
                    for lib in ("openblas", "scipy_openblas")
                    for tag in ("", "64_")]


def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS mapped into the
    process now (Linux, read afresh each call); empty where that fails."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip()
                     for line in maps if "openblas" in line}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        controls.extend((getattr(lib, get), getattr(lib, put))
                        for get, put in _BLAS_THREAD_API
                        if hasattr(lib, get) and hasattr(lib, put))
    return tuple(controls)


@contextlib.contextmanager
def _single_blas_thread():
    """Hold every OpenBLAS to one thread, then restore the old counts.

    Every trial samples and solves inside this pin (``_cell_task``), in
    the caller or a pool worker: BLAS threads on top of pool workers
    oversubscribe the CPU (idle threads of numpy's OpenBLAS spin, and of
    scipy's if a caller loaded it), and the BLAS thread count moves the
    last bits of results, which must not depend on the cores.
    """
    saved = [(put, get()) for get, put in _blas_thread_controls()]
    for put, _ in saved:
        put(1)
    try:
        yield
    finally:
        for put, count in saved:
            put(count)


def solve(e: Ensemble, s: int, method: str,
          configs: SolverConfigs | None = None, truth=None) -> SolveReport:
    """Run one of METHODS on an ensemble: tp_mr restarts the truncated
    power method from ``configs.restarts`` anchors, the others run one
    initializer followed by HTP and take no settings. configs None means
    ``SolverConfigs()``. ConfigError, before any work, unless configs is
    None or a SolverConfigs, the method is known, and s is an integer
    (integral floats become ints) with 1 <= s <= min(n, m), which the
    solver checks."""
    configs = _instance(configs, SolverConfigs, "configs")
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if method == "tp_mr":
        return solve_multi_restart(e, s, configs, truth=truth)
    return solve_two_stage(e, s, method, truth=truth)


def run_trial(n: int, s: int, m: int, method: str, trial_index: int,
              grid_seed: int, configs: SolverConfigs | None = None, *,
              success_threshold: float = ExperimentGrid.success_threshold,
              record_timing: bool = True) -> TrialRecord:
    """Sample one instance from the derived seed, solve it, record it.

    Identical arguments yield identical records apart from ``elapsed_ms``
    (pass record_timing=False for byte-identical reruns), equal to the
    matching ``run_grid`` record: both run BLAS on one thread. Degenerate
    solves are recorded (rel_error = 1 for a zero estimate), never raised.
    configs None means ``SolverConfigs()``. Arguments a grid would
    refuse, configs of any other type, or a trial_index outside
    [0, 2^64), raise ConfigError before any sampling.
    """
    grid = ExperimentGrid(n=n, s_list=(s,), m_list=(m,), trials=1,
                          seed=grid_seed, methods=(method,),
                          success_threshold=success_threshold,
                          configs=_instance(configs, SolverConfigs,
                                            "configs"))
    return _cell_task((grid, record_timing, grid.s_list[0], grid.m_list[0],
                       _word64(trial_index, "trial_index")))[0]


def _cell_task(args):
    """Sample one trial and solve it with each method of the grid, in
    one ``initializers._per_trial`` scope. tp_mr goes first, so its
    restart 1 is timed inside its own call and a tp solve reuses it,
    charged restart 1's stage times. Records follow ``grid.methods``."""
    grid, record_timing, s, m, trial_index = args
    seed = derive_trial_seed(grid.seed, grid.n, s, m, trial_index)
    records = {}
    with _single_blas_thread():
        rng = trial_rng(seed)
        signal = sample_signal(grid.n, s, rng)
        ensemble = measure(signal, m, rng)
        truth = signal.to_dense()
        with _per_trial(ensemble):
            # sorted is stable: tp_mr first, the rest in grid order
            for method in sorted(grid.methods, key=lambda k: k != "tp_mr"):
                t0 = time.perf_counter()
                report = solve(ensemble, s, method, grid.configs,
                               truth=truth)
                secs = max(time.perf_counter() - t0,
                           report.init_elapsed + report.refine_elapsed)
                records[method] = TrialRecord(
                    n=grid.n, s=s, m=m, trial_index=trial_index,
                    method=method, seed_used=seed,
                    success=bool(report.rel_error <= grid.success_threshold),
                    rel_error=report.rel_error, init_dist=report.init_dist,
                    htp_iters=report.iterations,
                    chosen_restart=report.chosen_restart,
                    elapsed_ms=secs * 1e3 if record_timing else 0.0)
    return [records[method] for method in grid.methods]


def _workers(requested: int, tasks: int) -> int:
    """Pool size: never more workers than tasks or CPUs this process may
    run on (its affinity mask, where the platform reports one)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(requested, tasks, cpus))


@dataclass(frozen=True)
class CellSummary:
    """Aggregate for one (method, s, m) cell."""

    method: str
    s: int
    m: int
    trials: int
    successes: int
    success_rate: float
    wilson_low: float
    wilson_high: float
    iters_p50: float
    iters_p90: float


@dataclass(frozen=True)
class GridResult:
    records: list
    cells: list


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (z = 1.96) for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    z = 1.96
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def aggregate(records) -> list[CellSummary]:
    """Per-cell summaries sorted like the records (method, s, m)."""
    cells = {}
    for r in records:
        cells.setdefault((r.method, r.s, r.m), []).append(r)
    out = []
    for (method, s, m) in sorted(cells):
        grp = cells[(method, s, m)]
        n_trials = len(grp)
        successes = sum(r.success for r in grp)
        low, high = wilson_interval(successes, n_trials)
        iters = np.array([r.htp_iters for r in grp], dtype=float)
        out.append(CellSummary(
            method=method, s=s, m=m, trials=n_trials, successes=successes,
            success_rate=successes / n_trials, wilson_low=low,
            wilson_high=high, iters_p50=float(np.percentile(iters, 50)),
            iters_p90=float(np.percentile(iters, 90))))
    return out


def summary_table(cells) -> str:
    """Fixed-width text rendering of the per-cell aggregates."""
    header = (f"{'method':<18}{'s':>5}{'m':>7}{'trials':>8}{'rate':>8}"
              f"{'wilson95':>18}{'it_p50':>8}{'it_p90':>8}")
    lines = [header, "-" * len(header)]
    for c in cells:
        lines.append(
            f"{c.method:<18}{c.s:>5}{c.m:>7}{c.trials:>8}"
            f"{c.success_rate:>8.3f}"
            f"{'[' + format(c.wilson_low, '.3f') + ', ' + format(c.wilson_high, '.3f') + ']':>18}"
            f"{c.iters_p50:>8.1f}{c.iters_p90:>8.1f}")
    return "\n".join(lines)


def run_grid(grid: ExperimentGrid, parallelism: int = 1,
             record_timing: bool = True) -> GridResult:
    """Run every (s, m, method, trial) cell of the grid.

    Methods within a cell share the sampled data (paired comparisons).
    Tasks run across a process pool when parallelism > 1, with no more
    workers than tasks or CPUs. Each trial runs BLAS on one thread while
    it samples and solves. Records come back sorted by (method, s, m,
    trial_index), independent of the worker count.
    """
    parallelism = _integer(parallelism, "parallelism")
    if parallelism < 1:
        raise ConfigError("parallelism must be positive")
    tasks = [(grid, record_timing, s, m, t)
             for s in grid.s_list
             for m in grid.m_list
             for t in range(grid.trials)]
    workers = _workers(parallelism, len(tasks))
    if workers == 1:
        batches = [_cell_task(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            batches = list(pool.map(_cell_task, tasks, chunksize=1))
    records = [r for batch in batches for r in batch]
    records.sort(key=lambda r: (r.method, r.s, r.m, r.trial_index))
    return GridResult(records=records, cells=aggregate(records))


CSV_HEADER = ("n,s,m,trial,method,seed,success,rel_error,init_dist,"
              "htp_iters,chosen_restart,elapsed_ms")


def _fmt_float(v: float) -> str:
    return format(float(v), ".17g")


def emit_csv(records) -> str:
    """Render records under the fixed header; floats keep 17 significant
    digits so parse(emit(records)) round-trips exactly."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.n), str(r.s), str(r.m), str(r.trial_index), r.method,
            str(r.seed_used), "1" if r.success else "0",
            _fmt_float(r.rel_error), _fmt_float(r.init_dist),
            str(r.htp_iters),
            "" if r.chosen_restart is None else str(r.chosen_restart),
            _fmt_float(r.elapsed_ms)]))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[TrialRecord]:
    """Inverse of ``emit_csv``."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 12:
            raise ValueError(f"expected 12 fields, found {len(parts)}")
        if parts[6] not in ("0", "1"):
            raise ValueError(f"success must be 0 or 1, got {parts[6]!r}")
        records.append(TrialRecord(
            n=int(parts[0]), s=int(parts[1]), m=int(parts[2]),
            trial_index=int(parts[3]), method=parts[4],
            seed_used=int(parts[5]), success=parts[6] == "1",
            rel_error=float(parts[7]), init_dist=float(parts[8]),
            htp_iters=int(parts[9]),
            chosen_restart=None if parts[10] == "" else int(parts[10]),
            elapsed_ms=float(parts[11])))
    return records


def _keys(cls, data, name: str) -> dict:
    # a JSON object whose keys all name fields of cls; only these keys are
    # passed on, so absent fields keep the dataclass defaults, and cls
    # checks the values itself
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return dict(data)


def _list(data: dict, key: str) -> list:
    value = data[key]
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def grid_from_dict(data: dict) -> ExperimentGrid:
    """Build an ExperimentGrid from config-JSON content.

    Top-level keys mirror the ExperimentGrid fields (snake_case); the
    optional "configs" object mirrors SolverConfigs, so "restarts" is its
    one key. s_list, m_list and methods must be lists. Every value is
    checked by the dataclass that holds it, as it is for Python callers.
    """
    grid = _keys(ExperimentGrid, data, "grid config")
    missing = {"n", "s_list", "m_list", "trials", "seed", "methods"} - set(grid)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    for key in ("s_list", "m_list", "methods"):
        grid[key] = tuple(_list(grid, key))
    if "configs" in grid:
        grid["configs"] = SolverConfigs(**_keys(SolverConfigs,
                                                grid["configs"], "configs"))
    return ExperimentGrid(**grid)
