"""End-to-end and traced runs of one workload, and the result they print.

``perfbench/run.py`` pins the BLAS threads and puts ``src`` on the path
before importing this module; tests import it directly.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

from . import workloads
from .tracing import LAYER_UNITS, Tracer, layer_metrics
from .workloads import WARM_UP, WORKLOADS, Tally, Workload

ROOT = Path(__file__).resolve().parent.parent

# name -> unit of every end-to-end metric
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "success_rate": "ratio",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

COLD_STARTS = 11
_COLD_START = ("import sparsepr as sp; "
               "sp.run_trial(60, 3, 240, 'tp', 0, {seed})")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _blas(config) -> str:
    try:
        blas = config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment(seed: int) -> dict:
    """What a result depends on besides the code: versions, BLAS, CPUs."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def setup_seconds(seed: int, repeats: int = COLD_STARTS) -> float:
    """Median wall time of a fresh interpreter importing sparsepr and
    finishing a first tiny trial."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    env.pop("SPARSEPR_THREADS", None)
    command = [sys.executable, "-c", _COLD_START.format(seed=seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        child = subprocess.Popen(command, env=env, cwd=ROOT,
                                 stdout=subprocess.DEVNULL)
        # wait() with a timeout polls the child every 50 ms, which would
        # round each time up to that grid; a watchdog keeps the blocking
        # wait exact and still bounded.
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, command)
    return statistics.median(times)


def _warm_up(seed: int, workdir: Path) -> list:
    """Run the toy warm-up workloads once; returns their problems."""
    problems = []
    for w in WARM_UP:
        tally = workloads.run(w, seed, 0.0, workdir)
        problems += tally.problems
    return problems


def _successes(tally: Tally) -> str:
    return ", ".join(f"{m} {tally.recovered[m]}/{n} recovered"
                     for m, n in tally.quota_ops.items())


def latency(tally: Tally, pct: float) -> tuple[float, float, int]:
    """(median, tail at ``pct``, samples beyond the tail) in ms."""
    lat = np.asarray(tally.latencies_ms)
    tail = float(np.percentile(lat, pct))
    return float(np.median(lat)), tail, int(np.count_nonzero(lat > tail))


def end_to_end(w: Workload, seed: int, seconds: float, workdir: Path, *,
               cold_starts: int = COLD_STARTS) -> tuple[dict, list]:
    """Untraced run: (result object, human-readable lines)."""
    setup = setup_seconds(seed, cold_starts)
    warm_problems = _warm_up(seed, workdir)
    tally = workloads.run(w, seed, seconds, workdir)
    p50, tail, beyond = latency(tally, w.tail_pct)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "ops_per_s": tally.attempted / tally.wall_s,
        "op_ms_p50": p50,
        "op_ms_tail": tail,
        "success_rate": tally.success_rate(w.measured),
        "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_mb,
        "setup_s": setup,
    }
    lines = [
        f"ops: {tally.attempted} attempted, {tally.failed} failed "
        f"(error_rate {tally.failed / tally.attempted:.4g}) "
        f"in {tally.wall_s:.2f} s",
        f"success: {_successes(tally)}; fingerprint "
        f"sha256:{tally.fingerprint}",
        f"op_ms_tail is p{w.tail_pct:g} of {len(tally.latencies_ms)} "
        f"samples, {beyond} beyond it",
        f"setup_s is the median of {cold_starts} cold starts",
    ]
    lines += [f"problem: {p}" for p in warm_problems + tally.problems]
    result = _result(not warm_problems and tally.failed == 0,
                     tally.attempted, tally.failed, values, END_TO_END_UNITS)
    return result, lines


def donors(w: Workload) -> list:
    """One batch of each other workload, at full size: the traced run
    takes a layer that ``w`` never reaches from the first of these that
    reaches it."""
    return [dataclasses.replace(d, quota=1) for d in WORKLOADS.values()
            if d.name != w.name]


def per_layer(w: Workload, seed: int, workdir: Path, out_dir: Path,
              donor_workloads=None) -> tuple[dict, list]:
    """Traced run over the quota, against an untraced run of the same
    quota: (result object, human-readable lines). The spans are written
    to ``out_dir``. ``donor_workloads`` defaults to ``donors(w)``."""
    if donor_workloads is None:
        donor_workloads = donors(w)
    problems = _warm_up(seed, workdir)
    plain = workloads.run(w, seed, 0.0, workdir)
    tracer = Tracer()
    with tracer.installed():
        traced = workloads.run(w, seed, 0.0, workdir)
    donated = []
    for d in donor_workloads:
        d_tracer = Tracer()
        with d_tracer.installed():
            d_tally = workloads.run(d, seed, 0.0, workdir)
        problems += d_tally.problems
        donated.append((d.name, d_tracer, d_tally.attempted))
    values, sources = layer_metrics((tracer, traced.attempted), donated)
    missing = sorted(name for name, value in values.items() if value is None)
    if missing:
        raise RuntimeError(f"no traced pass reached {', '.join(missing)}")
    plain_rate = plain.attempted / plain.wall_s
    traced_rate = traced.attempted / traced.wall_s
    values["trace.ops_per_s_untraced"] = plain_rate
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
    same = (plain.fingerprint == traced.fingerprint
            and plain.recovered == traced.recovered)
    lines = [
        f"untraced fingerprint sha256:{plain.fingerprint}, "
        f"success {_successes(plain)}",
        f"traced   fingerprint sha256:{traced.fingerprint}, "
        f"success {_successes(traced)}",
        f"tracing overhead: {plain_rate:.4g} -> {traced_rate:.4g} ops/s "
        f"({values['trace.overhead_pct']:.2f}%)",
        f"{len(tracer.spans)} spans recorded",
    ]
    for donor, names in sources.items():
        lines.append(f"not reached by {w.name}, taken from one traced batch "
                     f"of {donor}: {', '.join(sorted(names))}")
    if not same:
        lines.append("problem: tracing changed the outputs")
    lines += [f"problem: {p}"
              for p in problems + plain.problems + traced.problems]
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{w.name}-seed{seed}.json"
    tracer.dump(path, workload=w.name, seed=seed)
    lines.append(f"spans written to {path}")
    failed = plain.failed + traced.failed
    result = _result(same and failed == 0 and not problems,
                     plain.attempted + traced.attempted, failed, values,
                     LAYER_UNITS)
    return result, lines


def _result(correct, attempted, failed, values, units) -> dict:
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()}}
