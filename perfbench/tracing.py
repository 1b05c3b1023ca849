"""Spans and counts at sparsepr's layer boundaries, recorded from outside.

The tracer replaces module attributes with timing wrappers, at the names
callers look up when they call: ``sparsepr.initializers.ybar_matvec`` for
tp_init's power loop, ``sparsepr.harness.solve_two_stage`` for run_grid,
``sparsepr.pipeline.solve_two_stage`` for the CLI, and so on. Private
names are never patched. In particular ``solve_two_stage`` reaches its
initializer through ``pipeline._INITIALIZERS``, a dict filled at import,
so per-method initializer times come from the returned
``SolveReport.init_elapsed`` rather than from a wrapper.

Spans (name, start, end, parent) stay in memory and are written out when
the run ends. A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

from sparsepr import (cli, harness, initializers, instance_io, model,
                      pipeline, refine)

from .workloads import patched

SAMPLE = "model.sample_signal"
MEASURE = "model.measure"
SOLVE_TWO_STAGE = "pipeline.solve_two_stage"
SOLVE_MULTI = "pipeline.solve_multi_restart"


def _on_report(tracer, args, kwargs, report):
    if report.method != "failed":
        tracer.reports.append(
            (report.method, report.init_elapsed, report.refine_elapsed))


def _on_eig(tracer, args, kwargs, result):
    tracer.counts["power_steps"] += result.iterations
    tracer.counts["eig_unconverged"] += not result.converged


def _on_lstsq(tracer, args, kwargs, result):
    tracer.counts["ridged"] += bool(result[1])


def _on_htp_step(tracer, args, kwargs, result):
    x_in = np.asarray(args[1], dtype=float)
    tracer.counts["htp_repeats"] += x_in.tobytes() == result[0].tobytes()


def _on_htp_run(tracer, args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    cap = (cfg or refine.HtpConfig()).max_iters
    tracer.counts["htp_capped"] += (result.iterations >= cap
                                    and not result.converged)
    if tracer.inside(SOLVE_MULTI):
        tracer.counts["restart_runs"] += 1
        tracer.counts["restart_converged"] += result.converged


def _on_file(name):
    def hook(tracer, args, kwargs, result):
        tracer.counts[name + ".bytes"] += os.path.getsize(args[0])
    return hook


# (module, attribute, span name, hook run on the result)
TARGETS = (
    (harness, "run_grid", "harness.run_grid", None),
    (harness, "sample_signal", SAMPLE, None),
    (harness, "measure", MEASURE, None),
    (model, "sample_signal", SAMPLE, None),
    (model, "measure", MEASURE, None),
    (harness, "solve_two_stage", SOLVE_TWO_STAGE, _on_report),
    (harness, "solve_multi_restart", SOLVE_MULTI, _on_report),
    (pipeline, "solve_two_stage", SOLVE_TWO_STAGE, _on_report),
    (pipeline, "solve_multi_restart", SOLVE_MULTI, _on_report),
    (pipeline, "y_diag", "initializers.y_diag", None),
    (pipeline, "htp_run", "refine.htp_run", _on_htp_run),
    (pipeline, "gradient_residual", "pipeline.gradient_residual", None),
    (initializers, "y_diag", "initializers.y_diag", None),
    (initializers, "y_column", "initializers.y_column", None),
    (initializers, "ybar_matvec", "initializers.ybar_matvec", None),
    (initializers, "restricted_ybar", "initializers.restricted_ybar", None),
    (initializers, "top_eigenvector", "linalg.top_eigenvector", _on_eig),
    (refine, "htp_step", "refine.htp_step", _on_htp_step),
    (refine, "restricted_least_squares", "linalg.restricted_least_squares",
     _on_lstsq),
    (instance_io, "save_instance", "instance_io.save_instance",
     _on_file("save")),
    (instance_io, "load_instance", "instance_io.load_instance",
     _on_file("load")),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder for one pass over a workload."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self._open = []   # indexes of the spans being timed
        self.counts = Counter()
        self.reports = []  # (method, init seconds, refine seconds)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def installed(self):
        """Context manager that keeps the wrappers in place."""
        return patched([(module, attr,
                         lambda fn, name=name, hook=hook:
                         self.wrap(fn, name, hook))
                        for module, attr, name, hook in TARGETS])

    def dump(self, path, **meta) -> None:
        """Write the spans as JSON, times in seconds from the first start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - t0, end - t0, parent]
                for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "columns": ["name", "start_s", "end_s",
                                           "parent"], "spans": rows}, fh)


class Spans:
    """Per-name call counts, total and self seconds of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        child = [0.0] * len(tracer.spans)
        for name, start, end, parent in tracer.spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        for (name, start, end, _), covered in zip(tracer.spans, child):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - covered

    def ms(self, name):
        """Mean milliseconds per call, or None when never called."""
        n = self.calls[name]
        return 1e3 * self.total[name] / n if n else None


def _ratio(num, den):
    return num / den if den else None


def _mean_ms(values):
    return 1e3 * sum(values) / len(values) if values else None


def _layer_values(tracer: Tracer, ops: int) -> dict:
    """Every per-layer metric of one traced pass; None where the pass
    never reached the layer."""
    sp = Spans(tracer)
    c = tracer.counts
    calls = sp.calls
    per_op = {name: n / ops for name, n in calls.items()}
    reports = tracer.reports
    io_s = sp.total["instance_io.save_instance"] + sp.total[
        "instance_io.load_instance"]
    values = {
        "model.sample_ms": _ratio(
            1e3 * (sp.total[SAMPLE] + sp.total[MEASURE]), calls[SAMPLE]),
        "initializers.ybar_matvec.calls":
            per_op.get("initializers.ybar_matvec"),
        "initializers.ybar_matvec.ms": sp.ms("initializers.ybar_matvec"),
        "initializers.y_diag.calls": per_op.get("initializers.y_diag"),
        "initializers.y_diag.ms": sp.ms("initializers.y_diag"),
        "initializers.y_column.ms": sp.ms("initializers.y_column"),
        "initializers.restricted_ybar.ms":
            sp.ms("initializers.restricted_ybar"),
        "linalg.top_eigenvector.ms": sp.ms("linalg.top_eigenvector"),
        "linalg.top_eigenvector.power_steps": _ratio(
            c["power_steps"], calls["linalg.top_eigenvector"]),
        "linalg.top_eigenvector.unconverged": _ratio(
            c["eig_unconverged"], ops if calls["linalg.top_eigenvector"]
            else 0),
        "linalg.restricted_least_squares.calls":
            per_op.get("linalg.restricted_least_squares"),
        "linalg.restricted_least_squares.ms":
            sp.ms("linalg.restricted_least_squares"),
        "linalg.restricted_least_squares.ridge_fallbacks": _ratio(
            c["ridged"], ops if calls["linalg.restricted_least_squares"]
            else 0),
        "refine.htp_run.ms": sp.ms("refine.htp_run"),
        "refine.htp_step.calls": per_op.get("refine.htp_step"),
        "refine.htp_step.ms": sp.ms("refine.htp_step"),
        "refine.htp_cap_ratio": _ratio(c["htp_capped"],
                                       calls["refine.htp_run"]),
        "refine.htp_repeat_ratio": _ratio(c["htp_repeats"],
                                          calls["refine.htp_step"]),
        "pipeline.init_ms": _mean_ms([r[1] for r in reports]),
        "pipeline.refine_ms": _mean_ms([r[2] for r in reports]),
        "pipeline.gradient_residual.calls":
            per_op.get("pipeline.gradient_residual"),
        "pipeline.gradient_residual.ms": sp.ms("pipeline.gradient_residual"),
        "pipeline.restart_converged_ratio": _ratio(
            c["restart_converged"], c["restart_runs"]),
        "harness.self_ms": _ratio(1e3 * sp.self_time["harness.run_grid"],
                                  ops if calls["harness.run_grid"] else 0),
        "instance_io.save_ms": sp.ms("instance_io.save_instance"),
        "instance_io.load_ms": sp.ms("instance_io.load_instance"),
        "instance_io.mb_per_s": _ratio(
            (c["save.bytes"] + c["load.bytes"]) / 1e6, io_s),
        "cli.self_ms": _ratio(1e3 * sp.self_time["cli.main"],
                              calls["cli.main"]),
    }
    for method in pipeline.METHODS:
        values[f"initializers.init_ms.{method}"] = _mean_ms(
            [r[1] for r in reports if r[0] == method])
    return values


# name -> unit of every per-layer metric
LAYER_UNITS = {
    "model.sample_ms": "ms",
    "initializers.ybar_matvec.calls": "1/op",
    "initializers.ybar_matvec.ms": "ms",
    "initializers.y_diag.calls": "1/op",
    "initializers.y_diag.ms": "ms",
    "initializers.y_column.ms": "ms",
    "initializers.restricted_ybar.ms": "ms",
    **{f"initializers.init_ms.{m}": "ms" for m in pipeline.METHODS},
    "linalg.top_eigenvector.ms": "ms",
    "linalg.top_eigenvector.power_steps": "1/call",
    "linalg.top_eigenvector.unconverged": "1/op",
    "linalg.restricted_least_squares.calls": "1/op",
    "linalg.restricted_least_squares.ms": "ms",
    "linalg.restricted_least_squares.ridge_fallbacks": "1/op",
    "refine.htp_run.ms": "ms",
    "refine.htp_step.calls": "1/op",
    "refine.htp_step.ms": "ms",
    "refine.htp_cap_ratio": "ratio",
    "refine.htp_repeat_ratio": "ratio",
    "pipeline.init_ms": "ms",
    "pipeline.refine_ms": "ms",
    "pipeline.gradient_residual.calls": "1/op",
    "pipeline.gradient_residual.ms": "ms",
    "pipeline.restart_converged_ratio": "ratio",
    "harness.self_ms": "ms",
    "instance_io.save_ms": "ms",
    "instance_io.load_ms": "ms",
    "instance_io.mb_per_s": "MB/s",
    "cli.self_ms": "ms",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
}


def layer_metrics(workload: tuple[Tracer, int],
                  donors: list[tuple[str, Tracer, int]]) -> tuple[dict, dict]:
    """Per-layer values of the measured pass. A layer it never reaches
    takes its values from the first donor pass (name, tracer, ops) that
    does, and stays None if none does.

    Returns the values and, per donor name, the metric names it filled.
    """
    values = _layer_values(*workload)
    sources = defaultdict(set)
    for donor, tracer, ops in donors:
        for name, value in _layer_values(tracer, ops).items():
            if values[name] is None and value is not None:
                values[name] = value
                sources[donor].add(name)
    return values, dict(sources)
