"""Benchmark of sparsepr: workloads, end-to-end metrics and a traced
per-layer run. The entry point is ``perfbench/run.py``; see README.md."""
