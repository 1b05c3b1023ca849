"""Run one workload of the sparsepr benchmark and print its metrics.

    python3 perfbench/run.py --workload grid_recovered --seed 1 \\
        --seconds 34 --trace 0

Run from anywhere inside a checkout; sparsepr is imported from the
checkout's ``src``. ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run (spans go to
``.perfbench-out/``). Human-readable lines come first, each starting with
``#``; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

import os

# One process drives the load on one BLAS thread; this must happen before
# numpy is imported. SPARSEPR_THREADS is ignored: run_grid gets 1 worker.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("SPARSEPR_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sparsepr" / "__init__.py").is_file():
        print(f"error: no sparsepr sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    print("# env " + json.dumps(bench.environment(args.seed)))
    print(f"# workload {w.name}: n={w.n} s={w.s} m={w.m} "
          f"methods={','.join(w.methods)} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.trace:
        result, lines = bench.per_layer(w, args.seed, ROOT,
                                        ROOT / ".perfbench-out")
    else:
        result, lines = bench.end_to_end(w, args.seed, args.seconds, ROOT)
    for line in lines:
        print(f"# {line}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
