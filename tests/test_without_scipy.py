"""The package's run time needs numpy only: scipy is a test dependency."""

import json
import subprocess
import sys

import sparsepr as sp

# runs in a fresh interpreter where every scipy import raises ImportError
_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
import sparsepr as sp
from sparsepr import cli, harness

for method in sp.METHODS:
    sp.run_trial(60, 3, 240, method, 0, 1)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["moments", "--l", "0.5", "--u", "10"]),
             cli.main(["solve", "--instance", sys.argv[1], "--s", "3",
                       "--method", "tpmr"])]
print(json.dumps({
    "codes": codes,
    "scipy": sorted(name for name, mod in sys.modules.items()
                    if mod is not None and name.split(".")[0] == "scipy"),
    "blas_controls": len(harness._blas_thread_controls()),
}))
"""


def test_solves_and_subcommands_load_no_scipy(tmp_path):
    rng = sp.trial_rng(5)
    x = sp.sample_signal(40, 3, rng)
    path = tmp_path / "inst.spr1"
    sp.save_instance(path, x, sp.measure(x, 160, rng))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["scipy"] == []
    if sys.platform == "linux":
        # numpy's own OpenBLAS is pinned to one thread during grids
        assert result["blas_controls"] > 0
