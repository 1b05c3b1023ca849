"""Walk through one exact recovery: initialize, refine, inspect residuals.

Shows the pieces the two-stage solver is made of: the truncated-power
initializer gets within the refinement basin, then hard thresholding
pursuit identifies the support and snaps to the exact solution in a
handful of iterations.
"""

import numpy as np

import sparsepr as sp

n, s, m = 500, 15, 600
rng = sp.trial_rng(21)
x = sp.sample_signal(n, s, rng)
e = sp.measure(x, m, rng)
xd = x.to_dense()

est = sp.tp_init(e, s)
print(f"init: dist to truth {sp.relative_error(est.xhat, xd):.3f} "
      f"after {est.iterations_run} products with Ybar")

result = sp.htp_run(e, est.xhat, s)
print(f"refinement: {result.iterations} iterations, "
      f"converged={result.converged}")
print("relative residual per iteration:")
for k, r in enumerate(result.residual_history, start=1):
    print(f"  iter {k:2d}: {r:.3e}")

err = sp.relative_error(result.x, xd)
print(f"\nfinal relative error: {err:.2e} "
      f"({'exact recovery' if err <= 1e-3 else 'failed'})")
recovered = sp.SparseSignal.from_dense(np.where(np.abs(result.x) > 0,
                                                result.x, 0.0))
print(f"recovered support matches truth: "
      f"{np.array_equal(recovered.support, x.support)}")
