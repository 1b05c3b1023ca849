"""Compare the three initializers on one sparse phase retrieval instance.

Draws an s-sparse signal, measures it with Gaussian sensing vectors, and
prints how close each initializer lands (sign-invariant relative
distance), then how the full two-stage solver fares from each start.
"""

import numpy as np

import sparsepr as sp

n, s, m = 1000, 25, 900
rng = sp.trial_rng(7)
x = sp.sample_signal(n, s, rng)
e = sp.measure(x, m, rng)
xd = x.to_dense()

print(f"instance: n={n}, s={s}, m={m}, stable sparsity "
      f"{x.stable_sparsity:.1f}, ||x|| = {x.norm:.3f}, nu = {e.nu:.3f}\n")

print(f"{'method':<20} {'init dist':>10} {'final rel err':>14} "
      f"{'htp iters':>10}")
for method in ("spectral", "modified_spectral", "tp"):
    rep = sp.solve_two_stage(e, s, method, truth=xd)
    print(f"{method:<20} {rep.init_dist:>10.3f} {rep.rel_error:>14.2e} "
          f"{rep.iterations:>10}")

est = sp.tp_init(e, s)
overlap = np.intersect1d(est.support, x.support).size
print(f"\ntruncated-power support: {overlap}/{s} true indices, anchor "
      f"j0={est.j0} ({'on' if est.j0 in x.support else 'off'} support), "
      f"{est.iterations_run} products with Ybar")
