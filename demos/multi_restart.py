"""Multiple restarts rescuing a failed anchor.

The anchored support rule bets on j0 = argmax of the surrogate diagonal;
on unlucky draws j0 lands off the true support and the single-shot
pipeline fails. Restarting from the b largest diagonal entries, in
order until HTP converges, and keeping the candidate with the smallest
gradient-norm residual fixes most such failures. This script hunts for
an instance where plain TP fails, then shows TP-MR recovering it.
"""

import sparsepr as sp

n, s, m = 400, 20, 480

found = None
for trial in range(60):
    seed = sp.derive_trial_seed(13, n, s, m, trial)
    rng = sp.trial_rng(seed)
    x = sp.sample_signal(n, s, rng)
    e = sp.measure(x, m, rng)
    rep = sp.solve_two_stage(e, s, "tp", truth=x.to_dense())
    if rep.rel_error > 1e-3:
        found = (trial, x, e)
        break

if found is None:
    print(f"plain TP solved all 60 instances at n={n}, s={s}, m={m}; "
          "lower m to see failures")
else:
    trial, x, e = found
    xd = x.to_dense()
    print(f"trial {trial}: plain TP fails (rel err "
          f"{sp.solve_two_stage(e, s, 'tp', truth=xd).rel_error:.2f})")
    for b in (1, 5, 20):
        rep = sp.solve_multi_restart(e, s, sp.SolverConfigs(restarts=b),
                                     truth=xd)
        status = "recovered" if rep.rel_error <= 1e-3 else "failed"
        print(f"  b={b:2d}: {status}, rel err {rep.rel_error:.2e}, "
              f"restarts run {rep.restarts_run}, chosen restart "
              f"{rep.chosen_restart}, selection residual "
              f"{rep.selection_residual:.2e}")
