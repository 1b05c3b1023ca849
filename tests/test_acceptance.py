"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to watch the lines as they come;
the two Monte Carlo experiments (criteria 4 and 5) dominate the runtime
(a few minutes at two workers).

The experiment grid seed is 0, committed before the first full run of
this suite. At desk scale (100 trials per cell) a success rate near 0.5
has a binomial standard error of 0.05, so criterion 4's ordering slacks
(0.05 and 0.10) are one and two standard errors.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import sparsepr as sp

GRID_SEED = 0
WORKERS = 2


def report(number, name, ok, detail=""):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def experiment1_rates():
    """Criterion 4 protocol: n=1000, s=25, 100 trials per m, paired data."""
    grid = sp.ExperimentGrid(
        n=1000, s_list=(25,), m_list=tuple(range(100, 1501, 200)),
        trials=100, seed=GRID_SEED,
        methods=("spectral", "modified_spectral", "tp"))
    t0 = time.perf_counter()
    result = sp.run_grid(grid, parallelism=WORKERS, record_timing=False)
    elapsed = time.perf_counter() - t0
    print(f"\n[experiment 1] n=1000 s=25, 100 trials x 8 m x 3 methods "
          f"in {elapsed:.0f}s at {WORKERS} workers")
    print(sp.summary_table(result.cells))
    return {(c.method, c.m): c.success_rate for c in result.cells}


def test_criterion_1_truncated_moments():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sparsepr", "moments", "--l", "0.5",
         "--u", "10"], capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    values = dict(line.replace(" ", "").split("=")
                  for line in proc.stdout.strip().splitlines())
    ok = (proc.returncode == 0
          and abs(float(values["alpha"]) - 0.969) <= 1e-3
          and abs(float(values["beta"]) - 2.995) <= 1e-3
          and elapsed < 1.0)
    report(1, "moments CLI prints the worked constants", ok,
           f"alpha={values['alpha']}, beta={values['beta']}, "
           f"{elapsed:.2f}s")


def test_criterion_2_expectation_identities(dense_ybar):
    t0 = time.perf_counter()
    rng = sp.trial_rng(sp.derive_trial_seed(GRID_SEED, 8, 3, 200_000, 0))
    x = sp.sample_signal(8, 3, rng)
    e = sp.measure(x, 200_000, rng)
    xd = x.to_dense()
    tol = 0.05 * x.norm**2

    diag_err = float(np.max(np.abs(
        sp.y_diag(e) - (x.norm**2 + 2 * xd**2))))

    alpha = sp.truncated_gaussian_moment(2, 0.5, 10.0)
    beta = sp.truncated_gaussian_moment(4, 0.5, 10.0)
    dense = dense_ybar(e.A, e.y, x.norm, 0.5, 10.0)
    expected = (beta - alpha) * np.outer(xd, xd) + \
        alpha * x.norm**2 * np.eye(8)
    matrix_err = float(np.max(np.abs(dense - expected)))
    elapsed = time.perf_counter() - t0

    ok = diag_err <= tol and matrix_err <= tol and elapsed < 30.0
    report(2, "Monte Carlo expectation identities", ok,
           f"diag err {diag_err:.4f}, matrix err {matrix_err:.4f}, "
           f"tol {tol:.4f}, {elapsed:.1f}s")


def test_criterion_3_matrix_free_against_dense(dense_ybar):
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(10, 101))
        s = int(rng.integers(1, min(n, 4)))
        g = sp.trial_rng(sp.derive_trial_seed(GRID_SEED, n, s, m, k))
        x = sp.sample_signal(n, s, g)
        e = sp.measure(x, m, g)
        dense = dense_ybar(e.A, e.y, e.nu, 0.5, 10.0)
        w = g.standard_normal(n)
        worst = max(worst, float(np.max(np.abs(
            sp.ybar_matvec(sp.ybar_operator(e), w) - dense @ w))))
        S = np.sort(g.choice(n, size=min(3, n), replace=False))
        block = sp.restricted_ybar(e, S)
        worst = max(worst, float(np.max(np.abs(
            block - dense[np.ix_(S, S)]))))
    ok = worst <= 1e-12
    report(3, "matrix-free products match dense assembly", ok,
           f"worst deviation {worst:.2e}")


def test_criterion_4_desk_scale_experiment(experiment1_rates):
    # ordering is asserted TP-centric (TP within 0.05 of modified spectral
    # and 0.10 of spectral at every m, matching the slack structure); the
    # baseline-vs-baseline margin is reported but not asserted because the
    # anchored rule's single-anchor failure tail sits below plain spectral
    # at large m: when argmax Y_jj falls off the support, the column
    # Y e_j0 carries no signal in expectation and the start is noise,
    # a single point of failure the diagonal rule does not have.
    rates = experiment1_rates
    ms = sorted({m for _, m in rates})

    saturation = rates[("tp", 1500)]
    ok_a = saturation >= 0.90

    ordering = []
    for m in ms:
        tp = rates[("tp", m)]
        mod = rates[("modified_spectral", m)]
        spec = rates[("spectral", m)]
        ordering.append(tp >= mod - 0.05 and tp >= spec - 0.10)
        print(f"[criterion 4] m={m}: tp={tp:.2f} modspec={mod:.2f} "
              f"spectral={spec:.2f} (modspec-spectral margin "
              f"{mod - spec:+.2f})")
    ok_b = all(ordering)

    detail = "tp@1500=%.2f; ordering %s" % (
        saturation, ",".join("ok" if v else "BAD" for v in ordering))
    report(4, "desk-scale success-rate experiment", ok_a and ok_b, detail)


def test_criterion_5_multiple_restarts_help():
    n, s = 1000, 35
    ladder = (500, 600, 700, 800, 900, 1000, 1100)
    sweep = sp.ExperimentGrid(n=n, s_list=(s,), m_list=ladder, trials=30,
                              seed=GRID_SEED, methods=("tp",))
    res = sp.run_grid(sweep, parallelism=WORKERS, record_timing=False)
    rates = {c.m: c.success_rate for c in res.cells}
    in_band = [m for m in ladder if 0.3 <= rates[m] <= 0.7]
    pool = in_band if in_band else list(ladder)
    marginal_m = min(pool, key=lambda m: (abs(rates[m] - 0.5), m))
    print(f"[criterion 5] sweep rates {rates}; marginal m = {marginal_m}")

    paired = sp.ExperimentGrid(n=n, s_list=(s,), m_list=(marginal_m,),
                               trials=100, seed=GRID_SEED,
                               methods=("tp", "tp_mr"))
    res = sp.run_grid(paired, parallelism=WORKERS, record_timing=False)
    rate = {c.method: c.success_rate for c in res.cells}
    gain = rate["tp_mr"] - rate["tp"]
    ok = gain >= 0.10
    report(5, "multiple restarts lift success at the margin", ok,
           f"m={marginal_m}: tp={rate['tp']:.2f}, tp_mr={rate['tp_mr']:.2f}")


def test_criterion_6_htp_local_convergence():
    n, s, m = 100, 5, 300
    hits = 0
    max_iters = 0
    for t in range(100):
        rng = sp.trial_rng(sp.derive_trial_seed(GRID_SEED, n, s, m, t))
        x = sp.sample_signal(n, s, rng)
        e = sp.measure(x, m, rng)
        xd = x.to_dense()
        bump = np.zeros(n)
        bump[x.support] = rng.standard_normal(s)
        bump *= 0.1 * x.norm / np.linalg.norm(bump)
        res = sp.htp_run(e, xd + bump, s)
        good = (sp.relative_error(res.x, xd) <= 1e-6
                and res.iterations <= 50)
        hits += good
        max_iters = max(max_iters, res.iterations)
    ok = hits == 100
    report(6, "HTP exact recovery from close starts", ok,
           f"{hits}/100, max iterations {max_iters}")


def test_criterion_7_statistical_concentration_checks():
    n, s, m = 64, 8, 2000
    nu_failures = 0
    for t in range(100):
        rng = sp.trial_rng(sp.derive_trial_seed(GRID_SEED, n, s, m, t))
        x = sp.sample_signal(n, s, rng)
        e = sp.measure(x, m, rng)
        bound = 3 * math.sqrt(math.log(m * n) / m) * x.norm**2
        nu_failures += abs(e.nu**2 - x.norm**2) > bound

    m2 = 3000
    anchor_hits = 0
    for t in range(100):
        rng = sp.trial_rng(sp.derive_trial_seed(GRID_SEED, n, s, m2, t))
        x = sp.sample_signal(n, s, rng)
        e = sp.measure(x, m2, rng)
        j0 = sp.diagonal_anchors(sp.y_diag(e), 1)[0]
        xd = x.to_dense()
        anchor_hits += abs(xd[j0]) >= 0.5 * np.max(np.abs(xd))

    ok = nu_failures <= 5 and anchor_hits >= 90
    report(7, "norm-estimate concentration and anchor quality", ok,
           f"nu failures {nu_failures}/100, anchor hits {anchor_hits}/100")


def test_criterion_8_property_suites():
    checks = {}

    rng = np.random.default_rng(808)
    triples = rng.standard_normal((10_000, 3, 6))
    checks["triangle"] = all(
        sp.dist(u1, u2) <= sp.dist(u1, u3) + sp.dist(u2, u3) + 1e-12
        for u1, u2, u3 in triples)

    idem = True
    for _ in range(200):
        w = rng.standard_normal(15)
        k = int(rng.integers(0, 16))
        once = sp.truncate(w, k)
        idem &= np.array_equal(sp.truncate(once, k), once)
    checks["truncate_idempotent"] = idem
    checks["truncate_tie_rule"] = np.allclose(
        sp.truncate([2.0, -2.0, 1.0], 1), [2.0, 0.0, 0.0])

    init_ok = True
    for t in range(5):
        g = sp.trial_rng(sp.derive_trial_seed(GRID_SEED, 80, 6, 400, t))
        x = sp.sample_signal(80, 6, g)
        e = sp.measure(x, 400, g)
        for init in (sp.spectral_init, sp.modified_spectral_init,
                     sp.tp_init):
            est = init(e, 6)
            init_ok &= np.count_nonzero(est.xhat) <= 6
            init_ok &= abs(np.linalg.norm(est.xhat) - e.nu) <= 1e-12 * e.nu
    checks["init_invariants"] = init_ok

    g = sp.trial_rng(881)
    x = sp.sample_signal(50, 5, g)
    e = sp.measure(x, 250, g)
    xd = x.to_dense()
    plus, _ = sp.htp_step(e, xd, 5)
    minus, _ = sp.htp_step(e, -xd, 5)
    checks["htp_fixed_points"] = (
        np.allclose(plus, xd, atol=1e-10)
        and np.allclose(minus, -xd, atol=1e-10))

    grid = sp.ExperimentGrid(n=48, s_list=(4,), m_list=(96, 192), trials=4,
                             seed=GRID_SEED, methods=("tp", "tp_mr"),
                             configs=sp.SolverConfigs(restarts=3))
    serial = sp.run_grid(grid, parallelism=1, record_timing=False)
    pooled = sp.run_grid(grid, parallelism=2, record_timing=False)
    checks["grid_determinism"] = (
        sp.emit_csv(serial.records) == sp.emit_csv(pooled.records))

    ok = all(checks.values())
    report(8, "property suites", ok,
           ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_qualitative_stable_sparsity_trend_report():
    """Reported, not pass/fail: spiky signals (low stable sparsity) should
    succeed at smaller m than flat signals of equal nominal sparsity."""
    n, s = 300, 15
    results = {}
    for shape_id, shape in enumerate(("spiky", "flat")):
        for m in (120, 200):
            wins = 0
            for t in range(30):
                rng = sp.trial_rng(sp.derive_trial_seed(GRID_SEED, n, s,
                                                        m + shape_id, t))
                support = np.sort(rng.choice(n, size=s, replace=False))
                if shape == "spiky":
                    values = np.full(s, 0.05)
                    values[0] = 1.0
                    signs = rng.choice([-1.0, 1.0], size=s)
                    values = values * signs
                else:
                    values = rng.choice([-1.0, 1.0], size=s)
                x = sp.SparseSignal(n=n, support=support, values=values)
                e = sp.measure(x, m, rng)
                rep = sp.solve_two_stage(e, s, "tp", truth=x.to_dense())
                wins += rep.rel_error <= 1e-3
            results[(shape, m)] = wins
    print("\n[trend report] success counts over 30 trials "
          "(spiky stable sparsity ~1 vs flat ~s):")
    for (shape, m), wins in sorted(results.items()):
        print(f"  {shape:>5} signals, m={m}: {wins}/30")
