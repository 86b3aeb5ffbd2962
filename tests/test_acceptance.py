"""Acceptance gate: one test per stated criterion, at its stated tolerance.

Each test prints a single ``[C<k>] PASS/FAIL`` line (visible with ``-s``;
the pytest result line carries the same verdict).  All randomness is
counter-based and fully determined by the seeds hard-coded here, so every
tolerance check below is reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

import demigronwall as dg
from demigronwall.cli import main as cli_main
from demigronwall.rng import uniform_matrix


def _finish(name, started, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[{name}] {status} ({time.perf_counter() - started:.1f}s)")
    assert not failures, f"{name}: {failures[:10]}"


# ---------------------------------------------------------------------------
# C1: exact two-point reproduction (tolerance 0)
# ---------------------------------------------------------------------------

def test_c1_two_point_exact_reproduction():
    t0 = time.perf_counter()
    failures = []
    p_grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    lo_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    gap_grid = [0.0, 0.5, 1.0]
    for p in p_grid:
        for lo in lo_grid:
            for gap in gap_grid:
                hi = lo + gap
                out = dg.two_point_stats(p, lo, hi)
                want = -p * lo + (1.0 - p) * hi
                if out["demi_expectation"] != want:
                    failures.append((p, lo, hi, "expectation"))
                if not out["demi_expectation"] >= 0.0:
                    failures.append((p, lo, hi, "negative"))
                if out["cond_mean_given_minus1"] != -2.0 or not out["cond_mean_given_minus1"] < -1.0:
                    failures.append((p, lo, hi, "conditional"))
    _finish("C1 two-point exact", t0, failures)


# ---------------------------------------------------------------------------
# C2: maximal-inequality Monte Carlo across generators
# ---------------------------------------------------------------------------

def test_c2_maximal_inequality_monte_carlo():
    t0 = time.perf_counter()
    failures = []
    generators = [
        dg.GeneratorSpec.random_walk("pm1"),
        dg.GeneratorSpec.random_walk("gauss"),
        dg.GeneratorSpec.associated(0.5),
        dg.GeneratorSpec.associated(1.0),
        dg.GeneratorSpec.two_point(0.5),
    ]
    seeds = [1000 + k for k in range(20)]
    m = 100_000
    p_grid = (0.25, 0.5, 0.75)
    exact_lhs, exact_rhs = [], []
    for spec in generators:
        for seed in seeds:
            batch = dg.generate_paths(spec, 50, m, seed)
            for n in (2, 10, 50):
                report = dg.verify_maximal_inequality(batch, p_grid, n)
                for row in report.rows:
                    if row["verdict"] != "pass":
                        failures.append((spec.label, seed, n, row["p"]))
            if spec.kind == "random_walk" and spec.increment == "pm1":
                q, q_se = dg.neg_inf_mean(batch, 2)
                rhs_se = 0.5 * q ** -0.5 * q_se / 0.5
                exact_lhs.append(dg.sup_moment(batch, 0.5, 2))
                exact_rhs.append((dg.maximal_moment_bound(q, 0.5), rhs_se))
    # enumerated two-step walk: sups {0,1,1,2}, infs {0,0,-1,-2}
    lhs_want = (1.0 + math.sqrt(2.0)) / 4.0            # 0.603553...
    rhs_want = math.sqrt(0.75) / 0.5                   # 1.732051...
    lhs_est = np.mean([v for v, _ in exact_lhs])
    lhs_se = math.sqrt(np.mean([s ** 2 for _, s in exact_lhs]) / len(exact_lhs))
    rhs_est = np.mean([v for v, _ in exact_rhs])
    rhs_se = math.sqrt(np.mean([s ** 2 for _, s in exact_rhs]) / len(exact_rhs))
    if abs(lhs_est - lhs_want) > 3.0 * lhs_se:
        failures.append(("exact-cell-lhs", lhs_est, lhs_want))
    if abs(rhs_est - rhs_want) > 3.0 * rhs_se:
        failures.append(("exact-cell-rhs", rhs_est, rhs_want))
    _finish("C2 maximal inequality MC", t0, failures)


# ---------------------------------------------------------------------------
# C3: tail-integral constant (quadrature oracle, 1e-6 relative)
# ---------------------------------------------------------------------------

def test_c3_tail_integral_constant():
    t0 = time.perf_counter()
    failures = []
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for q_val in (0.1, 0.5, 1.0, 2.0, 10.0):
            kink = q_val ** p
            head, _ = quad(lambda x: min(q_val * x ** (-1.0 / p), 1.0), 0.0, kink)
            tail, _ = quad(lambda x: q_val * x ** (-1.0 / p), kink, np.inf)
            closed = dg.maximal_moment_bound(q_val, p)
            if abs(head + tail - closed) > 1e-6 * closed:
                failures.append((p, q_val, head + tail, closed))
    _finish("C3 tail-integral constant", t0, failures)


# ---------------------------------------------------------------------------
# C4: Gronwall bound on reverse-constructed instances (50 seeds)
# ---------------------------------------------------------------------------

def test_c4_gronwall_fifty_seed_suite():
    t0 = time.perf_counter()
    failures = []
    m, n_steps = 10_000, 16
    spec = dg.GeneratorSpec.bounded_associated(1.0, 1.0)
    det_growth = 0.3 * np.ones(n_steps)
    pairs = [pair for p in (0.25, 0.45) for pair in (dg.HolderPair.deterministic(p), dg.HolderPair(2.0, 2.0, p))]
    n_list = [1, 8, 16]
    cells = [(pair, n) for pair in pairs for n in n_list]  # the harness's row order
    for k in range(50):
        seed = 1100 + k
        s_batch = dg.generate_paths(spec, n_steps, m, seed)
        x_batch = dg.TrajectoryBatch(2.0 * uniform_matrix(seed + 7_000_003, m, n_steps + 1))
        rand_growth = dg.TrajectoryBatch(0.3 * uniform_matrix(seed + 9_000_017, m, n_steps + 1))
        for growth in (det_growth, rand_growth):
            instance = dg.build_instance(x_batch, s_batch, growth)
            if instance.hypothesis_gap().min() < -1e-12 * 2.0:
                failures.append((seed, "hypothesis"))
            report = dg.verify_gronwall(instance, pairs, n_list)
            if len(report.rows) != len(cells):
                failures.append((seed, "row count", len(report.rows)))
            for (pair, n), row in zip(cells, report.rows):
                p = pair.p
                if (row["n"], row["p"], row["mu"]) != (n, p, pair.mu):
                    failures.append((seed, p, pair.mu, n, "row order"))
                if row["verdict"] != "pass":
                    failures.append((seed, p, pair.mu, n, row["margin"]))
                if growth is det_growth and math.isinf(pair.mu):
                    # deterministic display must equal the general
                    # form at (mu, nu) = (inf, 1) bitwise
                    f_mean = float(instance.F.values[:, : n + 1].max(axis=1).mean())
                    by_hand = (
                        (1.0 + 1.0 / (1.0 - p))
                        * float(np.prod(1.0 + det_growth[:n])) ** p
                        * f_mean ** p
                    )
                    if row["rhs"] != by_hand:
                        failures.append((seed, p, n, "bitwise"))
    _finish("C4 Gronwall 50-seed suite", t0, failures)


# ---------------------------------------------------------------------------
# C5: fractional machinery oracles
# ---------------------------------------------------------------------------

def test_c5_fractional_oracles():
    t0 = time.perf_counter()
    failures = []
    betas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for beta in betas:
        if dg.l1_a(beta, 0) != 1.0:
            failures.append((beta, "a0"))
        for n in range(1, 201):
            if abs(dg.l1_b_row(beta, n).sum()) > 1e-12:
                failures.append((beta, n, "b-row-sum"))
    rand = 4.0 * uniform_matrix(424242, 1000, 13) - 2.0
    for i in range(1000):
        beta = betas[i % len(betas)]
        a_form, b_form = dg.caputo_l1_forms(rand[i], beta, 0.1, 12)
        if abs(a_form - b_form) > 1e-12 * max(1.0, abs(a_form), abs(b_form)):
            failures.append((i, "two-form"))
    for z in np.arange(0.0, 20.0 + 1e-9, 0.25):
        want = math.exp(z)
        if abs(dg.mittag_leffler(1.0, float(z)) - want) > 1e-10 * want:
            failures.append((float(z), "exp"))
    half_oracle = math.e * erfc(-1.0)  # E_{1/2}(1) = e * erfc(-1) ~ 5.008980
    if abs(dg.mittag_leffler(0.5, 1.0) - half_oracle) > 1e-6:
        failures.append(("E_half(1)", dg.mittag_leffler(0.5, 1.0), half_oracle))
    _finish("C5 fractional oracles", t0, failures)


# ---------------------------------------------------------------------------
# C6: fractional Gronwall harness (20 seeds)
# ---------------------------------------------------------------------------

def test_c6_fractional_gronwall_harness():
    t0 = time.perf_counter()
    failures = []
    m, n_steps = 10_000, 16
    models = [
        dg.FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=n_steps,
                           lambda1=0.5, lambda2=0.5),
        dg.FractionalModel(betas=(0.3, 0.7), q=(1.0, 2.0), tau=0.1, n_steps=n_steps,
                           lambda1=0.5, lambda2=0.5),
    ]
    cases = [
        dg.HolderPair.deterministic(0.25),
        dg.HolderPair.deterministic(0.5),
        dg.HolderPair(2.0, 2.0, 0.25),
    ]
    n_list = [8, 16]
    cells = [(pair, n) for pair in cases for n in n_list]  # the harness's row order
    for k in range(20):
        seed = 1200 + k
        x_inc = dg.associated_increment_matrix(1.0, n_steps + 1, m, seed + 5_000_011)
        x_batch = dg.TrajectoryBatch(x_inc ** 2, label="squared-associated")
        y_vals = dg.associated_increment_matrix(1.0, n_steps, m, seed + 6_000_029)
        for model in models:
            report = dg.verify_fractional_gronwall(model, x_batch, y_vals, cases, n_list)
            if len(report.rows) != len(cells):
                failures.append((seed, model.betas, "row count", len(report.rows)))
            for (pair, n), row in zip(cells, report.rows):
                if (row["n"], row["p"], row["mu"]) != (n, pair.p, pair.mu):
                    failures.append((seed, model.betas, pair.mu, pair.p, n, "row order"))
                if row["verdict"] != "pass":
                    failures.append((seed, model.betas, pair.mu, pair.p, n))
            if len(report.checks) != len(cells) or not all(report.checks.values()):
                failures.append((seed, model.betas, "hypothesis"))
    _finish("C6 fractional Gronwall harness", t0, failures)


# ---------------------------------------------------------------------------
# C7: backward Euler-Maruyama correctness oracles
# ---------------------------------------------------------------------------

def test_c7_bem_oracles():
    t0 = time.perf_counter()
    failures = []
    # implicit Euler on dX = -X dt from 1: Y^j = (1 + h kappa)^{-j}
    lin = dg.ou_model(1.0, 0.0)
    cfg = dg.BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0], newton_tol=1e-12)
    batch = dg.simulate_bem(lin, cfg, seed=42, n_paths=8)
    ref = (1.0 + 0.1) ** -np.arange(cfg.n_steps + 1)
    if np.abs(batch.paths[:, :, 0] - ref[None, :]).max() > 1e-10:
        failures.append("linear-closed-form")
    if batch.residual_norms.max() > 1e-10:
        failures.append("linear-residuals")
    # pure Brownian sums: Var(Y^j) = j h
    noise = dg.SdeModel(
        d=1, m=1,
        drift=lambda y: np.zeros_like(y),
        diffusion=lambda y: np.ones((y.shape[0], 1, 1)),
        L=0.5,
    )
    cfg2 = dg.BemConfig(h=0.05, t_horizon=1.0, h0=0.5, x0=[0.0], newton_tol=1e-10)
    batch2 = dg.simulate_bem(noise, cfg2, seed=43, n_paths=100_000)
    m = batch2.n_paths
    for j in range(1, cfg2.n_steps + 1):
        var = batch2.paths[:, j, 0].var(ddof=1)
        want = j * cfg2.h
        if abs(var - want) > 3.0 * want * math.sqrt(2.0 / (m - 1)):
            failures.append(("variance", j, var, want))
    if batch2.residual_norms.max() > 1e-10:
        failures.append("noise-residuals")
    _finish("C7 BEM oracles", t0, failures)


# ---------------------------------------------------------------------------
# C8: a-priori moment bound for the mean-reverting model
# ---------------------------------------------------------------------------

def test_c8_apriori_bound_ou_grid():
    t0 = time.perf_counter()
    failures = []
    model = dg.ou_model(1.0, 1.0)  # L = sigma^2/2 = 0.5
    probe = dg.coercivity_probe(model, [-50.0], [50.0], 1024, seed=2)
    if not probe["passed"]:
        failures.append("coercivity")
    cfgs = [
        dg.BemConfig(h=h, t_horizon=1.0, h0=0.25, x0=[1.0], newton_tol=1e-10)
        for h in (0.02, 0.05, 0.1, 0.2)
    ]
    report = dg.verify_apriori_bound(model, cfgs, [0.25, 0.5], 100_000, seed=2020)
    for row in report.rows:
        if row["verdict"] != "pass":
            failures.append(("row", row["h"], row["p"], row["margin"]))
    for p in (0.25, 0.5):
        if len({row["bound"] for row in report.rows if row["p"] == p}) != 1:
            failures.append(("bound-not-h-free", p))
    for name, ok in report.checks.items():
        if not ok:
            failures.append(("check", name))
    _finish("C8 a-priori bound grid", t0, failures)


# ---------------------------------------------------------------------------
# C9: byte-identical determinism of the full suite
# ---------------------------------------------------------------------------

def test_c9_full_suite_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []
    commands = ("demi-check", "gronwall-lemma", "gronwall-theorem", "fractional", "bem")
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        code = cli_main(["all", "--paths", "4000", "--seed", "7", "--quiet", "--out", str(out)])
        if code != 0:
            failures.append(("exit", str(out), code))
    for cmd in commands:
        first = (outs[0] / cmd / "cases.csv").read_bytes()
        second = (outs[1] / cmd / "cases.csv").read_bytes()
        if first != second:
            failures.append(("nondeterministic", cmd))
    hashes = [
        json.loads((out / "report.json").read_text())["body_sha256"] for out in outs
    ]
    if hashes[0] != hashes[1]:
        failures.append("aggregate-hash")
    _finish("C9 determinism", t0, failures)
