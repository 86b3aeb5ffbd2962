"""
Backward Euler-Maruyama and its step-size-free moment bound
===========================================================

The drift-implicit scheme Y^{j+1} = Y^j + h f(Y^{j+1}) + g(Y^j) dW is
unconditionally usable for coercive models.  Its running supremum has an
a-priori 2p-norm bound that depends only on the model constants (L, T,
h0, x0): one number covers every step size below h0.  The script
simulates a mean-reverting model across an h-grid, compares the norm
estimates against that single bound, and re-checks the two structural
facts the bound rests on: the centered quadratic noise terms have mean
zero, and their partial sums form a demimartingale.
"""

import numpy as np

from demigronwall import (
    BemConfig,
    TestFunctionFamily,
    TrajectoryBatch,
    check_demimartingale,
    coercivity_probe,
    ou_model,
    simulate_bem,
    verify_apriori_bound,
    z_sequence,
)

model = ou_model(kappa=1.0, sigma=1.0)
probe = coercivity_probe(model, [-30.0], [30.0], 512, seed=1)
print(f"coercivity of {model.label}: L = {model.L}, "
      f"probe minimum residual {probe['min_residual']:.4f} -> "
      f"{'certified' if probe['passed'] else 'NOT certified'}")
print()

cfgs = [BemConfig(h=h, t_horizon=1.0, h0=0.25, x0=[1.0]) for h in (0.02, 0.05, 0.1, 0.2)]
report = verify_apriori_bound(model, cfgs, [0.25, 0.5], 50_000, seed=9)

print("sup-norm estimates against the single h-free bound, 50000 paths")
print(f"{'h':>5} {'p':>5} {'estimate':>9} {'stderr':>8} {'bound':>8} {'verdict':>8}")
for row in report.rows:
    print(f"{row['h']:5.2f} {row['p']:5.2f} {row['estimate']:9.4f} "
          f"{row['stderr']:8.4f} {row['bound']:8.4f} {row['verdict']:>8}")
print()
for name, ok in report.checks.items():
    print(f"side condition {name}: {'pass' if ok else 'FAIL'}")
print()

# the structural facts, spelled out on one simulated batch
cfg = cfgs[2]
batch = simulate_bem(model, cfg, seed=9, n_paths=50_000)
print(f"max Newton residual over {batch.n_paths} paths x {batch.n_steps} steps: "
      f"{batch.max_residual:.2e}")
# the batch folded each step's noise terms into their column moments and partial sums, then dropped them
worst = np.abs(batch.z_mean / batch.z_se).max()
print(f"largest |z-score| of the noise-term column means: {worst:.2f} (3.0 allowed)")
s_batch = TrajectoryBatch(z_sequence(model, batch, cfg.h0), label="z-partial-sums")
s_report = check_demimartingale(s_batch, TestFunctionFamily.default(s_batch))
print(f"demimartingale check on the partial sums: "
      f"{'pass' if s_report.overall_pass else 'FAIL'} "
      f"({len(s_report.rows)} cells)")
