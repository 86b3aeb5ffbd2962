"""
Maximal moments and the discrete stochastic Gronwall bound
==========================================================

Two inequalities drive everything in this package.  For a demimartingale
S with S_0 = 0 and p in (0, 1),

    E[(sup_k S_k)^p]  <=  (E[-inf_k S_k])^p / (1 - p),

and for nonnegative X, F, G with X_n <= F_n + S_n + sum_{k<n} G_k X_k,

    E[sup_k X_k^p]  <=  prefactor(mu, nu, p) * ||prod (1+G_k)^p||_mu
                        * (E[sup_k F_k])^p.

Both sides of each inequality are estimated by Monte Carlo below; the
right side never depends on the demimartingale itself.
"""

import numpy as np

from demigronwall import (
    GeneratorSpec,
    HolderPair,
    TrajectoryBatch,
    build_instance,
    generate_paths,
    verify_gronwall,
    verify_maximal_inequality,
)
from demigronwall.rng import uniform_matrix

m, n = 50_000, 24

print("maximal inequality, three generators, p in {0.25, 0.5, 0.75}")
print(f"{'generator':<38} {'p':>5} {'lhs':>8} {'rhs':>8} {'margin':>8}")
for spec in (
    GeneratorSpec.random_walk("pm1"),
    GeneratorSpec.random_walk("gauss"),
    GeneratorSpec.associated(1.0),
):
    batch = generate_paths(spec, n, m, seed=5)
    report = verify_maximal_inequality(batch, [0.25, 0.5, 0.75], n)
    for row in report.rows:
        print(f"{spec.label:<38} {row['p']:5.2f} {row['lhs']:8.4f} "
              f"{row['rhs']:8.4f} {row['margin']:8.4f}")

print()
print("Gronwall bound on a reverse-constructed instance")
print("(bounded associated S, uniform X, growth weights G = 0.3)")

s_batch = generate_paths(GeneratorSpec.bounded_associated(1.0, 1.0), n, m, seed=6)
x_batch = TrajectoryBatch(2.0 * uniform_matrix(600, m, n + 1), label="uniform-X")
instance = build_instance(x_batch, s_batch, 0.3 * np.ones(n))
x = x_batch.values
history = np.hstack([np.zeros((m, 1)), np.cumsum(0.3 * x[:, :n], axis=1)])  # sum_{k<n} G_k X_k
slack = instance.F.values + s_batch.values + history - x
print(f"hypothesis slack on the worst path: {slack.min():.2e} (>= 0 up to roundoff)")

print(f"{'p':>5} {'mu':>5} {'nu':>4} {'lhs':>8} {'rhs':>10} {'verdict':>8}")
pairs = [q for p in (0.25, 0.45) for q in (HolderPair.deterministic(p), HolderPair(2.0, 2.0, p))]
for pair, row in zip(pairs, verify_gronwall(instance, pairs, [n]).rows):
    print(f"{pair.p:5.2f} {pair.mu:5.0f} {pair.nu:4.0f} {row['lhs']:8.4f} "
          f"{row['rhs']:10.4f} {row['verdict']:>8}")

print()
print("the right side is loose by design: it holds for every demimartingale")
print("perturbation simultaneously.")
