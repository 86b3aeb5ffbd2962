"""
L1-Caputo differences and the fractional Gronwall bound
=======================================================

The L1 scheme discretizes a Caputo derivative of order beta in (0, 1)
with kernel weights a_j = (j+1)^(1-beta) - j^(1-beta).  Rewriting the
weighted increment sum over histories gives b-coefficients whose rows sum
to zero; the two forms must agree to machine precision.  A multi-term
operator with a mean-zero associated perturbation then admits a Gronwall
bound whose growth factor is a Mittag-Leffler value.
"""

import math

import numpy as np
from scipy.special import erfc

from demigronwall import (
    FractionalModel,
    HolderPair,
    TrajectoryBatch,
    associated_increment_matrix,
    caputo_l1_forms,
    l1_a,
    l1_b_row,
    mittag_leffler,
    verify_fractional_gronwall,
)

print("L1 coefficient table, beta = 0.5, first steps")
a = l1_a(0.5, np.arange(7))
b = l1_b_row(0.5, 6)
print(f"{'j':>2} {'a_j':>10} {'b_j':>10}")
for j in range(7):
    print(f"{j:2d} {a[j]:10.6f} {b[j]:10.6f}")
print(f"b-row sum: {b.sum():+.2e} (telescopes to zero)")
print()

f_seq = np.array([0.0, 0.4, 1.1, 0.9, 1.6, 2.0, 1.7])
delta_form, direct_form = caputo_l1_forms(f_seq, 0.5, 0.25, 6)
print(f"operator at the last step: delta form {delta_form:.12f}")
print(f"                          direct form {direct_form:.12f}")
print()

print("Mittag-Leffler sanity: E_1 is the exponential, E_1/2 has an erfc form")
for z in (0.5, 1.0, 2.0):
    series = mittag_leffler(0.5, z)
    identity = math.exp(z * z) * erfc(-z)
    print(f"  E_1/2({z:.1f}) = {series:.8f}   exp(z^2) erfc(-z) = {identity:.8f}")
print()

print("fractional Gronwall bound, two-order model, 10000 paths")
model = FractionalModel(betas=(0.3, 0.7), q=(1.0, 2.0), tau=0.1, n_steps=16,
                        lambda1=0.5, lambda2=0.5)
m = 10_000
x_inc = associated_increment_matrix(1.0, model.n_steps + 1, m, seed=21)
x_batch = TrajectoryBatch(x_inc ** 2, label="squared-associated")
y_vals = associated_increment_matrix(1.0, model.n_steps, m, seed=22)

print(f"{'n':>3} {'p':>5} {'lhs':>8} {'rhs':>10} {'verdict':>8}")
pairs = [HolderPair.deterministic(p) for p in (0.25, 0.5)]
report = verify_fractional_gronwall(model, x_batch, y_vals, pairs, [4, 8, 16])
for row in sorted(report.rows, key=lambda row: row["n"]):  # pair-major rows, printed by n
    print(f"{row['n']:3d} {row['p']:5.2f} {row['lhs']:8.4f} {row['rhs']:10.4f} {row['verdict']:>8}")

print()
print("the Mittag-Leffler growth factor makes the bound generous, which is")
print("the point: it holds uniformly over the associated perturbation.")
