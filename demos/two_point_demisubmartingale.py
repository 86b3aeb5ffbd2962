"""
A demisubmartingale that is not a submartingale
===============================================

The two-atom sequence takes the path (0, -1, -2) with probability p and
(0, 1, 2) otherwise.  For p <= 1/2 the demisubmartingale inequality
E[(S_2 - S_1) f(S_1)] >= 0 holds for every nonnegative nondecreasing f,
yet the conditional mean E[S_2 | S_1 = -1] = -2 < -1 breaks the
submartingale property.  This script reproduces both facts exactly and
then confirms them statistically on simulated batches.
"""

from demigronwall import (
    GeneratorSpec,
    TestFunctionFamily,
    check_demimartingale,
    generate_paths,
    two_point_stats,
)

# exact computations on a small probe grid
print("exact probe expectations  E[(S_2 - S_1) f(S_1)] = -p f(-1) + (1-p) f(1)")
print(f"{'p':>5} {'f(-1)':>6} {'f(1)':>5} {'expectation':>12} {'cond mean':>10}")
for p in (0.0, 0.25, 0.5):
    for lo, hi in ((0.0, 1.0), (0.5, 0.5), (1.0, 2.0)):
        out = two_point_stats(p, lo, hi)
        print(f"{p:5.2f} {lo:6.2f} {hi:5.2f} {out['demi_expectation']:12.4f} "
              f"{out['cond_mean_given_minus1']:10.1f}")

print()
print("every conditional mean equals -2 < -1: never a submartingale,")
print("yet every expectation above is nonnegative for p <= 1/2.")
print()

# statistical confirmation on sampled paths
m = 50_000
for p in (0.3, 0.6):
    batch = generate_paths(GeneratorSpec.two_point(p), 2, m, seed=12)
    family = TestFunctionFamily.default(batch)
    report = check_demimartingale(batch, family, mode="demisub")
    n_failures = sum(row["verdict"] == "fail" for row in report.rows)
    print(f"p = {p}: demisubmartingale check on {m} paths -> "
          f"{'pass' if report.overall_pass else 'FAIL'} "
          f"({n_failures} significant cells)")
    cell = next(r for r in report.rows if r["function"] == "const1")
    print(f"  constant probe estimate {cell['estimate']:+.4f} "
          f"(exact 1 - 2p = {1 - 2 * p:+.1f}, stderr {cell['stderr']:.4f})")

print()
print("p = 0.6 fails, as it must: above 1/2 even the constant probe sees a")
print("significantly negative expectation.")
