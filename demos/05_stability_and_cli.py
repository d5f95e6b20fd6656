"""Stability indicators of weighted rules, plus the command-line front end.

A quadrature rule's stability is gauged by the weight sum ||A||_inf = sum|a_k|
and by the largest single-term contribution a_k sqrt(K_d(t_k,t_k)).  The
optimal one-point rule (t=1/3, a=2/3) trades a sub-unit weight sum for a
smaller worst-case error than the midpoint rule.  The same operations are
reachable through the `disclab` CLI, shown at the end via its Python entry.
"""

import numpy as np

import disclab as dl
from disclab.core import ProductDensity, save_point_set, weights_from_density
from disclab.experiments import stability_metrics

print("stability of three d=1 rules at p=2")
rules = {
    "midpoint (t=1/2, a=1)": dl.WeightedPointSet([[0.5]], [1.0]),
    "optimal  (t=1/3, a=2/3)": dl.WeightedPointSet([[1.0 / 3.0]], [2.0 / 3.0]),
    "QMC N=8": dl.WeightedPointSet.qmc((np.arange(8)[:, None] + 0.5) / 8.0),
}
for name, ps in rules.items():
    rec = stability_metrics(ps, 2.0)
    print(f"  {name:<26} sum|a|={rec.sum_abs_weights:.4f}  "
          f"max term={rec.max_term_contribution:.4f}  "
          f"error={rec.error:.6f}  norm bound={rec.fdq_norm_bound:.4f}")

print("\nimportance-sampled rule: per-term contribution is flat by design")
dens = ProductDensity(1, dl.optimal_density(2.0))
pts = np.random.default_rng(1).random((6, 1))
ps = weights_from_density(pts, dens)
contrib = ps.weights * np.sqrt(1.0 - ps.points[:, 0])
print(f"  contributions: {np.array2string(contrib, precision=6)}")
print(f"  all equal 2/(3N) = {2.0 / (3.0 * 6):.6f}")

print("\nsame rule through the CLI (exit codes: 0 ok, 1 verify fail, 2 error)")
from disclab.cli import main

save_point_set(ps, "sampled_rule.txt")
code = main(["discrepancy", "sampled_rule.txt", "--p", "2"])
print(f"  `disclab discrepancy sampled_rule.txt --p 2` -> exit {code}")
code = main(["verify", "--only", "one-point"])
print(f"  `disclab verify --only one-point` -> exit {code}")
