"""Cross-check the discrepancy evaluators on small rules.

The generalized L_p-discrepancy of a weighted point set is the L_p norm of
Delta(x) = sum_k a_k 1_{[0,x)}(t_k) - x_1...x_d.  Five evaluators cover the
(p, d) landscape: an exact p=2 kernel formula, an exact formula at d = 1, an
exact even-p multinomial expansion, cell-decomposition Gauss quadrature for
any p at d <= 4, and plain Monte Carlo beyond that.  They must agree wherever
their domains overlap.
"""

import math

import numpy as np

import disclab as dl
from disclab.discrepancy import (
    l2_discrepancy_kernel,
    lp_discrepancy_cells,
    lp_discrepancy_even,
    lp_discrepancy_mc,
)

print("one-point rules in d=1 (closed-form errors)")
best = dl.WeightedPointSet([[1.0 / 3.0]], [2.0 / 3.0])
mid = dl.WeightedPointSet([[0.5]], [1.0])
print(f"  t=1/3, a=2/3: L2 = {l2_discrepancy_kernel(best).value:.12f}"
      f"  (1/sqrt(27) = {1/math.sqrt(27):.12f})")
print(f"  t=1/2, a=1  : L2 = {l2_discrepancy_kernel(mid).value:.12f}"
      f"  (1/sqrt(12) = {1/math.sqrt(12):.12f})")

print("\nfour-way agreement on a random weighted set (d=2, N=6)")
rng = np.random.default_rng(7)
w = rng.random(6)
ps = dl.WeightedPointSet(rng.random((6, 2)), w / w.sum())
kern = l2_discrepancy_kernel(ps)
even = lp_discrepancy_even(ps, 2)
cells = lp_discrepancy_cells(ps, 2.0)
mc = lp_discrepancy_mc(ps, 2.0, samples=400_000, seed=1)
print(f"  kernel    {kern.value:.12f}")
print(f"  even-p    {even.value:.12f}   |diff| = {abs(even.value-kern.value):.1e}")
print(f"  cells     {cells.value:.12f}   |diff| = {abs(cells.value-kern.value):.1e}")
print(f"  MC        {mc.value:.12f}   ({abs(mc.value-kern.value)/mc.abs_error_estimate:.1f} SE off)")

print("\nnon-even exponents via cells vs MC")
for p in (1.0, 1.5, 3.0):
    c = lp_discrepancy_cells(ps, p)
    m = lp_discrepancy_mc(ps, p, samples=400_000, seed=2)
    print(f"  p={p:<4g} cells {c.value:.8f}  MC {m.value:.8f} +- {m.abs_error_estimate:.1e}")

print("\nzero-weight rule reproduces the initial error (p+1)^{-d/p}")
for p, d in ((1.0, 1), (2.0, 3), (3.0, 2)):
    ps0 = dl.WeightedPointSet(np.full((1, d), 0.5), [0.0])
    val = lp_discrepancy_cells(ps0, p).value
    print(f"  p={p:g} d={d}: {val:.10f}  expected {dl.initial_error(p, d):.10f}")

print("\ndispatcher: evaluate() picks kernel for p=2, exact at d=1, cells for"
      " small d, MC above")
for ps_, p in ((ps, 2.0), (mid, 1.5), (ps, 1.5),
               (dl.WeightedPointSet(np.full((1, 6), 0.5), [1.0]), 2.5)):
    res = dl.evaluate(ps_, p, samples=50_000, seed=0)
    print(f"  d={ps_.d} p={p:g} -> {res.method}: {res.value:.6f}")
