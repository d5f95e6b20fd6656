"""Compare the exponential bases of the average-discrepancy upper bounds.

The d-dependence of the bounds is alpha^d with
alpha_old(p) = ((2p+2)/(p+2))^{1/p} for uniform sampling and
alpha_new(p) = ((p+2)/(p+1))^{1/2} for the optimal density; the implied
point-count bound for error eps is C^2 alpha^{2d} eps^{-2}.
"""

import math

from disclab.bounds import (
    bounds_row,
    complexity_estimate,
    gamma_prefactor,
    gamma_prefactor_asymptote,
    write_alpha_csv,
)

print(f"{'p':>6} {'a_old^2':>9} {'a_new^2':>9} {'prefactor':>10} {'eq10':>9} {'eq11':>7} {'even?':>6}")
for p in (1.0, 2.0, 4.0, 10.0, 100.0):
    r = bounds_row(p)
    print(f"{p:>6g} {r.alpha_old_sq:>9.4f} {r.alpha_new_sq:>9.4f} "
          f"{r.gamma_prefactor:>10.5f} {r.eq10_const:>9.2f} {r.eq11_const:>7.3f} "
          f"{str(r.even_p_valid):>6}")

print("\npoint counts for error eps=0.1 at p=2 (C=1):")
for d in (5, 10, 20):
    old = complexity_estimate(d, 0.1, 1.0, bounds_row(2.0).alpha_old)
    new = complexity_estimate(d, 0.1, 1.0, bounds_row(2.0).alpha_new)
    print(f"  d={d:<3} uniform ~{old:12.0f}   optimal ~{new:12.0f}   "
          f"savings x{old / new:.1f}")

print("\nStirling check: Gamma((p+1)/2)^{1/p} vs sqrt(p/2e)")
for p in (10.0, 100.0, 1000.0):
    exact = math.exp(math.lgamma((p + 1) / 2) / p)
    asym = gamma_prefactor_asymptote(p)
    print(f"  p={p:<6g} exact {exact:10.5f}  asymptote {asym:10.5f}  "
          f"ratio {exact / asym:.5f}")

print(f"\nd=1 prefactor at p=1: {gamma_prefactor(1.0):.6f} "
      f"(= sqrt(2/pi) = {math.sqrt(2/math.pi):.6f})")

write_alpha_csv("alpha_comparison.csv", [1.0 + 0.5 * k for k in range(199)])
print("wrote alpha_comparison.csv (columns p, alpha_old_sq, alpha_new_sq)")
