"""Solve and inspect the optimal sampling densities.

The one-dimensional density rho* minimizing J(rho) = int (int_0^x 1/rho)^{p/2} dx
is the key object of the library: points drawn from its d-fold product and
weighted by 1/(N rho_d) shrink the average discrepancy at an exponentially
better rate in d than uniform sampling.  This script solves rho* for a few
exponents, verifies the defining implicit equation, and exports plot data.
"""

import numpy as np

import disclab as dl

GRID = np.linspace(0.0, 1.0, 11)

print("optimal densities rho*(t) by exponent")
print("t:    " + "  ".join(f"{t:7.2f}" for t in GRID))
for p in (1.0, 2.0, 3.0, 10.0, 100.0):
    dens = dl.optimal_density(p)
    rho = [float(dens.pdf(t)) for t in GRID]
    print(f"p={p:<5g}" + "  ".join(f"{r:7.4f}" for r in rho))

print("\nboundary values: rho*(0) = (p+1)/p, rho*(1) = 0")
for p in (1.0, 2.0, 10.0):
    dens = dl.optimal_density(p)
    print(f"  p={p:<4g} rho(0)={dens.pdf(0.0):.6f}  expected {(p+1)/p:.6f}"
          f"   rho(1)={dens.pdf(1.0):.2e}")

print("\nimplicit-equation residuals on a 101-node grid")
for p in (1.0, 1.5, 2.0, 3.0, 10.0, 100.0):
    res = max(abs(dl.curve_residual(p, t)) for t in np.linspace(0, 1, 101))
    norm = dl.optimal_density(p).normalization()
    print(f"  p={p:<6g} max residual {res:.2e}   integral {norm:.12f}")

print("\nvariational constants")
for p in (1.0, 2.0, 3.0, 10.0):
    sol = dl.variational_solution(p)
    j_beta = dl.J_functional(dl.optimal_density(p), p)
    print(f"  p={p:<4g} S1={sol.S1:.6f}  Jmin={sol.Jmin:.8f}  "
          f"J by Beta integral={j_beta:.8f}")

for p in (10.0, 100.0):
    path = f"density_p{p:g}.csv"
    dl.optimal_density(p).export_csv(path, n=257)
    print(f"\nwrote {path} (columns t, rho, cdf) for plotting")
