"""Evaluators for the generalized L_p-discrepancy of a weighted point set.

Four mutually cross-checking methods:

* ``l2_discrepancy_kernel``  -- exact p=2 value via the reproducing kernel
  K_1(x,y) = 1 - max(x,y) and the representer h_d(x) = prod (1-x_j^2)/2.
* ``lp_discrepancy_even``    -- exact even-p value (p in {2,4}) by multinomial
  expansion of Delta^p; every term integrates in closed form per coordinate.
* ``lp_discrepancy_cells``   -- general p by cell decomposition: within each
  open cell the counting term c is constant, so the integrand |c - prod x|^p
  is integrated in closed form where c = 0 and by tensor Gauss quadrature
  elsewhere, with one dyadic refinement on cells where c - prod x vanishes
  inside or on the upper corner.
* ``lp_discrepancy_mc``      -- seeded plain Monte Carlo, the fallback for
  d > 4, with a delta-method standard error on the 1/p-th root.

Kernel double sums stream row blocks into one math.fsum, so results are
reproducible, exactly rounded and need memory linear in N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, product

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from .core import ProductDensity, WeightedPointSet
from .errors import (
    IntegrationFailureError,
    InvalidArgumentError,
    NumericalInconsistencyError,
    SizeLimitError,
)

__all__ = [
    "DiscrepancyResult",
    "KernelConstants",
    "l2_discrepancy_kernel",
    "lp_discrepancy_even",
    "lp_discrepancy_cells",
    "lp_discrepancy_mc",
    "c_kernel",
]

NEG_SQ_TOL = 1e-12  # squared errors in [-NEG_SQ_TOL, 0) are clamped to 0
# kernel work per batch: B*N*d for a block of B rows in l2_discrepancy_kernel,
# R*N*N*d for a chunk of R replications in the experiment harness; each
# array of the batch then holds at most 2^14 float64 (128 KB)
BLOCK_ELEMS = 2 ** 14


@dataclass(frozen=True)
class DiscrepancyResult:
    """Value of L_{p,N} plus evaluation metadata.

    ``abs_error_estimate`` is 0 for the two exact methods and the
    delta-method standard error for Monte Carlo.  For cell quadrature it is
    the refinement delta over cells with a kink inside or on their upper
    corner (see ``lp_discrepancy_cells``): not a bound on the error of any
    one rule, and 0 when no cell has such a kink.  ``clamped`` records whether a
    slightly negative squared error was clamped to zero.
    """

    value: float
    p: float
    method: str
    abs_error_estimate: float
    evaluations: int
    d: int
    n: int
    clamped: bool = False

    def record(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "N": self.n,
            "method": self.method,
            "value": self.value,
            "abs_error_estimate": self.abs_error_estimate,
        }


@dataclass(frozen=True)
class KernelConstants:
    """C(K_d, rho_d) for a product density, with the 3^-d reference."""

    d: int
    C_K: float
    init_sq: float


def _clamped_root(total: float, p: float, method: str) -> tuple[float, bool]:
    if total < -NEG_SQ_TOL:
        raise NumericalInconsistencyError(
            f"{method}: integral of |Delta|^p came out {total:.3e} < -{NEG_SQ_TOL}"
        )
    if total < 0.0:
        return 0.0, True
    return total ** (1.0 / p), False


def _kernel_block(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel block and representer for point arrays x (..., B, d), y (..., N, d).

    Returns K (..., B, N) with K[..., k, l] = prod_j (1 - max(x_kj, y_lj)) and
    h (..., B) with h[..., k] = prod_j (1 - x_kj^2)/2.  Leading axes
    broadcast, so one call serves a chunk of replications.  The products
    run over j in order, one coordinate at a time (a reduction over a short
    last axis is several times slower).
    """
    for j in range(x.shape[-1]):
        k_j = np.maximum(x[..., :, None, j], y[..., None, :, j])
        np.subtract(1.0, k_j, out=k_j)
        h_j = (1.0 - x[..., j] ** 2) / 2.0
        if j == 0:
            kmat, h = k_j, h_j
        else:
            kmat *= k_j
            h *= h_j
    return kmat, h


def l2_discrepancy_kernel(ps: WeightedPointSet) -> DiscrepancyResult:
    """Exact L_2 discrepancy from the kernel formula; O(N^2 d) time.

    The double sum streams blocks of B rows, B*N*d <= BLOCK_ELEMS (B >= 1),
    into one math.fsum, so memory is O(N d) beyond a block and the value is
    exactly rounded, whatever the block size.
    """
    pts, a, d, n = ps.points, ps.weights, ps.d, ps.n
    rows = max(1, BLOCK_ELEMS // (n * d))

    h_blocks = []

    def block_terms(lo):
        kmat, h = _kernel_block(pts[lo:lo + rows], pts)
        h_blocks.append(h)
        return (a[lo:lo + rows, None] * a * kmat).ravel().tolist()

    t2 = math.fsum(chain.from_iterable(map(block_terms, range(0, n, rows))))
    t1 = math.fsum(a * np.concatenate(h_blocks))
    e2 = math.fsum([3.0 ** (-d), -2.0 * t1, t2])
    value, clamped = _clamped_root(e2, 2.0, "kernel_p2")
    return DiscrepancyResult(
        value=value, p=2.0, method="kernel_p2", abs_error_estimate=0.0,
        evaluations=n * n, d=d, n=n, clamped=clamped,
    )


_EVEN_P_GUARDS = {2: 64, 4: 16}


def lp_discrepancy_even(ps: WeightedPointSet, p: float) -> DiscrepancyResult:
    """Exact L_p for even p in {2, 4} by multinomial expansion of Delta^p.

    Each mixed term integrates per coordinate as (1 - max(t)^{m+1})/(m+1),
    at a combinatorial cost of O(N^p).  p may be given as 2.0 or 4.0.
    """
    if p not in _EVEN_P_GUARDS:
        raise InvalidArgumentError(f"even-p expansion supports p in {{2, 4}}, got {p}")
    p = int(p)
    if ps.n > _EVEN_P_GUARDS[p]:
        raise SizeLimitError(
            f"N={ps.n} exceeds the N<={_EVEN_P_GUARDS[p]} guard for p={p}"
        )
    pts, a, d, n = ps.points, ps.weights, ps.d, ps.n
    terms = []
    for m in range(p + 1):
        coeff = math.comb(p, m) * (-1.0) ** m / (m + 1) ** d
        r = p - m
        if r == 0:
            terms.append(coeff)
            continue
        for idx in product(range(n), repeat=r):
            mx = pts[list(idx)].max(axis=0)
            aprod = float(np.prod(a[list(idx)]))
            terms.append(coeff * aprod * float(np.prod(1.0 - mx ** (m + 1))))
    total = math.fsum(terms)
    value, clamped = _clamped_root(total, float(p), "even_p_exact")
    return DiscrepancyResult(
        value=value, p=float(p), method="even_p_exact", abs_error_estimate=0.0,
        evaluations=len(terms), d=d, n=n, clamped=clamped,
    )


def _axis_intervals(coords: np.ndarray) -> np.ndarray:
    cuts = np.unique(np.concatenate(([0.0], coords, [1.0])))
    return cuts


def lp_discrepancy_cells(
    ps: WeightedPointSet, p: float, order: int = 8
) -> DiscrepancyResult:
    """General-p evaluation by cell decomposition plus tensor Gauss quadrature.

    The coordinate values of the points partition [0,1]^d into at most
    (N+1)^d cells on which the counting term c is constant.  Cells with
    c = 0 (such as every cell whose lower corner dominates no point, the
    cells on the lower faces among them) carry the integrand prod x_j^p,
    which is integrated exactly in closed form.  The other cells get tensor
    Gauss quadrature; those where c - prod(x) vanishes inside or on the
    upper corner (prod(lo) < c <= prod(hi), from the corner extrema of
    prod(x)) also receive one dyadic subdivision.  The upper-corner case is
    the top cell of every rule whose weights sum to exactly 1.

    ``abs_error_estimate`` is the summed refinement delta |refined - base|
    over the refined cells, taken to the value by the delta method.  It is
    not a bound on the error of any one rule: a cell whose kink lies just
    outside its boundary is not refined, yet Gauss converges slowly there,
    and the estimate is 0 when no cell is refined.  ``evaluations`` counts
    integrand points, plus one per closed-form cell.
    """
    if p < 1.0:
        raise InvalidArgumentError(f"p must be >= 1, got {p}")
    if ps.d > 4:
        raise SizeLimitError(f"cell quadrature supports d <= 4, got d={ps.d}")
    if not (2 <= order <= 32):
        raise InvalidArgumentError(f"order must be in [2, 32], got {order}")
    pts, a, d, n = ps.points, ps.weights, ps.d, ps.n

    cuts = [_axis_intervals(pts[:, j]) for j in range(d)]
    shape = tuple(len(c) - 1 for c in cuts)
    n_cells = int(np.prod(shape))
    if n_cells > 10_000_000:
        raise SizeLimitError(f"cell count {n_cells} exceeds the 1e7 guard")

    # counting value per cell: c = sum_k a_k prod_j 1(t_kj <= lo_j)
    los = [c[:-1] for c in cuts]
    his = [c[1:] for c in cuts]
    indic = [
        (pts[:, j][:, None] <= los[j][None, :]).astype(float) for j in range(d)
    ]
    letters = "ijkl"[:d]
    sub = ",".join("z" + letters[j] for j in range(d)) + ",z->" + letters
    c_grid = np.einsum(sub, *indic, a)
    prod_lo = reduce(np.multiply.outer, los)
    prod_hi = reduce(np.multiply.outer, his)

    x_ref, w_ref = leggauss(order)

    def gauss_axis(lo, hi):
        half = 0.5 * (hi - lo)
        return lo + half * (x_ref + 1.0), w_ref * half

    def integrate_box(lo, hi, c_val):
        xs, ws = zip(*(gauss_axis(lo[j], hi[j]) for j in range(d)))
        prod_x = reduce(np.multiply.outer, xs)
        prod_w = reduce(np.multiply.outer, ws)
        return float(np.sum(prod_w * np.abs(c_val - prod_x) ** p))

    total_terms = []
    err_p = 0.0
    evals = 0
    for idx in np.ndindex(shape):
        lo = [los[j][idx[j]] for j in range(d)]
        hi = [his[j][idx[j]] for j in range(d)]
        if any(h <= l for l, h in zip(lo, hi)):
            continue
        c_val = float(c_grid[idx])
        if c_val == 0.0:
            # |0 - prod x|^p = prod x_j^p factorises and integrates exactly;
            # on a lower-face cell its kink lies on the boundary, where Gauss
            # converges slowly and no refinement is triggered
            total_terms.append(math.prod(
                (h ** (p + 1.0) - l ** (p + 1.0)) / (p + 1.0) for l, h in zip(lo, hi)
            ))
            evals += 1
            continue
        base = integrate_box(lo, hi, c_val)
        evals += order ** d
        if prod_lo[idx] < c_val <= prod_hi[idx]:
            refined_parts = []
            mids = [0.5 * (l + h) for l, h in zip(lo, hi)]
            for halves in product(range(2), repeat=d):
                slo = [lo[j] if halves[j] == 0 else mids[j] for j in range(d)]
                shi = [mids[j] if halves[j] == 0 else hi[j] for j in range(d)]
                refined_parts.append(integrate_box(slo, shi, c_val))
                evals += order ** d
            refined = math.fsum(refined_parts)
            err_p += abs(refined - base)
            total_terms.append(refined)
        else:
            total_terms.append(base)
    total = math.fsum(total_terms)
    value, clamped = _clamped_root(total, p, "cell_quadrature")
    if total > 0.0:
        err_val = err_p / (p * total ** (1.0 - 1.0 / p))
    else:
        err_val = err_p ** (1.0 / p) if err_p > 0.0 else 0.0
    return DiscrepancyResult(
        value=value, p=float(p), method="cell_quadrature",
        abs_error_estimate=err_val, evaluations=evals, d=d, n=n, clamped=clamped,
    )


def lp_discrepancy_mc(
    ps: WeightedPointSet, p: float, samples: int, seed: int
) -> DiscrepancyResult:
    """Plain Monte Carlo estimate of L_p; deterministic for a fixed seed."""
    if p < 1.0:
        raise InvalidArgumentError(f"p must be >= 1, got {p}")
    if samples < 1000:
        raise InvalidArgumentError(f"need at least 1e3 samples, got {samples}")
    pts, a, d = ps.points, ps.weights, ps.d
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    s = s2 = 0.0
    done = 0
    chunk = max(1, min(samples, 4_000_000 // max(ps.n, 1)))
    while done < samples:
        m = min(chunk, samples - done)
        x = rng.random((m, d))
        inside = np.all(pts[None, :, :] < x[:, None, :], axis=2)
        delta = inside @ a - np.prod(x, axis=1)
        y = np.abs(delta) ** p
        s += float(y.sum())
        s2 += float((y * y).sum())
        done += m
    mean = s / samples
    var = max(s2 - samples * mean * mean, 0.0) / (samples - 1)
    se_mean = math.sqrt(var / samples)
    if mean > 0.0:
        value = mean ** (1.0 / p)
        se_val = se_mean / (p * mean ** (1.0 - 1.0 / p))
    else:
        value, se_val = 0.0, se_mean ** (1.0 / p)
    return DiscrepancyResult(
        value=value, p=float(p), method="monte_carlo",
        abs_error_estimate=se_val, evaluations=samples, d=d, n=ps.n,
    )


def c_kernel(rho: ProductDensity) -> KernelConstants:
    """C(K_d, rho_d) = (int_0^1 (1-t)/rho(t) dt)^d for a product density."""
    marginal = rho.marginal

    def integrand(t):
        r = float(marginal.pdf(t))
        if r <= 0.0:
            # integrable endpoint singularities only; interior zeros diverge
            # and show up in the quadrature error below
            return 0.0 if t >= 1.0 - 1e-14 else math.inf
        return (1.0 - t) / r

    c1, err = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400)
    if not math.isfinite(c1) or err > 1e-8 * max(1.0, abs(c1)):
        raise IntegrationFailureError(
            f"C(K_1, rho) quadrature did not converge (err={err:.2e})"
        )
    c_k = c1 ** rho.d
    init_sq = 3.0 ** (-rho.d)
    if c_k < init_sq * (1.0 - 1e-12):
        raise NumericalInconsistencyError(
            f"C(K_d, rho_d)={c_k} below the Cauchy-Schwarz floor 3^-d"
        )
    return KernelConstants(d=rho.d, C_K=c_k, init_sq=init_sq)


def evaluate(ps: WeightedPointSet, p: float, method: str = "auto", **kw) -> DiscrepancyResult:
    """Dispatch to the best evaluator for (p, d), or to an explicit method.

    ``auto`` picks the kernel at p = 2, cells at d <= 4 and Monte Carlo
    otherwise; Monte Carlo has no default sample count or seed, so it needs
    ``samples=`` and ``seed=``.  A method that cannot compute the requested
    p raises :class:`InvalidArgumentError`.
    """
    if method == "auto":
        if p == 2.0:
            method = "kernel"
        elif ps.d <= 4:
            method = "cells"
        else:
            method = "mc"
    if method == "kernel":
        if p != 2.0:
            raise InvalidArgumentError(f"the kernel method computes p = 2 only, got p={p}")
        return l2_discrepancy_kernel(ps)
    if method == "even":
        return lp_discrepancy_even(ps, p, **kw)
    if method == "cells":
        return lp_discrepancy_cells(ps, p, **kw)
    if method == "mc":
        missing = {"samples", "seed"} - set(kw)
        if missing:
            raise InvalidArgumentError(
                f"Monte Carlo needs samples= and seed=; missing {sorted(missing)}"
            )
        return lp_discrepancy_mc(ps, p, **kw)
    raise InvalidArgumentError(f"unknown method {method!r}")
