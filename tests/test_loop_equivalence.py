"""The batched cell and even-p evaluators against the loops they replaced.

``cells_loop_reference`` and ``even_loop_reference`` are verbatim copies of
the per-cell and per-tuple loops.  The batched evaluators must reproduce
their ``value`` and ``evaluations`` exactly; ``abs_error_estimate`` sums the
refinement deltas with math.fsum instead of in cell order, so it is held to
1e-12 relative.
"""

import math
import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from disclab.core import WeightedPointSet
from disclab.discrepancy import (
    BLOCK_ELEMS,
    DiscrepancyResult,
    _clamped_root,
    lp_discrepancy_cells,
    lp_discrepancy_even,
)
from disclab.errors import InvalidArgumentError, SizeLimitError

_EVEN_P_GUARDS = {2: 64, 4: 16}


def even_loop_reference(ps: WeightedPointSet, p: float) -> DiscrepancyResult:
    """The even-p expansion as one Python pass over the N^r index tuples."""
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


def cells_loop_reference(
    ps: WeightedPointSet, p: float, order: int = 8
) -> DiscrepancyResult:
    """Cell quadrature as one Python pass over the cells in np.ndindex order."""
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


def assert_same(new, ref):
    assert new.value == ref.value
    assert new.evaluations == ref.evaluations
    assert new.abs_error_estimate == pytest.approx(ref.abs_error_estimate, rel=1e-12, abs=0.0)
    assert (new.method, new.p, new.d, new.n, new.clamped) == (
        ref.method, ref.p, ref.d, ref.n, ref.clamped)


def rules(rng, n, d):
    """Random weights, zero weights, weights summing to exactly 1, and
    coordinates repeated on a coarse grid (0 among them)."""
    pts = rng.random((n, d))
    w = rng.random(n)
    n2 = 1 << (n.bit_length() - 1)  # 1/n2 sums to exactly 1
    return [
        WeightedPointSet(pts, w / w.sum() * rng.uniform(0.5, 1.5)),
        WeightedPointSet(pts, np.zeros(n)),
        WeightedPointSet(pts[:n2], np.full(n2, 1.0 / n2)),
        WeightedPointSet(rng.integers(0, 3, (n, d)) / 3.0, w / w.sum()),
    ]


# largest N per (d, order) that keeps the loop reference fast
CELL_CASES = {
    (1, 2): 40, (1, 8): 40, (1, 32): 40,
    (2, 2): 24, (2, 8): 16, (2, 32): 5,
    (3, 2): 8, (3, 8): 6, (3, 32): 2,
    (4, 2): 5, (4, 8): 3, (4, 32): 1,
}


@pytest.mark.parametrize("d,order", sorted(CELL_CASES))
def test_cells_match_loop(d, order):
    rng = np.random.default_rng(100 * d + order)
    # a refined d = 4, order-32 cell takes 17 * 32^4 evaluations
    exponents = (1.5,) if (d, order) == (4, 32) else (1.0, 1.5, 2.0, 3.0, 4.0)
    for ps in rules(rng, CELL_CASES[d, order], d):
        for p in exponents:
            assert_same(lp_discrepancy_cells(ps, p, order),
                        cells_loop_reference(ps, p, order))


def test_cells_match_loop_across_chunks():
    # more cells than one block of corners, more non-zero cells than one
    # Gauss chunk, and refined cells
    rng = np.random.default_rng(7)
    n, d, order = 150, 2, 2
    ps = rules(rng, n, d)[0]
    t = ps.points
    lo = [np.unique(np.concatenate(([0.0], t[:, j], [1.0])))[:-1] for j in range(d)]
    dominated = (t[:, 0, None, None] <= lo[0][:, None]) & (t[:, 1, None, None] <= lo[1])
    assert (n + 1) ** d > BLOCK_ELEMS
    assert np.count_nonzero(dominated.any(axis=0)) > BLOCK_ELEMS // order ** d
    res = lp_discrepancy_cells(ps, 1.5, order)
    assert res.abs_error_estimate > 0.0
    assert_same(res, cells_loop_reference(ps, 1.5, order))


def test_cells_integer_p_matches_loop():
    ps = rules(np.random.default_rng(8), 6, 2)[0]
    for p in (1, 2, 3):
        assert_same(lp_discrepancy_cells(ps, p), cells_loop_reference(ps, p))


@pytest.mark.parametrize("p,n,d", [
    (2, 1, 1), (2, 9, 3), (2, 64, 2), (2, 64, 5), (4, 1, 2), (4, 5, 4),
])
def test_even_matches_loop(p, n, d):
    rng = np.random.default_rng(10 * p + n + d)
    for ps in rules(rng, n, d):
        for pp in (p, float(p)):
            assert_same(lp_discrepancy_even(ps, pp), even_loop_reference(ps, pp))


@pytest.mark.parametrize("d", [1, 3])
def test_even_p4_matches_loop_at_guard(d):
    # the loop reference takes ~1.5 s per rule at N = 16
    ps = rules(np.random.default_rng(d), 16, d)[0]
    assert_same(lp_discrepancy_even(ps, 4), even_loop_reference(ps, 4))


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,d,p", [(64, 2, 1.5), (12, 3, 3.0)])
def test_cells_memory_at_largest_benchmark_shape(n, d, p):
    ps = rules(np.random.default_rng(n), n, d)[0]
    assert peak_bytes(lambda: lp_discrepancy_cells(ps, p)) <= 8e6


def test_even_p4_memory_at_guard():
    # N^4 = 65536 tuples at d = 64: an (N^3, d) array for one first index
    # would alone take 2 MB
    ps = rules(np.random.default_rng(64), 16, 64)[0]
    assert peak_bytes(lambda: lp_discrepancy_even(ps, 4)) <= 8e6
