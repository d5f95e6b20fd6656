"""Evaluators for the generalized L_p-discrepancy of a weighted point set.

Five mutually cross-checking methods:

* ``l2_discrepancy_kernel``  -- exact p=2 value via the reproducing kernel
  K_1(x,y) = 1 - max(x,y) and the representer h_d(x) = prod (1-x_j^2)/2.
* ``lp_discrepancy_d1``      -- exact value for d = 1 and any p, in closed
  form on each cell between sorted points.  Its body, ``_lp_pow_d1``, runs
  over rows, so the experiment harness evaluates a chunk of replications in
  one call.  Points are sorted by numpy's default argsort: tied points
  bound cells of zero width, whose terms cancel exactly, so their order
  moves the value only by the rounding of the cumulative weights.
* ``lp_discrepancy_even``    -- exact even-p value (p in {2,4}) by multinomial
  expansion of Delta^p; every term integrates in closed form per coordinate,
  and the N^r index tuples are broadcast one first index at a time.
* ``lp_discrepancy_cells``   -- general p by cell decomposition: within each
  open cell the counting term c is constant, so the integrand |c - prod x|^p
  is integrated in closed form where c = 0 and by tensor Gauss quadrature
  elsewhere, with one dyadic refinement on cells where c - prod x vanishes
  inside or on the upper corner.  Cells are batched in blocks and Gauss
  nodes in bounded chunks; a guard on the integrand evaluations it would
  make rejects inputs that would run for more than about a minute.
* ``lp_discrepancy_mc``      -- seeded plain Monte Carlo, the fallback for
  d > 4, with a delta-method standard error on the 1/p-th root.  It counts
  dominance one coordinate at a time into an (m, N) mask per chunk of m
  samples, so beyond its m x d draws a chunk holds m*N bools plus the
  matvec's m*N float64 cast, with m*N <= 4e6 at any d.

``evaluate`` runs the one ``method_for`` picks.  Its one ``auto`` rule: the
kernel at p = 2, the exact method at d = 1, cells at d <= 4, else Monte Carlo.

The kernel streams row blocks of its symmetric half, so it needs memory
linear in N.  Its double sum, the even-p terms and the cell values each go
into one exact, correctly rounded sum (``_ExactSum``, exponent binning in
numpy, equal to math.fsum of the same terms bit for bit), so results do not
depend on block sizes or term order.  Every batched product and reduction
runs in the order of the one-term-at-a-time loops they replaced, so
batching changes no bit of a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import ProductDensity, WeightedPointSet, _check_counts, _check_p
from .density import J_functional
from .errors import (
    InvalidArgumentError,
    NumericalInconsistencyError,
    SizeLimitError,
)

__all__ = [
    "DiscrepancyResult",
    "l2_discrepancy_kernel",
    "lp_discrepancy_d1",
    "lp_discrepancy_even",
    "lp_discrepancy_cells",
    "lp_discrepancy_mc",
    "c_kernel",
]

NEG_SQ_TOL = 1e-12  # squared errors in [-NEG_SQ_TOL, 0) are clamped to 0
# work per batch: B*N for a block of B rows in l2_discrepancy_kernel (each
# of its arrays is at most B x N), R*N*N*d for a chunk of R replications in
# the experiment harness (B*N*d for a row block of one large replication),
# the cells per block and integrand points per Gauss chunk in
# lp_discrepancy_cells, and the terms _ExactSum bins at a time from small
# adds; each array of the batch then holds at most 2^14 float64 (128 KB),
# or 2^14 rows of d
BLOCK_ELEMS = 2 ** 14
# exact summation (_ExactSum): frexp gives exponents _EXP_MIN..1024 for
# finite float64, one bin each; a bin sums at most _FLUSH_TERMS parts below
# 2^27 grid steps each, so it stays below 2^53 steps
_EXP_MIN = -1073
_SUM_BINS = 1024 - _EXP_MIN + 1
_FLUSH_TERMS = 2 ** 26
# cell quadrature guards on memory and time (see lp_discrepancy_cells)
MAX_CELLS = 10_000_000
MAX_CELL_EVALS = 4_000_000_000
# evaluate's method names and the method tags of their results
METHODS = {"kernel": "kernel_p2", "even": "even_p_exact",
           "cells": "cell_quadrature", "mc": "monte_carlo"}


@dataclass(frozen=True)
class DiscrepancyResult:
    """Value of L_{p,N} plus evaluation metadata.

    ``abs_error_estimate`` is 0 for the three exact methods and the
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
            "evaluations": self.evaluations,
            "clamped": self.clamped,
        }


class _ExactSum:
    """Correctly rounded sum of float64 terms: ``value()`` equals math.fsum of
    every term added, bit for bit, with the work in numpy.

    Exponent binning (Demmel & Hida, SIAM J. Sci. Comput. 2003): a finite
    term is m * 2^e with frexp's m in [0.5, 1), and m * 2^26 splits exactly
    into an integer part below 2^26 and a fraction on the 2^-27 grid.  One
    np.bincount per part sums them by exponent.  Up to _FLUSH_TERMS terms,
    every bin sum is an exact multiple of its grid below 2^53 units; before
    more arrive, the bins are flushed into one Python int counting units of
    2^(_EXP_MIN - 53).  ``value()`` divides that int by its unit, which
    Python rounds correctly.  Small ``add`` calls are binned together, up
    to BLOCK_ELEMS terms at a time, so many of them cost about what one
    large one does.
    Non-finite terms give what math.fsum gives: nan, an infinity or its
    ValueError.  A sum beyond the float range raises OverflowError, as in
    math.fsum, but partial sums cannot overflow, where math.fsum's can.
    """

    def __init__(self):
        self._units = 0
        self._whole = np.zeros(_SUM_BINS)
        self._frac = np.zeros(_SUM_BINS)
        self._span = (_SUM_BINS, 0)  # the bins [lo, hi) that may be non-zero
        self._binned = 0
        self._pending = []
        self._n_pending = 0
        self._special = set()

    def add(self, terms) -> None:
        # terms may be held until binned: callers must not change them after
        x = np.asarray(terms, dtype=float).ravel()
        if self._n_pending + x.size > BLOCK_ELEMS:
            self._bin()
        self._pending.append(x)
        self._n_pending += x.size

    def _bin(self) -> None:
        pending = self._pending
        if not pending:
            return
        x = pending[0] if len(pending) == 1 else np.concatenate(pending)
        self._pending, self._n_pending = [], 0
        finite = np.isfinite(x)
        if not finite.all():
            self._special.update(x[~finite].tolist())
            x = x[finite]
        for s in range(0, x.size, _FLUSH_TERMS):
            chunk = x[s:s + _FLUSH_TERMS]
            if self._binned + chunk.size > _FLUSH_TERMS:
                self._flush()
            m, e = np.frexp(chunk)
            m *= 2.0 ** 26
            whole = np.trunc(m)
            m -= whole
            e_min = int(e.min())
            e = e.astype(np.intp)  # bincount's index type
            e -= e_min
            whole_sums = np.bincount(e, whole)
            lo = e_min - _EXP_MIN
            hi = lo + len(whole_sums)
            self._whole[lo:hi] += whole_sums
            self._frac[lo:hi] += np.bincount(e, m)
            self._span = (min(self._span[0], lo), max(self._span[1], hi))
            self._binned += chunk.size

    def _flush(self) -> None:
        # bin i holds (whole + frac) * 2^27 units shifted left by i; Horner's
        # rule from the top bin keeps the shifts small
        lo, hi = self._span
        whole = self._whole[lo:hi][::-1].tolist()
        frac = (self._frac[lo:hi][::-1] * 2.0 ** 27).tolist()
        units = 0
        for w, f in zip(whole, frac):
            units = (units << 1) + (int(w) << 27) + int(f)
        self._units += units << lo
        self._whole[lo:hi] = self._frac[lo:hi] = 0.0
        self._span, self._binned = (_SUM_BINS, 0), 0

    def value(self) -> float:
        self._bin()
        if self._special:
            return math.fsum(self._special)
        self._flush()
        return self._units / (1 << (53 - _EXP_MIN))


def _clamp_totals(total: np.ndarray, method: str) -> np.ndarray:
    """Check an array of integrals of |Delta|^p in place: an entry below
    -NEG_SQ_TOL raises, one in [-NEG_SQ_TOL, 0) is clamped to 0.  Returns
    the mask of clamped entries."""
    low = total < 0.0
    if low.any():
        worst = float(total.min())
        if worst < -NEG_SQ_TOL:
            raise NumericalInconsistencyError(
                f"{method}: integral of |Delta|^p came out {worst:.3e} < -{NEG_SQ_TOL}"
            )
        total[low] = 0.0
    return low


def _clamped_root(total: float, p: float, method: str) -> tuple[float, bool]:
    """The 1/p-th root of one integral of |Delta|^p, checked by
    ``_clamp_totals``'s rule; returns (value, clamped)."""
    if total < 0.0:
        _clamp_totals(np.array([total]), method)
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

    The double sum streams blocks of B = BLOCK_ELEMS // N rows, clipped to
    [1, N], each over the columns from its first row on, so every array of
    a block is at most B x N and memory is O(N d) beyond a block.  The
    terms a_k a_l K(t_k, t_l) are bitwise symmetric in (k, l), so the
    diagonal goes into one exact sum (``_ExactSum``) once and the strict
    upper triangle twice; t2 is then math.fsum of all N^2 terms, bit for
    bit, whatever the block size.
    """
    pts, a, d, n = ps.points, ps.weights, ps.d, ps.n
    rows = min(n, max(1, BLOCK_ELEMS // n))
    # factors for the leading B x B square of a block, whose entries below
    # the diagonal earlier blocks already counted
    square = np.triu(np.full((rows, rows), 2.0), 1) + np.eye(rows)
    t1, t2 = _ExactSum(), _ExactSum()
    for lo in range(0, n, rows):
        b = min(rows, n - lo)
        terms, h = _kernel_block(pts[lo:lo + b], pts[lo:])
        t1.add(a[lo:lo + b] * h)
        terms *= np.multiply.outer(a[lo:lo + b], a[lo:])
        terms[:, :b] *= square[:b, :b]
        terms[:, b:] *= 2.0
        t2.add(terms)
    e2 = math.fsum([3.0 ** (-d), -2.0 * t1.value(), t2.value()])
    value, clamped = _clamped_root(e2, 2.0, "kernel_p2")
    return DiscrepancyResult(
        value=value, p=2.0, method="kernel_p2", abs_error_estimate=0.0,
        evaluations=n * n, d=d, n=n, clamped=clamped,
    )


def _lp_pow_d1(t: np.ndarray, a: np.ndarray, p: float) -> np.ndarray:
    """int_0^1 |Delta|^p for each row of d = 1 rules t, a of shape (R, N).

    c is constant between sorted points, so each of a row's N + 1 cells has
    the closed form [sign(x - c) |x - c|^{p+1}]/(p+1) between its edges,
    written with non-negative parts.  Each row is sorted by the default
    (not stable) argsort, reduced by one pairwise sum, and its value does
    not depend on the other rows.  Tied points bound a cell of zero width,
    whose terms cancel exactly, so the order of ties moves a value only by
    the rounding of the cumulative weights.  Totals are returned unchecked.
    """
    order = np.argsort(t, axis=-1)
    rows = len(t)
    cum = np.zeros((rows, t.shape[-1] + 1))
    np.cumsum(np.take_along_axis(a, order, axis=-1), axis=-1, out=cum[:, 1:])
    edges = np.empty((rows, t.shape[-1] + 2))
    edges[:, 0], edges[:, -1] = 0.0, 1.0
    edges[:, 1:-1] = np.take_along_axis(t, order, axis=-1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    pp1 = p + 1.0

    def part(x, y):
        # max(x - y, 0)^(p+1)
        z = np.subtract(x, y)
        np.maximum(z, 0.0, out=z)
        return np.power(z, pp1, out=z)

    terms = part(cum, lo)
    terms -= part(cum, hi)
    terms += part(hi, cum)
    terms -= part(lo, cum)
    return np.sum(terms, axis=-1) / pp1


def lp_discrepancy_d1(ps: WeightedPointSet, p: float) -> DiscrepancyResult:
    """Exact L_p for d = 1 and any p >= 1: c is constant between sorted
    points, so each of the N + 1 cells (``evaluations``) has a closed form
    (``_lp_pow_d1`` with one row).  The sort is numpy's default argsort,
    not a stable one: the order of tied points cannot change the value
    beyond the rounding of the cumulative weights (see ``_lp_pow_d1``)."""
    _check_p(p)
    if ps.d != 1:
        raise InvalidArgumentError(f"the exact d = 1 method needs d = 1, got d={ps.d}")
    total = float(_lp_pow_d1(ps.points.T, ps.weights[None, :], p)[0])
    value, clamped = _clamped_root(total, p, "exact_d1")
    return DiscrepancyResult(
        value=value, p=float(p), method="exact_d1", abs_error_estimate=0.0,
        evaluations=ps.n + 1, d=1, n=ps.n, clamped=clamped,
    )


_EVEN_P_GUARDS = {2: 64, 4: 16}


def lp_discrepancy_even(ps: WeightedPointSet, p: float) -> DiscrepancyResult:
    """Exact L_p for even p in {2, 4} by multinomial expansion of Delta^p.

    Each mixed term integrates per coordinate as (1 - max(t)^{m+1})/(m+1),
    at a combinatorial cost of O(N^p).  p may be given as 2.0 or 4.0.  The
    N^r tuples of each power r are broadcast over r - 1 index axes, one
    first index at a time and one coordinate at a time, so memory is
    O(N^{r-1}); all terms go into one exact sum (``_ExactSum``).
    """
    method_for(p, ps.d, "even", ps.n)
    p = int(p)
    pts, a, d, n = ps.points, ps.weights, ps.d, ps.n

    def tuple_terms(coeff, r, k, first):
        # terms of the tuples (first, i_2, ..., i_r); products run over the
        # tuple and over the coordinates in order
        aprod = a[first]
        for _ in range(r - 1):
            aprod = np.multiply.outer(aprod, a)
        for j in range(d):
            mx = pts[first, j]
            for _ in range(r - 1):
                mx = np.maximum.outer(mx, pts[:, j])
            f_j = 1.0 - mx ** k
            prod = f_j if j == 0 else prod * f_j
        return coeff * aprod * prod

    total = _ExactSum()
    for m in range(p + 1):
        coeff = math.comb(p, m) * (-1.0) ** m / (m + 1) ** d
        r = p - m
        if r == 0:
            total.add(coeff)
            continue
        for first in range(n) if r > 1 else [slice(None)]:
            total.add(tuple_terms(coeff, r, m + 1, first))
    value, clamped = _clamped_root(total.value(), float(p), "even_p_exact")
    return DiscrepancyResult(
        value=value, p=float(p), method="even_p_exact", abs_error_estimate=0.0,
        evaluations=sum(n ** (p - m) for m in range(p + 1)), d=d, n=n,
        clamped=clamped,
    )


def _gauss_sums(lo, hi, c, p, x_ref, w_ref) -> np.ndarray:
    """Tensor Gauss sums of |c_k - prod x|^p over the boxes [lo_k, hi_k].

    lo and hi are (K, d), c is (K,), and (x_ref, w_ref) is a Gauss-Legendre
    rule on [-1, 1] used on every axis.  Each box's nodes and weights are
    outer products over the axes in order, and its terms are reduced by one
    np.sum over a contiguous row, so a box gets the same value in any batch.
    Boxes run in chunks of at most BLOCK_ELEMS integrand points, or one box
    if it has more.
    """
    k, d = lo.shape
    half = 0.5 * (hi - lo)
    xs = lo[:, :, None] + half[:, :, None] * (x_ref + 1.0)
    ws = w_ref * half[:, :, None]
    rows = max(1, BLOCK_ELEMS // len(x_ref) ** d)
    out = np.empty(k)
    for s in range(0, k, rows):
        px, pw = xs[s:s + rows, 0], ws[s:s + rows, 0]
        for j in range(1, d):
            px = (px[:, :, None] * xs[s:s + rows, j, None, :]).reshape(len(px), -1)
            pw = (pw[:, :, None] * ws[s:s + rows, j, None, :]).reshape(len(pw), -1)
        f = np.abs(c[s:s + rows, None] - px)  # C-contiguous rows
        f **= p
        f *= pw
        out[s:s + rows] = f.sum(axis=1)
    return out


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

    The work is batched: cells in blocks of BLOCK_ELEMS, whose corners and
    c are flat arrays, and Gauss nodes in chunks of at most BLOCK_ELEMS.
    Memory is therefore the 8-byte-per-cell counting grid plus one block,
    and each cell's value is bit-identical to a one-cell-at-a-time loop.
    Two guards run before any integration: at most MAX_CELLS cells (the
    counting grid), and at most MAX_CELL_EVALS evaluations, counted exactly
    as ``evaluations`` below, refined cells included.  MAX_CELL_EVALS is
    about a minute at the measured cost of ~15 ns per evaluation (d = 4,
    order 8, p = 1.5; 2-core x86-64 with AVX-512, numpy 2.4).

    ``abs_error_estimate`` is the summed refinement delta |refined - base|
    over the refined cells, taken to the value by the delta method.  It is
    not a bound on the error of any one rule: a cell whose kink lies just
    outside its boundary is not refined, yet Gauss converges slowly there,
    and the estimate is 0 when no cell is refined.  ``evaluations`` counts
    integrand points, plus one per closed-form cell.
    """
    method_for(p, ps.d, "cells")
    _check_counts(order=(order, 2))
    if order > 32:
        raise InvalidArgumentError(f"order must be in [2, 32], got {order}")
    pts, a, d, n = ps.points, ps.weights, ps.d, ps.n

    cuts = [np.unique(np.concatenate(([0.0], pts[:, j], [1.0]))) for j in range(d)]
    los = [c[:-1] for c in cuts]
    his = [c[1:] for c in cuts]
    shape = tuple(len(lo) for lo in los)
    n_cells = math.prod(shape)
    if n_cells > MAX_CELLS:
        raise SizeLimitError(f"cell count {n_cells} exceeds the {MAX_CELLS:.0e} guard")

    # counting value per cell: c = sum_k a_k prod_j 1(t_kj <= lo_j)
    indic = [
        (pts[:, j][:, None] <= los[j][None, :]).astype(float) for j in range(d)
    ]
    letters = "ijkl"[:d]
    sub = ",".join("z" + letters[j] for j in range(d)) + ",z->" + letters
    c_all = np.einsum(sub, *indic, a).ravel()

    # |0 - prod x|^p = prod x_j^p factorises: per-axis closed forms in
    # scalar arithmetic; on a lower-face cell the kink lies on the boundary,
    # where Gauss converges slowly and no refinement is triggered
    q = p + 1.0
    zero_factors = [
        np.array([(h ** q - l ** q) / q for l, h in zip(lo, hi)])
        for lo, hi in zip(los, his)
    ]

    def block(start):
        # a block of cells in C order: closed forms of its c = 0 cells, and
        # corners, c and refinement mask of the others
        stop = min(start + BLOCK_ELEMS, n_cells)
        ix = np.unravel_index(np.arange(start, stop), shape)
        c = c_all[start:stop]
        zero = c == 0.0
        closed = reduce(np.multiply, (f[i[zero]] for f, i in zip(zero_factors, ix)))
        lo = np.stack([l[i[~zero]] for l, i in zip(los, ix)], axis=1)
        hi = np.stack([h[i[~zero]] for h, i in zip(his, ix)], axis=1)
        c = c[~zero]
        refine = (reduce(np.multiply, lo.T) < c) & (c <= reduce(np.multiply, hi.T))
        return closed, lo, hi, c, refine

    starts = range(0, n_cells, BLOCK_ELEMS)
    n_nonzero = int(np.count_nonzero(c_all))
    n_refined = sum(int(np.count_nonzero(block(s)[-1])) for s in starts)
    evals = n_cells - n_nonzero + order ** d * (n_nonzero + 2 ** d * n_refined)
    if evals > MAX_CELL_EVALS:
        raise SizeLimitError(
            f"{evals} integrand evaluations exceed the {MAX_CELL_EVALS:.0e} guard"
        )

    x_ref, w_ref = leggauss(order)
    halves = np.array(list(product((False, True), repeat=d)))
    cell_sum, deltas = _ExactSum(), []
    for start in starts:
        closed, lo, hi, c, refine = block(start)
        base = _gauss_sums(lo, hi, c, p, x_ref, w_ref)
        # refined cells: the 2^d dyadic halves of each, summed per cell by
        # math.fsum
        lo, hi, c = lo[refine], hi[refine], c[refine]
        mid = 0.5 * (lo + hi)
        sub_lo = np.where(halves, mid[:, None], lo[:, None]).reshape(-1, d)
        sub_hi = np.where(halves, hi[:, None], mid[:, None]).reshape(-1, d)
        parts = _gauss_sums(sub_lo, sub_hi, np.repeat(c, len(halves)), p, x_ref, w_ref)
        parts = parts.reshape(len(c), len(halves)).tolist()
        refined = np.array([math.fsum(row) for row in parts])
        deltas.append(np.abs(refined - base[refine]))
        for terms in (closed, base[~refine], refined):
            cell_sum.add(terms)

    total, err_p = cell_sum.value(), math.fsum(np.concatenate(deltas))
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
    """Plain Monte Carlo estimate of L_p; deterministic for a fixed seed.

    The samples x are drawn from one Philox stream in chunks of m =
    4_000_000 // N rows (at most ``samples``).  For a chunk, the counting
    term sum_k a_k 1(t_k < x) is one matvec of the weights with the (m, N)
    dominance mask, which is built one coordinate at a time (an AND of one
    (m, N) comparison per coordinate), and the volume prod x_j is a running
    product over the coordinates in order.  Beyond the m x d draws, a chunk
    holds the m*N bools of the mask and the m*N float64 to which the matvec
    casts it, at most about 36 MB, whatever d.  ``abs_error_estimate`` is
    the standard error of the mean of |Delta|^p, taken to the value by the
    delta method.
    """
    _check_p(p)
    _check_counts(samples=(samples, 1000), seed=(seed, 0))
    a, d = ps.weights, ps.d
    cols = ps.points.T.copy()  # one contiguous row per coordinate
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    s = s2 = 0.0
    done = 0
    chunk = max(1, min(samples, 4_000_000 // max(ps.n, 1)))
    while done < samples:
        m = min(chunk, samples - done)
        x = rng.random((m, d))
        inside = cols[0] < x[:, 0, None]
        vol = x[:, 0].copy()
        for j in range(1, d):
            inside &= cols[j] < x[:, j, None]
            vol *= x[:, j]
        delta = inside @ a - vol
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


def c_kernel(rho: ProductDensity) -> float:
    """C(K_d, rho_d) = (int_0^1 (1-t)/rho(t) dt)^d for a product density.

    By Fubini the one-dimensional integral is J(rho, 2), so this is
    ``J_functional(rho.marginal, 2.0) ** d``: closed form for the uniform and
    optimal marginals, quadrature for custom ones.  Raises
    NumericalInconsistencyError below the Cauchy-Schwarz floor 3^-d.
    """
    c_k = J_functional(rho.marginal, 2.0) ** rho.d
    if c_k < 3.0 ** (-rho.d) * (1.0 - 1e-12):
        raise NumericalInconsistencyError(
            f"C(K_d, rho_d)={c_k} below the Cauchy-Schwarz floor 3^-d"
        )
    return c_k


def method_for(p: float, d: int, method: str = "auto", n: int | None = None) -> str:
    """Method tag of the evaluator ``evaluate`` runs for (p, d) under
    ``method``; raises if p is invalid, the method cannot compute (p, d) or,
    given the rule size n, the even-p expansion would exceed its N guard."""
    _check_p(p)
    if not isinstance(method, str) or method not in ("auto", *METHODS):
        raise InvalidArgumentError(f"unknown method {method!r}")
    if method == "auto":
        if p == 2.0:
            return "kernel_p2"
        if d == 1:
            return "exact_d1"
        return "cell_quadrature" if d <= 4 else "monte_carlo"
    if method == "kernel" and p != 2.0:
        raise InvalidArgumentError(f"the kernel method computes p = 2 only, got p={p}")
    if method == "even" and p not in _EVEN_P_GUARDS:
        raise InvalidArgumentError(f"even-p expansion supports p in {{2, 4}}, got {p}")
    if method == "even" and n is not None and n > _EVEN_P_GUARDS[p]:
        raise SizeLimitError(f"N={n} exceeds the N<={_EVEN_P_GUARDS[p]} guard for p={p:g}")
    if method == "cells" and d > 4:
        raise SizeLimitError(f"cell quadrature supports d <= 4, got d={d}")
    return METHODS[method]


def evaluate(ps: WeightedPointSet, p: float, method: str = "auto", *, order: int = 8,
             samples: int | None = None, seed: int | None = None) -> DiscrepancyResult:
    """L_p by the ``method_for`` method.  Cells use the Gauss ``order``, Monte
    Carlo needs ``samples`` and ``seed``, and other methods ignore them."""
    tag = method_for(p, ps.d, method, ps.n)
    if tag == "kernel_p2":
        return l2_discrepancy_kernel(ps)
    if tag == "exact_d1":
        return lp_discrepancy_d1(ps, p)
    if tag == "even_p_exact":
        return lp_discrepancy_even(ps, p)
    if tag == "cell_quadrature":
        return lp_discrepancy_cells(ps, p, order)
    return lp_discrepancy_mc(ps, p, samples, seed)
