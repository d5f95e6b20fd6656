"""Domain types shared by all modules.

Weighted point sets in [0,1)^d with non-negative quadrature weights, product
densities, the local discrepancy function, and the initial (N=0)
worst-case error.  Also the three argument checks that every module
validates through: ``_check_p`` (exponents), ``_check_counts`` (integer
counts) and ``_unit_array`` (values in [0, 1]); each raises an
InvalidArgumentError.

Conventions
-----------
* Boxes [0, x) are half-open: a point with a coordinate equal to the
  corresponding coordinate of x is NOT counted.
* Point coordinates live in [0, 1); a coordinate equal to 1 is rejected at
  construction time.
* All types are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWeightError,
    InvalidArgumentError,
    UnsupportedExponentError,
)

__all__ = [
    "WeightedPointSet",
    "ProductDensity",
    "discrepancy_function",
    "initial_error",
    "weights_from_density",
    "save_point_set",
    "load_point_set",
]


# ---------------------------------------------------------------------------
# argument checks shared by every module
# ---------------------------------------------------------------------------

def _check_p(p, upper: float = sys.float_info.max) -> None:
    """Raise UnsupportedExponentError unless p is a real number, not a bool,
    with 1 <= p <= upper; the default upper admits every finite p.  A float
    skips the numbers.Real test, which costs ~0.5 us on hot scalar paths."""
    real = type(p) is float or (isinstance(p, numbers.Real) and not isinstance(p, bool))
    if not (real and 1.0 <= p <= upper):
        bound = ">= 1" if upper == sys.float_info.max else f"in [1, {upper:g}]"
        raise UnsupportedExponentError(f"p must be a finite number {bound}, got {p!r}")


def _check_counts(**counts) -> None:
    """Raise unless each name=(value, low) pair has an integer value >= low."""
    for name, (value, low) in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise InvalidArgumentError(f"{name} must be an integer >= {low}, got {value!r}")


def _unit_array(v, name):
    """v as a 1-d float array, checked to lie in [0, 1] (NaN fails)."""
    x = np.atleast_1d(np.asarray(v, dtype=float))
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise InvalidArgumentError(f"{name} must lie in [0, 1]")
    return x


@dataclass(frozen=True)
class WeightedPointSet:
    """N points t_k in [0,1)^d together with non-negative weights a_k.

    The pair (points, weights) defines the quadrature rule
    ``A(f) = sum_k a_k f(t_k)`` whose worst-case error is the generalized
    L_p-discrepancy evaluated by the :mod:`disclab.discrepancy` module.
    """

    points: np.ndarray  # shape (N, d)
    weights: np.ndarray  # shape (N,)

    def __post_init__(self):
        # one copy of each array; the range tests fail NaN and +-inf too
        pts = np.array(self.points, dtype=float, ndmin=2)
        w = np.array(self.weights, dtype=float, ndmin=1)
        if pts.ndim != 2:
            raise InvalidArgumentError("points must be a 2-d array (N, d)")
        if pts.shape[0] < 1:
            raise InvalidArgumentError("need at least one point")
        if w.shape != (pts.shape[0],):
            raise InvalidArgumentError(
                f"weights shape {w.shape} does not match N={pts.shape[0]}"
            )
        if not np.all((pts >= 0.0) & (pts < 1.0)):
            raise InvalidArgumentError("all coordinates must lie in [0, 1)")
        if not np.all((w >= 0.0) & (w < math.inf)):
            raise InvalidArgumentError("weights must be finite and non-negative")
        for arr in (pts, w):
            arr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @classmethod
    def qmc(cls, points) -> "WeightedPointSet":
        """Equal-weight (1/N) rule on the given points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = pts.shape[0]
        return cls(pts, np.full(n, 1.0 / n))


class ProductDensity:
    """Tensor-product density rho_d = rho^{(x) d} on [0,1]^d."""

    def __init__(self, d: int, marginal):
        _check_counts(d=(d, 1))
        self.d = int(d)
        self.marginal = marginal

    def pdf(self, x):
        """Density value(s) at x; x has shape (d,) or (m, d)."""
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        x2 = np.atleast_2d(arr)
        if x2.shape[1] != self.d:
            raise InvalidArgumentError(
                f"points have dimension {x2.shape[1]}, density has d={self.d}"
            )
        vals = np.asarray(self.marginal.pdf(x2.ravel())).reshape(x2.shape)
        out = np.prod(vals, axis=1)
        return float(out[0]) if single else out

    def __repr__(self):
        return f"ProductDensity(d={self.d}, marginal={self.marginal!r})"


def discrepancy_function(ps: WeightedPointSet, x) -> float:
    """Local discrepancy Delta(x) = sum_k a_k 1_{[0,x)}(t_k) - x_1...x_d."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ps.d,):
        raise InvalidArgumentError(
            f"x has shape {x.shape}, expected ({ps.d},)"
        )
    _unit_array(x, "x")
    inside = np.all(ps.points < x[None, :], axis=1)
    return float(ps.weights[inside].sum() - np.prod(x))


def initial_error(p: float, d: int) -> float:
    """Worst-case error of the zero algorithm: (p+1)^(-d/p)."""
    _check_p(p)
    _check_counts(d=(d, 1))
    p = float(p)
    # exp/log form is stable for very large d; exact powering below that
    if d > 30:
        return math.exp(-(d / p) * math.log1p(p))
    return (p + 1.0) ** (-d / p)


def weights_from_density(points, rho: ProductDensity) -> WeightedPointSet:
    """Importance-sampling weights a_k = 1 / (N rho_d(t_k)).

    For the uniform density this reproduces the QMC weights 1/N bit-exactly.
    Raises :class:`DegenerateWeightError` if the density vanishes at a point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    dens = np.atleast_1d(rho.pdf(pts))
    if np.any(dens <= 0.0):
        bad = int(np.argmax(dens <= 0.0))
        raise DegenerateWeightError(
            f"density vanishes at point index {bad}: {pts[bad]}"
        )
    return WeightedPointSet(pts, 1.0 / (n * dens))


# ---------------------------------------------------------------------------
# plain-text serialization: header "d N", then N rows of d coords + weight
# ---------------------------------------------------------------------------

def save_point_set(ps: WeightedPointSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{ps.d} {ps.n}\n")
        for k in range(ps.n):
            coords = " ".join(f"{c:.17g}" for c in ps.points[k])
            fh.write(f"{coords} {ps.weights[k]:.17g}\n")


def load_point_set(path) -> WeightedPointSet:
    """Read a file written by ``save_point_set``; any malformed content raises
    InvalidArgumentError naming the file."""
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise InvalidArgumentError("bad point-set header")
            d, n = int(header[0]), int(header[1])
            _check_counts(d=(d, 1), N=(n, 1))
            rows = []
            for k in range(n):
                row = fh.readline().split()
                if len(row) != d + 1:
                    raise InvalidArgumentError(f"bad row {k}")
                rows.append([float(v) for v in row])
            if any(line.strip() for line in fh):
                raise InvalidArgumentError(f"rows beyond the N={n} of its header")
        table = np.array(rows)
        return WeightedPointSet(table[:, :d], table[:, d])
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc
