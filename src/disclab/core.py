"""Domain types shared by all modules.

Weighted point sets in [0,1)^d with non-negative quadrature weights, product
densities, the local discrepancy function, and the initial (N=0)
worst-case error.

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


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


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
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.ndim != 2:
            raise InvalidArgumentError("points must be a 2-d array (N, d)")
        if pts.shape[0] < 1:
            raise InvalidArgumentError("need at least one point")
        if w.shape != (pts.shape[0],):
            raise InvalidArgumentError(
                f"weights shape {w.shape} does not match N={pts.shape[0]}"
            )
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("points must be finite")
        if np.any(pts < 0.0) or np.any(pts >= 1.0):
            raise InvalidArgumentError("all coordinates must lie in [0, 1)")
        if not np.all(np.isfinite(w)):
            raise InvalidArgumentError("weights must be finite")
        if np.any(w < 0.0):
            raise InvalidArgumentError("weights must be non-negative")
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "weights", _frozen(w))

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
    """Tensor-product density rho_d = rho^{(x) d} on [0,1]^d.

    ``kind`` is one of ``"uniform"``, ``"optimal"`` (with the target exponent
    recorded on the marginal) or ``"custom"``.
    """

    def __init__(self, d: int, marginal, kind: str = "custom"):
        if d < 1:
            raise InvalidArgumentError("dimension must be >= 1")
        if kind not in ("uniform", "optimal", "custom"):
            raise InvalidArgumentError(f"unknown density kind {kind!r}")
        self.d = int(d)
        self.marginal = marginal
        self.kind = kind

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
        return f"ProductDensity(d={self.d}, kind={self.kind!r})"


def discrepancy_function(ps: WeightedPointSet, x) -> float:
    """Local discrepancy Delta(x) = sum_k a_k 1_{[0,x)}(t_k) - x_1...x_d."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ps.d,):
        raise InvalidArgumentError(
            f"x has shape {x.shape}, expected ({ps.d},)"
        )
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise InvalidArgumentError("x must lie in [0,1]^d")
    inside = np.all(ps.points < x[None, :], axis=1)
    return float(ps.weights[inside].sum() - np.prod(x))


def initial_error(p: float, d: int) -> float:
    """Worst-case error of the zero algorithm: (p+1)^(-d/p)."""
    p = float(p)
    if math.isinf(p):
        raise UnsupportedExponentError("p = inf is unsupported (q = 1 branch)")
    if p < 1.0:
        raise InvalidArgumentError(f"p must be >= 1, got {p}")
    if d < 1:
        raise InvalidArgumentError("d must be >= 1")
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
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise InvalidArgumentError(f"bad point-set header in {path}")
        d, n = int(header[0]), int(header[1])
        pts = np.empty((n, d))
        w = np.empty(n)
        for k in range(n):
            row = fh.readline().split()
            if len(row) != d + 1:
                raise InvalidArgumentError(f"bad row {k} in {path}")
            pts[k] = [float(v) for v in row[:d]]
            w[k] = float(row[d])
        if any(line.strip() for line in fh):
            raise InvalidArgumentError(f"{path} has rows beyond the N={n} of its header")
    return WeightedPointSet(pts, w)
