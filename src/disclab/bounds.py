"""Closed-form constants and comparison tables for the discrepancy bounds.

The exponential base of the d-dependence is

    alpha_old(p) = ((2p+2)/(p+2))^{1/p}     (uniform sampling)
    alpha_new(p) = ((p+2)/(p+1))^{1/2}      (optimal density)

together with the asymptotic prefactor sqrt(2)/pi^{1/(2p)} Gamma((p+1)/2)^{1/p}
and the explicit even-p constants 3^{2/3} 2^{5/2} p and sqrt(2p).  The even-p
constants are proved for even integers p only; ``BoundsRow.even_p_valid``
records whether they apply.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .core import _check_counts, _check_p
from .density import P_MAX
from .errors import InvalidArgumentError

__all__ = [
    "BoundsRow",
    "bounds_row",
    "gamma_prefactor",
    "gamma_prefactor_asymptote",
    "complexity_estimate",
    "figure_alpha_data",
    "write_alpha_csv",
]


def gamma_prefactor(p: float) -> float:
    """sqrt(2)/pi^{1/(2p)} * Gamma((p+1)/2)^{1/p}; lgamma keeps it accurate
    for large p."""
    _check_p(p)
    log_gamma_root = math.lgamma((p + 1.0) / 2.0) / p
    return math.sqrt(2.0) * math.exp(log_gamma_root - math.log(math.pi) / (2.0 * p))


def gamma_prefactor_asymptote(p: float) -> float:
    """Stirling limit sqrt(p/(2e)) of Gamma((p+1)/2)^{1/p}."""
    _check_p(p)
    return math.sqrt(p / (2.0 * math.e))


@dataclass(frozen=True)
class BoundsRow:
    """Per-p constants of the upper-bound family."""

    p: float
    alpha_old: float
    alpha_new: float
    alpha_old_sq: float
    alpha_new_sq: float
    gamma_prefactor: float
    init_err_d1: float
    eq10_const: float
    eq11_const: float
    even_p_valid: bool


def bounds_row(p: float) -> BoundsRow:
    _check_p(p, P_MAX)
    alpha_old = ((2.0 * p + 2.0) / (p + 2.0)) ** (1.0 / p)
    alpha_new = math.sqrt((p + 2.0) / (p + 1.0))
    return BoundsRow(
        p=float(p),
        alpha_old=alpha_old,
        alpha_new=alpha_new,
        alpha_old_sq=alpha_old ** 2,
        alpha_new_sq=alpha_new ** 2,
        gamma_prefactor=gamma_prefactor(p),
        init_err_d1=(p + 1.0) ** (-1.0 / p),
        eq10_const=3.0 ** (2.0 / 3.0) * 2.0 ** 2.5 * p,
        eq11_const=math.sqrt(2.0 * p),
        even_p_valid=(p >= 2.0 and p == int(p) and int(p) % 2 == 0),
    )


def complexity_estimate(d: int, eps: float, C_p: float, alpha_p: float) -> float:
    """Point-count bound C_p^2 alpha_p^{2d} eps^{-2} implied by an average
    bound C_p alpha_p^d N^{-1/2}; the caller rounds up."""
    _check_counts(d=(d, 1))
    if not (0.0 < eps < 1.0):
        raise InvalidArgumentError(f"eps must be in (0,1), got {eps}")
    if not (0.0 < C_p < math.inf and 1.0 <= alpha_p < math.inf):
        raise InvalidArgumentError("need finite C_p > 0 and alpha_p >= 1")
    return C_p ** 2 * alpha_p ** (2 * d) / eps ** 2


def figure_alpha_data(p_grid):
    """(p, alpha_old^2, alpha_new^2) rows for the alpha comparison figure.
    The lower-bound curve c_p has no closed form and is omitted."""
    rows = []
    for p in p_grid:
        _check_p(p, 200.0)
        row = bounds_row(p)
        rows.append((row.p, row.alpha_old_sq, row.alpha_new_sq))
    return rows


def write_alpha_csv(path, p_grid) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "alpha_old_sq", "alpha_new_sq"])
        for row in figure_alpha_data(p_grid):
            writer.writerow([f"{v:.17g}" for v in row])
