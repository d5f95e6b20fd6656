"""Optimal one-dimensional sampling densities.

Solves the variational problem

    minimize  J(rho) = int_0^1 ( int_0^x 1/rho(t) dt )^{p/2} dx
    subject to rho >= 0,  int_0^1 rho = 1,

whose minimizer rho* is the optimal marginal for importance sampling of the
generalized L_p-discrepancy.  The minimizer satisfies the implicit equation

    t = (1 - rho * p/(p+1))^{2/p} * (1 + rho * 2/(p+1)).           (*)

With c = p/(p+1) and e = 2/p, the curve (*) is explicit in the parameter
s = 1 - c rho in [0, 1] (s = 0 at t = 0, s = 1 at t = 1):

    t      = x(s)   = s^e (1 + e(1-s))
    rho*   = rho(s) = (1-s)/c
    F(t)   = F(s)   = s^e P(s)/c,   P(s) = 1 + 2(1-s)^2/p - s^2/(p+1)
    S(t)   = S1 s^e
    dx/ds  = e(1+e) s^{e-1} (1-s).

F is the CDF in closed form: integrating rho by parts along (*) gives
F = t rho + G(1 - c rho)/c with G(s) = s^{(p+2)/p} - s^{(2p+2)/p}/(p+1),
which is the expression above.  ``pdf(t)`` solves x(s) = t and ``ppf(u)``
solves F(s) = u, each by NEWTON_STEPS vectorised Newton steps in w = log s,
so that s^e = exp(e w) keeps its precision where t^{p/2} would underflow;
``cdf(t)`` is F at the solved s.  Optimal densities hold no table.  The pdf
keeps its closed forms for p = 1 (trigonometric Cardano branch) and p = 2
(rho*(t) = (3/2) sqrt(1-t), with closed-form CDF and inverse too).
``J_functional`` of an optimal density is a Beta integral over s in closed
form and calls no solver; ``normalization`` integrates the pdf itself, so it
checks the solve.

Useful facts used throughout (all following from the first integral of the
Euler-Lagrange equation):

    S(x)  := int_0^x 1/rho*      = S1 * (1 - rho*(x) * p/(p+1))^{2/p}
    S1    := S(1)                = (p+2)/(p+1)
    J_min                        = (1/(p+1)) * ((p+2)/(p+1))^{p/2}
    rho*(0) = (p+1)/p,  rho*(1) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .core import _check_counts, _check_p, _unit_array
from .errors import (
    InvalidArgumentError,
    IntegrationFailureError,
    NumericalInconsistencyError,
    SolverFailureError,
)

__all__ = [
    "Density1D",
    "VariationalSolution",
    "optimal_density",
    "residual_eq_rho",
    "curve_residual",
    "S_of_x",
    "J_functional",
    "variational_solution",
]

P_MAX = 1e6
# Newton steps of the curve solves.  Over p in [1, 1e6] and targets from
# 1e-320 to 1 - 2^-53, four steps bring log x(s) and five bring log F(s) to
# within a few ulp of the target; one more step is margin.
NEWTON_STEPS = 6
# largest |log residual| accepted before the last Newton step
SOLVE_TOL = 1e-9


def rho_at_zero(p: float) -> float:
    """Boundary value rho*(0) = (p+1)/p, the upper end of the rho range."""
    return (p + 1.0) / p


def residual_eq_rho(p: float, t: float, rho_val: float) -> float:
    """Residual of the implicit optimal-density equation (*) at (t, rho_val).

    Returns t - (1 - rho*p/(p+1))^(2/p) * (1 + rho*2/(p+1)); zero exactly
    when (t, rho_val) lies on the optimal-density curve.  rho_val may range
    over the full closed interval [0, (p+1)/p]; beyond the upper end the base
    of the 2/p power turns negative and the expression is undefined.
    """
    _check_p(p, P_MAX)
    if not (0.0 <= t <= 1.0):
        raise InvalidArgumentError(f"t must be in [0, 1], got {t}")
    rmax = rho_at_zero(p)
    if not (0.0 <= rho_val <= rmax * (1.0 + 1e-12)):
        raise InvalidArgumentError(
            f"rho_val must be in [0, {rmax}], got {rho_val}"
        )
    base = max(1.0 - rho_val * p / (p + 1.0), 0.0)
    rhs = base ** (2.0 / p) * (1.0 + rho_val * 2.0 / (p + 1.0))
    return t - rhs


# ---------------------------------------------------------------------------
# the curve (*) in w = log s
# ---------------------------------------------------------------------------

def _log_x(p, w):
    """log x(s) and its derivative in w = log s."""
    e = 2.0 / p
    m = -np.expm1(w)  # 1 - s, exact near s = 1
    return e * w + np.log1p(e * m), e * (1.0 + e) * m / (1.0 + e * m)


def _p_excess(p, m):
    """P(s)/c - 1 at m = 1 - s: a sum of non-negative terms, so it keeps
    its relative precision near s = 1."""
    return (2.0 / p * m * m + m * (2.0 - m) / (p + 1.0)) * ((p + 1.0) / p)


def _log_cdf(p, w):
    """log F(s) and its derivative in w = log s."""
    e, c = 2.0 / p, p / (p + 1.0)
    m = -np.expm1(w)
    q = _p_excess(p, m)
    return e * w + np.log1p(q), e * (1.0 + e) * m * m / (c * (1.0 + q))


def _solve_w(p, y, log_f, log_scale, m_hi):
    """w = log s with log_f(p, w) = log y, for y in [0, 1].

    Near s = 0 both curves are y ~ s^e (1+e) / scale with scale 1 for x and
    c for F, and that start w_lo bounds the root from below, as x and F
    never exceed it.  Near s = 1, 1 - s ~ m_hi.  Newton starts from the
    larger of the two, and each step is clipped to [w_lo, 0].  Raises
    SolverFailureError if a residual before the last step exceeds SOLVE_TOL.
    """
    e = 2.0 / p
    with np.errstate(divide="ignore", invalid="ignore"):
        log_y = np.log(y)
        w_lo = 0.5 * p * (log_y + log_scale - math.log1p(e))
        w = np.maximum(w_lo, np.log1p(-np.minimum(m_hi, 1.0)))
        for _ in range(NEWTON_STEPS):
            val, slope = log_f(p, w)
            res = val - log_y
            step = np.divide(res, slope, out=np.zeros_like(res), where=slope > 0.0)
            w = np.clip(w - step, w_lo, 0.0)
    bad = np.abs(res) > SOLVE_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SolverFailureError(
            f"optimal-density solve failed at p={p}, y={y[i]}: "
            f"log residual {res[i]:.3e}", t=float(y[i]),
        )
    return np.where(y > 0.0, w, -np.inf)


def _w_of_t(p, t):
    """w = log s of the curve points at t (pdf and cdf)."""
    e = 2.0 / p
    return _solve_w(p, t, _log_x, 0.0, np.sqrt(2.0 * (1.0 - t) / (e * (1.0 + e))))


def _w_of_scalar_t(p, t):
    """``_w_of_t`` at one float t, in scalar math: the same start, steps and
    residual check, some 30 times faster than numpy on a 1-element array.
    Quadrature and ``curve_residual`` ask for one point at a time."""
    if t == 0.0:
        return -math.inf
    e = 2.0 / p
    log_t = math.log(t)
    w_lo = 0.5 * p * (log_t - math.log1p(e))
    m_hi = math.sqrt(2.0 * (1.0 - t) / (e * (1.0 + e)))
    w = max(w_lo, math.log1p(-m_hi)) if m_hi < 1.0 else w_lo
    for _ in range(NEWTON_STEPS):
        m = -math.expm1(w)
        res = e * w + math.log1p(e * m) - log_t
        if m > 0.0:
            w = min(max(w - res * (1.0 + e * m) / (e * (1.0 + e) * m), w_lo), 0.0)
    if abs(res) > SOLVE_TOL:
        raise SolverFailureError(
            f"optimal-density solve failed at p={p}, y={t}: log residual {res:.3e}", t=t,
        )
    return w


def _w_of_u(p, u):
    """w = log s of the quantile of u (ppf)."""
    e, c = 2.0 / p, p / (p + 1.0)
    return _solve_w(p, u, _log_cdf, math.log(c),
                    np.cbrt(3.0 * c * (1.0 - u) / (e * (1.0 + e))))


def _t_of_w(p, w):
    """x(s) = s^e (1 + e(1-s)) at w = log s."""
    e = 2.0 / p
    return np.exp(e * w) * (1.0 - e * np.expm1(w))


def _rho_of_w(p, w):
    """rho(s) = (1-s)/c at w = log s."""
    return -np.expm1(w) * ((p + 1.0) / p)


def curve_residual(p: float, t: float) -> float:
    """Residual t - x(s) of (*) at the solved curve point of t.

    x(s) = exp(e w) (1 + e(1-s)) is evaluated from w = log s, which carries
    the precision that a bare float64 rho cannot: for large p the curve is
    so steep in rho that adjacent float64 rho values straddle t-intervals far
    wider than machine epsilon, so plugging the rounded rho into
    ``residual_eq_rho`` measures that quantization, not the solver.
    """
    _check_p(p, P_MAX)
    if not (0.0 <= t <= 1.0):
        raise InvalidArgumentError(f"t must be in [0, 1], got {t}")
    e = 2.0 / p
    w = _w_of_scalar_t(p, float(t))
    return float(t) - math.exp(e * w) * (1.0 - e * math.expm1(w))


def _rho_p1(t: np.ndarray) -> np.ndarray:
    """Closed form for p=1: the k=2 branch of the trigonometric cubic root."""
    arg = np.clip(2.0 * np.asarray(t, dtype=float) - 1.0, -1.0, 1.0)
    rho = 1.0 + 2.0 * np.cos(np.arccos(arg) / 3.0 + 4.0 * np.pi / 3.0)
    return np.clip(rho, 0.0, None)


# each form with the exponent it fixes, if any
_FORMS = {"uniform": None, "closed_form_p1": 1.0, "closed_form_p2": 2.0,
          "general": None, "custom": None}


class Density1D:
    """A probability density on [0,1] with CDF and inverse-CDF access.

    ``form`` is one of ``uniform``, ``closed_form_p1``, ``closed_form_p2``,
    ``general`` (optimal density for any exponent, by the curve solves of
    the module docstring) or ``custom`` (user-supplied pdf, tabulated CDF).
    The optimal forms carry their exponent in ``p``; ``closed_form_p1``
    shares the curve solves of ``general`` for its CDF and inverse.
    Instances are immutable; all evaluation methods are pure.  ``general``
    needs p in [1, P_MAX], the other forms fix p (None for ``uniform`` and
    ``custom``), and ``custom`` needs both ``pdf_fn`` and the (t, cdf)
    ``table``.
    """

    def __init__(self, form, p=None, pdf_fn=None, table=None):
        if not isinstance(form, str) or form not in _FORMS:
            raise InvalidArgumentError(f"unknown density form {form!r}")
        if form == "general":
            _check_p(p, P_MAX)
            p = float(p)
        else:
            if p is not None:
                _check_p(p)
                if p != _FORMS[form]:
                    raise InvalidArgumentError(
                        f"the {form} density has p={_FORMS[form]}, got p={p!r}")
            p = _FORMS[form]
        if form == "custom" and (not callable(pdf_fn) or table is None):
            raise InvalidArgumentError("a custom density needs a callable pdf_fn and a table")
        self.form = form
        self.p = p
        self._pdf_fn = pdf_fn
        if table is not None:
            t, cdf = table
            self._table_t = np.asarray(t, dtype=float)
            self._table_cdf = np.asarray(cdf, dtype=float)
        else:
            self._table_t = self._table_cdf = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls) -> "Density1D":
        return cls("uniform")

    @classmethod
    def closed_form_p1(cls) -> "Density1D":
        return cls("closed_form_p1")

    @classmethod
    def closed_form_p2(cls) -> "Density1D":
        return cls("closed_form_p2")

    @classmethod
    def general(cls, p: float) -> "Density1D":
        """The optimal density by the general curve solves, at any p in
        [1, P_MAX], including the closed-form exponents 1 and 2."""
        return cls("general", p)

    @classmethod
    def from_table(cls, t, rho) -> "Density1D":
        """Custom density from a tabulated (t, rho) grid; pdf is interpolated
        linearly and the CDF is the renormalized cumulative trapezoid."""
        t = np.asarray(t, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if t.ndim != 1 or t.shape != rho.shape or t.size < 2:
            raise InvalidArgumentError("need matching 1-d (t, rho) arrays")
        if not np.all(np.diff(t) > 0.0) or t[0] != 0.0 or t[-1] != 1.0:
            raise InvalidArgumentError("t grid must increase strictly from 0 to 1")
        pdf_fn = lambda x: np.interp(x, t, rho)
        return cls("custom", pdf_fn=pdf_fn, table=(t, _cdf_table(t, rho)))

    @classmethod
    def from_callable(cls, pdf_fn, n_nodes: int = 8193) -> "Density1D":
        _check_counts(n_nodes=(n_nodes, 2))
        t = np.linspace(0.0, 1.0, n_nodes)
        rho = np.asarray(pdf_fn(t), dtype=float)
        return cls("custom", pdf_fn=pdf_fn, table=(t, _cdf_table(t, rho)))

    # -- evaluation ---------------------------------------------------------

    @property
    def _solved(self) -> bool:
        """Whether cdf and ppf go through the curve solves."""
        return self.form in ("closed_form_p1", "general")

    def pdf(self, t):
        """Density value(s) at t, exact for every form."""
        if self.form == "general" and np.ndim(t) == 0:
            t = float(t)
            if not (0.0 <= t <= 1.0):
                raise InvalidArgumentError("t must lie in [0, 1]")
            return -math.expm1(_w_of_scalar_t(self.p, t)) * ((self.p + 1.0) / self.p)
        x = _unit_array(t, "t")
        if self.form == "uniform":
            out = np.ones_like(x)
        elif self.form == "closed_form_p1":
            out = _rho_p1(x)
        elif self.form == "closed_form_p2":
            out = 1.5 * np.sqrt(np.clip(1.0 - x, 0.0, None))
        elif self.form == "general":
            out = _rho_of_w(self.p, _w_of_t(self.p, x))
        else:
            out = np.asarray(self._pdf_fn(x), dtype=float)
        return float(out[0]) if np.ndim(t) == 0 else out

    def cdf(self, t):
        """CDF; closed form for every form but ``custom``, whose CDF is the
        renormalized cumulative trapezoid of its table."""
        x = _unit_array(t, "t")
        if self.form == "uniform":
            out = x.copy()
        elif self.form == "closed_form_p2":
            out = 1.0 - (1.0 - x) ** 1.5
        elif self._solved:
            w = _w_of_t(self.p, x)
            out = np.exp(2.0 / self.p * w) * (1.0 + _p_excess(self.p, -np.expm1(w)))
        else:
            out = np.interp(x, self._table_t, self._table_cdf)
        return float(out[0]) if np.ndim(t) == 0 else out

    def ppf(self, u):
        """Inverse CDF; closed form for the uniform and p=2 densities, the
        curve solve F(s) = u for the other optimal forms, and monotone
        interpolation of the tabulated CDF for custom densities."""
        x = _unit_array(u, "u")
        if self.form == "uniform":
            out = x.copy()
        elif self.form == "closed_form_p2":
            out = 1.0 - (1.0 - x) ** (2.0 / 3.0)
        elif self._solved:
            out = _t_of_w(self.p, _w_of_u(self.p, x))
        else:
            out = np.interp(x, self._table_cdf, self._table_t)
        return float(out[0]) if np.ndim(u) == 0 else out

    def ppf_pdf(self, u):
        """(ppf(u), pdf(ppf(u))) for an array u: the sampler's points and the
        density it weights them by.  The solved forms take both from one
        solve of F(s) = u, so sampling and weighting use the same s."""
        if self._solved:
            w = _w_of_u(self.p, _unit_array(u, "u"))
            return _t_of_w(self.p, w), _rho_of_w(self.p, w)
        t = np.atleast_1d(self.ppf(u))
        return t, np.atleast_1d(self.pdf(t))

    def normalization(self) -> float:
        """int_0^1 pdf, by adaptive quadrature on the exact pdf."""
        val, err = quad(lambda s: self.pdf(s), 0.0, 1.0,
                        epsabs=1e-12, epsrel=1e-12, limit=200)
        if not math.isfinite(val):
            raise IntegrationFailureError("density normalization diverged")
        return val

    def export_csv(self, path, n: int = 257) -> None:
        """Write an n-row (t, rho, cdf) table for plotting."""
        _check_counts(n=(n, 2))
        t = np.linspace(0.0, 1.0, n)
        rho = np.atleast_1d(self.pdf(t))
        cdf = np.atleast_1d(self.cdf(t))
        with open(path, "w") as fh:
            fh.write("t,rho,cdf\n")
            for row in zip(t, rho, cdf):
                fh.write("{:.17g},{:.17g},{:.17g}\n".format(*row))

    def __repr__(self):
        ptag = "" if self.p is None else f", p={self.p}"
        return f"Density1D({self.form!r}{ptag})"


def _cdf_table(t: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of rho on the grid, renormalized so F(1) = 1;
    rho must be finite and non-negative (NaN fails)."""
    if rho.shape != t.shape or not np.all((rho >= 0.0) & (rho < math.inf)):
        raise InvalidArgumentError("custom density must be finite and non-negative")
    cdf = np.concatenate(
        ([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(t)))
    )
    if cdf[-1] <= 0.0:
        raise InvalidArgumentError("density integrates to zero")
    cdf /= cdf[-1]
    return cdf


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def optimal_density(p: float) -> Density1D:
    """The minimizer rho* of J for the given exponent p in [1, 1e6]."""
    _check_p(p, P_MAX)
    if abs(p - 1.0) <= 1e-12:
        return Density1D.closed_form_p1()
    if abs(p - 2.0) <= 1e-12:
        return Density1D.closed_form_p2()
    return Density1D.general(p)


def S_of_x(density: Density1D, x: float) -> float:
    """S(x) = int_0^x 1/rho.

    For the optimal densities the improper endpoint (rho(1) = 0) is removed
    analytically: combining the first integral
    S(x) = S1 (1 - rho p/(p+1))^{2/p} with the implicit curve equation gives
    S(x) = S1 * x / (1 + 2 rho(x)/(p+1)), which stays fully conditioned even
    for large p.  Uniform is the identity; custom densities are integrated
    numerically, and a zero of rho under a quadrature node fails the check.
    """
    if not (0.0 <= x <= 1.0):
        raise InvalidArgumentError(f"x must lie in [0, 1], got {x}")
    if density.form == "uniform":
        return float(x)
    if density.p is not None:
        p = density.p
        s1 = (p + 2.0) / (p + 1.0)
        rho = float(density.pdf(x))
        return s1 * x / (1.0 + 2.0 * rho / (p + 1.0))

    def integrand(t):
        r = float(density.pdf(t))
        return 1.0 / r if r > 0.0 else math.inf

    val, err = quad(integrand, 0.0, x, epsabs=1e-10, epsrel=1e-10, limit=200)
    if not math.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
        raise IntegrationFailureError(
            f"integral of 1/rho up to x={x} did not converge (err={err:.1e})"
        )
    return val


def J_functional(density: Density1D, p: float) -> float:
    """J(rho) = int_0^1 S(x)^{p/2} dx, in closed form but for custom densities.

    Uniform gives 2/(p+2).  For an optimal density of exponent q (not
    necessarily p) the integral runs over its curve parameter s:
    S = S1 s^e and dx = e(1+e) s^{e-1} (1-s) ds with e = 2/q, so J is the
    Beta integral e(1+e) S1^{p/2} int (1-s) s^{a-1} ds
    = (1+e) S1^{p/2} / ((1+p/2)(1+a)) with a = e(1+p/2).  A custom density
    is integrated: at p = 2 by Fubini, J = int_0^1 (1-t)/rho(t) dt, and at
    other p as S_of_x^{p/2} over x.  Raises IntegrationFailureError when J
    exceeds the float range or the quadrature does not converge.
    """
    _check_p(p)
    if density.form == "uniform":
        return 2.0 / (p + 2.0)
    if density.p is not None:
        e, s1, h = 2.0 / density.p, (density.p + 2.0) / (density.p + 1.0), 1.0 + p / 2.0
        try:
            val = (1.0 + e) * s1 ** (p / 2.0) / (h * (e * h + 1.0))
        except OverflowError:
            val = math.inf
    elif p == 2.0:
        def integrand(t):
            r = float(density.pdf(t))
            if r <= 0.0:
                # integrable endpoint singularities only; interior zeros
                # diverge and show up in the quadrature error below
                return 0.0 if t >= 1.0 - 1e-14 else math.inf
            return (1.0 - t) / r

        val, err = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400)
        if err > 1e-8 * max(1.0, abs(val)):
            raise IntegrationFailureError(
                f"J functional quadrature did not converge (err={err:.2e})"
            )
    else:
        val, err = quad(lambda x: S_of_x(density, x) ** (p / 2.0), 0.0, 1.0,
                        epsabs=1e-10, epsrel=1e-10, limit=200)
    if not math.isfinite(val):
        raise IntegrationFailureError(f"J functional at p={p} is not a finite float")
    return val


@dataclass(frozen=True)
class VariationalSolution:
    """Optimal constants of the variational problem for one exponent.

    lambda2 stores the quantity 2*lambda (the Lagrange-multiplier combination
    that appears in the first integral).
    """

    p: float
    S1: float
    mu: float
    lambda2: float
    Jmin: float


def variational_solution(p: float) -> VariationalSolution:
    """Closed-form optimum: S1 = (p+2)/(p+1) and the implied mu, 2*lambda,
    J_min, with the two first-integral identities re-verified numerically."""
    _check_p(p, P_MAX)
    s1 = (p + 2.0) / (p + 1.0)
    sq = math.sqrt(s1 - 1.0)  # = 1/sqrt(p+1)
    s1_p2 = s1 ** (p / 2.0)
    mu = s1_p2 / (p + 2.0) * (2.0 + p / (math.sqrt(p + 1.0) * sq))
    lambda2 = p / ((p + 2.0) * math.sqrt(p + 1.0)) * s1_p2 * s1 / sq
    jmin = s1_p2 / (p + 1.0)

    res_a = lambda2 - (mu * s1 - 2.0 / (p + 2.0) * s1_p2 * s1)
    res_b = lambda2 ** 2 - (
        mu ** 2 * s1 - 4.0 * mu / (p + 2.0) * s1_p2 * s1 + s1 ** (p + 1.0) / (p + 1.0)
    )
    scale = max(1.0, abs(lambda2))
    if abs(res_a) > 1e-10 * scale or abs(res_b) > 1e-10 * scale ** 2:
        raise NumericalInconsistencyError(
            f"first-integral identities violated at p={p}: {res_a:.2e}, {res_b:.2e}"
        )
    return VariationalSolution(p=float(p), S1=s1, mu=mu, lambda2=lambda2, Jmin=jmin)
