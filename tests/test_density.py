"""Tests for the optimal sampling densities and the variational constants.

Frozen reference values marked "50-digit bisection" were computed once with
an independent arbitrary-precision bisection of the implicit curve equation
and rounded to the nearest float64.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from disclab import density
from disclab.density import (
    Density1D,
    J_functional,
    S_of_x,
    curve_residual,
    optimal_density,
    residual_eq_rho,
    variational_solution,
)
from disclab.errors import IntegrationFailureError, InvalidArgumentError

P_GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0)

# 50-digit bisection of t = (1 - rho p/(p+1))^{2/p} (1 + 2 rho/(p+1))
RHO_GOLDEN = {
    (1.0, 0.3): 1.2734850178188648,
    (1.5, 0.25): 1.3238614765738198,
    (3.0, 0.5): 1.0875722947495171,
    (10.0, 0.9): 0.7599268026288354,
    (100.0, 0.7): 1.0099999932513829,
    (100.0, 0.99): 0.7042669832834188,
}


# the curve solve as it was before it wrote into preallocated buffers,
# verbatim: every step allocates its temporaries and clips with np.clip

def _log_x_alloc(p, w):
    """log x(s) and its derivative in w = log s."""
    e = 2.0 / p
    m = -np.expm1(w)  # 1 - s, exact near s = 1
    return e * w + np.log1p(e * m), e * (1.0 + e) * m / (1.0 + e * m)


def _p_excess_alloc(p, m):
    """P(s)/c - 1 at m = 1 - s: a sum of non-negative terms, so it keeps
    its relative precision near s = 1."""
    return (2.0 / p * m * m + m * (2.0 - m) / (p + 1.0)) * ((p + 1.0) / p)


def _log_cdf_alloc(p, w):
    """log F(s) and its derivative in w = log s."""
    e, c = 2.0 / p, p / (p + 1.0)
    m = -np.expm1(w)
    q = _p_excess_alloc(p, m)
    return e * w + np.log1p(q), e * (1.0 + e) * m * m / (c * (1.0 + q))


def _solve_w_alloc(p, y, log_f, log_scale, m_hi):
    e = 2.0 / p
    with np.errstate(divide="ignore", invalid="ignore"):
        log_y = np.log(y)
        w_lo = 0.5 * p * (log_y + log_scale - math.log1p(e))
        w = np.maximum(w_lo, np.log1p(-np.minimum(m_hi, 1.0)))
        for _ in range(density.NEWTON_STEPS):
            val, slope = log_f(p, w)
            res = val - log_y
            step = np.divide(res, slope, out=np.zeros_like(res), where=slope > 0.0)
            w = np.clip(w - step, w_lo, 0.0)
    assert not np.any(np.abs(res) > density.SOLVE_TOL)
    return np.where(y > 0.0, w, -np.inf)


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


class TestClosedForms:
    def test_p1_boundary_values(self):
        dens = optimal_density(1.0)
        assert dens.form == "closed_form_p1"
        assert dens.pdf(0.0) == pytest.approx(2.0, abs=1e-12)
        assert dens.pdf(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_p1_cardano_branch_midpoint(self):
        # t=0.5: arccos(0)/3 + 4pi/3 gives rho = 1 exactly
        dens = optimal_density(1.0)
        assert dens.pdf(0.5) == pytest.approx(1.0, abs=1e-14)

    def test_p2_closed_form_pointwise(self):
        dens = optimal_density(2.0)
        assert dens.form == "closed_form_p2"
        t = np.linspace(0.0, 1.0, 101)
        assert np.allclose(dens.pdf(t), 1.5 * np.sqrt(1.0 - t), atol=1e-15)

    def test_closed_forms_match_general_solver(self):
        # criterion-2 style cross-check at 1e-8, away from the p-dispatch
        t = np.linspace(0.0, 1.0, 257)
        for p, closed in ((1.0, optimal_density(1.0)), (2.0, optimal_density(2.0))):
            general = Density1D.general(p)
            diff = np.abs(np.atleast_1d(general.pdf(t)) - np.atleast_1d(closed.pdf(t)))
            assert diff.max() <= 1e-8


class TestResidual:
    def test_p2_closed_form_on_curve(self):
        # rho = 0.75 solves the curve at t = 1 - (4/9)(0.75)^2 = 0.75
        assert abs(residual_eq_rho(2.0, 0.75, 0.75)) <= 1e-15

    def test_boundary_examples(self):
        assert residual_eq_rho(1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert residual_eq_rho(1.0, 0.0, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_rho_beyond_upper_end_rejected(self):
        with pytest.raises(InvalidArgumentError):
            residual_eq_rho(2.0, 0.5, 1.51)
        with pytest.raises(InvalidArgumentError):
            residual_eq_rho(2.0, 0.5, -0.01)

    def test_domain_checks(self):
        with pytest.raises(InvalidArgumentError):
            residual_eq_rho(0.5, 0.5, 0.5)
        with pytest.raises(InvalidArgumentError):
            residual_eq_rho(2.0, 1.5, 0.5)

    @pytest.mark.parametrize("p", P_GRID)
    def test_curve_residual_on_grid(self, p):
        t = np.linspace(0.0, 1.0, 1001)
        res = max(abs(curve_residual(p, ti)) for ti in t)
        assert res <= 1e-9

    @pytest.mark.parametrize("p", (94.47, 94.6, 94.647, 94.664, 94.73))
    def test_former_solver_failure_band(self, p):
        # these exponents raised SolverFailureError at t = 1.4714e-7, where
        # the old fixed-point/bracketing switch left a residual of 1.5e-7
        dens = optimal_density(p)
        assert abs(curve_residual(p, 1.4714e-7)) <= 1e-9
        assert 0.0 < dens.pdf(1.4714e-7) <= (p + 1.0) / p
        t = np.linspace(0.0, 1.0, 1001)
        assert max(abs(curve_residual(p, ti)) for ti in t) <= 1e-9
        assert np.all(np.isfinite(dens.pdf(t)))

    @pytest.mark.parametrize("p", (1.0, 1.25, 1.5, 2.0, 3.0))
    def test_direct_residual_small_p(self, p):
        # the textbook residual form is well conditioned for moderate p
        dens = optimal_density(p)
        for ti in np.linspace(0.0, 1.0, 101):
            assert abs(residual_eq_rho(p, ti, float(dens.pdf(ti)))) <= 1e-9


class TestSolvedDensities:
    @pytest.mark.parametrize("p_t,rho", sorted(RHO_GOLDEN.items()))
    def test_golden_curve_points(self, p_t, rho):
        p, t = p_t
        got = float(optimal_density(p).pdf(t))
        # the trigonometric p=1 form carries a few ulp of libm rounding
        assert got == pytest.approx(rho, abs=2e-15)

    @pytest.mark.parametrize("p", P_GRID)
    def test_boundary_values(self, p):
        dens = optimal_density(p)
        assert dens.pdf(0.0) == pytest.approx((p + 1.0) / p, abs=1e-12)
        assert dens.pdf(1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_normalization(self, p):
        assert optimal_density(p).normalization() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p", P_GRID)
    def test_monotone_decreasing(self, p):
        dens = optimal_density(p)
        t = np.linspace(0.0, 1.0, 1001)
        rho = np.array([float(dens.pdf(ti)) for ti in t])
        # strict decrease is representable in float64 for moderate p; for
        # very large p the curve is flat to machine precision near t=0
        assert np.all(np.diff(rho) <= 0.0)
        if p <= 10.0:
            assert np.all(np.diff(rho) < 0.0)
        assert rho[0] > rho[-1]

    @pytest.mark.parametrize("p", P_GRID + (1e4, 1e6))
    def test_scalar_pdf_matches_array_pdf(self, p):
        # one point goes through scalar math, arrays through numpy
        dens = Density1D.general(p)
        t = np.concatenate((np.linspace(0.0, 1.0, 401), np.logspace(-300, -1, 25),
                            1.0 - np.logspace(-16, -1, 25)))
        scalar = np.array([dens.pdf(float(ti)) for ti in t])
        np.testing.assert_allclose(dens.pdf(t), scalar, rtol=0.0, atol=1e-15)

    def test_cdf_properties(self):
        for p in (1.0, 2.0, 3.0, 10.0):
            dens = optimal_density(p)
            t = np.linspace(0.0, 1.0, 201)
            cdf = np.atleast_1d(dens.cdf(t))
            assert cdf[0] == pytest.approx(0.0, abs=1e-10)
            assert cdf[-1] == pytest.approx(1.0, abs=1e-10)
            assert np.all(np.diff(cdf) >= -1e-15)


class TestInPlaceSolve:
    """The buffered Newton solve against the allocating one, bit for bit."""

    TARGETS = np.concatenate((
        [0.0, 1e-320, 1e-12, 1.0 - 2.0 ** -53, 1.0],
        np.random.default_rng(2718).random(500),
    ))

    @pytest.mark.parametrize("p", (1.0, 1.5, 3.0, 94.6, 1e3, 1e6))
    def test_solve_w_bit_for_bit(self, p):
        y, e, c = self.TARGETS, 2.0 / p, p / (p + 1.0)
        m_x = np.sqrt(2.0 * (1.0 - y) / (e * (1.0 + e)))
        m_f = np.cbrt(3.0 * c * (1.0 - y) / (e * (1.0 + e)))
        w_t = density._solve_w(p, y, density._log_x, 0.0, m_x)
        w_u = density._solve_w(p, y, density._log_cdf, math.log(c), m_f)
        assert same_bits(w_t, _solve_w_alloc(p, y, _log_x_alloc, 0.0, m_x))
        assert same_bits(w_u, _solve_w_alloc(p, y, _log_cdf_alloc, math.log(c), m_f))
        cdf = np.exp(e * w_t) * (1.0 + _p_excess_alloc(p, -np.expm1(w_t)))
        assert same_bits(Density1D.general(p).cdf(y), cdf)

    @pytest.mark.parametrize("p", (1.0, 1.5, 3.0, 94.6))
    def test_public_outputs_bit_for_bit(self, p):
        y, e, c = self.TARGETS, 2.0 / p, p / (p + 1.0)
        dens = optimal_density(p)
        w_u = _solve_w_alloc(p, y, _log_cdf_alloc, math.log(c),
                             np.cbrt(3.0 * c * (1.0 - y) / (e * (1.0 + e))))
        t = np.exp(e * w_u) * (1.0 - e * np.expm1(w_u))
        rho = -np.expm1(w_u) * ((p + 1.0) / p)
        got_t, got_rho = dens.ppf_pdf(y)
        assert same_bits(got_t, t) and same_bits(got_rho, rho)
        assert same_bits(dens.ppf(y), t)
        if p != 1.0:
            w_t = _solve_w_alloc(p, y, _log_x_alloc, 0.0,
                                 np.sqrt(2.0 * (1.0 - y) / (e * (1.0 + e))))
            assert same_bits(dens.pdf(y), -np.expm1(w_t) * ((p + 1.0) / p))


class TestSOfX:
    def test_uniform_identity(self):
        assert S_of_x(Density1D.uniform(), 0.5) == 0.5

    def test_p2_terminal_value(self):
        assert S_of_x(optimal_density(2.0), 1.0) == pytest.approx(4.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_terminal_value_general(self, p):
        s1 = (p + 2.0) / (p + 1.0)
        assert S_of_x(optimal_density(p), 1.0) == pytest.approx(s1, abs=1e-8)

    def test_p2_closed_expression(self):
        dens = optimal_density(2.0)
        for x in (0.1, 0.5, 0.75, 0.9):
            expected = (4.0 / 3.0) * (1.0 - math.sqrt(1.0 - x))
            assert S_of_x(dens, x) == pytest.approx(expected, rel=1e-12)

    def test_custom_density_quadrature(self):
        dens = Density1D.from_callable(lambda t: np.full_like(np.asarray(t, float), 1.0))
        assert S_of_x(dens, 0.7) == pytest.approx(0.7, rel=1e-8)

    def test_domain_check(self):
        with pytest.raises(InvalidArgumentError):
            S_of_x(Density1D.uniform(), 1.5)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_table_zero_under_a_node_is_typed(self, tmp_path):
        # the exported table has rho(1) = 0, and a quad node rounds to t = 1;
        # 1/rho there once raised ZeroDivisionError
        path = tmp_path / "rho_p2.csv"
        optimal_density(2.0).export_csv(path, n=513)
        t, rho = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1)).T
        with pytest.raises(IntegrationFailureError):
            S_of_x(Density1D.from_table(t, rho), 1.0)


class TestJFunctional:
    def test_uniform_p2(self):
        assert J_functional(Density1D.uniform(), 2.0) == pytest.approx(0.5, abs=1e-9)

    def test_optimal_p2(self):
        assert J_functional(optimal_density(2.0), 2.0) == pytest.approx(
            4.0 / 9.0, abs=1e-9
        )

    def test_optimal_p1(self):
        expected = 0.5 * math.sqrt(1.5)
        assert J_functional(optimal_density(1.0), 1.0) == pytest.approx(
            expected, abs=1e-9
        )

    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_closed_form_minimum(self, p):
        jmin = variational_solution(p).Jmin
        assert J_functional(optimal_density(p), p) == pytest.approx(jmin, abs=1e-7)

    @pytest.mark.parametrize("p", (1e5, 1e6))
    def test_uniform_large_p(self, p):
        # quadrature once returned 7.5e-27 at p = 1e5 and 0.0 at p = 1e6
        assert J_functional(Density1D.uniform(), p) == 2.0 / (p + 2.0)

    def test_p1_density_large_p_is_finite(self):
        # quadrature once raised "J functional diverged" here
        assert J_functional(optimal_density(1.0), 1000.0) == pytest.approx(
            3.0 * 1.5 ** 500.0 / (501.0 * 1003.0), rel=1e-13)

    def test_overflow_is_typed(self):
        # 1.5^5000 once escaped as an untyped OverflowError
        with pytest.raises(IntegrationFailureError):
            J_functional(optimal_density(1.0), 1e4)

    @pytest.mark.parametrize("q", (1.5, 3.0, 10.0))
    @pytest.mark.parametrize("p", (1.0, 2.0, 4.0, 7.0))
    def test_closed_form_matches_s_quadrature(self, q, p):
        # S_of_x goes through the pdf solve, the closed form does not
        dens = optimal_density(q)
        val, _ = quad(lambda x: S_of_x(dens, x) ** (p / 2.0), 0.0, 1.0,
                      epsabs=1e-12, epsrel=1e-12, limit=200)
        assert J_functional(dens, p) == pytest.approx(val, abs=1e-9)

    def test_custom_p2_fubini(self):
        dens = Density1D.from_callable(lambda t: 0.5 + t)
        j = J_functional(dens, 2.0)
        assert j == pytest.approx(1.5 * math.log(3.0) - 1.0, rel=1e-12)
        val, _ = quad(lambda x: S_of_x(dens, x), 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        assert j == pytest.approx(val, abs=1e-9)

    def test_cross_optimality(self):
        # the p-optimal density beats uniform and the other closed forms at p
        candidates = {
            "uniform": Density1D.uniform(),
            "p1": optimal_density(1.0),
            "p2": optimal_density(2.0),
        }
        for p in (1.0, 2.0, 3.0):
            best = J_functional(optimal_density(p), p)
            for name, dens in candidates.items():
                assert best <= J_functional(dens, p) + 1e-9, (p, name)


class TestCdfInverse:
    def test_p2_closed_form(self):
        dens = optimal_density(2.0)
        assert dens.ppf(0.0) == pytest.approx(0.0, abs=1e-12)
        assert dens.ppf(1.0) == pytest.approx(1.0, abs=1e-12)
        # 1 - 0.5^{2/3}, 50-digit reference
        assert dens.ppf(0.5) == pytest.approx(0.37003947505256342, abs=1e-12)

    def test_uniform_identity(self):
        assert Density1D.uniform().ppf(0.3) == pytest.approx(0.3)

    @pytest.mark.parametrize("p", (1.0, 2.0, 3.0, 10.0))
    def test_inverse_of_cdf(self, p):
        dens = optimal_density(p)
        t = np.linspace(0.0, 1.0, 101)
        back = np.atleast_1d(dens.ppf(np.atleast_1d(dens.cdf(t))))
        assert np.abs(back - t).max() <= 1e-8

    def test_domain_check(self):
        with pytest.raises(InvalidArgumentError):
            Density1D.uniform().ppf(1.2)


class TestVariationalSolution:
    def test_p2_constants(self):
        sol = variational_solution(2.0)
        assert sol.S1 == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert sol.Jmin == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_p1_constants(self):
        sol = variational_solution(1.0)
        assert sol.S1 == pytest.approx(1.5, abs=1e-12)
        assert sol.mu == pytest.approx(math.sqrt(1.5), rel=1e-12)
        assert sol.lambda2 == pytest.approx(0.5 * math.sqrt(1.5), rel=1e-12)
        assert sol.Jmin == pytest.approx(0.5 * math.sqrt(1.5), rel=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_s1_closed_form(self, p):
        assert variational_solution(p).S1 == pytest.approx(
            (p + 2.0) / (p + 1.0), abs=1e-12
        )

    def test_large_p_asymptote(self):
        # Jmin ~ e^{1/2}/(p+1) as p -> inf; within 1% at p = 1e4
        p = 1e4
        sol = variational_solution(p)
        assert sol.Jmin == pytest.approx(math.sqrt(math.e) / (p + 1.0), rel=0.01)

    def test_first_integral_identity(self):
        # 2*lambda = mu*S1 - (2/(p+2)) S1^{p/2+1}
        for p in (1.0, 2.0, 3.0, 10.0):
            sol = variational_solution(p)
            rhs = sol.mu * sol.S1 - 2.0 / (p + 2.0) * sol.S1 ** (p / 2.0 + 1.0)
            assert sol.lambda2 == pytest.approx(rhs, abs=1e-10)

    def test_domain_check(self):
        with pytest.raises(InvalidArgumentError):
            variational_solution(0.9)


class TestCustomDensities:
    def test_from_table_validation(self):
        with pytest.raises(InvalidArgumentError):
            Density1D.from_table([0.0, 0.4, 0.3, 1.0], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            Density1D.from_table([0.0, 1.0], [1.0, -1.0])

    def test_from_table_interpolates(self):
        dens = Density1D.from_table([0.0, 1.0], [2.0, 0.0])
        assert dens.pdf(0.25) == pytest.approx(1.5)
        assert dens.cdf(1.0) == pytest.approx(1.0)

    @staticmethod
    def rho2_table(tmp_path, n=257):
        path = tmp_path / "rho_p2.csv"
        optimal_density(2.0).export_csv(path, n=n)
        t, rho = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1)).T
        return t, Density1D.from_table(t, rho)

    def test_table_pdf_is_normalized(self):
        # the raw table integrates to 2 by the trapezoid rule
        t = np.array([0.0, 0.25, 1.0])
        dens = Density1D.from_table(t, [4.0, 2.0, 1.0])
        total = 0.25 * 3.0 + 0.75 * 1.5
        np.testing.assert_allclose(dens.pdf(t), np.array([4.0, 2.0, 1.0]) / total, rtol=1e-15)
        assert dens.cdf(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_segment_probabilities_under_ppf(self, tmp_path):
        # ppf maps each node's CDF value to the node and is monotone, so the
        # sampler puts F(t_k+1) - F(t_k) on segment k, which is the integral
        # of the piecewise-linear pdf over it
        t, dens = self.rho2_table(tmp_path)
        cdf = dens.cdf(t)
        assert np.array_equal(dens.ppf(cdf[:-1]), t[:-1])
        assert np.all(np.diff(dens.ppf(np.linspace(0.0, 1.0, 100_001))) >= 0.0)
        rho = dens.pdf(t)
        np.testing.assert_allclose(np.diff(cdf), 0.5 * (rho[1:] + rho[:-1]) * np.diff(t),
                                   rtol=1e-12, atol=1e-17)
        for lo, hi in ((0.0, 0.5), (0.5, 0.9), (0.9, 1.0)):
            k = (t >= lo) & (t <= hi)
            exact = quad(dens.pdf, lo, hi, points=t[k], limit=300, epsabs=1e-15)[0]
            assert dens.cdf(hi) - dens.cdf(lo) == pytest.approx(exact, rel=1e-12)

    def test_ppf_pdf_is_the_pdf_at_the_quantile(self, tmp_path):
        _, dens = self.rho2_table(tmp_path)
        u = np.concatenate(((np.arange(2 ** 12) + 0.5) / 2 ** 12,
                            np.random.default_rng(9).random(4000), [0.0]))
        x, rho = dens.ppf_pdf(u)
        assert np.array_equal(x, dens.ppf(u))
        np.testing.assert_allclose(rho, dens.pdf(x), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(dens.cdf(x), u, rtol=0.0, atol=4e-16)

    def test_mean_inverse_density_under_sampling(self, tmp_path):
        # E[1/rho(T)] = int q/rho = 1 when the sampled density q is rho.
        # 1/rho grows like (1 - u)^{-1/2} toward u = 1 here, and the midpoint
        # sum misses about 3e-4 of that tail at 2^16 points.  A table sampled
        # with a piecewise-constant density had 1/rho ~ 1/(1 - u) on its
        # last segment and gave 1.0049.
        _, dens = self.rho2_table(tmp_path)
        _, rho = dens.ppf_pdf((np.arange(2 ** 16) + 0.5) / 2 ** 16)
        assert abs(np.mean(1.0 / rho) - 1.0) <= 1e-3

    def test_from_callable_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            Density1D.from_callable(lambda t: np.asarray(t, float) - 0.5)

    def test_export_csv(self, tmp_path):
        path = tmp_path / "density.csv"
        optimal_density(2.0).export_csv(path, n=9)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,rho,cdf"
        assert len(lines) == 10
        first = [float(v) for v in lines[1].split(",")]
        assert first == pytest.approx([0.0, 1.5, 0.0])


def test_optimal_density_domain():
    with pytest.raises(InvalidArgumentError):
        optimal_density(0.5)
    with pytest.raises(InvalidArgumentError):
        optimal_density(2e6)


@pytest.mark.parametrize("dens", (Density1D.uniform(), optimal_density(1.0),
                                  optimal_density(2.0), optimal_density(3.0)),
                         ids=repr)
def test_nan_rejected(dens):
    # NaN passes a range test written as (x < 0) or (x > 1)
    nan = np.array([0.5, float("nan")])
    for method in (dens.pdf, dens.cdf, dens.ppf, dens.ppf_pdf):
        with pytest.raises(InvalidArgumentError):
            method(nan)
    with pytest.raises(InvalidArgumentError):
        dens.pdf(float("nan"))
