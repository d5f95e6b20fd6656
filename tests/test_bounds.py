"""Tests for the closed-form bound constants and comparison tables."""

import math

import numpy as np
import pytest

from disclab.bounds import (
    bounds_row,
    complexity_estimate,
    figure_alpha_data,
    gamma_prefactor,
    gamma_prefactor_asymptote,
    write_alpha_csv,
)
from disclab.errors import InvalidArgumentError


class TestBoundsRow:
    def test_alpha_old_squared_values(self):
        assert bounds_row(2.0).alpha_old_sq == pytest.approx(1.5, abs=1e-12)
        assert bounds_row(10.0).alpha_old_sq == pytest.approx(1.13, abs=0.005)
        assert bounds_row(100.0).alpha_old_sq == pytest.approx(1.014, abs=0.002)

    def test_alpha_new_values(self):
        assert bounds_row(1.0).alpha_new == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert bounds_row(2.0).alpha_new == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-12)

    def test_new_beats_old_everywhere(self):
        for p in np.linspace(1.0, 100.0, 1000):
            row = bounds_row(float(p))
            assert row.alpha_new < row.alpha_old

    def test_both_alphas_decreasing_to_one(self):
        grid = [bounds_row(p) for p in (1.0, 2.0, 5.0, 20.0, 100.0, 1e4)]
        olds = [r.alpha_old for r in grid]
        news = [r.alpha_new for r in grid]
        assert all(a > b for a, b in zip(olds, olds[1:]))
        assert all(a > b for a, b in zip(news, news[1:]))
        assert abs(grid[-1].alpha_old - 1.0) <= 1e-3
        assert abs(grid[-1].alpha_new - 1.0) <= 1e-3

    def test_even_p_constants(self):
        row = bounds_row(4.0)
        assert row.eq10_const == pytest.approx(3.0 ** (2.0 / 3.0) * 2.0 ** 2.5 * 4.0)
        assert row.eq11_const == pytest.approx(math.sqrt(8.0))
        assert row.even_p_valid

    def test_even_p_flag_off_for_odd(self):
        assert not bounds_row(3.0).even_p_valid
        assert not bounds_row(2.5).even_p_valid

    def test_symmetrization_improves_constant(self):
        for p in (2.0, 4.0, 10.0, 100.0):
            row = bounds_row(p)
            assert row.eq11_const <= row.eq10_const

    def test_init_err_d1(self):
        assert bounds_row(2.0).init_err_d1 == pytest.approx(3.0 ** -0.5)

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            bounds_row(0.5)


class TestGammaPrefactor:
    def test_p1_value(self):
        # sqrt(2)/sqrt(pi) * Gamma(1) = sqrt(2/pi)
        assert gamma_prefactor(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_p2_value(self):
        expected = math.sqrt(2.0) / math.pi ** 0.25 * math.gamma(1.5) ** 0.5
        assert gamma_prefactor(2.0) == pytest.approx(expected, rel=1e-12)

    def test_gamma_root_p2(self):
        # Gamma(3/2)^{1/2} = (sqrt(pi)/2)^{1/2}
        root = gamma_prefactor(2.0) * math.pi ** 0.25 / math.sqrt(2.0)
        assert root == pytest.approx((math.sqrt(math.pi) / 2.0) ** 0.5, rel=1e-12)

    def test_stirling_ratio_at_p1000(self):
        p = 1000.0
        gamma_root = math.exp(math.lgamma((p + 1.0) / 2.0) / p)
        ratio = gamma_root / gamma_prefactor_asymptote(p)
        assert 0.99 <= ratio <= 1.01

    def test_stirling_ratio_monotone_from_p10(self):
        ps = [10.0, 20.0, 50.0, 100.0, 500.0, 1000.0]
        ratios = [
            math.exp(math.lgamma((p + 1.0) / 2.0) / p) / gamma_prefactor_asymptote(p)
            for p in ps
        ]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            gamma_prefactor(0.9)
        with pytest.raises(InvalidArgumentError):
            gamma_prefactor_asymptote(0.9)


class TestComplexityEstimate:
    def test_eps_scaling(self):
        assert complexity_estimate(1, 0.1, 1.0, 1.0) == pytest.approx(100.0)

    def test_old_alpha_growth(self):
        est = complexity_estimate(10, 1.0 - 1e-15, 1.0, math.sqrt(1.5))
        assert est == pytest.approx(1.5 ** 10, rel=1e-9)

    def test_new_alpha_growth(self):
        est = complexity_estimate(10, 1.0 - 1e-15, 1.0, math.sqrt(4.0 / 3.0))
        assert est == pytest.approx((4.0 / 3.0) ** 10, rel=1e-9)

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            complexity_estimate(1, 1.5, 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            complexity_estimate(1, 0.1, -1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            complexity_estimate(0, 0.1, 1.0, 1.0)


class TestFigureData:
    def test_known_rows(self):
        rows = dict((r[0], r[1:]) for r in figure_alpha_data([1.0, 2.0]))
        assert rows[2.0] == pytest.approx((1.5, 4.0 / 3.0), abs=1e-12)
        assert rows[1.0] == pytest.approx(((4.0 / 3.0) ** 2, 1.5), abs=1e-12)

    def test_monotone_columns(self):
        rows = figure_alpha_data(np.linspace(1.0, 200.0, 50))
        olds = [r[1] for r in rows]
        news = [r[2] for r in rows]
        assert all(a > b for a, b in zip(olds, olds[1:]))
        assert all(a > b for a, b in zip(news, news[1:]))

    def test_range_guard(self):
        with pytest.raises(InvalidArgumentError):
            figure_alpha_data([0.5])
        with pytest.raises(InvalidArgumentError):
            figure_alpha_data([300.0])

    def test_csv_export(self, tmp_path):
        path = tmp_path / "alpha.csv"
        write_alpha_csv(path, [1.0, 2.0, 3.0])
        lines = path.read_text().splitlines()
        assert lines[0] == "p,alpha_old_sq,alpha_new_sq"
        assert len(lines) == 4
