"""Tests for the shared domain types: point sets, densities, the local
discrepancy function and the initial error."""

import math

import numpy as np
import pytest

from disclab.core import (
    ProductDensity,
    WeightedPointSet,
    discrepancy_function,
    initial_error,
    load_point_set,
    save_point_set,
    weights_from_density,
)
from disclab.density import Density1D, optimal_density
from disclab.errors import (
    DegenerateWeightError,
    InvalidArgumentError,
    UnsupportedExponentError,
)


class TestWeightedPointSet:
    def test_basic_construction(self):
        ps = WeightedPointSet([[0.1, 0.2], [0.5, 0.75]], [0.4, 0.6])
        assert ps.n == 2 and ps.d == 2
        assert ps.total_weight == pytest.approx(1.0)

    def test_arrays_are_immutable(self):
        ps = WeightedPointSet([[0.1]], [1.0])
        with pytest.raises(ValueError):
            ps.points[0, 0] = 0.5
        with pytest.raises(ValueError):
            ps.weights[0] = 2.0

    def test_coordinate_one_rejected(self):
        with pytest.raises(InvalidArgumentError):
            WeightedPointSet([[1.0]], [1.0])
        with pytest.raises(InvalidArgumentError):
            WeightedPointSet([[0.5, 1.0]], [1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidArgumentError):
            WeightedPointSet([[0.5]], [-0.1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            WeightedPointSet([[0.1], [0.2]], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            WeightedPointSet([[np.nan]], [1.0])
        with pytest.raises(InvalidArgumentError):
            WeightedPointSet([[0.5]], [np.inf])

    def test_qmc_weights(self):
        ps = WeightedPointSet.qmc(np.linspace(0.0, 0.75, 4)[:, None])
        assert np.all(ps.weights == 0.25)

    def test_zero_weights_allowed(self):
        ps = WeightedPointSet([[0.3]], [0.0])
        assert ps.total_weight == 0.0


class TestDiscrepancyFunction:
    def test_half_open_box_is_strict(self):
        # a point with t_{k,j} = x_j must NOT be counted
        ps = WeightedPointSet([[0.5]], [1.0])
        assert discrepancy_function(ps, [0.5]) == pytest.approx(-0.5)
        assert discrepancy_function(ps, [0.5 + 1e-12]) == pytest.approx(0.5, abs=1e-9)

    def test_value_at_corner_one(self):
        # Delta(1,...,1) = total weight - 1 exactly
        ps = WeightedPointSet([[0.2, 0.3], [0.6, 0.1]], [0.4, 0.9])
        assert discrepancy_function(ps, [1.0, 1.0]) == pytest.approx(0.3)

    def test_monotone_in_added_weight(self):
        pts = [[0.2], [0.7]]
        base = WeightedPointSet(pts, [0.3, 0.3])
        more = WeightedPointSet(pts + [[0.1]], [0.3, 0.3, 0.2])
        for x in np.linspace(0.0, 1.0, 21):
            lo = discrepancy_function(base, [x])
            hi = discrepancy_function(more, [x])
            assert hi >= lo - 1e-15

    def test_dimension_check(self):
        ps = WeightedPointSet([[0.5, 0.5]], [1.0])
        with pytest.raises(InvalidArgumentError):
            discrepancy_function(ps, [0.5])


class TestInitialError:
    def test_known_values(self):
        assert initial_error(2.0, 1) == pytest.approx(3.0 ** -0.5, abs=1e-15)
        assert initial_error(1.0, 3) == pytest.approx(0.125, abs=1e-15)
        assert initial_error(2.0, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_tensor_structure(self):
        for p in (1.0, 1.5, 2.0, 7.0):
            for d in (2, 5, 17, 40):
                assert initial_error(p, d) == pytest.approx(
                    initial_error(p, 1) ** d, rel=1e-12
                )

    def test_domain_checks(self):
        with pytest.raises(UnsupportedExponentError):
            initial_error(math.inf, 1)
        with pytest.raises(InvalidArgumentError):
            initial_error(0.5, 1)
        with pytest.raises(InvalidArgumentError):
            initial_error(2.0, 0)


class TestProductDensity:
    def test_uniform_product(self):
        dens = ProductDensity(3, Density1D.uniform())
        assert dens.pdf([0.1, 0.5, 0.9]) == pytest.approx(1.0)
        vals = dens.pdf(np.random.default_rng(0).random((5, 3)))
        assert vals.shape == (5,)
        assert np.allclose(vals, 1.0)

    def test_optimal_p2_product(self):
        dens = ProductDensity(2, optimal_density(2.0))
        expected = 1.5 * math.sqrt(0.75) * 1.5 * math.sqrt(0.5)
        assert dens.pdf([0.25, 0.5]) == pytest.approx(expected, rel=1e-14)

    def test_dimension_mismatch(self):
        dens = ProductDensity(2, Density1D.uniform())
        with pytest.raises(InvalidArgumentError):
            dens.pdf([0.5])


class TestWeightsFromDensity:
    def test_uniform_reproduces_qmc_bit_exactly(self):
        pts = np.random.default_rng(1).random((8, 2))
        dens = ProductDensity(2, Density1D.uniform())
        ps = weights_from_density(pts, dens)
        assert np.all(ps.weights == 1.0 / 8.0)

    def test_optimal_p2_at_zero(self):
        dens = ProductDensity(1, optimal_density(2.0))
        ps = weights_from_density([[0.0], [0.5]], dens)
        assert ps.weights[0] == pytest.approx(2.0 / (3.0 * 2), rel=1e-14)

    def test_optimal_p1_at_zero(self):
        # rho*(0) = 2 for p = 1, so a = 1/(2N)
        dens = ProductDensity(1, optimal_density(1.0))
        ps = weights_from_density([[0.0], [0.25], [0.5], [0.75]], dens)
        assert ps.weights[0] == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_vanishing_density_raises(self):
        # rho*(t) -> 0 as t -> 1; the closed p=2 form hits exactly 0 only at
        # t=1 which is outside [0,1), so force a zero through a custom table
        tab = Density1D.from_table([0.0, 0.5, 1.0], [2.0, 0.0, 2.0])
        dens = ProductDensity(1, tab)
        with pytest.raises(DegenerateWeightError):
            weights_from_density([[0.5]], dens)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        ps = WeightedPointSet(rng.random((7, 3)), rng.random(7))
        path = tmp_path / "points.txt"
        save_point_set(ps, path)
        back = load_point_set(path)
        assert np.array_equal(back.points, ps.points)
        assert np.array_equal(back.weights, ps.weights)

    def test_header_format(self, tmp_path):
        ps = WeightedPointSet([[0.25, 0.5]], [1.0])
        path = tmp_path / "ps.txt"
        save_point_set(ps, path)
        assert path.read_text().splitlines()[0] == "2 1"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0.1 0.2 1.0\n")
        with pytest.raises(InvalidArgumentError):
            load_point_set(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0.1 1.0\n")
        with pytest.raises(InvalidArgumentError):
            load_point_set(path)

    def test_rows_beyond_header_rejected(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("1 2\n0.1 0.5\n0.2 0.5\n0.3 0.5\n")
        with pytest.raises(InvalidArgumentError):
            load_point_set(path)

    def test_trailing_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("1 2\n0.1 0.5\n0.2 0.5\n\n  \n")
        assert load_point_set(path).n == 2
