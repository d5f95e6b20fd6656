"""Cross-validation tests for the four discrepancy evaluators."""

import math
import tracemalloc

import numpy as np
import pytest

from disclab.core import ProductDensity, WeightedPointSet, initial_error
from disclab.density import Density1D, optimal_density
from disclab.discrepancy import (
    BLOCK_ELEMS,
    c_kernel,
    evaluate,
    l2_discrepancy_kernel,
    lp_discrepancy_cells,
    lp_discrepancy_even,
    lp_discrepancy_mc,
)
from disclab.errors import DisclabError, InvalidArgumentError, SizeLimitError


def random_sets(count, seed, max_n=8):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, max_n + 1))
        w = rng.random(n)
        out.append(WeightedPointSet(rng.random((n, d)), w / w.sum() * rng.uniform(0.5, 1.5)))
    return out


def lp_pow_d1_reference(t, a, p):
    """int_0^1 |c(x) - x|^p dx for d = 1, exact per cell.

    On each cell c is constant and [sign(x - c) |x - c|^{p+1} / (p+1)] is an
    antiderivative of the integrand.
    """
    order = np.argsort(t)
    edges = np.concatenate(([0.0], t[order], [1.0]))
    c = np.concatenate(([0.0], np.cumsum(a[order])))

    def antiderivative(x):
        return np.sign(x - c) * np.abs(x - c) ** (p + 1.0) / (p + 1.0)

    return math.fsum(antiderivative(edges[1:]) - antiderivative(edges[:-1]))


class TestKernelP2:
    def test_optimal_one_point_rule(self):
        res = l2_discrepancy_kernel(WeightedPointSet([[1.0 / 3.0]], [2.0 / 3.0]))
        assert res.value == pytest.approx(1.0 / math.sqrt(27.0), abs=1e-15)
        assert res.method == "kernel_p2"
        assert res.abs_error_estimate == 0.0

    def test_midpoint_one_point_rule(self):
        res = l2_discrepancy_kernel(WeightedPointSet([[0.5]], [1.0]))
        assert res.value == pytest.approx(1.0 / math.sqrt(12.0), abs=1e-15)

    @pytest.mark.parametrize("n,d", [(701, 5), (150, 2)])
    def test_row_blocks_bit_identical_to_full_tensor(self, n, d):
        rows = max(1, BLOCK_ELEMS // (n * d))
        assert 1 < rows < n and n % rows != 0
        rng = np.random.default_rng(n)
        pts, a = rng.random((n, d)), rng.random(n) / n
        h = np.prod((1.0 - pts ** 2) / 2.0, axis=1)
        kmat = np.prod(1.0 - np.maximum(pts[:, None, :], pts[None, :, :]), axis=2)
        t1 = math.fsum(a * h)
        t2 = math.fsum((np.outer(a, a) * kmat).ravel())
        e2 = math.fsum([3.0 ** (-d), -2.0 * t1, t2])
        assert l2_discrepancy_kernel(WeightedPointSet(pts, a)).value == math.sqrt(e2)

    def test_memory_linear_in_n(self):
        # the full N x N x d tensor alone would take 160 MB here
        rng = np.random.default_rng(3)
        ps = WeightedPointSet(rng.random((2000, 5)), np.full(2000, 1.0 / 2000))
        tracemalloc.start()
        try:
            l2_discrepancy_kernel(ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32e6

    def test_zero_weight_set_gives_initial_error(self):
        res = l2_discrepancy_kernel(WeightedPointSet([[0.2, 0.7]], [0.0]))
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(11)
        pts, w = rng.random((9, 2)), rng.random(9)
        perm = rng.permutation(9)
        a = l2_discrepancy_kernel(WeightedPointSet(pts, w)).value
        b = l2_discrepancy_kernel(WeightedPointSet(pts[perm], w[perm])).value
        assert a == b


class TestEvenP:
    def test_point_at_origin(self):
        # e^2 = 1/3 - 2*(1/2) + 1 = 1/3
        res = lp_discrepancy_even(WeightedPointSet([[0.0]], [1.0]), 2)
        assert res.value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)

    def test_matches_kernel_p2(self):
        for ps in random_sets(10, seed=21):
            k = l2_discrepancy_kernel(ps).value
            e = lp_discrepancy_even(ps, 2).value
            assert abs(k - e) <= 1e-12

    def test_p4_matches_cells(self):
        for ps in random_sets(6, seed=22, max_n=4):
            e = lp_discrepancy_even(ps, 4).value
            c = lp_discrepancy_cells(ps, 4.0).value
            assert abs(e - c) <= 1e-8

    def test_unsupported_p_rejected(self):
        ps = WeightedPointSet([[0.5]], [1.0])
        with pytest.raises(InvalidArgumentError):
            lp_discrepancy_even(ps, 6)

    def test_size_guards(self):
        rng = np.random.default_rng(0)
        big = WeightedPointSet(rng.random((65, 1)), np.full(65, 1.0 / 65))
        with pytest.raises(SizeLimitError):
            lp_discrepancy_even(big, 2)
        mid = WeightedPointSet(rng.random((17, 1)), np.full(17, 1.0 / 17))
        with pytest.raises(SizeLimitError):
            lp_discrepancy_even(mid, 4)


class TestCells:
    def test_p1_single_midpoint(self):
        # int |1_{x>1/2} - x| dx = 1/4, piecewise analytic
        res = lp_discrepancy_cells(WeightedPointSet([[0.5]], [1.0]), 1.0)
        assert res.value == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0))
    def test_zero_weight_set(self, p):
        for d in (1, 2, 3):
            ps = WeightedPointSet(np.full((1, d), 0.5), [0.0])
            res = lp_discrepancy_cells(ps, p)
            assert res.value == pytest.approx(initial_error(p, d), rel=1e-10)

    def test_matches_kernel_p2(self):
        for ps in random_sets(10, seed=23):
            k = l2_discrepancy_kernel(ps).value
            c = lp_discrepancy_cells(ps, 2.0).value
            assert abs(k - c) <= 1e-10

    def test_error_estimate_tracks_true_error(self):
        # p = 2: the integrand is a polynomial of degree 2 per axis, so
        # every order is exact and matches the kernel formula
        rng = np.random.default_rng(5)
        ps = WeightedPointSet(rng.random((6, 2)), rng.random(6) / 4.0)
        exact = l2_discrepancy_kernel(ps).value
        for order in (2, 8):
            assert abs(lp_discrepancy_cells(ps, 2.0, order=order).value - exact) <= 1e-10

        # p = 1.5, d = 1, against the closed-form integral over a fixed batch
        # of seeded rules: higher order converges, and the summed refinement
        # estimate covers the summed true error at every order
        p, orders = 1.5, (2, 4, 8, 16)
        rng = np.random.default_rng(5)
        err = np.empty((50, len(orders)))
        est = np.empty_like(err)
        for i in range(50):
            n = int(rng.integers(1, 9))
            t, a = rng.random(n), rng.random(n) / n * 1.5
            exact = lp_pow_d1_reference(t, a, p) ** (1.0 / p)
            ps = WeightedPointSet(t[:, None], a)
            for k, order in enumerate(orders):
                res = lp_discrepancy_cells(ps, p, order=order)
                err[i, k] = abs(res.value - exact)
                est[i, k] = res.abs_error_estimate
        assert np.all(err[:, -1] <= err[:, 0])
        assert np.all(np.diff(err.sum(axis=0)) < 0.0)
        assert np.all(est.sum(axis=0) >= err.sum(axis=0))

    def test_kink_on_upper_corner_is_refined(self):
        # weights summing to exactly 1 put the kink of the top cell [0.5, 1]
        # on its upper corner; unrefined, that cell reported estimate 0
        p = 1.5
        res = lp_discrepancy_cells(WeightedPointSet([[0.5]], [1.0]), p)
        exact = lp_pow_d1_reference(np.array([0.5]), np.array([1.0]), p) ** (1.0 / p)
        assert res.value == pytest.approx(exact, rel=1e-6)
        assert res.abs_error_estimate >= abs(res.value - exact) > 0.0

    def test_smooth_sign_cells_have_zero_estimate(self):
        # zero-weight rule: c = 0 never lies strictly inside any cell range
        ps = WeightedPointSet([[0.5, 0.5]], [0.0])
        res = lp_discrepancy_cells(ps, 1.5)
        assert res.abs_error_estimate == 0.0

    def test_dimension_guard(self):
        ps = WeightedPointSet(np.full((1, 5), 0.5), [1.0])
        with pytest.raises(SizeLimitError):
            lp_discrepancy_cells(ps, 2.0)

    def test_order_guard(self):
        ps = WeightedPointSet([[0.5]], [1.0])
        with pytest.raises(InvalidArgumentError):
            lp_discrepancy_cells(ps, 2.0, order=1)
        with pytest.raises(InvalidArgumentError):
            lp_discrepancy_cells(ps, 2.0, order=33)


class TestMonteCarlo:
    def test_matches_cells_statistically(self):
        for ps in random_sets(6, seed=31):
            for p in (1.0, 1.5, 3.0):
                c = lp_discrepancy_cells(ps, p).value
                m = lp_discrepancy_mc(ps, p, samples=100_000, seed=9)
                assert abs(m.value - c) <= 4.0 * m.abs_error_estimate + 1e-12

    def test_zero_weight_high_dimension(self):
        ps = WeightedPointSet(np.full((1, 5), 0.5), [0.0])
        m = lp_discrepancy_mc(ps, 2.0, samples=200_000, seed=4)
        assert abs(m.value - 3.0 ** -2.5) <= 4.0 * m.abs_error_estimate

    def test_seed_repeatability(self):
        ps = WeightedPointSet([[0.3, 0.6]], [0.8])
        a = lp_discrepancy_mc(ps, 1.5, samples=50_000, seed=77)
        b = lp_discrepancy_mc(ps, 1.5, samples=50_000, seed=77)
        assert a.value == b.value
        assert a.abs_error_estimate == b.abs_error_estimate

    def test_sample_guard(self):
        ps = WeightedPointSet([[0.5]], [1.0])
        with pytest.raises(InvalidArgumentError):
            lp_discrepancy_mc(ps, 2.0, samples=10, seed=0)


class TestCKernel:
    def test_uniform(self):
        kc = c_kernel(ProductDensity(1, Density1D.uniform(), "uniform"))
        assert kc.C_K == pytest.approx(0.5, abs=1e-12)
        assert kc.init_sq == pytest.approx(1.0 / 3.0)

    def test_optimal_p2(self):
        kc = c_kernel(ProductDensity(1, optimal_density(2.0), "optimal"))
        assert kc.C_K == pytest.approx(4.0 / 9.0, abs=1e-10)

    def test_optimal_p2_tensor_power(self):
        kc = c_kernel(ProductDensity(3, optimal_density(2.0), "optimal"))
        assert kc.C_K == pytest.approx((4.0 / 9.0) ** 3, rel=1e-9)

    def test_optimal_p1_value(self):
        # 50-digit quadrature of (1-t)/rho_1*(t) gives exactly 9/20
        kc = c_kernel(ProductDensity(1, optimal_density(1.0), "optimal"))
        assert kc.C_K == pytest.approx(0.45, abs=1e-8)

    def test_lower_bound_invariant(self):
        for p in (1.0, 2.0, 3.0):
            for d in (1, 2):
                kc = c_kernel(ProductDensity(d, optimal_density(p), "optimal"))
                assert kc.C_K >= 3.0 ** (-d)


class TestDispatch:
    def test_auto_routes(self):
        ps = WeightedPointSet([[0.4]], [1.0])
        assert evaluate(ps, 2.0).method == "kernel_p2"
        assert evaluate(ps, 1.5).method == "cell_quadrature"
        hi = WeightedPointSet(np.full((1, 5), 0.5), [1.0])
        res = evaluate(hi, 1.5, samples=2000, seed=0)
        assert res.method == "monte_carlo"

    def test_explicit_method(self):
        ps = WeightedPointSet([[0.4]], [1.0])
        assert evaluate(ps, 2.0, method="even").method == "even_p_exact"
        with pytest.raises(InvalidArgumentError):
            evaluate(ps, 2.0, method="nope")

    @pytest.mark.parametrize("method,p", [
        ("kernel", 3.0), ("kernel", 1.5), ("even", 2.5), ("even", 4.5),
    ])
    def test_method_rejects_p_it_cannot_compute(self, method, p):
        with pytest.raises(InvalidArgumentError):
            evaluate(WeightedPointSet([[0.4]], [1.0]), p, method=method)

    def test_even_accepts_p4(self):
        res = evaluate(WeightedPointSet([[0.4]], [1.0]), 4.0, method="even")
        assert res.p == 4.0

    @pytest.mark.parametrize("kw", [{}, {"samples": 2000}, {"seed": 0}])
    def test_monte_carlo_needs_samples_and_seed(self, kw):
        hi = WeightedPointSet(np.full((1, 5), 0.5), [1.0])
        with pytest.raises(DisclabError):
            evaluate(hi, 1.5, **kw)
        with pytest.raises(DisclabError):
            evaluate(WeightedPointSet([[0.4]], [1.0]), 1.5, method="mc", **kw)

    def test_record_schema(self):
        rec = evaluate(WeightedPointSet([[0.4]], [1.0]), 2.0).record()
        assert set(rec) == {"p", "d", "N", "method", "value", "abs_error_estimate"}
