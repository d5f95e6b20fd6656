"""Cross-validation tests for the five discrepancy evaluators and the dispatcher."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from disclab import discrepancy
from disclab.core import ProductDensity, WeightedPointSet, initial_error
from disclab.density import Density1D, optimal_density
from disclab.discrepancy import (
    BLOCK_ELEMS,
    MAX_CELLS,
    DiscrepancyResult,
    _ExactSum,
    _lp_pow_d1,
    c_kernel,
    evaluate,
    l2_discrepancy_kernel,
    lp_discrepancy_cells,
    lp_discrepancy_d1,
    lp_discrepancy_even,
    lp_discrepancy_mc,
    method_for,
)
from disclab.errors import DisclabError, InvalidArgumentError, SizeLimitError
from disclab.experiments import ExperimentConfig, asymptotic_scaling_probe


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


def lp_discrepancy_d1_stable_sort(ps, p):
    """lp_discrepancy_d1 as it was before the batched routine (stable sort,
    np.clip, one 1-d sum), argument checks left out."""
    t = ps.points[:, 0]
    order = np.argsort(t, kind="stable")
    cum = np.concatenate(([0.0], np.cumsum(ps.weights[order])))
    edges = np.concatenate(([0.0], t[order], [1.0]))
    lo, hi = edges[:-1], edges[1:]
    pp1 = p + 1.0
    a1 = np.clip(cum - lo, 0.0, None)
    a2 = np.clip(cum - hi, 0.0, None)
    b1 = np.clip(hi - cum, 0.0, None)
    b2 = np.clip(lo - cum, 0.0, None)
    total = float(np.sum(a1 ** pp1 - a2 ** pp1 + b1 ** pp1 - b2 ** pp1) / pp1)
    value, clamped = discrepancy._clamped_root(total, p, "exact_d1")
    return DiscrepancyResult(
        value=value, p=float(p), method="exact_d1", abs_error_estimate=0.0,
        evaluations=ps.n + 1, d=1, n=ps.n, clamped=clamped,
    )


def kernel_reference(pts, a):
    """L_2 discrepancy from the full N x N kernel matrix, each sum one math.fsum."""
    d = pts.shape[1]
    h = np.prod((1.0 - pts ** 2) / 2.0, axis=1)
    kmat = np.prod(1.0 - np.maximum(pts[:, None, :], pts[None, :, :]), axis=2)
    t1 = math.fsum(a * h)
    t2 = math.fsum((np.outer(a, a) * kmat).ravel())
    return math.sqrt(math.fsum([3.0 ** (-d), -2.0 * t1, t2]))


def exact_sum(*arrays):
    acc = _ExactSum()
    for x in arrays:
        acc.add(x)
    return acc.value()


class TestExactSum:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_fsum_across_exponent_range(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(3000) * 10.0 ** rng.uniform(-300, 300, 3000)
        assert exact_sum(*np.array_split(x, 7)) == math.fsum(x)

    def test_equals_fsum_under_cancellation(self):
        rng = np.random.default_rng(5)
        x = rng.random(2000) * 10.0 ** rng.uniform(-20, 20, 2000)
        terms = np.concatenate([x, -x, [1e-30, 3.0]])
        rng.shuffle(terms)
        assert exact_sum(terms) == math.fsum(terms) == 3.0 + 1e-30
        assert exact_sum(x, -x) == 0.0

    def test_subnormals_and_zeros(self):
        rng = np.random.default_rng(6)
        tiny = 5e-324 * rng.integers(-2 ** 40, 2 ** 40, 500).astype(float)
        terms = np.concatenate([tiny, [0.0, -0.0, 2.0 ** -1022, -(2.0 ** -1030)]])
        assert exact_sum(terms) == math.fsum(terms)
        assert exact_sum([5e-324, 5e-324, 5e-324]) == 1.5e-323

    @pytest.mark.parametrize("terms", [
        [1.0, 2.0 ** -53],                     # a tie: rounds to even
        [1.0, 2.0 ** -53, 2.0 ** -106],        # just above the tie
        [1.0 + 2.0 ** -52, 2.0 ** -53],        # a tie that rounds up
        [0.1] * 10,
    ])
    def test_correct_rounding(self, terms):
        assert exact_sum(terms) == math.fsum(terms)

    def test_overflow(self):
        # math.fsum gives up on an intermediate overflow; the exact sum does not
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308, -1e308])
        assert exact_sum([1e308, 1e308, -1e308]) == 1e308
        with pytest.raises(OverflowError):
            exact_sum([1e308, 1e308])

    @pytest.mark.parametrize("term", [1.0, -3.5e-310, 5e-324, 1.7976931348623157e308, 0.1, -0.0])
    def test_single_term(self, term):
        assert exact_sum([term]) == term

    def test_empty(self):
        assert exact_sum() == 0.0
        assert exact_sum(np.array([]), []) == 0.0

    def test_flush_path(self, monkeypatch):
        monkeypatch.setattr(discrepancy, "_FLUSH_TERMS", 3)
        flushes = []
        flush = _ExactSum._flush
        monkeypatch.setattr(_ExactSum, "_flush", lambda self: flushes.append(1) or flush(self))
        rng = np.random.default_rng(7)
        x = rng.standard_normal(500) * 10.0 ** rng.uniform(-30, 30, 500)
        assert exact_sum(x[:200], x[200:201], x[201:]) == math.fsum(x)
        assert len(flushes) > 100

    @pytest.mark.parametrize("terms", [
        [1.0, math.inf, 2.0], [-math.inf, 1e308], [math.nan, 1.0], [math.inf, math.nan, 1.0],
        [math.inf, math.inf],
    ])
    def test_non_finite_terms_as_fsum(self, terms):
        assert repr(exact_sum(np.array(terms))) == repr(math.fsum(terms))

    def test_opposite_infinities_raise_as_fsum(self):
        with pytest.raises(ValueError):
            math.fsum([math.inf, -math.inf])
        with pytest.raises(ValueError):
            exact_sum([math.inf, 1.0], [-math.inf])


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
        rows = max(1, BLOCK_ELEMS // n)
        assert 1 < rows < n and n % rows != 0
        rng = np.random.default_rng(n)
        pts, a = rng.random((n, d)), rng.random(n) / n
        assert l2_discrepancy_kernel(WeightedPointSet(pts, a)).value == kernel_reference(pts, a)

    @pytest.mark.parametrize("case", ["one point", "duplicates", "ties", "zero weights"])
    def test_equals_full_matrix_fsum(self, case):
        rng = np.random.default_rng(8)
        n, d = (1, 3) if case == "one point" else (300, 3)
        pts, a = rng.random((n, d)), rng.random(n) / n
        if case == "duplicates":
            pts[150:] = pts[:150]
            a[150:] = a[:150]
        elif case == "ties":
            pts = np.floor(pts * 4.0) / 4.0
        elif case == "zero weights":
            a[rng.random(n) < 0.5] = 0.0
        assert l2_discrepancy_kernel(WeightedPointSet(pts, a)).value == kernel_reference(pts, a)

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

    def test_evaluation_guard_raises_before_integrating(self):
        # 13^4 cells, far under the cell guard, but ~2e4 non-zero cells of
        # 32^4 evaluations each; one order-32 node tensor alone is 8 MB
        rng = np.random.default_rng(4)
        ps = WeightedPointSet(rng.random((12, 4)), np.full(12, 1.0 / 12))
        assert 13 ** 4 < MAX_CELLS
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="evaluations"):
                lp_discrepancy_cells(ps, 1.5, order=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_guard_counts_the_reported_evaluations(self, monkeypatch):
        # refined cells included: equal weights 0.2 sum to 1 here
        rng = np.random.default_rng(6)
        ps = WeightedPointSet(rng.random((5, 3)), np.full(5, 0.2))
        res = lp_discrepancy_cells(ps, 1.5, order=4)
        assert res.abs_error_estimate > 0.0
        monkeypatch.setattr("disclab.discrepancy.MAX_CELL_EVALS", res.evaluations - 1)
        with pytest.raises(SizeLimitError, match=f"^{res.evaluations} "):
            lp_discrepancy_cells(ps, 1.5, order=4)

    def test_cell_guard(self):
        pts = np.repeat(np.linspace(0.0, 0.99, 3200)[:, None], 2, axis=1)
        ps = WeightedPointSet(pts, np.zeros(3200))
        assert 3201 ** 2 > MAX_CELLS
        with pytest.raises(SizeLimitError, match="cell count"):
            lp_discrepancy_cells(ps, 1.5)

    def test_order_guard(self):
        ps = WeightedPointSet([[0.5]], [1.0])
        with pytest.raises(InvalidArgumentError):
            lp_discrepancy_cells(ps, 2.0, order=1)
        with pytest.raises(InvalidArgumentError):
            lp_discrepancy_cells(ps, 2.0, order=33)


def d1_rules(count, seed):
    """Seeded d = 1 rules (t, a), with zero weights, repeated coordinates and
    dyadic weights summing to exactly 1 mixed in."""
    rng = np.random.default_rng(seed)
    rules = []
    for i in range(count):
        n = int(rng.integers(1, 9))
        t, a = rng.random(n), rng.random(n) / n * 1.5
        if i % 4 == 1:
            a[rng.random(n) < 0.5] = 0.0
        if i % 4 == 2:
            t[: (n + 1) // 2] = t[0]
        if i % 4 == 3:
            a = rng.multinomial(16, np.full(n, 1.0 / n)) / 16.0
            assert math.fsum(a) == 1.0 and np.cumsum(a)[-1] == 1.0
        rules.append((t, a))
    return rules


class TestExactD1:
    @pytest.mark.parametrize("p", (1.0, 1.5, 3.0))
    def test_matches_reference(self, p):
        for t, a in d1_rules(50, seed=41):
            res = lp_discrepancy_d1(WeightedPointSet(t[:, None], a), p)
            exact = lp_pow_d1_reference(t, a, p) ** (1.0 / p)
            assert res.value == pytest.approx(exact, rel=1e-13, abs=0.0)
            assert (res.method, res.abs_error_estimate) == ("exact_d1", 0.0)
            assert res.evaluations == len(t) + 1

    def test_matches_kernel_p2(self):
        for t, a in d1_rules(50, seed=42):
            ps = WeightedPointSet(t[:, None], a)
            k = l2_discrepancy_kernel(ps).value
            assert lp_discrepancy_d1(ps, 2.0).value == pytest.approx(k, rel=1e-13, abs=0.0)

    def test_one_point_rule_exact_where_cells_is_not(self):
        # int_0^1/2 x^1.5 dx + int_1/2^1 (1 - x)^1.5 dx = 2 (1/2)^2.5 / 2.5
        p, ps = 1.5, WeightedPointSet([[0.5]], [1.0])
        exact = (2.0 * 0.5 ** 2.5 / 2.5) ** (1.0 / p)
        assert abs(evaluate(ps, p).value - exact) <= 1e-15
        assert abs(evaluate(ps, p, method="cells").value - exact) > 5e-8

    def test_rejects_other_dimensions(self):
        with pytest.raises(InvalidArgumentError):
            lp_discrepancy_d1(WeightedPointSet([[0.5, 0.5]], [1.0]), 1.5)

    @pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0, 7.5))
    def test_equals_stable_sort_version_without_ties(self, p):
        # without ties every sort gives one order, and the batched routine
        # runs the same operations: bit for bit
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 8, 100, 127, 1000, 4096):
            t, a = rng.random(n), rng.random(n) / n * 1.5
            assert len(np.unique(t)) == n
            ps = WeightedPointSet(t[:, None], a)
            assert lp_discrepancy_d1(ps, p) == lp_discrepancy_d1_stable_sort(ps, p)

    @pytest.mark.parametrize("p", (1.0, 1.5, 3.0))
    def test_near_stable_sort_version_with_ties(self, p):
        # the order of ties moves only the rounding of the cumulative weights
        rules = d1_rules(60, seed=44)
        rng = np.random.default_rng(45)
        t = np.repeat(rng.random(50), 20)  # large rule, many ties
        rules.append((t, rng.random(t.size) / t.size * np.repeat([0.0, 1.0], 500)))
        for t, a in rules:
            ps = WeightedPointSet(t[:, None], a)
            new, old = lp_discrepancy_d1(ps, p), lp_discrepancy_d1_stable_sort(ps, p)
            assert new.value == pytest.approx(old.value, rel=1e-13, abs=0.0)
            assert (new.method, new.evaluations, new.clamped) == (
                old.method, old.evaluations, old.clamped)


@st.composite
def d1_batches(draw):
    """(t, a, p) with t, a of shape (R, N): coordinates from a coarse grid or
    anywhere in [0, 1), so that ties are common, and weights that may be 0."""
    rows = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    coord = st.one_of(st.integers(0, 15).map(lambda k: k / 16.0),
                      st.floats(0.0, 1.0, exclude_max=True))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.5 / n))
    t = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=rows, max_size=rows))
    a = draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=rows, max_size=rows))
    p = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0, 4.5)))
    return np.array(t), np.array(a), p


class TestLpPowD1Batch:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(d1_batches())
    def test_rows_equal_one_row_calls_and_reference(self, batch):
        t, a, p = batch
        total = _lp_pow_d1(t, a, p)
        for r in range(len(t)):
            one = _lp_pow_d1(t[r:r + 1], a[r:r + 1], p)
            assert total[r].tobytes() == one[0].tobytes()
            assert total[r] == pytest.approx(lp_pow_d1_reference(t[r], a[r], p), rel=1e-13, abs=0.0)


def mc_tensor_reference(ps, p, samples, seed):
    """lp_discrepancy_mc as it was with the (m, N, d) comparison tensor,
    argument checks left out."""
    pts, a, d = ps.points, ps.weights, ps.d
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    s = s2 = 0.0
    done = 0
    chunk = max(1, min(samples, 4_000_000 // max(ps.n, 1)))
    while done < samples:
        m = min(chunk, samples - done)
        x = rng.random((m, d))
        inside = np.all(pts[None, :, :] < x[:, None, :], axis=2)
        delta = inside @ a - np.prod(x, axis=1)
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


class TestMonteCarlo:
    @pytest.mark.parametrize("n", [1, 10, 5000])
    @pytest.mark.parametrize("d", [1, 3, 6, 20])
    def test_equals_tensor_reference_bit_for_bit(self, d, n):
        # N = 5000 gives chunks of 800 < 1000 samples; zero weights,
        # duplicate points and points that tie samples of seed 3 in their
        # last coordinate and lie below them in the others included
        rng = np.random.default_rng(d * 7919 + n)
        pts = rng.random((n, d)) ** d  # each dominated by ~1/e of the x at any d
        w = rng.random(n) / n
        w[::3] = 0.0
        pts[n // 2] = pts[0]
        k = (n + 3) // 4
        pts[-k:] = np.random.Generator(np.random.Philox(np.random.SeedSequence(3))).random(
            (k, d))
        pts[-k:, :-1] *= 0.5
        ps = WeightedPointSet(pts, w)
        for p, seed in ((1.0, 3), (4.0, 2 ** 40)):
            res = lp_discrepancy_mc(ps, p, samples=1000, seed=seed)
            assert res == mc_tensor_reference(ps, p, 1000, seed)
        assert evaluate(ps, 1.5, "mc", samples=1200, seed=8) == mc_tensor_reference(
            ps, 1.5, 1200, 8)

    def test_memory_does_not_grow_with_d(self):
        # the (m, N, d) tensor doubled the peak from d = 2 to d = 16
        rng = np.random.default_rng(12)
        peaks = {}
        for d in (2, 16):
            ps = WeightedPointSet(rng.random((4000, d)), np.full(4000, 1.0 / 4000))
            tracemalloc.start()
            try:
                lp_discrepancy_mc(ps, 1.5, samples=10_000, seed=1)
                _, peaks[d] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[16] <= 1.25 * peaks[2]

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
        kc = c_kernel(ProductDensity(1, Density1D.uniform()))
        assert kc == pytest.approx(0.5, abs=1e-12)

    def test_optimal_p2(self):
        kc = c_kernel(ProductDensity(1, optimal_density(2.0)))
        assert kc == pytest.approx(4.0 / 9.0, abs=1e-10)

    def test_optimal_p2_tensor_power(self):
        kc = c_kernel(ProductDensity(3, optimal_density(2.0)))
        assert kc == pytest.approx((4.0 / 9.0) ** 3, rel=1e-9)

    def test_optimal_p1_value(self):
        # 50-digit quadrature of (1-t)/rho_1*(t) gives exactly 9/20
        kc = c_kernel(ProductDensity(1, optimal_density(1.0)))
        assert kc == pytest.approx(0.45, abs=1e-8)

    @pytest.mark.parametrize("q", (1.0, 1.5, 2.0, 3.0, 10.0, 100.0))
    def test_closed_form_matches_pdf_quadrature(self, q):
        # the quadrature goes through the pdf solve, the closed form does not
        dens = optimal_density(q)

        def integrand(t):
            r = dens.pdf(t)
            return (1.0 - t) / r if r > 0.0 else 0.0

        val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400)
        assert c_kernel(ProductDensity(1, dens)) == pytest.approx(val, rel=1e-12)

    def test_lower_bound_invariant(self):
        for p in (1.0, 2.0, 3.0):
            for d in (1, 2):
                kc = c_kernel(ProductDensity(d, optimal_density(p)))
                assert kc >= 3.0 ** (-d)


class TestDispatch:
    def test_auto_routes(self):
        ps = WeightedPointSet([[0.4]], [1.0])
        assert evaluate(ps, 2.0).method == "kernel_p2"
        assert evaluate(ps, 1.5).method == "exact_d1"
        assert evaluate(WeightedPointSet([[0.4, 0.3]], [1.0]), 1.5).method == "cell_quadrature"
        hi = WeightedPointSet(np.full((1, 5), 0.5), [1.0])
        res = evaluate(hi, 1.5, samples=2000, seed=0)
        assert res.method == "monte_carlo"

    @pytest.mark.parametrize("method,p", [
        ("auto", 2.0), ("auto", 1.5), ("kernel", 2.0), ("even", 4.0), ("cells", 1.5),
    ])
    def test_methods_ignore_options_they_do_not_take(self, method, p):
        ps = WeightedPointSet([[0.4, 0.7], [0.1, 0.2]], [0.5, 0.3])
        plain = evaluate(ps, p, method=method)
        assert evaluate(ps, p, method=method, order=8, samples=2000, seed=3) == plain
        if plain.method != "cell_quadrature":
            assert evaluate(ps, p, method=method, order=2) == plain

    def test_cells_take_order(self):
        ps = WeightedPointSet([[0.4, 0.7], [0.1, 0.2]], [0.5, 0.3])
        assert (evaluate(ps, 1.5, order=2).evaluations
                < evaluate(ps, 1.5).evaluations)

    @pytest.mark.parametrize("method,d,p", [
        ("auto", 1, 2.0), ("auto", 1, 1.5), ("auto", 4, 1.5), ("auto", 5, 1.5),
        ("auto", 5, 2.0), ("cells", 1, 1.5), ("mc", 1, 2.0), ("even", 3, 4.0),
    ])
    def test_method_for_names_the_method_evaluate_runs(self, method, d, p):
        ps = WeightedPointSet(np.full((1, d), 0.4), [1.0])
        res = evaluate(ps, p, method=method, samples=2000, seed=0)
        assert method_for(p, d, method) == res.method

    def test_cells_reject_d5(self):
        with pytest.raises(SizeLimitError):
            method_for(1.5, 5, "cells")
        with pytest.raises(SizeLimitError):
            evaluate(WeightedPointSet(np.full((1, 5), 0.5), [1.0]), 1.5, method="cells")

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
        assert set(rec) == {
            "p", "d", "N", "method", "value", "abs_error_estimate",
            "evaluations", "clamped",
        }
        assert (rec["evaluations"], rec["clamped"]) == (1, False)


_PS = WeightedPointSet([[0.4]], [1.0])
_P_ENTRY_POINTS = {
    "evaluate": lambda p: evaluate(_PS, p),
    "method_for": lambda p: method_for(p, 1),
    "lp_discrepancy_d1": lambda p: lp_discrepancy_d1(_PS, p),
    "lp_discrepancy_even": lambda p: lp_discrepancy_even(_PS, p),
    "lp_discrepancy_cells": lambda p: lp_discrepancy_cells(_PS, p),
    "lp_discrepancy_mc": lambda p: lp_discrepancy_mc(_PS, p, samples=1000, seed=0),
    "ExperimentConfig": lambda p: ExperimentConfig(
        p=p, d=1, N=4, density_kind="uniform", replications=2, seed=0),
    "asymptotic_scaling_probe": lambda p: asymptotic_scaling_probe(p, 1, "uniform", [4], 3, 0),
}


@pytest.mark.parametrize("entry", sorted(_P_ENTRY_POINTS))
@pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf"), 0.5, True, "2"])
def test_invalid_p_rejected_everywhere(entry, p):
    # evaluate(nan) once returned NaN labelled cell_quadrature, evaluate(inf)
    # 1.0, lp_discrepancy_mc(nan) 0.0 and the scaling probe NaN rows
    with pytest.raises(InvalidArgumentError, match="p must be"):
        _P_ENTRY_POINTS[entry](p)
