"""Tests for the seeded Monte Carlo experiment harness."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from disclab.core import ProductDensity, WeightedPointSet, weights_from_density
from disclab.density import optimal_density
from disclab.discrepancy import (
    BLOCK_ELEMS,
    _kernel_block,
    c_kernel,
    evaluate,
    lp_discrepancy_cells,
)
from disclab.errors import DisclabError, InvalidArgumentError
from disclab.experiments import (
    ExperimentConfig,
    _chunks,
    _draw,
    _kernel_sums,
    _lp_pow_values,
    _marginal_for,
    _rng,
    _sample_chunk,
    asymptotic_scaling_probe,
    c_rescale_experiment,
    exact_nav2,
    optimal_c_rescale,
    run_average_discrepancy,
    stability_metrics,
)


def make_config(**kw):
    base = dict(p=2.0, d=1, N=4, density_kind="uniform", replications=200, seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


def sample_rep_reference(rng, n, d, marginal):
    """One replication drawn point by point from its own generator, with the
    redraw loop of the per-replication harness: (points, weights, resamples)."""
    below_one = np.nextafter(1.0, 0.0)

    def draw(k):
        t, rho = marginal.ppf_pdf(rng.random((k, d)).ravel())
        return np.minimum(t, below_one).reshape(k, d), rho.reshape(k, d).prod(axis=1)

    t, rho = draw(n)
    resamples = 0
    while np.any(rho <= 0.0):
        bad = rho <= 0.0
        nb = int(bad.sum())
        resamples += nb
        t[bad], rho[bad] = draw(nb)
    return t, 1.0 / (n * rho), resamples


def e2_reference(t, a):
    """Squared L_2 error of one rule, from the full N x N x d kernel tensor."""
    h = np.prod((1.0 - t ** 2) / 2.0, axis=1)
    kmat = np.prod(1.0 - np.maximum(t[:, None, :], t[None, :, :]), axis=2)
    return 3.0 ** (-t.shape[1]) - 2.0 * (a @ h) + a @ kmat @ a


class HalfZeroDensity:
    """Samples uniformly but has density 0 on [0, 1/2), so every coordinate
    drawn there forces a redraw (a sampler/pdf mismatch made on purpose)."""

    def ppf_pdf(self, u):
        t = np.array(u, dtype=float)
        return t, np.where(t < 0.5, 0.0, 2.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            make_config(replications=1)
        with pytest.raises(InvalidArgumentError):
            make_config(density_kind="cauchy")
        with pytest.raises(InvalidArgumentError):
            make_config(evaluator="magic")
        with pytest.raises(InvalidArgumentError):
            make_config(c_rescale="sometimes")
        with pytest.raises(InvalidArgumentError):
            make_config(density_kind="custom-file")  # needs density_file

    @pytest.mark.parametrize("field,value", [
        ("p", float("nan")), ("p", float("inf")), ("p", "2"), ("p", True),
        ("N", 2.5), ("N", 4.0), ("d", 1.0), ("replications", 10.5),
        ("seed", 1.5), ("seed", -1), ("N", True),
    ])
    def test_rejects_non_finite_p_and_non_integer_counts(self, field, value):
        with pytest.raises(InvalidArgumentError):
            make_config(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = make_config(N=np.int64(4), seed=np.uint32(7))
        assert cfg.N == 4 and cfg.seed == 7

    def test_kernel_evaluator_needs_p2(self):
        # E[L_2^2] must not be reported as the p = 1.5 mean
        with pytest.raises(InvalidArgumentError):
            make_config(p=1.5, evaluator="kernel_p2")

    @pytest.mark.parametrize("kw", [
        dict(evaluator="cell_quadrature", d=5, p=1.5),  # once ran Monte Carlo
        dict(evaluator="even_p_exact", p=3.0),
        dict(evaluator="cells"),  # an evaluate name, not a result tag
        dict(evaluator="exact_d1", p=1.5),  # picked by auto only
    ])
    def test_evaluator_must_compute_p_and_d(self, kw):
        with pytest.raises(DisclabError):
            make_config(**kw)

    def test_even_p_evaluator_accepted(self):
        cfg = make_config(p=4.0, evaluator="even_p_exact", replications=4)
        assert run_average_discrepancy(cfg).mean_Lp_p > 0.0

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"p": 2.0, "d": 1, "N": 4, "density_kind": "uniform",
             "replications": 10, "seed": 3}
        ))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.N == 4 and cfg.evaluator == "auto"

    def test_from_json_unknown_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p": 2.0, "d": 1, "N": 4, "tier": "gold",
                                    "density_kind": "uniform",
                                    "replications": 10, "seed": 3}))
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig.from_json(path)

    def test_from_json_missing_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p": 2.0, "d": 1, "N": 4}))
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig.from_json(path)


class TestRunAverageDiscrepancy:
    def test_p2_uniform_identity(self):
        cfg = make_config(N=1, replications=3000, evaluator="kernel_p2")
        rep = run_average_discrepancy(cfg)
        exact_mean = 0.5 - 1.0 / 3.0
        assert abs(rep.mean_Lp_p - exact_mean) <= 3.0 * rep.std_error
        # closed-form n-av for N=1, d=1 is 1/sqrt(2)
        assert exact_nav2(1, 1, "uniform") == pytest.approx(1.0 / math.sqrt(2.0))

    def test_p2_optimal_identity(self):
        cfg = make_config(N=4, density_kind="optimal", replications=3000,
                          evaluator="kernel_p2")
        rep = run_average_discrepancy(cfg)
        exact_mean = (4.0 / 9.0 - 1.0 / 3.0) / 4.0
        assert abs(rep.mean_Lp_p - exact_mean) <= 3.0 * rep.std_error

    def test_report_relations(self):
        rep = run_average_discrepancy(make_config(replications=50))
        assert rep.av_p == pytest.approx(rep.mean_Lp_p ** 0.5, rel=1e-12)
        assert rep.n_av_p == pytest.approx(rep.av_p * 3.0 ** 0.5, rel=1e-12)
        assert rep.scaled == pytest.approx(2.0 * rep.n_av_p, rel=1e-12)
        assert rep.std_error > 0.0
        assert rep.replications_used == 50
        assert rep.resamples == 0

    def test_determinism(self):
        cfg = make_config(replications=60, density_kind="optimal", p=1.5)
        a = run_average_discrepancy(cfg)
        b = run_average_discrepancy(cfg)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_custom_file_density(self, tmp_path):
        path = tmp_path / "density.csv"
        optimal_density(2.0).export_csv(path, n=513)
        cfg = make_config(density_kind="custom-file", density_file=str(path),
                          replications=400, evaluator="kernel_p2")
        rep = run_average_discrepancy(cfg)
        # tabulated copy of the p=2 optimal density: same identity holds
        exact_mean = (4.0 / 9.0 - 1.0 / 3.0) / 4.0
        assert abs(rep.mean_Lp_p - exact_mean) <= 4.0 * rep.std_error

    def test_csv_export(self, tmp_path):
        rep = run_average_discrepancy(make_config(replications=10))
        path = tmp_path / "report.csv"
        rep.write_csv(path)
        header, row = path.read_text().splitlines()
        assert "mean_Lp_p" in header.split(",")
        assert len(row.split(",")) == len(header.split(","))


class TestChunkedHarness:
    """The chunked harness against a per-replication loop keyed by _rng(seed, r)."""

    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("kind", ("uniform", "optimal"))
    def test_p2_matches_per_replication_reference(self, d, kind):
        n, reps, seed = 16, 45, 2024
        assert len(_chunks(reps, n, d)) > 1
        marginal = _marginal_for(kind, 2.0)
        ref = np.empty(reps)
        for r in range(reps):
            t, a, _ = sample_rep_reference(_rng(seed, r), n, d, marginal)
            ref[r] = e2_reference(t, a)
        values, resamples = _lp_pow_values(2.0, n, d, marginal, "kernel_p2", reps, (seed,))
        assert resamples == 0
        np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)
        rep = run_average_discrepancy(ExperimentConfig(
            p=2.0, d=d, N=n, density_kind=kind, replications=reps, seed=seed,
            evaluator="kernel_p2"))
        assert rep.mean_Lp_p == pytest.approx(ref.mean(), rel=1e-12)
        assert rep.std_error == pytest.approx(
            ref.std(ddof=1) / math.sqrt(reps), rel=1e-10)

    def test_optimal_c_config_scales_weights(self):
        n, d, reps, seed = 16, 2, 40, 77
        marginal = _marginal_for("optimal", 2.0)
        kc = c_kernel(ProductDensity(d, marginal))
        c_star = optimal_c_rescale(n, d, kc)
        ref = np.empty(reps)
        for r in range(reps):
            t, a, _ = sample_rep_reference(_rng(seed, r), n, d, marginal)
            ref[r] = e2_reference(t, c_star * a)
        rep = run_average_discrepancy(ExperimentConfig(
            p=2.0, d=d, N=n, density_kind="optimal", replications=reps, seed=seed,
            evaluator="kernel_p2", c_rescale="optimal_c"))
        assert rep.mean_Lp_p == pytest.approx(ref.mean(), rel=1e-12)

    def test_c_rescale_matches_per_replication_reference(self):
        n, d, reps, seed = 8, 2, 300, 41
        assert len(_chunks(reps, n, d)) > 1
        out = c_rescale_experiment(n, d, "optimal", reps, seed)
        marginal = _marginal_for("optimal", 2.0)
        plain, resc = np.empty(reps), np.empty(reps)
        for r in range(reps):
            t, a, _ = sample_rep_reference(_rng(seed, r), n, d, marginal)
            plain[r] = e2_reference(t, a)
            resc[r] = e2_reference(t, out.c_star * a)
        assert out.ratio == pytest.approx(resc.mean() / plain.mean(), rel=1e-12)

    @pytest.mark.parametrize("p,d", [(2.0, 2), (1.5, 5)])
    def test_redraws_use_each_replications_generator(self, p, d):
        # at d = 5 and p = 1.5 each replication also draws its Monte Carlo
        # seed from its own generator, after its redraws
        n, reps, seed = 3, 40 if p == 2.0 else 3, 8
        marginal = HalfZeroDensity()
        ref, ref_resamples = np.empty(reps), 0
        for r in range(reps):
            rng = _rng(seed, r)
            t, a, rs = sample_rep_reference(rng, n, d, marginal)
            ref_resamples += rs
            if p == 2.0:
                ref[r] = e2_reference(t, a)
            else:
                mc_seed = int(rng.integers(0, 2 ** 63 - 1))
                ps = WeightedPointSet(t, a)
                ref[r] = evaluate(ps, p, method="mc", samples=8192, seed=mc_seed).value ** p
        values, resamples = _lp_pow_values(p, n, d, marginal, "auto", reps, (seed,))
        assert ref_resamples > 0
        assert resamples == ref_resamples
        np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)


    def test_cells_evaluator_at_d1_runs_cells(self):
        # at d = 1 the cell_quadrature setting once ran the exact formula
        n, reps, seed, p = 8, 6, 13, 1.5
        marginal = _marginal_for("optimal", p)
        values, _ = _lp_pow_values(p, n, 1, marginal, "cell_quadrature", reps, (seed,))
        ref = np.empty(reps)
        for r in range(reps):
            t, a, _ = sample_rep_reference(_rng(seed, r), n, 1, marginal)
            ref[r] = lp_discrepancy_cells(WeightedPointSet(t, a), p).value ** p
        np.testing.assert_allclose(values, ref, rtol=1e-14, atol=0.0)
        auto, _ = _lp_pow_values(p, n, 1, marginal, "auto", reps, (seed,))
        assert np.all(np.abs(auto / values - 1.0) > 1e-11)


class TestDensityKinds:
    @pytest.mark.parametrize("call", [
        lambda: c_rescale_experiment(8, 2, "cauchy", 10, 0),
        lambda: asymptotic_scaling_probe(1.5, 2, "cauchy", [4], 3, 0),
        lambda: c_rescale_experiment(8, 2, "custom-file", 10, 0),
        lambda: _marginal_for("custom-file", 1.5),
        lambda: make_config(density_kind="cauchy"),
    ])
    def test_unknown_kind_or_missing_file_rejected(self, call):
        # the first two once raised TypeError from open(None)
        with pytest.raises(InvalidArgumentError, match="density"):
            call()


class TestBlockedKernelSums:
    """Replications with N*N*d > BLOCK_ELEMS stream row blocks."""

    def test_large_replication_memory_is_bounded(self):
        # unblocked, each (1, N, N) array of this config holds 33.6 MB
        cfg = ExperimentConfig(p=2.0, d=1, N=2048, density_kind="optimal",
                               replications=2, seed=1)
        tracemalloc.start()
        try:
            run_average_discrepancy(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    @pytest.mark.parametrize("n,d", [(300, 1), (100, 3)])
    def test_blocked_sums_match_unblocked(self, n, d):
        assert n * n * d > BLOCK_ELEMS
        t, a, _ = _sample_chunk([_rng(3, 0)], n, d, _marginal_for("optimal", 2.0))
        kmat, h = _kernel_block(t, t)
        t1, t2 = _kernel_sums(t, a)
        np.testing.assert_allclose(t1, np.einsum("rk,rk->r", a, h), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(t2, np.einsum("rk,rkl,rl->r", a, kmat, a),
                                   rtol=1e-12, atol=0.0)

    def test_small_chunks_take_one_block(self):
        # N*N*d = 768, the largest shape of the p = 2 criteria: one block,
        # so the sums keep their bits
        n, d = 16, 3
        reps = _chunks(100, n, d)[0]
        t, a, _ = _sample_chunk([_rng(5, r) for r in reps], n, d,
                                _marginal_for("optimal", 2.0))
        kmat, h = _kernel_block(t, t)
        t1, t2 = _kernel_sums(t, a)
        assert np.array_equal(t1, np.einsum("rk,rk->r", a, h))
        assert np.array_equal(t2, np.einsum("rk,rkl,rl->r", a, kmat, a))


@pytest.mark.parametrize("p", (1.0, 1.5, 3.0, 10.0))
def test_sampler_weight_moments(p):
    # under t ~ rho*, E[1/rho] = 1 and E[1/rho^2] = int 1/rho = S1; the
    # midpoints of 2^16 cells in u stand in for the expectation
    u = (np.arange(2 ** 16) + 0.5) / 2 ** 16
    marginal = _marginal_for("optimal", p)
    t, rho = _draw(marginal, u[:, None])
    s1 = (p + 2.0) / (p + 1.0)
    assert abs(np.mean(1.0 / rho) - 1.0) <= 1e-3
    assert abs(np.mean(1.0 / rho ** 2) / s1 - 1.0) <= 0.05
    np.testing.assert_allclose(rho, marginal.pdf(t[:, 0]), rtol=1e-9, atol=0.0)
    # The tail beyond the last midpoint, up to the largest uniform draw:
    # a pdf that falls to 0 linearly in the last cell of an interpolation
    # table, against the true sqrt(1 - t), is off by ~99% at u = 1 - 2^-53
    # and puts ~1e5 on E[1/rho^2].  Rounding t to float64 alone moves the
    # pdf there by ~1e-6.
    u = 1.0 - 2.0 ** -np.arange(17.0, 54.0)
    t, rho = _draw(marginal, u[:, None])
    np.testing.assert_allclose(rho, marginal.pdf(t[:, 0]), rtol=1e-4, atol=0.0)


class TestExactNav2:
    def test_uniform_n1_d1(self):
        assert exact_nav2(1, 1, "uniform") == pytest.approx(0.7071067811865476)

    def test_optimal_n1_d1(self):
        assert exact_nav2(1, 1, "optimal") == pytest.approx(1.0 / math.sqrt(3.0))

    def test_improvement_ratio_limit(self):
        # optimal/uniform -> (8/9)^{d/2} as d grows; 1% at d = 20
        d = 20
        ratio = exact_nav2(16, d, "optimal") / exact_nav2(16, d, "uniform")
        assert ratio == pytest.approx((8.0 / 9.0) ** (d / 2.0), rel=0.01)

    def test_scaling_in_n(self):
        assert exact_nav2(64, 2, "uniform") == pytest.approx(
            exact_nav2(16, 2, "uniform") / 2.0
        )

    @pytest.mark.parametrize("n, d, kind", [
        (16, 2, "optimal"), (16, 3, "uniform"), (1, 1, "optimal"), (16, 8, "optimal")])
    def test_equals_constant_formula(self, n, d, kind):
        c1 = 4.0 / 9.0 if kind == "optimal" else 0.5
        assert exact_nav2(n, d, kind) == 3.0 ** (d / 2.0) * math.sqrt((c1 ** d - 3.0 ** (-d)) / n)

    def test_no_closed_form_for_custom(self):
        with pytest.raises(InvalidArgumentError):
            exact_nav2(4, 1, "custom-file")


class TestCStar:
    def test_closed_form_examples(self):
        assert optimal_c_rescale(1, 1, 4.0 / 9.0) == pytest.approx(0.75)
        assert optimal_c_rescale(2, 1, 0.5) == pytest.approx(0.8)
        assert optimal_c_rescale(10 ** 9, 1, 0.5) == pytest.approx(1.0, abs=1e-8)

    def test_invalid_ck(self):
        with pytest.raises(InvalidArgumentError):
            optimal_c_rescale(4, 1, 0.2)

    @pytest.mark.parametrize("N,d", [(4, 1), (8, 2)])
    def test_ratio_matches_c_star(self, N, d):
        out = c_rescale_experiment(N, d, "optimal", replications=3000, seed=19)
        assert abs(out.ratio - out.c_star) <= 3.0 * out.std_error

    def test_determinism(self):
        a = c_rescale_experiment(4, 1, "uniform", replications=100, seed=5)
        b = c_rescale_experiment(4, 1, "uniform", replications=100, seed=5)
        assert a == b

    def test_non_integer_counts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            c_rescale_experiment(2.5, 1, "uniform", replications=100, seed=5)
        with pytest.raises(InvalidArgumentError):
            c_rescale_experiment(4, 1, "uniform", replications=100, seed=-5)


class TestScalingProbe:
    def test_grid_validation(self):
        with pytest.raises(InvalidArgumentError):
            asymptotic_scaling_probe(1.0, 1, "uniform", [8, 8], 10, 0)
        with pytest.raises(InvalidArgumentError):
            asymptotic_scaling_probe(1.0, 1, "uniform", [8, 2 ** 17], 10, 0)
        with pytest.raises(InvalidArgumentError):
            asymptotic_scaling_probe(1.0, 1, "uniform", [8, 16.5], 10, 0)

    def test_p2_rows_match_closed_form(self):
        rows = asymptotic_scaling_probe(2.0, 1, "uniform", [4, 16], 1500, 11)
        for row in rows:
            exact = math.sqrt(row["N"]) * exact_nav2(row["N"], 1, "uniform")
            assert abs(row["scaled"] - exact) <= 3.0 * row["std_error_scaled"]

    def test_improvement_ordering(self):
        uni = asymptotic_scaling_probe(1.5, 1, "uniform", [64], 400, 3)[0]
        opt = asymptotic_scaling_probe(1.5, 1, "optimal", [64], 400, 3)[0]
        slack = 3.0 * math.hypot(uni["std_error_scaled"], opt["std_error_scaled"])
        assert opt["scaled"] <= uni["scaled"] + slack


class TestStability:
    def test_qmc_rule_norm(self):
        ps = WeightedPointSet.qmc(np.linspace(0.0, 0.9, 10)[:, None])
        rec = stability_metrics(ps, 2.0)
        assert rec.sum_abs_weights == pytest.approx(1.0)

    def test_optimal_one_point_rule(self):
        rec = stability_metrics(WeightedPointSet([[1.0 / 3.0]], [2.0 / 3.0]), 2.0)
        assert rec.sum_abs_weights == pytest.approx(2.0 / 3.0)
        # a * sqrt(K(t,t)) = (2/3) sqrt(2/3) = sqrt(8/27)
        assert rec.max_term_contribution == pytest.approx(math.sqrt(8.0 / 27.0))
        assert rec.error == pytest.approx(1.0 / math.sqrt(27.0), abs=1e-12)
        assert rec.fdq_norm_bound == pytest.approx(
            rec.error + 1.0 / math.sqrt(3.0), rel=1e-12
        )

    def test_d5_goes_through_evaluate(self):
        ps = WeightedPointSet(np.full((2, 5), 0.5), [0.5, 0.25])
        with pytest.raises(InvalidArgumentError):
            stability_metrics(ps, 1.5)
        rec = stability_metrics(ps, 1.5, samples=3000, seed=4)
        assert rec.error == evaluate(ps, 1.5, samples=3000, seed=4).value

    def test_p2_sampled_weights_flat_contribution(self):
        # f(t)/rho*(t) = 2/3 identically for the p=2 optimal density, so every
        # per-term contribution of a sampled rule equals 2/(3N)
        n = 8
        pts = np.random.default_rng(2).random((n, 1))
        dens = ProductDensity(1, optimal_density(2.0))
        ps = weights_from_density(pts, dens)
        contrib = ps.weights * np.sqrt(1.0 - ps.points[:, 0])
        assert np.allclose(contrib, 2.0 / (3.0 * n), rtol=1e-12)
