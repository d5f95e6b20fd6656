"""Tests for the seeded Monte Carlo experiment harness."""

import json
import math

import numpy as np
import pytest

from disclab.core import ProductDensity, WeightedPointSet, weights_from_density
from disclab.density import optimal_density
from disclab.discrepancy import c_kernel, evaluate
from disclab.errors import InvalidArgumentError
from disclab.experiments import (
    ExperimentConfig,
    _chunks,
    _lp_pow_values,
    _marginal_for,
    _rng,
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
    t = np.minimum(marginal.ppf(rng.random((n, d)).ravel()).reshape(n, d), below_one)
    rho = marginal.pdf_fast(t.ravel()).reshape(n, d).prod(axis=1)
    resamples = 0
    while np.any(rho <= 0.0):
        bad = rho <= 0.0
        nb = int(bad.sum())
        resamples += nb
        tb = np.minimum(marginal.ppf(rng.random((nb, d)).ravel()).reshape(nb, d), below_one)
        t[bad] = tb
        rho[bad] = marginal.pdf_fast(tb.ravel()).reshape(nb, d).prod(axis=1)
    return t, 1.0 / (n * rho), resamples


def e2_reference(t, a):
    """Squared L_2 error of one rule, from the full N x N x d kernel tensor."""
    h = np.prod((1.0 - t ** 2) / 2.0, axis=1)
    kmat = np.prod(1.0 - np.maximum(t[:, None, :], t[None, :, :]), axis=2)
    return 3.0 ** (-t.shape[1]) - 2.0 * (a @ h) + a @ kmat @ a


class HalfZeroDensity:
    """Samples uniformly but has density 0 on [0, 1/2), so every coordinate
    drawn there forces a redraw (a sampler/pdf mismatch made on purpose)."""

    def ppf(self, u):
        return np.array(u, dtype=float)

    def pdf_fast(self, t):
        return np.where(np.asarray(t) < 0.5, 0.0, 2.0)


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
        kc = c_kernel(ProductDensity(d, marginal, "optimal"))
        c_star = optimal_c_rescale(n, d, kc.C_K)
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

    def test_p2_sampled_weights_flat_contribution(self):
        # f(t)/rho*(t) = 2/3 identically for the p=2 optimal density, so every
        # per-term contribution of a sampled rule equals 2/(3N)
        n = 8
        pts = np.random.default_rng(2).random((n, 1))
        dens = ProductDensity(1, optimal_density(2.0), "optimal")
        ps = weights_from_density(pts, dens)
        contrib = ps.weights * np.sqrt(1.0 - ps.points[:, 0])
        assert np.allclose(contrib, 2.0 / (3.0 * n), rtol=1e-12)
