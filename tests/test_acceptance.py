"""Acceptance suite: eight end-to-end criteria with pinned tolerances.

Each test prints a single ``ACCEPTANCE n ... PASS|FAIL`` line directly to the
terminal (bypassing capture) and then asserts, so a glance at the output shows
the full scoreboard.

Note on criterion 2: the implicit-curve residual is checked through
``curve_residual``, which evaluates the defining equation with the complement
u = rho(0) - rho carried at full relative precision (as log s, s = c u).  For large p the curve is
so steep in rho that adjacent float64 rho values straddle t-intervals many
orders of magnitude wider than 1e-9 (about 5e-3 at p=100), so substituting a
rounded rho into the textbook residual measures float64 quantization rather
than solver quality; the u-form is the same equation evaluated where the
precision actually lives.  For p <= 3 the direct textbook residual is also
asserted at the same tolerance.
"""

import json
import math
import time

import numpy as np
import pytest

import disclab as dl
from disclab.core import ProductDensity, WeightedPointSet
from disclab.density import Density1D, curve_residual, residual_eq_rho
from disclab.discrepancy import (
    c_kernel,
    l2_discrepancy_kernel,
    lp_discrepancy_cells,
    lp_discrepancy_even,
    lp_discrepancy_mc,
)
from disclab.experiments import (
    ExperimentConfig,
    c_rescale_experiment,
    exact_nav2,
    run_average_discrepancy,
)
from disclab.bounds import bounds_row

P_GRID = (1.0, 1.5, 2.0, 3.0, 10.0, 100.0)


def report(capsys, num, label, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({label}): {status}  [{elapsed:.1f}s / limit {limit:.0f}s]")


def test_criterion_1_golden_constants(capsys):
    t0 = time.perf_counter()
    checks = []
    kc = c_kernel(ProductDensity(1, dl.optimal_density(2.0)))
    checks.append(abs(kc.C_K - 4.0 / 9.0) <= 1e-12)
    for p in (1.0, 2.0, 3.0, 10.0):
        checks.append(
            abs(dl.variational_solution(p).S1 - (p + 2.0) / (p + 1.0)) <= 1e-12
        )
    checks.append(abs(dl.variational_solution(2.0).Jmin - 4.0 / 9.0) <= 1e-12)
    one_third = l2_discrepancy_kernel(WeightedPointSet([[1.0 / 3.0]], [2.0 / 3.0]))
    checks.append(abs(one_third.value - 1.0 / math.sqrt(27.0)) <= 1e-12)
    midpoint = l2_discrepancy_kernel(WeightedPointSet([[0.5]], [1.0]))
    checks.append(abs(midpoint.value - 1.0 / math.sqrt(12.0)) <= 1e-12)
    checks.append(abs(bounds_row(2.0).alpha_old_sq - 1.5) <= 1e-12)
    checks.append(abs(bounds_row(10.0).alpha_old_sq - 1.13) <= 0.005)
    checks.append(abs(bounds_row(100.0).alpha_old_sq - 1.014) <= 0.002)
    checks.append(abs(bounds_row(1.0).alpha_new - math.sqrt(1.5)) <= 1e-12)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    report(capsys, 1, "golden constants", ok, elapsed, 1)
    assert all(checks)
    assert elapsed < 1.0


def test_criterion_2_density_correctness(capsys):
    t0 = time.perf_counter()
    checks = []
    t_nodes = np.linspace(0.0, 1.0, 1001)
    for p in P_GRID:
        res = max(abs(curve_residual(p, t)) for t in t_nodes)
        checks.append(res <= 1e-9)
        if p <= 3.0:
            dens = dl.optimal_density(p)
            direct = max(
                abs(residual_eq_rho(p, t, float(dens.pdf(t)))) for t in t_nodes
            )
            checks.append(direct <= 1e-9)
        checks.append(abs(dl.optimal_density(p).normalization() - 1.0) <= 1e-9)
    # closed forms for p = 1, 2 against the general solver
    t_cmp = np.linspace(0.0, 1.0, 101)
    for p, closed in ((1.0, dl.optimal_density(1.0)), (2.0, dl.optimal_density(2.0))):
        general = Density1D.general(p)
        diff = max(
            abs(float(general.pdf(t)) - float(closed.pdf(t))) for t in t_cmp
        )
        checks.append(diff <= 1e-8)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 10.0
    report(capsys, 2, "density correctness", ok, elapsed, 10)
    assert all(checks)
    assert elapsed < 10.0


def test_criterion_3_functional_optimality(capsys):
    t0 = time.perf_counter()
    checks = []
    uniform = Density1D.uniform()
    for p in P_GRID:
        opt = dl.optimal_density(p)
        j_opt = dl.J_functional(opt, p)
        jmin = (1.0 / (p + 1.0)) * ((p + 2.0) / (p + 1.0)) ** (p / 2.0)
        checks.append(abs(j_opt - jmin) <= 1e-7)
        checks.append(dl.J_functional(uniform, p) > j_opt)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 10.0
    report(capsys, 3, "functional optimality", ok, elapsed, 10)
    assert all(checks)
    assert elapsed < 10.0


def test_criterion_4_evaluator_cross_validation(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checks = []
    for _ in range(50):
        d = int(rng.integers(1, 4))
        n_cap = 32 if d <= 2 else 12  # keep the d=3 cell count tractable
        n = int(rng.integers(1, n_cap + 1))
        w = rng.random(n)
        ps = WeightedPointSet(rng.random((n, d)), w / w.sum() * rng.uniform(0.5, 1.5))
        kern = l2_discrepancy_kernel(ps).value
        checks.append(abs(kern - lp_discrepancy_even(ps, 2).value) <= 1e-12)
        checks.append(abs(kern - lp_discrepancy_cells(ps, 2.0).value) <= 1e-8)
        for p in (1.0, 1.5, 3.0):
            cell = lp_discrepancy_cells(ps, p).value
            mc = lp_discrepancy_mc(ps, p, samples=40_000, seed=int(rng.integers(2 ** 31)))
            checks.append(abs(mc.value - cell) <= 4.0 * mc.abs_error_estimate + 1e-12)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 120.0
    report(capsys, 4, "evaluator cross-validation", ok, elapsed, 120)
    assert all(checks)
    assert elapsed < 120.0


def test_criterion_5_expectation_identities(capsys):
    t0 = time.perf_counter()
    checks = []
    reps = 10_000
    observed = {}
    for n, d in ((4, 1), (16, 2), (16, 3)):
        for kind, c1 in (("uniform", 0.5), ("optimal", 4.0 / 9.0)):
            cfg = ExperimentConfig(p=2.0, d=d, N=n, density_kind=kind,
                                   replications=reps, seed=8191,
                                   evaluator="kernel_p2")
            rep = run_average_discrepancy(cfg)
            exact_mean = (c1 ** d - 3.0 ** (-d)) / n
            checks.append(abs(rep.mean_Lp_p - exact_mean) <= 3.0 * rep.std_error)
            observed[(n, d, kind)] = rep
    # improvement ratio follows the (8/9)^{d/2} tensor trend: the observed
    # optimal/uniform ratio matches its closed form (which lies below the
    # asymptotic (8/9)^{d/2} envelope) within propagated MC error
    for n, d in ((4, 1), (16, 2), (16, 3)):
        opt, uni = observed[(n, d, "optimal")], observed[(n, d, "uniform")]
        ratio = opt.n_av_p / uni.n_av_p
        exact = exact_nav2(n, d, "optimal") / exact_nav2(n, d, "uniform")
        rel_se = 0.5 * math.hypot(
            opt.std_error / opt.mean_Lp_p, uni.std_error / uni.mean_Lp_p
        )
        checks.append(abs(ratio - exact) <= 3.0 * rel_se * exact)
        checks.append(ratio <= (8.0 / 9.0) ** (d / 2.0) + 3.0 * rel_se)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 300.0
    report(capsys, 5, "expectation identities", ok, elapsed, 300)
    assert all(checks)
    assert elapsed < 300.0


def test_criterion_6_c_star_rescaling(capsys):
    t0 = time.perf_counter()
    checks = []
    for n, d in ((4, 1), (8, 2)):
        out = c_rescale_experiment(n, d, "optimal", replications=8000, seed=333)
        checks.append(abs(out.ratio - out.c_star) <= 3.0 * out.std_error)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 120.0
    report(capsys, 6, "c* rescaling", ok, elapsed, 120)
    assert all(checks)
    assert elapsed < 120.0


def test_criterion_7_asymptotic_probes(capsys):
    t0 = time.perf_counter()
    limits = {
        "uniform": math.sqrt(2.0 / math.pi) * (4.0 / 3.0),
        "optimal": math.sqrt(2.0 / math.pi) * math.sqrt(1.5),
    }
    scaled = {}
    checks = []
    for kind, limit in limits.items():
        cfg = ExperimentConfig(p=1.0, d=1, N=4096, density_kind=kind,
                               replications=2000, seed=60_001)
        rep = run_average_discrepancy(cfg)
        scaled[kind] = rep.scaled
        checks.append(rep.scaled <= limit * 1.10)
    checks.append(scaled["optimal"] < scaled["uniform"])
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 600.0
    report(capsys, 7, "asymptotic probes", ok, elapsed, 600)
    assert all(checks)
    assert elapsed < 600.0


def test_criterion_8_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(p=1.5, d=2, N=8, density_kind="optimal",
                           replications=40, seed=4242)
    a = run_average_discrepancy(cfg).to_json()
    b = run_average_discrepancy(cfg).to_json()
    checks = [a.encode() == b.encode()]
    # and through the CLI, to a file, byte for byte
    from disclab.cli import main
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"p": 2.0, "d": 1, "N": 4, "density_kind": "uniform",
         "replications": 25, "seed": 11}
    ))
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    checks.append(main(["experiment", "--config", str(cfg_path), "--out", str(f1)]) == 0)
    checks.append(main(["experiment", "--config", str(cfg_path), "--out", str(f2)]) == 0)
    checks.append(f1.read_bytes() == f2.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 60.0
    report(capsys, 8, "determinism", ok, elapsed, 60)
    assert all(checks)
    assert elapsed < 60.0
