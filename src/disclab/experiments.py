"""Seeded Monte Carlo harness for average-discrepancy experiments.

Reproduces the expectation identities for p = 2 under uniform and optimal
sampling, the c* weight-rescaling effect, asymptotic scaling probes for
general p, and quadrature-stability metrics.

Reproducibility contract: replication r of an experiment with seed s uses the
counter-based Philox stream keyed by (s, r), so reruns with the same config
produce bit-identical reports regardless of replication order.

Replications run in chunks of R with R*N*N*d <= ``BLOCK_ELEMS`` (R >= 1):
each replication draws its uniforms from its own stream, then the inverse CDF
and the pdf run once per chunk, and at p = 2 one batched kernel call gives
the kernel terms of the whole chunk.  Other p evaluate one replication at a
time.  A replication's stream also serves its redraws and any Monte Carlo
seed, in that order, so chunking leaves every draw unchanged.  Aggregation
order is fixed.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .core import ProductDensity, WeightedPointSet, initial_error
from .density import Density1D, optimal_density
from .discrepancy import (
    BLOCK_ELEMS,
    _kernel_block,
    c_kernel,
    evaluate,
    lp_discrepancy_cells,
)
from .errors import InvalidArgumentError

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_average_discrepancy",
    "exact_nav2",
    "optimal_c_rescale",
    "c_rescale_experiment",
    "asymptotic_scaling_probe",
    "stability_metrics",
    "StabilityReport",
]

_DENSITY_KINDS = ("uniform", "optimal", "custom-file")
_EVALUATORS = ("auto", "kernel_p2", "cell_quadrature", "monte_carlo")


@dataclass(frozen=True)
class ExperimentConfig:
    """Description of one seeded average-discrepancy experiment."""

    p: float
    d: int
    N: int
    density_kind: str
    replications: int
    seed: int
    evaluator: str = "auto"
    c_rescale: str = "none"
    density_file: str | None = None

    def __post_init__(self):
        if (isinstance(self.p, bool) or not isinstance(self.p, numbers.Real)
                or not math.isfinite(self.p) or self.p < 1.0):
            raise InvalidArgumentError(f"p must be a finite number >= 1, got {self.p!r}")
        _check_counts(d=(self.d, 1), N=(self.N, 1),
                      replications=(self.replications, 2), seed=(self.seed, 0))
        if self.evaluator == "kernel_p2" and self.p != 2.0:
            raise InvalidArgumentError(f"evaluator kernel_p2 needs p = 2, got p={self.p}")
        if self.density_kind not in _DENSITY_KINDS:
            raise InvalidArgumentError(f"unknown density_kind {self.density_kind!r}")
        if self.evaluator not in _EVALUATORS:
            raise InvalidArgumentError(f"unknown evaluator {self.evaluator!r}")
        if self.c_rescale not in ("none", "optimal_c"):
            raise InvalidArgumentError(f"unknown c_rescale {self.c_rescale!r}")
        if self.density_kind == "custom-file" and not self.density_file:
            raise InvalidArgumentError("custom-file density needs density_file")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        allowed = set(cls.__dataclass_fields__)
        unknown = set(raw) - allowed
        if unknown:
            raise InvalidArgumentError(f"unknown config fields: {sorted(unknown)}")
        missing = {"p", "d", "N", "density_kind", "replications", "seed"} - set(raw)
        if missing:
            raise InvalidArgumentError(f"missing config fields: {sorted(missing)}")
        return cls(**raw)


@dataclass(frozen=True)
class ExperimentReport:
    """Statistics of one experiment; mean_Lp_p estimates E[L^p]."""

    mean_Lp_p: float
    av_p: float
    n_av_p: float
    std_error: float
    scaled: float
    replications_used: int
    resamples: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def write_csv(self, path) -> None:
        data = asdict(self)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(sorted(data))
            writer.writerow([data[k] for k in sorted(data)])


def _check_counts(**counts) -> None:
    """Raise unless each name=(value, low) pair has an integer value >= low."""
    for name, (value, low) in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise InvalidArgumentError(f"{name} must be an integer >= {low}, got {value!r}")


def _rng(seed: int, *stream) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


def _marginal_for(kind: str, p: float, density_file=None) -> Density1D:
    if kind == "uniform":
        return Density1D.uniform()
    if kind == "optimal":
        return optimal_density(p)
    t, rho = [], []
    with open(density_file) as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or not row[0].strip() or row[0].lstrip()[0].isalpha():
                continue
            t.append(float(row[0]))
            rho.append(float(row[1]))
    return Density1D.from_table(np.asarray(t), np.asarray(rho))


def _chunks(replications: int, n: int, d: int) -> list[range]:
    """Consecutive ranges of R replications, R*N*N*d <= BLOCK_ELEMS (one
    replication when N*N*d is larger)."""
    size = max(1, BLOCK_ELEMS // (n * n * d))
    return [range(lo, min(lo + size, replications)) for lo in range(0, replications, size)]


def _sample_chunk(rngs, n, d, marginal):
    """N i.i.d. points with importance weights per replication, one
    replication per generator in ``rngs``.

    Returns (points (R, N, d), weights (R, N), resample_count).  A draw
    landing where the density vanishes (probability zero in exact
    arithmetic) is redrawn from its replication's generator and counted, to
    surface sampler bugs.
    """
    t = _ppf_below_one(marginal, np.stack([rng.random((n, d)) for rng in rngs]))
    rho = marginal.pdf_fast(t.ravel()).reshape(t.shape).prod(axis=-1)
    resamples = 0
    for i in np.flatnonzero(np.any(rho <= 0.0, axis=1)):
        ti, rhoi = t[i], rho[i]
        while np.any(rhoi <= 0.0):
            bad = rhoi <= 0.0
            nb = int(bad.sum())
            resamples += nb
            tb = _ppf_below_one(marginal, rngs[i].random((nb, d)))
            ti[bad] = tb
            rhoi[bad] = marginal.pdf_fast(tb.ravel()).reshape(nb, d).prod(axis=1)
    return t, 1.0 / (n * rho), resamples


def _ppf_below_one(marginal, u):
    """Inverse-CDF points of the uniforms u (any shape), kept below 1 so that
    every point lies in [0, 1)."""
    t = marginal.ppf(u.ravel()).reshape(u.shape)
    return np.minimum(t, np.nextafter(1.0, 0.0), out=t)


def _kernel_sums(t, a):
    """Per replication of a chunk: t1 = sum_k a_k h_d(t_k) and
    t2 = sum_{k,l} a_k a_l K_d(t_k, t_l)."""
    kmat, h = _kernel_block(t, t)
    return np.einsum("rk,rk->r", a, h), np.einsum("rk,rkl,rl->r", a, kmat, a)


def _lp_pow_d1_exact(t: np.ndarray, a: np.ndarray, p: float) -> float:
    """Exact integral of |Delta|^p for d = 1 (piecewise-analytic cells)."""
    order = np.argsort(t, kind="stable")
    ts = t[order]
    cum = np.concatenate(([0.0], np.cumsum(a[order])))
    edges = np.concatenate(([0.0], ts, [1.0]))
    lo, hi = edges[:-1], edges[1:]
    pp1 = p + 1.0
    a1 = np.clip(cum - lo, 0.0, None)
    a2 = np.clip(cum - hi, 0.0, None)
    b1 = np.clip(hi - cum, 0.0, None)
    b2 = np.clip(lo - cum, 0.0, None)
    return float(np.sum(a1 ** pp1 - a2 ** pp1 + b1 ** pp1 - b2 ** pp1) / pp1)


def _lp_pow_values(p, n, d, marginal, evaluator, replications, stream, c_factor=1.0):
    """Integral of |Delta|^p for each replication, replication r drawn from
    ``_rng(*stream, r)`` with weights scaled by ``c_factor``.  Returns
    (values, resample_count)."""
    values = np.empty(replications)
    resamples = 0
    for reps in _chunks(replications, n, d):
        rngs = [_rng(*stream, r) for r in reps]
        t, a, rs = _sample_chunk(rngs, n, d, marginal)
        resamples += rs
        a *= c_factor
        if evaluator == "kernel_p2" or (evaluator == "auto" and p == 2.0):
            t1, t2 = _kernel_sums(t, a)
            values[reps.start:reps.stop] = 3.0 ** (-d) - 2.0 * t1 + t2
        else:
            for r, tr, ar, rng in zip(reps, t, a, rngs):
                values[r] = _lp_pow_one_rep(tr, ar, p, d, evaluator, rng)
    return values, resamples


def _lp_pow_one_rep(t, a, p, d, evaluator, rng):
    if evaluator in ("auto", "cell_quadrature") and d == 1:
        return _lp_pow_d1_exact(t[:, 0], a, p)
    ps = WeightedPointSet(t, a)
    if evaluator in ("auto", "cell_quadrature") and d <= 4:
        return lp_discrepancy_cells(ps, p).value ** p
    samples = max(8192, 4 * t.shape[0])
    seed = int(rng.integers(0, 2 ** 63 - 1))
    return evaluate(ps, p, method="mc", samples=samples, seed=seed).value ** p


def run_average_discrepancy(cfg: ExperimentConfig) -> ExperimentReport:
    """Estimate av_p and n-av_p over M replications of N weighted points."""
    marginal = _marginal_for(cfg.density_kind, cfg.p, cfg.density_file)
    c_factor = 1.0
    if cfg.c_rescale == "optimal_c":
        kind = {"uniform": "uniform", "optimal": "optimal", "custom-file": "custom"}
        kc = c_kernel(ProductDensity(cfg.d, marginal, kind[cfg.density_kind]))
        c_factor = optimal_c_rescale(cfg.N, cfg.d, kc.C_K)
    lp_vals, resamples = _lp_pow_values(
        cfg.p, cfg.N, cfg.d, marginal, cfg.evaluator, cfg.replications,
        (cfg.seed,), c_factor,
    )
    mean = float(lp_vals.mean())
    se = float(lp_vals.std(ddof=1) / math.sqrt(cfg.replications))
    av = mean ** (1.0 / cfg.p) if mean > 0.0 else 0.0
    n_av = av / initial_error(cfg.p, cfg.d)
    return ExperimentReport(
        mean_Lp_p=mean,
        av_p=av,
        n_av_p=n_av,
        std_error=se,
        scaled=math.sqrt(cfg.N) * n_av,
        replications_used=cfg.replications,
        resamples=resamples,
        seed=cfg.seed,
    )


def exact_nav2(N: int, d: int, density_kind: str) -> float:
    """Closed-form n-av_2: 3^{d/2} sqrt((C^d - 3^-d)/N) with C = 1/2 for
    uniform sampling and C = 4/9 for the optimal density."""
    if N < 1 or d < 1:
        raise InvalidArgumentError("need N >= 1 and d >= 1")
    if density_kind == "uniform":
        c1 = 0.5
    elif density_kind == "optimal":
        c1 = 4.0 / 9.0
    else:
        raise InvalidArgumentError(f"no closed form for {density_kind!r}")
    return 3.0 ** (d / 2.0) * math.sqrt((c1 ** d - 3.0 ** (-d)) / N)


def optimal_c_rescale(N: int, d: int, C_K: float) -> float:
    """Weight-rescaling constant c* = N / (N - 1 + 3^d C(K_d, rho_d))."""
    if C_K < 3.0 ** (-d) * (1.0 - 1e-12):
        raise InvalidArgumentError("C_K below the 3^-d lower bound")
    return N / (N - 1.0 + 3.0 ** d * C_K)


@dataclass(frozen=True)
class CStarReport:
    ratio: float
    std_error: float
    c_star: float
    replications: int
    seed: int


def c_rescale_experiment(
    N: int, d: int, density_kind: str, replications: int, seed: int
) -> CStarReport:
    """Paired MC estimate of E[e^2 rescaled] / E[e^2] for p = 2.

    Per replication, both squared errors are derived from the same linear and
    quadratic kernel terms, so the ratio estimate is tightly coupled; the
    standard error uses the delta method for a ratio of means.
    """
    _check_counts(N=(N, 1), d=(d, 1), replications=(replications, 2), seed=(seed, 0))
    marginal = _marginal_for(density_kind, 2.0)
    kind = "uniform" if density_kind == "uniform" else "optimal"
    kc = c_kernel(ProductDensity(d, marginal, kind))
    c_star = optimal_c_rescale(N, d, kc.C_K)
    t1 = np.empty(replications)
    t2 = np.empty(replications)
    for reps in _chunks(replications, N, d):
        t, a, _ = _sample_chunk([_rng(seed, r) for r in reps], N, d, marginal)
        t1[reps.start:reps.stop], t2[reps.start:reps.stop] = _kernel_sums(t, a)
    base = 3.0 ** (-d)
    e2_plain = base - 2.0 * t1 + t2
    e2_resc = base - 2.0 * c_star * t1 + c_star ** 2 * t2
    mx = float(e2_plain.mean())
    my = float(e2_resc.mean())
    ratio = my / mx
    cov = np.cov(np.vstack([e2_resc, e2_plain]), ddof=1)
    var_r = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio ** 2 * cov[1, 1]) / (
        mx ** 2 * replications
    )
    return CStarReport(
        ratio=ratio,
        std_error=math.sqrt(max(var_r, 0.0)),
        c_star=c_star,
        replications=replications,
        seed=seed,
    )


def asymptotic_scaling_probe(
    p: float,
    d: int,
    density_kind: str,
    N_grid,
    replications: int,
    seed: int,
):
    """Scaled averages N^{1/2} n-av_p along an increasing N grid.

    Each N gets its own Philox stream block, so rows are independent and the
    whole table is reproducible from (seed, N_grid).  Returns a list of row
    dicts {N, n_av_p, scaled, std_error_scaled}.
    """
    N_grid = list(N_grid)
    _check_counts(d=(d, 1), replications=(replications, 2), seed=(seed, 0),
                  **{f"N_grid[{i}]": (n, 1) for i, n in enumerate(N_grid)})
    if any(b <= a for a, b in zip(N_grid, N_grid[1:])):
        raise InvalidArgumentError("N_grid must be strictly increasing")
    if N_grid[-1] > 2 ** 16:
        raise InvalidArgumentError("max N in the grid is 2^16")
    marginal = _marginal_for(density_kind, p)
    rows = []
    for block, n in enumerate(N_grid):
        lp_vals, _ = _lp_pow_values(p, n, d, marginal, "auto", replications, (seed, block))
        mean = float(lp_vals.mean())
        se_mean = float(lp_vals.std(ddof=1) / math.sqrt(replications))
        n_av = mean ** (1.0 / p) / initial_error(p, d)
        scaled = math.sqrt(n) * n_av
        se_scaled = se_mean * scaled / (p * mean) if mean > 0.0 else float("nan")
        rows.append(
            {"N": n, "n_av_p": n_av, "scaled": scaled, "std_error_scaled": se_scaled}
        )
    return rows


@dataclass(frozen=True)
class StabilityReport:
    """Classical and F_{d,q}-relative stability indicators of one rule."""

    sum_abs_weights: float
    max_term_contribution: float
    error: float
    fdq_norm_bound: float


def stability_metrics(ps: WeightedPointSet, p: float) -> StabilityReport:
    """Operator-norm surrogates: sum |a_k|, the largest single-point
    contribution sup_{|f|<=1} a_k f(t_k) = a_k sqrt(K_d(t_k,t_k)), and the
    triangle-inequality bound ||A|| <= error + initial error."""
    sum_abs = float(np.abs(ps.weights).sum())
    contrib = ps.weights * np.prod(np.sqrt(1.0 - ps.points), axis=1)
    if p == 2.0:
        err = evaluate(ps, 2.0).value
    elif ps.d <= 4:
        err = evaluate(ps, p, method="cells").value
    else:
        err = evaluate(ps, p, method="mc", samples=20000, seed=0).value
    return StabilityReport(
        sum_abs_weights=sum_abs,
        max_term_contribution=float(contrib.max()),
        error=err,
        fdq_norm_bound=err + initial_error(p, ps.d),
    )
