"""Seeded Monte Carlo harness for average-discrepancy experiments.

Reproduces the expectation identities for p = 2 under uniform and optimal
sampling, the c* weight-rescaling effect, asymptotic scaling probes for
general p, and quadrature-stability metrics.

Reproducibility contract: replication r of an experiment with seed s uses the
counter-based Philox stream keyed by (s, r), so reruns with the same config
produce bit-identical reports regardless of replication order.

Replications run in chunks of R with R*N*N*d <= ``BLOCK_ELEMS`` (R >= 1):
each replication draws its uniforms from its own stream, then one
``ppf_pdf`` call per chunk gives the points and the exact density that
weights them, and at p = 2 one batched kernel call gives the kernel terms of
the whole chunk (in row blocks when one replication alone exceeds
``BLOCK_ELEMS``).  Any other method, as ``discrepancy.method_for`` picks it,
goes through ``evaluate`` one replication at a time.  A replication's stream
also serves its redraws and any Monte Carlo seed, in that order, so chunking
leaves every draw unchanged.  Aggregation order is fixed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .core import ProductDensity, WeightedPointSet, _check_counts, _check_p, initial_error
from .density import Density1D, optimal_density
from .discrepancy import (
    BLOCK_ELEMS,
    METHODS,
    _kernel_block,
    c_kernel,
    evaluate,
    method_for,
)
from .errors import InvalidArgumentError, UnsupportedExponentError

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


# Under the optimal density rho*_p the weights grow like (1 - t)^(-1/2) near
# t = 1, so L_p^p has an infinite second moment from p = 3.5 on and an
# infinite mean from p = OPTIMAL_P_LIMIT on, at every N and d.
OPTIMAL_P_LIMIT = 5.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Description of one seeded average-discrepancy experiment;
    ``evaluator`` is ``auto`` or a method tag of ``discrepancy.METHODS``.

    The optimal density needs p < OPTIMAL_P_LIMIT = 5, where the mean of
    L_p^p is finite.  At 3.5 <= p < 5 the variance of L_p^p is infinite,
    so the report's ``std_error`` is not a valid error estimate there.
    """

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
        _check_counts(d=(self.d, 1), N=(self.N, 1),
                      replications=(self.replications, 2), seed=(self.seed, 0))
        method_for(self.p, self.d, _method_name(self.evaluator), self.N)
        _check_density(self.density_kind, self.density_file)
        _check_optimal_p(self.density_kind, self.p)
        if self.c_rescale not in ("none", "optimal_c"):
            raise InvalidArgumentError(f"unknown c_rescale {self.c_rescale!r}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise InvalidArgumentError(f"{path} does not hold a JSON object")
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


def _method_name(evaluator: str) -> str:
    """The ``evaluate`` method name of an ExperimentConfig evaluator."""
    names = {tag: name for name, tag in METHODS.items()}
    if not isinstance(evaluator, str) or evaluator not in ("auto", *names):
        raise InvalidArgumentError(f"unknown evaluator {evaluator!r}")
    return names.get(evaluator, "auto")


def _rng(seed: int, *stream) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


def _check_density(kind: str, density_file=None) -> None:
    if kind not in ("uniform", "optimal", "custom-file"):
        raise InvalidArgumentError(f"unknown density_kind {kind!r}")
    if density_file is not None and not isinstance(density_file, (str, os.PathLike)):
        raise InvalidArgumentError(f"density_file must be a path, got {density_file!r}")
    if kind == "custom-file" and not density_file:
        raise InvalidArgumentError("custom-file density needs density_file")


def _check_optimal_p(kind: str, p: float) -> None:
    if kind == "optimal" and p >= OPTIMAL_P_LIMIT:
        raise UnsupportedExponentError(
            f"the optimal density needs p < {OPTIMAL_P_LIMIT:g}, where the mean of "
            f"L_p^p is finite; got p={p!r}")


def _marginal_for(kind: str, p: float, density_file=None) -> Density1D:
    _check_density(kind, density_file)
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
    t, rho = _draw(marginal, np.stack([rng.random((n, d)) for rng in rngs]))
    resamples = 0
    for i in np.flatnonzero(np.any(rho <= 0.0, axis=1)):
        ti, rhoi = t[i], rho[i]
        while np.any(rhoi <= 0.0):
            bad = rhoi <= 0.0
            nb = int(bad.sum())
            resamples += nb
            ti[bad], rhoi[bad] = _draw(marginal, rngs[i].random((nb, d)))
    return t, 1.0 / (n * rho), resamples


def _draw(marginal, u):
    """Inverse-CDF points of the uniforms u (shape (..., d)), kept below 1 so
    that every point lies in [0, 1), and their product densities (shape
    (...)), both from one ``ppf_pdf`` call."""
    t, rho = marginal.ppf_pdf(u.ravel())
    t = np.minimum(t, np.nextafter(1.0, 0.0)).reshape(u.shape)
    return t, rho.reshape(u.shape).prod(axis=-1)


def _kernel_sums(t, a):
    """Per replication of a chunk: t1 = sum_k a_k h_d(t_k) and
    t2 = sum_{k,l} a_k a_l K_d(t_k, t_l).  A chunk that holds one
    replication with N*N*d > BLOCK_ELEMS streams full-width blocks of B
    rows, B*N*d <= BLOCK_ELEMS (B >= 1).  The sums are einsum float sums
    taken block by block, so this rule fixes the bits of every p = 2
    report; ``l2_discrepancy_kernel``, which sums its symmetric half
    exactly, has its own rule."""
    n, d = t.shape[-2:]
    rows = n if n * n * d <= BLOCK_ELEMS else max(1, BLOCK_ELEMS // (n * d))
    t1, t2 = np.zeros(len(t)), np.zeros(len(t))
    for lo in range(0, n, rows):
        kmat, h = _kernel_block(t[:, lo:lo + rows], t)
        a_rows = a[:, lo:lo + rows]
        t1 += np.einsum("rk,rk->r", a_rows, h)
        t2 += np.einsum("rk,rkl,rl->r", a_rows, kmat, a)
    return t1, t2


def _lp_pow_values(p, n, d, marginal, evaluator, replications, stream, c_factor=1.0):
    """Integral of |Delta|^p for each replication, replication r drawn from
    ``_rng(*stream, r)`` with weights scaled by ``c_factor``, by the method
    ``method_for`` picks for the config ``evaluator``.  Returns
    (values, resample_count)."""
    method = _method_name(evaluator)
    tag = method_for(p, d, method, n)
    samples = max(8192, 4 * n)
    values = np.empty(replications)
    resamples = 0
    for reps in _chunks(replications, n, d):
        rngs = [_rng(*stream, r) for r in reps]
        t, a, rs = _sample_chunk(rngs, n, d, marginal)
        resamples += rs
        a *= c_factor
        if tag == "kernel_p2":
            t1, t2 = _kernel_sums(t, a)
            values[reps.start:reps.stop] = 3.0 ** (-d) - 2.0 * t1 + t2
            continue
        for r, tr, ar, rng in zip(reps, t, a, rngs):
            seed = int(rng.integers(0, 2 ** 63 - 1)) if tag == "monte_carlo" else None
            res = evaluate(WeightedPointSet(tr, ar), p, method, samples=samples, seed=seed)
            values[r] = res.value ** p
    return values, resamples


def run_average_discrepancy(cfg: ExperimentConfig) -> ExperimentReport:
    """Estimate av_p and n-av_p over M replications of N weighted points."""
    marginal = _marginal_for(cfg.density_kind, cfg.p, cfg.density_file)
    c_factor = 1.0
    if cfg.c_rescale == "optimal_c":
        c_factor = optimal_c_rescale(cfg.N, cfg.d, c_kernel(ProductDensity(cfg.d, marginal)))
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
    """Closed-form n-av_2: 3^{d/2} sqrt((C(K_d, rho_d) - 3^-d)/N), with C
    from ``c_kernel``'s closed form, (1/2)^d for uniform sampling and
    (4/9)^d for the optimal density."""
    _check_counts(N=(N, 1), d=(d, 1))
    c_k = c_kernel(ProductDensity(d, _marginal_for(density_kind, 2.0)))
    return 3.0 ** (d / 2.0) * math.sqrt((c_k - 3.0 ** (-d)) / N)


def optimal_c_rescale(N: int, d: int, C_K: float) -> float:
    """Weight-rescaling constant c* = N / (N - 1 + 3^d C(K_d, rho_d))."""
    _check_counts(N=(N, 1), d=(d, 1))
    if not (3.0 ** (-d) * (1.0 - 1e-12) <= C_K < math.inf):
        raise InvalidArgumentError(f"C_K must be finite and at least 3^-d, got {C_K}")
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
    marginal = _marginal_for(density_kind, 2.0)  # custom-file needs a file: rejected
    c_star = optimal_c_rescale(N, d, c_kernel(ProductDensity(d, marginal)))
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
    dicts {N, n_av_p, scaled, std_error_scaled}.  The optimal density needs
    p < OPTIMAL_P_LIMIT = 5, and at 3.5 <= p < 5 ``std_error_scaled`` is not
    valid (see ExperimentConfig).
    """
    N_grid = list(N_grid)
    _check_p(p)
    _check_optimal_p(density_kind, p)
    _check_counts(d=(d, 1), replications=(replications, 2), seed=(seed, 0),
                  **{f"N_grid[{i}]": (n, 1) for i, n in enumerate(N_grid)})
    if not N_grid or any(b <= a for a, b in zip(N_grid, N_grid[1:])):
        raise InvalidArgumentError("N_grid must be non-empty and strictly increasing")
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


def stability_metrics(ps: WeightedPointSet, p: float, **options) -> StabilityReport:
    """Operator-norm surrogates: sum |a_k|, the largest single-point
    contribution sup_{|f|<=1} a_k f(t_k) = a_k sqrt(K_d(t_k,t_k)), and the
    triangle-inequality bound ||A|| <= error + initial error.  The error is
    ``evaluate(ps, p, **options)``, so d > 4 needs ``samples`` and ``seed``."""
    sum_abs = float(np.abs(ps.weights).sum())
    contrib = ps.weights * np.prod(np.sqrt(1.0 - ps.points), axis=1)
    err = evaluate(ps, p, **options).value
    return StabilityReport(
        sum_abs_weights=sum_abs,
        max_term_contribution=float(contrib.max()),
        error=err,
        fdq_norm_bound=err + initial_error(p, ps.d),
    )
