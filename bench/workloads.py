"""The four benchmark workloads: seeded inputs, the op mix, and output checks.

A workload is a sequence of rounds.  Round r builds its inputs from the
generator keyed by (workload seed, r), so a seed fixes every input, and the
library only ever sees the generated arrays and configs.  Each op is one call
into a public disclab function; its check runs after the call returns,
outside the timed region, and raises ``CheckFailed`` when the output is wrong.

Statistical checks come in two strengths.  Each op is held to 6 standard
errors, which catches gross errors without false alarms over the ~10^4 ops
of a full benchmark campaign.  The pooled estimate of every config, over all
ops of a run, is held to 5 standard errors; see ``Workload.pooled_failures``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from disclab import density, discrepancy, experiments
from disclab.core import WeightedPointSet, initial_error

HERE = os.path.dirname(os.path.abspath(__file__))
WARMUP_ROUND = 2 ** 32 - 1  # generator key of the warm-up round; never timed
OP_Z = 6.0
POOLED_Z = 5.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    seed: int
    pool: dict = field(default_factory=dict)

    name = ""

    def __post_init__(self):
        pass

    def rng(self, r: int, stream: int = 0) -> np.random.Generator:
        """Generator of round r; `stream` separates independent draws.  The
        warm-up round is the same for every seed, so that set-up time does
        not depend on the seed."""
        key = [r, stream] if r == WARMUP_ROUND else [self.seed, r, stream]
        return np.random.default_rng(key)

    def op_seed(self, rng: np.random.Generator) -> int:
        return int(rng.integers(2 ** 62))

    def op_reps(self, r: int, slot: int, slots: int, nominal: int) -> int:
        """Replications of the harness op in `slot` of the `slots` of round
        r, log-uniform in [nominal/2, 2 nominal].  Op costs then form a
        continuum rather than a few levels, so p50 and p90 never sit on a
        step between two op kinds, and they shift smoothly, not in jumps,
        when the box slows down.  The uniform variate is
        u0 + slot/slots + r * GOLDEN (mod 1) from a seeded start u0: the
        slots of a round are spread evenly, and the rounds of a run fill the
        range evenly, so the reps mix of a run, and with it p50, hardly
        depends on the seed."""
        u = (self.rng(0, stream=4).random() + slot / slots + r * GOLDEN) % 1.0
        return int(round(nominal * 2.0 ** (2.0 * u - 1.0)))

    def stratum(self, r: int, n_strata: int) -> int:
        """Stratum of round r: every block of n_strata rounds visits each
        stratum once, in a seeded order, so a run's size mix barely depends
        on the seed."""
        if r == WARMUP_ROUND:
            return n_strata // 2
        block = self.rng(r // n_strata, stream=1).permutation(n_strata)
        return int(block[r % n_strata])

    def add(self, key, *values) -> None:
        self.pool.setdefault(key, []).append(values)

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup_op(self) -> Op:
        """The one cheap op that set-up ends with; the same for every seed."""
        raise NotImplementedError

    def warmup_seed(self) -> int:
        return self.op_seed(self.rng(WARMUP_ROUND, stream=3))

    def pooled_failures(self) -> list[str]:
        return []


def _random_rule(rng: np.random.Generator, n: int, d: int) -> WeightedPointSet:
    """Random weighted rule as in acceptance criterion 4: total weight in
    [0.5, 1.5], points uniform in [0,1)^d."""
    w = rng.random(n)
    return WeightedPointSet(rng.random((n, d)), w / w.sum() * rng.uniform(0.5, 1.5))


def _check_disc(res, p: float, method: str, ps: WeightedPointSet) -> None:
    require(isinstance(res, discrepancy.DiscrepancyResult), f"not a DiscrepancyResult: {res!r}")
    require(res.p == p, f"requested p={p}, result says p={res.p}")
    require(res.method == method, f"requested {method}, result says {res.method}")
    require(res.d == ps.d and res.n == ps.n, "result (d, N) differs from the rule's")
    require(math.isfinite(res.value) and res.value >= 0.0, f"bad value {res.value}")
    require(math.isfinite(res.abs_error_estimate) and res.abs_error_estimate >= 0.0,
            f"bad error estimate {res.abs_error_estimate}")


def _check_report(rep, seed: int, reps: int) -> None:
    require(rep.seed == seed, f"requested seed {seed}, report says {rep.seed}")
    replications = getattr(rep, "replications_used", getattr(rep, "replications", None))
    require(replications == reps, f"requested {reps} replications, report says {replications}")


def _pooled(values) -> tuple[float, float]:
    """Replication-weighted mean of (estimate, SE, replications) triples and
    its standard error."""
    est, se, reps = (np.array(v, dtype=float) for v in zip(*values))
    total = reps.sum()
    return float(reps @ est / total), float(math.sqrt(np.sum((reps * se) ** 2)) / total)


# ---------------------------------------------------------------------------
# avg_p2: the p = 2 harness at the shapes of acceptance criteria 5 and 6
# ---------------------------------------------------------------------------

P2_REPS = 500  # nominal; see Workload.op_reps
P2_CONFIGS = ((2, "uniform"), (2, "optimal"), (3, "uniform"), (3, "optimal"))
P2_N = 16
CSTAR_SHAPE = (8, 2)
CSTAR_EXACT = 72.0 / 79.0  # N / (N - 1 + 3^d (4/9)^d) at N = 8, d = 2


def p2_exact(d: int, kind: str) -> float:
    """E[L_2^2] = (c1^d - 3^-d)/N with c1 = 1/2 (uniform) or 4/9 (optimal);
    the identity of acceptance criterion 5."""
    c1 = 0.5 if kind == "uniform" else 4.0 / 9.0
    return (c1 ** d - 3.0 ** (-d)) / P2_N


class AvgP2(Workload):
    name = "avg_p2"

    def round(self, r):
        rng = self.rng(r)
        ops = []
        slots = len(P2_CONFIGS) + 1
        for j, (d, kind) in enumerate(P2_CONFIGS):
            ops.append(self._mean_op(d, kind, self.op_seed(rng), self.op_reps(r, j, slots, P2_REPS)))
        ops.append(self._cstar_op(self.op_seed(rng), self.op_reps(r, slots - 1, slots, P2_REPS)))
        return ops

    def warmup_op(self):
        return self._mean_op(2, "optimal", self.warmup_seed(), 50)

    def _mean_op(self, d, kind, seed, reps):
        cfg = experiments.ExperimentConfig(
            p=2.0, d=d, N=P2_N, density_kind=kind, replications=reps,
            seed=seed, evaluator="kernel_p2",
        )
        exact = p2_exact(d, kind)
        key = f"p2_d{d}_{kind}"

        def check(rep):
            _check_report(rep, seed, reps)
            require(rep.std_error > 0.0, "zero standard error")
            z = (rep.mean_Lp_p - exact) / rep.std_error
            require(abs(z) <= OP_Z, f"mean {rep.mean_Lp_p} is {z:.1f} SE from {exact}")
            self.add(key, rep.mean_Lp_p, rep.std_error, reps)

        return Op(key, lambda: experiments.run_average_discrepancy(cfg), check)

    def _cstar_op(self, seed, reps):
        n, d = CSTAR_SHAPE

        def check(rep):
            _check_report(rep, seed, reps)
            require(abs(rep.c_star - CSTAR_EXACT) <= 1e-10, f"c* = {rep.c_star}, expected {CSTAR_EXACT}")
            require(rep.std_error > 0.0, "zero standard error")
            z = (rep.ratio - rep.c_star) / rep.std_error
            require(abs(z) <= OP_Z, f"c* ratio {rep.ratio} is {z:.1f} SE from {rep.c_star}")
            self.add("cstar", rep.ratio, rep.std_error, reps)

        return Op("cstar_N8_d2", lambda: experiments.c_rescale_experiment(n, d, "optimal", reps, seed), check)

    def pooled_failures(self):
        exact = {f"p2_d{d}_{kind}": p2_exact(d, kind) for d, kind in P2_CONFIGS}
        exact["cstar"] = CSTAR_EXACT
        out = []
        for key, values in self.pool.items():
            mean, se = _pooled(values)
            if abs(mean - exact[key]) > POOLED_Z * se:
                out.append(f"{key}: pooled {mean} vs exact {exact[key]} (SE {se:.3g}, {len(values)} ops)")
        return out


# ---------------------------------------------------------------------------
# avg_lp: general-p harness, density used as a sampler, cells at tiny N
# ---------------------------------------------------------------------------

# kind -> (p, d, N, density_kind, nominal replications)
LP_CONFIGS = {
    "p1.5_d2_N8_opt": (1.5, 2, 8, "optimal", 10),
    "p1_d1_N4096_uni": (1.0, 1, 4096, "uniform", 50),
    "p1_d1_N4096_opt": (1.0, 1, 4096, "optimal", 50),
    "p3_d1_N1024_opt": (3.0, 1, 1024, "optimal", 50),
}
LP_MIX = (
    "p1.5_d2_N8_opt", "p1_d1_N4096_uni", "p1_d1_N4096_opt", "p3_d1_N1024_opt",
    "p1_d1_N4096_opt", "p1.5_d2_N8_opt", "p1_d1_N4096_uni", "p1_d1_N4096_opt",
)
LP_REFERENCE = os.path.join(HERE, "avg_lp_reference.json")
# criterion 7 limits of sqrt(N) n-av_1 for d = 1
P1_LIMITS = {
    "p1_d1_N4096_uni": math.sqrt(2.0 / math.pi) * (4.0 / 3.0),
    "p1_d1_N4096_opt": math.sqrt(2.0 / math.pi) * math.sqrt(1.5),
}


def lp_config(kind: str, seed: int, reps: int) -> experiments.ExperimentConfig:
    p, d, n, dens, _ = LP_CONFIGS[kind]
    return experiments.ExperimentConfig(
        p=p, d=d, N=n, density_kind=dens, replications=reps, seed=seed,
    )


class AvgLp(Workload):
    name = "avg_lp"

    def __post_init__(self):
        with open(LP_REFERENCE) as fh:
            self.ref = json.load(fh)["configs"]

    def round(self, r):
        rng = self.rng(r)
        return [self._op(kind, self.op_seed(rng), self.op_reps(r, j, len(LP_MIX), LP_CONFIGS[kind][4]))
                for j, kind in enumerate(LP_MIX)]

    def warmup_op(self):
        return self._op("p1_d1_N4096_opt", self.warmup_seed(), 5)

    def _op(self, kind, seed, reps):
        cfg = lp_config(kind, seed, reps)
        ref = self.ref[kind]
        ref_se = ref["sd_per_rep"] / math.sqrt(ref["replications"])

        def check(rep):
            _check_report(rep, seed, cfg.replications)
            require(math.isfinite(rep.mean_Lp_p) and rep.mean_Lp_p > 0.0, f"bad mean {rep.mean_Lp_p}")
            se = math.hypot(ref["sd_per_rep"] / math.sqrt(cfg.replications), ref_se)
            z = (rep.mean_Lp_p - ref["mean_Lp_p"]) / se
            require(abs(z) <= OP_Z, f"mean {rep.mean_Lp_p} is {z:.1f} SE from the reference")
            self.add(kind, rep.mean_Lp_p, reps)

        return Op(kind, lambda: experiments.run_average_discrepancy(cfg), check)

    def pooled_failures(self):
        out = []
        pooled = {}
        for kind, values in self.pool.items():
            p, d, n, _, _ = LP_CONFIGS[kind]
            ref = self.ref[kind]
            means, reps = (np.array(v, dtype=float) for v in zip(*values))
            mean = float(reps @ means / reps.sum())
            se = ref["sd_per_rep"] * math.sqrt(1.0 / reps.sum() + 1.0 / ref["replications"])
            if abs(mean - ref["mean_Lp_p"]) > POOLED_Z * se:
                out.append(f"{kind}: pooled {mean} vs reference {ref['mean_Lp_p']} (SE {se:.3g})")
            pooled[kind] = math.sqrt(n) * mean ** (1.0 / p) / initial_error(p, d)
        for kind, limit in P1_LIMITS.items():
            if kind in pooled and pooled[kind] > 1.10 * limit:
                out.append(f"{kind}: scaled {pooled[kind]} above 1.10 x limit {limit}")
        if set(P1_LIMITS) <= set(pooled):
            uni, opt = (pooled[k] for k in P1_LIMITS)
            if not opt < uni:
                out.append(f"p = 1 optimal scaled {opt} not below uniform {uni}")
        return out


# ---------------------------------------------------------------------------
# eval_rules: single evaluator calls on seeded random rules
# ---------------------------------------------------------------------------

# Every kind sweeps its size, so op costs form a continuum (see
# Workload.op_reps).  Each block of 5 rounds visits each cells size once;
# the sweeps are offset so that large rules of different kinds rarely share
# a round, which keeps round times even.  The kernel op cycles through one
# rule per size, so its blocked reference is computed once per size.
CELLS_D2_N = (32, 40, 48, 56, 64)
CELLS_D3_N = (8, 9, 10, 11, 12)
EVEN_N = (9, 10, 11)
KERNEL_N = (800, 1000, 1250)
KERNEL_D = 5
MC_N = 10
MC_SAMPLES = 100_000


def l2_reference(ps: WeightedPointSet, block: int = 100) -> float:
    """L_2 discrepancy by row blocks of the kernel matrix, in plain numpy;
    the reference for the N = 1000 kernel op."""
    t, a = ps.points, ps.weights
    t1 = float(a @ np.prod((1.0 - t ** 2) / 2.0, axis=1))
    t2 = 0.0
    for s in range(0, ps.n, block):
        k = np.prod(1.0 - np.maximum(t[s:s + block, None, :], t[None, :, :]), axis=2)
        t2 += float(a[s:s + block] @ k @ a)
    return math.sqrt(max(3.0 ** (-ps.d) - 2.0 * t1 + t2, 0.0))


class EvalRules(Workload):
    name = "eval_rules"

    def __post_init__(self):
        self.kernel_refs = {}

    def round(self, r):
        rng = self.rng(r)
        s = self.stratum(r, len(CELLS_D2_N))
        ops = []

        ps = _random_rule(rng, CELLS_D2_N[s], 2)
        ops.append(self._cells_op("cells_p1.5_d2", ps, 1.5))
        ps = _random_rule(rng, CELLS_D3_N[(s + 3) % len(CELLS_D3_N)], 3)
        ops.append(self._cells_op("cells_p3_d3", ps, 3.0))

        ps = _random_rule(rng, EVEN_N[(s + 1) % len(EVEN_N)], 2)
        shared = {}
        ops.append(self._even_op(ps, shared))
        ops.append(self._cells_op("cells_p4_d2", ps, 4.0, even=shared))

        k, key = (1, WARMUP_ROUND) if r == WARMUP_ROUND else (r % len(KERNEL_N),) * 2
        ps = _random_rule(self.rng(key, stream=2), KERNEL_N[k], KERNEL_D)
        ops.append(self._kernel_op(ps, key))

        ps = _random_rule(rng, MC_N, 3)
        shared = {}
        ops.append(self._mc_op(ps, self.op_seed(rng), shared))
        ops.append(self._cells_op("cells_p1.5_d3", ps, 1.5, mc=shared))
        return ops

    def warmup_op(self):
        return self._cells_op("cells_p1.5_d2", _random_rule(self.rng(WARMUP_ROUND, stream=3), 8, 2), 1.5)

    def _cells_op(self, kind, ps, p, even=None, mc=None):
        def check(res):
            _check_disc(res, p, "cell_quadrature", ps)
            l2 = discrepancy.l2_discrepancy_kernel(ps).value
            # L_p norms on the unit cube are non-decreasing in p
            if p < 2.0:
                require(res.value <= l2 * (1 + 1e-9) + res.abs_error_estimate,
                        f"L_{p} = {res.value} above L_2 = {l2}")
            else:
                require(res.value >= l2 * (1 - 1e-9) - res.abs_error_estimate,
                        f"L_{p} = {res.value} below L_2 = {l2}")
            if even is not None and "value" in even:
                rel = abs(res.value - even["value"]) / even["value"]
                require(rel <= 1e-12, f"cells p=4 {res.value} vs even p=4 {even['value']} (rel {rel:.1e})")
            if mc is not None and "value" in mc:
                z = (mc["value"] - res.value) / mc["se"]
                require(abs(z) <= OP_Z, f"MC {mc['value']} is {z:.1f} SE from cells {res.value}")
                self.add("mc_vs_cells", z)

        return Op(kind, lambda: discrepancy.evaluate(ps, p, method="cells"), check)

    def _even_op(self, ps, shared):
        def check(res):
            _check_disc(res, 4.0, "even_p_exact", ps)
            shared["value"] = res.value
            e2 = discrepancy.lp_discrepancy_even(ps, 2).value
            k2 = discrepancy.l2_discrepancy_kernel(ps).value
            require(abs(e2 - k2) <= 1e-12, f"even p=2 {e2} vs kernel {k2}")

        return Op("even_p4_d2", lambda: discrepancy.evaluate(ps, 4.0, method="even"), check)

    def _kernel_op(self, ps, key):
        def check(res):
            _check_disc(res, 2.0, "kernel_p2", ps)
            if key not in self.kernel_refs:
                self.kernel_refs[key] = l2_reference(ps)
            ref = self.kernel_refs[key]
            require(abs(res.value - ref) <= 1e-10 * ref, f"kernel {res.value} vs blocked reference {ref}")

        return Op("kernel_N1000_d5", lambda: discrepancy.evaluate(ps, 2.0, method="kernel"), check)

    def _mc_op(self, ps, seed, shared):
        def check(res):
            _check_disc(res, 1.5, "monte_carlo", ps)
            require(res.evaluations == MC_SAMPLES, f"{res.evaluations} samples, asked for {MC_SAMPLES}")
            require(res.abs_error_estimate > 0.0, "zero MC standard error")
            shared.update(value=res.value, se=res.abs_error_estimate)

        call = lambda: discrepancy.evaluate(ps, 1.5, method="mc", samples=MC_SAMPLES, seed=seed)
        return Op("mc_p1.5_d3", call, check)

    def pooled_failures(self):
        z = [v[0] for v in self.pool.get("mc_vs_cells", [])]
        if z and abs(sum(z)) / math.sqrt(len(z)) > POOLED_Z:
            return [f"MC vs cells: pooled z = {sum(z) / math.sqrt(len(z)):.2f} over {len(z)} pairs"]
        return []


# ---------------------------------------------------------------------------
# density_curves: one fresh exponent per op, exact pdf and quadratures
# ---------------------------------------------------------------------------

P_RANGE = (1.0, 100.0)
# optimal_density(p) raises SolverFailureError for p in about [94.47, 94.73]
# (defect 3 in NOTES.md).  The contract wants workloads on which no op
# fails, so exponents in this band, with a margin, are redrawn.
SOLVER_FAILURE_BAND = (94.4, 94.8)
P_STRATA = 8
GRID = np.linspace(0.0, 1.0, 257)  # the grid of `disclab density`
CURVE_T_TOL = 1e-9  # the library's own limit on the residual of (*) in t
CDF_TOL = 1e-7  # the CDF table's known error is up to 4.4e-8


def curve_reference(p: float, t: np.ndarray):
    """rho*(t), the exact CDF F(t) and a per-point tolerance on rho, in plain
    numpy and independent of the library's solver.

    Bisects the curve equation (*) in the form
    log t^{p/2} = log(c u) + (p/2) log B(rho(0) - u), with c = p/(p+1),
    B(rho) = 1 + 2 rho/(p+1) and u = rho(0) - rho, which is increasing in
    log u; u carries the precision where rho hugs rho(0).  The CDF is the
    closed form F = t rho + G(c u)/c with
    G(s) = s^{(p+2)/p} - s^{(2p+2)/p}/(p+1) (ROADMAP direction 2).  The
    tolerance on rho is CURVE_T_TOL / |dt/drho|: what a residual of
    CURVE_T_TOL in t allows, since rho is ill-conditioned near t = 1.
    """
    rmax, c, half = (p + 1.0) / p, p / (p + 1.0), p / 2.0
    with np.errstate(divide="ignore"):
        target = half * np.log(t)
    lo, hi = np.full(t.shape, -800.0), np.full(t.shape, math.log(rmax))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = mid + math.log(c) + half * np.log1p(2.0 * (rmax - np.exp(mid)) / (p + 1.0)) > target
        hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)
    u = np.exp(0.5 * (lo + hi))
    rho, s, b = rmax - u, c * u, 1.0 + 2.0 * (rmax - u) / (p + 1.0)
    cdf = t * rho + (s ** ((p + 2.0) / p) - s ** ((2.0 * p + 2.0) / p) / (p + 1.0)) / c
    with np.errstate(divide="ignore", invalid="ignore"):
        tol = 1e-12 + CURVE_T_TOL * b * s / (t * (2.0 / (p + 1.0)) * np.abs(b - s))
    return rho, cdf, np.where(np.isnan(tol), np.inf, tol)


class DensityCurves(Workload):
    name = "density_curves"

    def round(self, r):
        """P_STRATA ops, one per log-width stratum of (1, 100], in seeded order."""
        rng = self.rng(r)
        lo, hi = (math.log(v) for v in P_RANGE)
        width = (hi - lo) / P_STRATA
        ops = []
        for s in rng.permutation(P_STRATA):
            p = 2.0
            # p = 1 is excluded by the open lower end
            while p == 2.0 or SOLVER_FAILURE_BAND[0] <= p <= SOLVER_FAILURE_BAND[1]:
                p = math.exp(lo + width * (s + 1.0 - rng.random()))
            ops.append(self._op(p))
        return ops

    def warmup_op(self):
        return self._op(1.5)

    def _op(self, p):
        def call():
            dens = density.optimal_density(p)
            return (dens, dens.pdf(GRID), dens.cdf(GRID), dens.ppf(GRID),
                    dens.normalization(), density.J_functional(dens, p))

        def check(out):
            dens, rho, cdf, t, norm, jval = out
            require(dens.p == p, f"requested p={p}, got {dens!r}")
            ref_rho, ref_cdf, tol = curve_reference(p, GRID)
            err = np.abs(rho - ref_rho) / tol
            require(np.all(np.isfinite(rho)) and np.all(rho >= 0.0) and np.max(err) <= 1.0,
                    f"p={p}: pdf off the curve (worst at t={GRID[np.argmax(err)]})")
            require(np.all(np.diff(cdf) >= 0.0) and cdf[0] == 0.0 and cdf[-1] == 1.0, "cdf not a CDF")
            cdf_err = np.max(np.abs(cdf - ref_cdf))
            require(cdf_err <= CDF_TOL, f"p={p}: cdf off the exact CDF by {cdf_err:.2e}")
            ppf_err = np.max(np.abs(curve_reference(p, t)[1] - GRID))
            require(ppf_err <= CDF_TOL, f"p={p}: |F(ppf(u)) - u| = {ppf_err:.2e}")
            back = np.max(np.abs(dens.ppf(cdf) - GRID))
            require(back <= 1e-9, f"p={p}: |ppf(cdf(t)) - t| = {back:.2e}")
            require(abs(norm - 1.0) <= 1e-9, f"p={p}: normalization {norm}")
            jmin = (1.0 / (p + 1.0)) * ((p + 2.0) / (p + 1.0)) ** (p / 2.0)
            require(abs(jval - jmin) <= 1e-7, f"p={p}: J = {jval}, J_min = {jmin}")
            res = max(abs(density.curve_residual(p, x)) for x in GRID)
            require(res <= CURVE_T_TOL, f"p={p}: curve residual {res:.2e}")
            self.add("p", p)

        return Op("density_curve", call, check)

    def pooled_failures(self):
        ps = [v[0] for v in self.pool.get("p", [])]
        if len(set(ps)) != len(ps):
            return ["an exponent repeated"]
        return []


WORKLOADS = {w.name: w for w in (AvgP2, AvgLp, EvalRules, DensityCurves)}
