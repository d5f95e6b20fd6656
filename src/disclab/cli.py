"""Command-line front end.

Subcommands: ``density`` (solve/export an optimal density), ``discrepancy``
(evaluate a point-set file), ``experiment`` (run a seeded MC experiment from a
JSON config), ``bounds`` (emit the alpha comparison table) and ``verify``
(golden-value self-checks).

Only ``discrepancy`` and ``experiment`` take ``--seed``; ``discrepancy``
generates and prints one only when the method it runs is Monte Carlo.

Exit codes: 0 success, 1 verification failure, 2 usage, input or solver error.
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
import sys

import numpy as np

from . import bounds as bounds_mod
from . import density as density_mod
from . import discrepancy as disc_mod
from . import experiments as exp_mod
from .core import ProductDensity, WeightedPointSet, _check_counts, load_point_set
from .errors import DisclabError, SolverFailureError


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_density(args) -> int:
    _check_counts(grid=(args.grid, 2))
    try:
        dens = density_mod.optimal_density(args.p)
        t = np.linspace(0.0, 1.0, args.grid)
        rho = np.atleast_1d(dens.pdf(t))
        cdf = np.atleast_1d(dens.cdf(t))
    except SolverFailureError as exc:
        print(f"error: density solve failed at t={exc.t}: {exc}", file=sys.stderr)
        return 2
    rows = list(zip(t, rho, cdf))
    if args.format == "json":
        payload = json.dumps(
            {"p": args.p, "rows": [{"t": a, "rho": b, "cdf": c} for a, b, c in rows]}
        )
        _emit(payload, args.out)
    else:
        lines = ["t,rho,cdf"] + [
            "{:.17g},{:.17g},{:.17g}".format(*row) for row in rows
        ]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_discrepancy(args) -> int:
    ps = load_point_set(args.pointset)
    seed = args.seed
    if seed is None and disc_mod.method_for(args.p, ps.d, args.method, ps.n) == "monte_carlo":
        seed = secrets.randbits(63)
        print(f"seed: {seed} (generated; pass --seed {seed} to reproduce)")
    res = disc_mod.evaluate(ps, args.p, method=args.method, order=args.order,
                            samples=args.samples, seed=seed)
    _emit(json.dumps(res.record(), sort_keys=True), args.out)
    return 0


def cmd_experiment(args) -> int:
    try:
        cfg = exp_mod.ExperimentConfig.from_json(args.config)
    except (OSError, ValueError, DisclabError) as exc:
        print(f"error: bad experiment config: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg = exp_mod.ExperimentConfig(**{**cfg.__dict__, "seed": args.seed})
    report = exp_mod.run_average_discrepancy(cfg)
    if report.resamples > 0 and report.resamples * 1_000_000 > cfg.replications * cfg.N:
        print(
            f"warning: {report.resamples} degenerate-weight resamples", file=sys.stderr
        )
    print(f"seed: {report.seed}")
    print(f"scaled N^1/2 n-av_p: {report.scaled:.12g}")
    _emit(report.to_json(), args.out)
    return 0


def cmd_bounds(args) -> int:
    if args.steps < 2 or not (1.0 <= args.pmin < args.pmax):
        print("error: need 1 <= pmin < pmax and steps >= 2", file=sys.stderr)
        return 2
    grid = np.linspace(args.pmin, args.pmax, args.steps)
    rows = bounds_mod.figure_alpha_data(grid)
    if args.format == "json":
        payload = json.dumps(
            [{"p": a, "alpha_old_sq": b, "alpha_new_sq": c} for a, b, c in rows]
        )
        _emit(payload, args.out)
    else:
        lines = ["p,alpha_old_sq,alpha_new_sq"] + [
            "{:.17g},{:.17g},{:.17g}".format(*row) for row in rows
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _golden_checks():
    """Name -> (observed, expected, tolerance) for the verify suite."""
    p2 = density_mod.optimal_density(2.0)
    checks = {
        "p2-c-kernel": (disc_mod.c_kernel(ProductDensity(1, p2)), 4.0 / 9.0, 1e-10),
        "p2-jmin": (density_mod.J_functional(p2, 2.0), 4.0 / 9.0, 1e-7),
        # the checks above are closed forms; this one goes through the solve
        "p3-normalization": (density_mod.optimal_density(3.0).normalization(), 1.0, 1e-9),
        "p2-one-point-third": (
            disc_mod.l2_discrepancy_kernel(
                WeightedPointSet([[1.0 / 3.0]], [2.0 / 3.0])
            ).value,
            1.0 / math.sqrt(27.0),
            1e-12,
        ),
        "p2-one-point-half": (
            disc_mod.l2_discrepancy_kernel(WeightedPointSet([[0.5]], [1.0])).value,
            1.0 / math.sqrt(12.0),
            1e-12,
        ),
        "alpha-old-sq-p2": (bounds_mod.bounds_row(2.0).alpha_old_sq, 1.5, 1e-12),
        "alpha-old-sq-p10": (bounds_mod.bounds_row(10.0).alpha_old_sq, 1.13, 0.005),
        "alpha-old-sq-p100": (bounds_mod.bounds_row(100.0).alpha_old_sq, 1.014, 0.002),
        "alpha-new-p1": (bounds_mod.bounds_row(1.0).alpha_new, math.sqrt(1.5), 1e-12),
        "gamma-prefactor-p2": (
            bounds_mod.gamma_prefactor(2.0),
            math.sqrt(2.0) / math.pi ** 0.25 * math.gamma(1.5) ** 0.5,
            1e-12,
        ),
    }
    for p in (1.0, 2.0, 3.0, 10.0):
        checks[f"s1-p{p:g}"] = (
            density_mod.variational_solution(p).S1, (p + 2.0) / (p + 1.0), 1e-12,
        )
    return checks


def cmd_verify(args) -> int:
    failed = 0
    ran = 0
    for name, (got, want, tol) in _golden_checks().items():
        if args.only and args.only not in name:
            continue
        ran += 1
        ok = abs(got - want) <= tol
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: got {got:.15g}, want {want:.15g} (tol {tol:g})")
        failed += 0 if ok else 1
    if ran == 0:
        print(f"error: no checks match --only {args.only!r}", file=sys.stderr)
        return 2
    print(f"{ran - failed}/{ran} checks passed")
    return 1 if failed else 0


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disclab",
        description="Generalized L_p-discrepancy laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument("--seed", type=int, default=None,
                             help="RNG seed (generated and printed if omitted)")
    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--out", default=None, help="output file (default stdout)")
    out_parent.add_argument("--format", choices=("csv", "json"), default="csv")

    p_dens = sub.add_parser("density", parents=[out_parent],
                            help="solve and export an optimal density")
    p_dens.add_argument("--p", type=float, required=True)
    p_dens.add_argument("--grid", type=int, default=257)
    p_dens.set_defaults(func=cmd_density)

    p_disc = sub.add_parser("discrepancy", parents=[seed_parent, out_parent],
                            help="evaluate the discrepancy of a point-set file")
    p_disc.add_argument("pointset", help="point-set file: header 'd N', then rows")
    p_disc.add_argument("--p", type=float, required=True)
    p_disc.add_argument("--method", default="auto",
                        choices=("auto", *disc_mod.METHODS))
    p_disc.add_argument("--samples", type=int, default=100_000)
    p_disc.add_argument("--order", type=int, default=8)
    p_disc.set_defaults(func=cmd_discrepancy)

    p_exp = sub.add_parser("experiment", parents=[seed_parent, out_parent],
                           help="run a seeded MC experiment from a JSON config")
    p_exp.add_argument("--config", required=True)
    p_exp.set_defaults(func=cmd_experiment)

    p_bounds = sub.add_parser("bounds", parents=[out_parent],
                              help="emit the alpha comparison table")
    p_bounds.add_argument("--pmin", type=float, default=1.0)
    p_bounds.add_argument("--pmax", type=float, default=100.0)
    p_bounds.add_argument("--steps", type=int, default=100)
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run golden-value self-checks")
    p_verify.add_argument("--only", default=None, help="substring filter")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DisclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
