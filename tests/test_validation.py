"""Bad input is rejected the same way everywhere: every public function raises
InvalidArgumentError (``UnsupportedExponentError`` for an exponent is one) and
the CLI exits 2.  Each row of ``BAD_INPUT`` once returned a plausible number,
raised an untyped error, was accepted by a constructor whose run then failed
or, in the CLI, exited 1 with a traceback."""

import math
import os

import numpy as np
import pytest

from disclab import bounds, core, density, discrepancy, experiments
from disclab.cli import main
from disclab.errors import InvalidArgumentError, SizeLimitError

NAN, INF = math.nan, math.inf
_PS = core.WeightedPointSet([[0.4]], [1.0])
_UNIFORM = density.Density1D.uniform()


def _cli(*argv, text=""):
    """A CLI run on argv, "{file}" standing for a file that holds ``text``;
    returns the exit code."""
    def run(tmp_path):
        path = tmp_path / "input.txt"
        path.write_text(text)
        return main([a.format(file=path) for a in argv])
    return run


BAD_INPUT = {
    # plausible wrong numbers
    "J_functional p=inf": lambda: density.J_functional(_UNIFORM, INF),
    "initial_error p=nan": lambda: core.initial_error(NAN, 1),
    "gamma_prefactor p=nan": lambda: bounds.gamma_prefactor(NAN),
    "gamma_prefactor p=inf": lambda: bounds.gamma_prefactor(INF),
    "gamma_prefactor_asymptote p=nan": lambda: bounds.gamma_prefactor_asymptote(NAN),
    "discrepancy_function x=nan": lambda: core.discrepancy_function(_PS, [NAN]),
    "residual_eq_rho rho=nan": lambda: density.residual_eq_rho(2, 0.5, NAN),
    "optimal_c_rescale C_K=nan": lambda: experiments.optimal_c_rescale(8, 2, NAN),
    "complexity_estimate C_p=nan": lambda: bounds.complexity_estimate(2, 0.1, NAN, 1.1),
    "initial_error d=1.5": lambda: core.initial_error(2, 1.5),
    "exact_nav2 N=1.5": lambda: experiments.exact_nav2(1.5, 2, "uniform"),
    "exact_nav2 N=True": lambda: experiments.exact_nav2(True, 2, "uniform"),
    "optimal_density p=True": lambda: density.optimal_density(True),
    "Density1D general p=0.5": lambda: density.Density1D("general", 0.5),
    "Density1D uniform p=3": lambda: density.Density1D("uniform", 3.0),
    "Density1D closed_form_p1 p=3": lambda: density.Density1D("closed_form_p1", 3.0),
    "from_table t=nan": lambda: density.Density1D.from_table([0, NAN, 1], [1, 1, 1]),
    "from_table rho=nan": lambda: density.Density1D.from_table([0, 0.5, 1], [1, NAN, 1]),
    # untyped errors
    "mc seed=-3": lambda: discrepancy.evaluate(_PS, 1.5, "mc", samples=1000, seed=-3),
    "mc seed=1.5": lambda: discrepancy.evaluate(_PS, 1.5, "mc", samples=1000, seed=1.5),
    "mc samples=1000.5": lambda: discrepancy.evaluate(_PS, 1.5, "mc", samples=1000.5, seed=0),
    "cells order=2.5": lambda: discrepancy.evaluate(_PS, 1.5, "cells", order=2.5),
    "evaluate method=['x']": lambda: discrepancy.evaluate(_PS, 1.5, ["x"]),
    "gamma_prefactor p='2'": lambda: bounds.gamma_prefactor("2"),
    "scaling probe N_grid=[]": lambda: experiments.asymptotic_scaling_probe(
        1.5, 1, "uniform", [], 3, 0),
    "ExperimentConfig evaluator=['x']": lambda: experiments.ExperimentConfig(
        p=2.0, d=1, N=4, density_kind="uniform", replications=2, seed=0, evaluator=["x"]),
    "Density1D form='bogus'": lambda: density.Density1D("bogus"),
    "Density1D general no p": lambda: density.Density1D("general"),
    "Density1D custom no pdf_fn": lambda: density.Density1D("custom"),
    "Density1D custom no table": lambda: density.Density1D("custom", pdf_fn=np.ones_like),
    "from_callable n_nodes=1.5": lambda: density.Density1D.from_callable(np.ones_like, 1.5),
    "from_callable scalar pdf": lambda: density.Density1D.from_callable(lambda t: 1.0),
    "export_csv n=0": lambda: _UNIFORM.export_csv(os.devnull, n=0),
    # accepted at construction, then the run failed (p) or opened file descriptor 7
    "ExperimentConfig optimal p=1e7": lambda: experiments.ExperimentConfig(
        p=1e7, d=2, N=4, density_kind="optimal", replications=2, seed=0),
    "ExperimentConfig density_file=7": lambda: experiments.ExperimentConfig(
        p=2.0, d=1, N=4, density_kind="custom-file", replications=2, seed=0, density_file=7),
    # averaged an infinite expectation: L_p^p under rho*_p has no finite mean
    "ExperimentConfig optimal p=5": lambda: experiments.ExperimentConfig(
        p=5.0, d=2, N=4, density_kind="optimal", replications=2, seed=0),
    "ExperimentConfig optimal p=8": lambda: experiments.ExperimentConfig(
        p=8.0, d=1, N=4, density_kind="optimal", replications=2, seed=0),
    "scaling probe optimal p=5": lambda: experiments.asymptotic_scaling_probe(
        5.0, 1, "optimal", [4], 3, 0),
    "cli experiment optimal p=6": _cli(
        "experiment", "--config", "{file}",
        text='{"p": 6, "d": 1, "N": 4, "density_kind": "optimal", '
             '"replications": 2, "seed": 0}'),
    # the CLI exited 1 with a traceback
    "cli header '1 x'": _cli("discrepancy", "{file}", "--p", "2", text="1 x\n0.5 1\n"),
    "cli header N=-2": _cli("discrepancy", "{file}", "--p", "2", text="1 -2\n"),
    "cli row not a number": _cli("discrepancy", "{file}", "--p", "2", text="1 1\nabc 1\n"),
    "cli density --grid -1": _cli("density", "--p", "2", "--grid", "-1"),
    "cli mc --seed -3": _cli("discrepancy", "{file}", "--p", "1.5", "--method", "mc",
                             "--seed", "-3", text="1 1\n0.5 1\n"),
    "cli config not an object": _cli("experiment", "--config", "{file}", text="5"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_rejected(case, tmp_path, capsys):
    if case.startswith("cli "):
        assert BAD_INPUT[case](tmp_path) == 2
        assert capsys.readouterr().err.startswith("error:")
    else:
        with pytest.raises(InvalidArgumentError):
            BAD_INPUT[case]()


def _config(p, d, N):
    return experiments.ExperimentConfig(p=p, d=d, N=N, density_kind="uniform",
                                        replications=2, seed=0)


# numpy scalars are numbers: each call gives what its Python-scalar twin gives
NUMPY_SCALARS = {
    "initial_error": (lambda: core.initial_error(np.float64(2.0), np.int64(3)),
                      lambda: core.initial_error(2.0, 3)),
    "exact_nav2": (lambda: experiments.exact_nav2(np.int64(16), np.int64(2), "optimal"),
                   lambda: experiments.exact_nav2(16, 2, "optimal")),
    "evaluate": (lambda: discrepancy.evaluate(_PS, np.float64(1.5), "cells",
                                              order=np.int64(4)).value,
                 lambda: discrepancy.evaluate(_PS, 1.5, "cells", order=4).value),
    "optimal_density": (lambda: density.optimal_density(np.float64(3.0)).pdf(0.3),
                        lambda: density.optimal_density(3.0).pdf(0.3)),
    "ExperimentConfig": (lambda: _config(np.float64(2.0), np.int64(1), np.int64(4)),
                         lambda: _config(2.0, 1, 4)),
    "ProductDensity": (lambda: core.ProductDensity(np.int64(2), _UNIFORM).d,
                       lambda: core.ProductDensity(2, _UNIFORM).d),
}


@pytest.mark.parametrize("case", sorted(NUMPY_SCALARS))
def test_numpy_scalars_accepted(case):
    numpy_call, python_call = NUMPY_SCALARS[case]
    assert numpy_call() == python_call()


def test_even_p_size_guard_checked_at_construction():
    # the config once validated and the first replication then raised
    with pytest.raises(SizeLimitError):
        experiments.ExperimentConfig(p=4.0, d=1, N=20, density_kind="uniform",
                                     replications=2, seed=0, evaluator="even_p_exact")
    experiments.ExperimentConfig(p=4.0, d=1, N=16, density_kind="uniform",
                                 replications=2, seed=0, evaluator="even_p_exact")


def test_optimal_density_limit_is_p5():
    # below 5 the optimal density runs, and uniform sampling has no limit
    for p, kind in ((4.9, "optimal"), (8.0, "uniform")):
        experiments.ExperimentConfig(p=p, d=1, N=4, density_kind=kind,
                                     replications=2, seed=0)
    assert experiments.asymptotic_scaling_probe(4.9, 1, "optimal", [4], 3, 0)
