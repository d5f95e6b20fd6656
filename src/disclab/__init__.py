"""disclab: a numerical laboratory for generalized L_p-discrepancy.

Evaluates discrepancies of weighted point sets exactly and numerically,
constructs optimal importance-sampling densities for any p in [1, inf),
and runs seeded Monte Carlo experiments for the associated average-case
identities and asymptotic bounds.
"""

from .core import (
    ProductDensity,
    WeightedPointSet,
    discrepancy_function,
    initial_error,
    load_point_set,
    save_point_set,
    weights_from_density,
)
from .density import (
    Density1D,
    J_functional,
    S_of_x,
    VariationalSolution,
    curve_residual,
    optimal_density,
    residual_eq_rho,
    variational_solution,
)
from .discrepancy import (
    DiscrepancyResult,
    KernelConstants,
    c_kernel,
    evaluate,
    l2_discrepancy_kernel,
    lp_discrepancy_cells,
    lp_discrepancy_d1,
    lp_discrepancy_even,
    lp_discrepancy_mc,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    StabilityReport,
    asymptotic_scaling_probe,
    c_rescale_experiment,
    exact_nav2,
    optimal_c_rescale,
    run_average_discrepancy,
    stability_metrics,
)
from .bounds import (
    BoundsRow,
    bounds_row,
    complexity_estimate,
    figure_alpha_data,
    gamma_prefactor,
    gamma_prefactor_asymptote,
)
from . import errors

__version__ = "0.1.0"
