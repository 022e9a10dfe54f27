"""Long-time behaviour of stochastic differential equations: paths, PDEs, exit problems, ergodicity certificates, large deviations.

The package is organised around six modules:

``sde``
    Time grids, seeded Gaussian noise streams, Wiener paths, and
    Euler–Maruyama integration of drift–dispersion models.
``kolmogorov``
    Finite-difference solvers for the backward Kolmogorov and
    Fokker–Planck equations on 1D grids, with exact reference densities.
``firstexit``
    Monte Carlo exit-time statistics from balls, intervals, and shells;
    Feynman–Kac closed forms; the arcsine law.
``ergodicity``
    Discretized Markov kernels with drift / minorisation / cone-bound
    certificates, weighted total-variation contraction, and
    Perron–Frobenius data via power iteration.
``largedev``
    Sample-path large deviations: the Freidlin–Wentzell action,
    minimum-action paths, quasipotentials, and small-noise exit
    asymptotics with the Eyring–Kramers prefactor.
``experiments`` / ``cli``
    A registry of named, seeded experiments driven by small config
    files, writing CSV/JSON artifacts with checksummed manifests.

The most commonly used names are re-exported here; each module's full
surface stays importable under its own name.
"""

__version__ = "0.1.0"

from .sde import (
    BlowUpError,
    GaussianStream,
    SdeModel,
    TimeGrid,
    WienerPath,
    euler_maruyama_ensemble,
    sample_wiener,
)
from .kolmogorov import (
    DensityField,
    Grid1D,
    solve_backward_kolmogorov,
    solve_fokker_planck,
    stationary_density_gradient,
)
from .firstexit import (
    Domain,
    ExitStatistics,
    arcsine_cdf,
    arcsine_occupation,
    mc_exit,
    mc_radial_hitting,
)
from .ergodicity import (
    DiscreteKernel,
    discretize_kernel,
    hilbert_metric,
    hm_constants,
    power_iteration_jentzsch,
    projective_diameter,
    verify_geometric_drift,
    verify_hm_contraction,
    verify_minorisation,
)
from .largedev import (
    ActionPath,
    arrhenius_check,
    eyring_kramers_time,
    minimize_action,
    quasipotential,
)
from .expr import Expression, ExpressionError, parse_expression
from .experiments import ExperimentConfig, execute, list_experiments, run

__all__ = [
    "__version__",
    # sde
    "BlowUpError", "GaussianStream", "SdeModel", "TimeGrid", "WienerPath",
    "euler_maruyama_ensemble", "sample_wiener",
    # kolmogorov
    "DensityField", "Grid1D", "solve_backward_kolmogorov",
    "solve_fokker_planck", "stationary_density_gradient",
    # firstexit
    "Domain", "ExitStatistics", "arcsine_cdf", "arcsine_occupation",
    "mc_exit", "mc_radial_hitting",
    # ergodicity
    "DiscreteKernel", "discretize_kernel", "hilbert_metric", "hm_constants",
    "power_iteration_jentzsch", "projective_diameter",
    "verify_geometric_drift", "verify_hm_contraction", "verify_minorisation",
    # largedev
    "ActionPath", "arrhenius_check", "eyring_kramers_time",
    "minimize_action", "quasipotential",
    # expr
    "Expression", "ExpressionError", "parse_expression",
    # experiments
    "ExperimentConfig", "execute", "list_experiments", "run",
]
