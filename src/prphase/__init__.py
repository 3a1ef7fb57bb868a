"""Diffuse-interface simulation of a Peng-Robinson fluid.

The bulk free energy is the Peng-Robinson Helmholtz density; interfaces
carry a square-gradient energy.  Time stepping uses an energy-factorized
semi-implicit scheme: the convex bulk terms are linearized through a
concave square-root factor so every step dissipates the discrete free
energy and keeps cell densities inside a prescribed window, at the cost of
one symmetric positive definite solve whose total mass is pinned by a
scalar multiplier (one projected conjugate-gradient iteration).
"""

from .diagnostics import (
    AdmissibleInterval,
    EnergyBreakdown,
    admissible_interval,
    discrete_energy,
    shape_anisotropy,
)
from .ef import (
    EfParams,
    SchemeCoefficients,
    g_and_gprime,
    minimal_lambda,
    mu_attraction,
    nu,
    s_r,
    scheme_coefficients,
    semi_implicit_potentials,
)
from .eos import (
    EosParams,
    FreeEnergyBreakdown,
    R_DEFAULT,
    Substance,
    bulk_chemical_potential,
    bulk_free_energy,
    derive_eos_params,
    get_substance,
    load_substance,
    pressure,
)
from .errors import (
    BoundsViolationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    InvariantViolation,
    ParameterError,
    PrPhaseError,
)
from .grid import Grid2D
from .solver import SolverConfig, StepReport, run, solve_spd

__version__ = "0.1.0"

__all__ = [
    "AdmissibleInterval",
    "BoundsViolationError",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "EfParams",
    "EnergyBreakdown",
    "EosParams",
    "FreeEnergyBreakdown",
    "Grid2D",
    "InvariantViolation",
    "ParameterError",
    "PrPhaseError",
    "R_DEFAULT",
    "SchemeCoefficients",
    "SolverConfig",
    "StepReport",
    "Substance",
    "admissible_interval",
    "bulk_chemical_potential",
    "bulk_free_energy",
    "derive_eos_params",
    "discrete_energy",
    "g_and_gprime",
    "get_substance",
    "load_substance",
    "minimal_lambda",
    "mu_attraction",
    "nu",
    "pressure",
    "run",
    "s_r",
    "scheme_coefficients",
    "semi_implicit_potentials",
    "shape_anisotropy",
    "solve_spd",
    "__version__",
]
