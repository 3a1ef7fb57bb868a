"""Diffuse-interface simulation of a Peng-Robinson fluid.

The bulk free energy is the Peng-Robinson Helmholtz density; interfaces
carry a square-gradient energy.  Time stepping uses an energy-factorized
semi-implicit scheme: the convex bulk terms are linearized through a
concave square-root factor so every step dissipates the discrete free
energy and keeps cell densities inside a prescribed window, at the cost of
one symmetric positive definite solve whose total mass is pinned by a
scalar multiplier (conjugate gradients on the black cells of a red-black
ordering, the red cells and the multiplier eliminated exactly).
"""

from .diagnostics import AdmissibleInterval, admissible_interval, shape_anisotropy
from .ef import (
    EfParams,
    EnergyBreakdown,
    SchemeCoefficients,
    minimal_lambda,
    scheme_coefficients,
)
from .eos import (
    EosParams,
    R_DEFAULT,
    Substance,
    derive_eos_params,
    get_substance,
    load_substance,
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
from .solver import SolverConfig, StepReport, run

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
    "derive_eos_params",
    "get_substance",
    "load_substance",
    "minimal_lambda",
    "run",
    "scheme_coefficients",
    "shape_anisotropy",
    "__version__",
]
