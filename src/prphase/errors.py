"""Exception hierarchy shared by all prphase modules.

The CLI maps these onto process exit codes (see ``prphase.cli``), so new
error types should subclass one of the categories below rather than raising
bare ``ValueError``/``RuntimeError`` from library code.
"""


class PrPhaseError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PrPhaseError):
    """A physical or model parameter is invalid (non-finite, wrong sign, ...).

    Attributes
    ----------
    key : str or None
        Name of the offending parameter, when the raiser knows it.
    """

    def __init__(self, message: str, key=None):
        super().__init__(message)
        self.key = key


class ConfigError(PrPhaseError):
    """A run configuration file is missing, malformed, or inconsistent."""


class DomainError(PrPhaseError):
    """A molar density lies outside the domain of the free-energy model."""


class BoundsViolationError(DomainError):
    """A cell value left the configured density window [c_m, c_M].

    Attributes
    ----------
    cell_index : int
        Flat row-major index of the first offending cell.
    value : float
        The offending density in mol/m^3.
    """

    def __init__(self, message: str, cell_index: int, value: float):
        super().__init__(message)
        self.cell_index = cell_index
        self.value = value


class ConvergenceError(PrPhaseError):
    """The linear solver failed to reach its tolerance within the iteration cap.

    Attributes
    ----------
    residual_history : list[float]
        Unpreconditioned residual norms, one entry per iteration performed.
    """

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class InvariantViolation(PrPhaseError):
    """A runtime invariant check failed and the run was configured to abort."""
