"""Semi-implicit time stepper with a mass-constraint multiplier.

One step solves, for the new cell field c and a scalar mu_e,

    c/tau_eff - kappa*Lap(c) + nu(c_old)*c = c_old/tau_eff + s_r(c_old) + mu_e
    <c, 1> = c_t                                       (total moles fixed)

where tau_eff = mobility*tau and Lap is the Neumann five-point Laplacian.
The operator A = I/tau_eff - kappa*Lap + nu is symmetric positive definite,
so the constrained system is solved by two unconstrained solves:

    y1 = A^{-1} (c_old/tau_eff + s_r),   y2 = A^{-1} 1,
    mu_e = (c_t - <y1, 1>) / <y2, 1>,    c = y1 + mu_e*y2.

The mass constraint then holds to inner-product round-off regardless of the
iterative-solver tolerance.  A is applied matrix-free; the linear solves use
preconditioned conjugate gradients with a diagonal (Jacobi) preconditioner
that accounts for the reduced stencil at boundary cells.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import diagnostics
from .ef import EfParams, SchemeCoefficients, scheme_coefficients
from .eos import EosParams
from .errors import ConvergenceError, InvariantViolation, ParameterError
from .grid import Grid2D, discrete_laplacian, inner

log = logging.getLogger(__name__)

_PRECONDITIONERS = ("diagonal", "none")
_VIOLATION_MODES = ("continue", "abort")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the stepper; only ``tau`` has no default.

    tau : time-step size in s.
    cg_rel_tol : stop conjugate gradients once ||r|| <= cg_rel_tol*||rhs||.
    cg_max_iter : iteration cap; ``None`` means 10 * (number of cells).
    preconditioner : "diagonal" (Jacobi) or "none".
    mobility : constant mobility folded into the effective step tau*mobility.
    on_violation : "continue" records failed invariant checks in the step
        report; "abort" raises instead.
    energy_slack_rel : dissipation checks allow an increase of this fraction
        of the reference energy (absorbs finite solver residuals only).
    bounds_slack_rel : window checks allow excursions of this fraction of
        max(|c_m|, |c_M|).
    """

    tau: float
    cg_rel_tol: float = 1e-10
    cg_max_iter: Optional[int] = None
    preconditioner: str = "diagonal"
    mobility: float = 1.0
    on_violation: str = "continue"
    energy_slack_rel: float = 1e-8
    bounds_slack_rel: float = 1e-10

    def __post_init__(self):
        # ParameterError.key names the field; the config loader maps it to a YAML key.
        rules = (
            ("tau", math.isfinite(self.tau) and self.tau > 0, "must be finite and positive"),
            ("cg_rel_tol", 0.0 < self.cg_rel_tol < 1.0, "must be positive and below 1"),
            ("cg_max_iter", self.cg_max_iter is None or self.cg_max_iter >= 1, "must be >= 1"),
            ("preconditioner", self.preconditioner in _PRECONDITIONERS,
             f"must be one of {_PRECONDITIONERS}"),
            ("mobility", math.isfinite(self.mobility) and self.mobility > 0,
             "must be finite and positive"),
            ("on_violation", self.on_violation in _VIOLATION_MODES,
             f"must be one of {_VIOLATION_MODES}"),
            ("energy_slack_rel", self.energy_slack_rel >= 0, "must be nonnegative"),
            ("bounds_slack_rel", self.bounds_slack_rel >= 0, "must be nonnegative"),
        )
        for key, ok, rule in rules:
            if not ok:
                raise ParameterError(f"{key}: {rule}, got {getattr(self, key)!r}", key=key)

    def tau_eff(self) -> float:
        return self.tau * self.mobility

    def resolved_max_iter(self, g: Grid2D) -> int:
        return self.cg_max_iter if self.cg_max_iter is not None else 10 * g.ncells


@dataclass(frozen=True)
class StepReport:
    """Per-step record of the solve and the invariant checks.

    Step 0 describes the initial state: ``nan`` multiplier and residuals,
    zero iterations, and only the window check is made.
    """

    step_index: int
    mu_e: float
    breakdown: diagnostics.EnergyBreakdown
    interval: diagnostics.AdmissibleInterval
    c_min: float
    c_max: float
    mass: float
    cg_iters_1: int
    cg_iters_2: int
    residual_1: float
    residual_2: float
    admissibility_ok: bool
    bounds_ok: bool
    energy_decreased: bool

    @property
    def energy(self) -> float:
        """Total discrete energy in J."""
        return self.breakdown.total

    @property
    def all_ok(self) -> bool:
        return self.admissibility_ok and self.bounds_ok and self.energy_decreased


def apply_operator(
    c: np.ndarray, coeffs: SchemeCoefficients, cfg: SolverConfig, kappa: float, g: Grid2D
) -> np.ndarray:
    """A c = c/tau_eff - kappa*Lap(c) + nu*c."""
    return c / cfg.tau_eff() - kappa * discrete_laplacian(c, g) + coeffs.nu * c


def operator_diagonal(
    coeffs: SchemeCoefficients, cfg: SolverConfig, kappa: float, g: Grid2D
) -> np.ndarray:
    """Exact diagonal of A, with the reduced Laplacian stencil at boundaries."""
    neighbors = np.full(g.cell_shape(), 4.0)
    neighbors[0, :] -= 1.0
    neighbors[-1, :] -= 1.0
    neighbors[:, 0] -= 1.0
    neighbors[:, -1] -= 1.0
    return 1.0 / cfg.tau_eff() + coeffs.nu + kappa * neighbors / (g.h * g.h)


def solve_spd(
    rhs: np.ndarray,
    coeffs: SchemeCoefficients,
    cfg: SolverConfig,
    kappa: float,
    g: Grid2D,
    x0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, float]:
    """Preconditioned conjugate gradients for A x = rhs.

    Returns (x, iterations, ||r||/||rhs||).  Convergence is declared when the
    unpreconditioned residual norm drops below cg_rel_tol*||rhs||; exceeding
    the iteration cap raises ``ConvergenceError`` with the residual history
    attached.  ``x0`` provides a warm start (already-converged starts return
    immediately with zero iterations).
    """
    rhs = np.asarray(rhs, dtype=float)
    b_norm = math.sqrt(inner(rhs, rhs, g))
    if b_norm == 0.0:
        return np.zeros(g.cell_shape()), 0, 0.0

    if cfg.preconditioner == "diagonal":
        diag = operator_diagonal(coeffs, cfg, kappa, g)
    else:
        diag = np.ones(g.cell_shape())

    if x0 is None:
        x = np.zeros(g.cell_shape())
        r = rhs.copy()
    else:
        x = np.array(x0, dtype=float, copy=True)
        r = rhs - apply_operator(x, coeffs, cfg, kappa, g)

    tol_abs = cfg.cg_rel_tol * b_norm
    max_iter = cfg.resolved_max_iter(g)
    history: List[float] = []

    z = r / diag
    p = z.copy()
    rz = inner(r, z, g)
    for k in range(max_iter + 1):
        res = math.sqrt(inner(r, r, g))
        history.append(res)
        if res <= tol_abs:
            return x, k, res / b_norm
        if k == max_iter:
            break
        Ap = apply_operator(p, coeffs, cfg, kappa, g)
        pAp = inner(p, Ap, g)
        if pAp <= 0.0:
            raise ConvergenceError(
                f"conjugate gradients lost positive definiteness (p'Ap = {pAp})",
                residual_history=history,
            )
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        z = r / diag
        rz_new = inner(r, z, g)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"conjugate gradients did not reach ||r|| <= {tol_abs:.3e} within "
        f"{max_iter} iterations (last residual {history[-1]:.3e})",
        residual_history=history,
    )


def run(
    c0: np.ndarray,
    n_steps: int,
    ef: EfParams,
    p: EosParams,
    cfg: SolverConfig,
    g: Grid2D,
    observer: Optional[Callable[[np.ndarray, StepReport], None]] = None,
) -> Tuple[np.ndarray, List[StepReport]]:
    """March ``n_steps`` steps from ``c0``; returns (final field, reports 1..n).

    The target mass, admissible interval and initial energy are computed
    once from ``c0``; the dissipation check allows energy_slack_rel times
    the initial energy of increase.  Each linear solve is warm-started from
    the previous step.  ``observer(c, report)`` sees the initial state as
    step 0 (``nan`` multiplier and residuals, zero iterations) and then
    every step.
    """
    if n_steps < 0:
        raise ParameterError(f"n_steps must be nonnegative, got {n_steps}")
    c = np.array(c0, dtype=float, copy=True)
    if c.shape != g.cell_shape():
        raise ParameterError(f"run: expected cell shape {g.cell_shape()}, got {c.shape}")
    interval = diagnostics.admissible_interval(ef, p)
    if interval.empty:
        raise ParameterError(
            f"admissible multiplier interval is empty for this window: "
            f"[{interval.mu_lower}, {interval.mu_upper}]"
        )
    ones = np.ones(g.cell_shape())
    c_t = inner(c, ones, g)
    slack = cfg.bounds_slack_rel * max(abs(ef.c_m), abs(ef.c_M))
    c_min, c_max = float(np.min(c)), float(np.max(c))
    nan = float("nan")
    report = StepReport(
        step_index=0, mu_e=nan, breakdown=diagnostics.discrete_energy(c, p, p.kappa, g),
        interval=interval, c_min=c_min, c_max=c_max, mass=float(c_t),
        cg_iters_1=0, cg_iters_2=0, residual_1=nan, residual_2=nan,
        admissibility_ok=True,
        bounds_ok=bool(c_min >= ef.c_m - slack and c_max <= ef.c_M + slack),
        energy_decreased=True,
    )
    energy_slack = cfg.energy_slack_rel * abs(report.energy)
    if observer is not None:
        observer(c, report)

    tau_eff = cfg.tau_eff()
    reports: List[StepReport] = []
    y1: Optional[np.ndarray] = None
    y2: Optional[np.ndarray] = None
    for n in range(1, n_steps + 1):
        # A state outside the window raises here, naming the offending
        # cell, unless the run is configured to continue past it.
        keep_going = not report.bounds_ok and cfg.on_violation == "continue"
        coeffs = scheme_coefficients(c, ef, p, bounds_slack=np.inf if keep_going else slack)
        if keep_going:
            warnings.warn(
                f"step {n}: previous state leaves the density window "
                f"[{ef.c_m}, {ef.c_M}]; continuing as configured",
                stacklevel=2,
            )
        # y1/y2 are kept as the next step's warm starts.
        y1, it1, res1 = solve_spd(c / tau_eff + coeffs.s_r, coeffs, cfg, p.kappa, g, x0=y1)
        y2, it2, res2 = solve_spd(ones, coeffs, cfg, p.kappa, g, x0=y2)
        s2 = inner(y2, ones, g)
        if not s2 > 0.0:
            raise ConvergenceError(f"degenerate multiplier denominator <A^-1 1, 1> = {s2}")
        mu_e = float((c_t - inner(y1, ones, g)) / s2)
        c = y1 + mu_e * y2

        breakdown = diagnostics.discrete_energy(c, p, p.kappa, g)
        c_min, c_max = float(np.min(c)), float(np.max(c))
        report = StepReport(
            step_index=n, mu_e=mu_e, breakdown=breakdown, interval=interval,
            c_min=c_min, c_max=c_max, mass=float(inner(c, ones, g)),
            cg_iters_1=it1, cg_iters_2=it2, residual_1=float(res1), residual_2=float(res2),
            admissibility_ok=interval.contains(mu_e),
            bounds_ok=bool(c_min >= ef.c_m - slack and c_max <= ef.c_M + slack),
            energy_decreased=bool(breakdown.total <= report.energy + energy_slack),
        )
        if cfg.on_violation == "abort" and not report.all_ok:
            raise InvariantViolation(
                f"step {n}: invariant check failed "
                f"(admissibility={report.admissibility_ok}, bounds={report.bounds_ok}, "
                f"dissipation={report.energy_decreased})"
            )
        reports.append(report)
        if observer is not None:
            observer(c, report)
    return c, reports


def step(
    c_old: np.ndarray, ef: EfParams, p: EosParams, cfg: SolverConfig, g: Grid2D
) -> Tuple[np.ndarray, StepReport]:
    """Advance one step of size cfg.tau: the first step of ``run`` from ``c_old``."""
    c_new, reports = run(c_old, 1, ef, p, cfg, g)
    return c_new, reports[0]
