"""Semi-implicit time stepper with a mass-constraint multiplier.

One step solves, for the new cell field c and a scalar mu_e,

    c/tau_eff - kappa*Lap(c) + nu(c_old)*c = c_old/tau_eff + s_r(c_old) + mu_e
    <c, 1> = c_t                                       (total moles fixed)

where tau_eff = mobility*tau and Lap is the Neumann five-point Laplacian.
The operator A = I/tau_eff - kappa*Lap + nu is symmetric positive definite.
The constrained system is solved directly by one projected preconditioned
conjugate-gradient iteration on the fixed-mass set (Gould, Hribar & Nocedal,
SIAM J. Sci. Comput. 23(4), 2001): it starts from a field at the target
mass, and every search direction has zero sum, so every iterate keeps the
mass to round-off whatever the solver tolerance.  After each residual
update the part of r along 1 is moved into mu_e (their "residual update"),
so mu_e comes out of the same iteration.

``run`` starts step 1 from c_old.  Every later step starts from the point
of c_old + span{D^1, ..., D^m} whose error has the smallest A-norm, the D^j
being the Newton backward differences of the last m + 1 states (m up to
``START_DIRECTIONS``), each less its mean: the projection of successive
right-hand sides of Fischer (Comput. Methods Appl. Mech. Engrg. 163, 1998)
on the fixed-mass set.  The basis has zero sum, so the start keeps the
target mass, and it holds c_old + (D^1 - mean D^1), the linear
extrapolation of the last change, so the start is never worse than that in
A-norm.  On the droplet run it takes about half the iterations.

A is applied matrix-free as s*(e*p - (sum of the neighbours of p)),
s = kappa/h^2, with e (1/tau_eff folded in) built in nu's field once per
solve; s rides in the scalars p'Ap and alpha and in the residual.  The
preconditioner is A's diagonal s*e (Jacobi), which accounts for the
reduced stencil at boundary cells.  The sums run through ``np.einsum`` and
``np.sum``, not BLAS, so a run gives the same bits whatever the number of
BLAS threads.

``run`` evaluates every state once, with ``ef.scheme_coefficients``: the
pass gives the state's energy for its report and the next step's nu and
s_r.  The initial state's pass comes before the step-0 report; step 1
first checks that state against the density window.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics
from .ef import EfParams, SchemeCoefficients, require_in_window, scheme_coefficients
from .eos import EosParams
from .errors import ConvergenceError, InvariantViolation, ParameterError
from .grid import Grid2D

log = logging.getLogger(__name__)

_PRECONDITIONERS = ("diagonal", "none")
_VIOLATION_MODES = ("continue", "abort")
#: Number of state differences ``run`` keeps to choose each solve's start.
#: A fourth cut the droplet run's iterations by a further quarter, but not
#: its wall time, and it costs one more field.
START_DIRECTIONS = 3


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the stepper; only ``tau`` has no default.

    tau : time-step size in s.
    cg_rel_tol : stop conjugate gradients once the projected residual has
        ||r|| <= cg_rel_tol*||rhs||, rhs = c_old/tau_eff + s_r.
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

    def bounds_slack(self, ef: EfParams) -> float:
        """Absolute window allowance in mol/m^3 for the window of ``ef``."""
        return self.bounds_slack_rel * max(abs(ef.c_m), abs(ef.c_M))


@dataclass(frozen=True)
class StepReport:
    """Per-step record of the solve and the invariant checks.

    Step 0 describes the initial state: ``nan`` multiplier and residual,
    zero iterations, and only the window check is made.
    """

    step_index: int
    mu_e: float
    breakdown: diagnostics.EnergyBreakdown
    interval: diagnostics.AdmissibleInterval
    c_min: float
    c_max: float
    mass: float
    cg_iters: int
    residual: float
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


def _neighbour_sum(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum of the (up to four) in-domain neighbours of each cell, into ``out``.

    ``out`` must be C-contiguous.  The x-neighbours are summed along the
    flattened rows, one long shifted run instead of a short one per row;
    the row ends, where that run wraps into the adjacent row, are then
    overwritten with their one in-row neighbour.
    """
    if p.shape[1] == 1:
        out.fill(0.0)
    else:
        flat = p.ravel()
        np.add(flat[2:], flat[:-2], out=out.ravel()[1:-1])
        out[:, 0] = p[:, 1]
        out[:, -1] = p[:, -2]
    out[:-1, :] += p[1:, :]
    out[1:, :] += p[:-1, :]
    return out


def _apply(p, e, k, out, scratch):
    """(A p)/s = e*p - (sum of neighbours of p) into ``out``; ``scratch`` is clobbered.

    e is A's diagonal over s and k = kappa/h^2 (``_fold_diagonal``); when k
    is 0 no neighbour couples, and A p = e*p.
    """
    np.multiply(e, p, out=out)
    if k:
        out -= _neighbour_sum(p, scratch)
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a*b over the cells.

    einsum without ``optimize`` sums in its own loops, not through BLAS, so
    the result does not depend on the number of BLAS threads.
    """
    return float(np.einsum("ij,ij->", a, b))


def _check_cells(a: np.ndarray, g: Grid2D, what: str) -> None:
    if a.shape != g.cell_shape():
        raise ParameterError(f"{what}: expected cell shape {g.cell_shape()}, got {a.shape}")


def apply_operator(
    c: np.ndarray, coeffs: SchemeCoefficients, cfg: SolverConfig, kappa: float, g: Grid2D
) -> np.ndarray:
    """A c = c/tau_eff - kappa*Lap(c) + nu*c, by the stencil the solver runs."""
    c = np.asarray(c, dtype=float)
    _check_cells(c, g, "apply_operator")
    k = kappa / (g.h * g.h)
    e = np.array(coeffs.nu, dtype=float)
    s = _fold_diagonal(e, k, cfg.tau_eff())
    return s * _apply(c, e, k, np.empty(c.shape), np.empty(c.shape))


def _fold_diagonal(d: np.ndarray, k: float, tau_eff: float) -> float:
    """Turn ``d``, holding nu, into A's diagonal over s in place; returns s.

    s = k = kappa/h^2, or 1 when k is 0.  The diagonal is nu + 1/tau_eff +
    k*(number of in-domain neighbours), a number that drops by one per
    domain edge the cell touches: the Neumann condition.
    """
    s = k or 1.0
    w = k / s
    d *= 1.0 / s
    d += 4.0 * w + 1.0 / (tau_eff * s)
    d[0, :] -= w
    d[-1, :] -= w
    d[:, 0] -= w
    d[:, -1] -= w
    return s


def solve_spd(
    rhs: np.ndarray,
    coeffs: SchemeCoefficients,
    cfg: SolverConfig,
    kappa: float,
    g: Grid2D,
    x0: np.ndarray,
    basis: Sequence[np.ndarray] = (),
) -> Tuple[np.ndarray, float, int, float]:
    """Projected preconditioned conjugate gradients for the constrained step.

    Solves A x = rhs + mu_e*1 for x and the scalar mu_e, with the mass
    <x, 1> fixed at that of ``x0``.  The iteration runs in ``x0``, so on
    return it holds the solution and is the returned x.  Returns
    (x, mu_e, iterations, ||r||/||rhs||), where r = rhs + mu_e*1 - A x.
    The diagonal of A over kappa/h^2 (``_fold_diagonal``) is built in
    ``coeffs.nu``'s field, so the solve consumes ``nu`` as it does ``x0``:
    on return it holds that scaled diagonal.  ``rhs``, ``coeffs.s_r`` and
    ``basis`` are left as they are.

    ``basis`` holds zero-sum fields V, as an (m, ny, nx) array or a sequence
    of cell fields; when it is given, the iteration starts from the point
    x0 + V a whose error has the smallest A-norm (``_galerkin_start``),
    which keeps the mass of ``x0``.

    With D the preconditioner's diagonal (D = I for "none"), each residual
    update is followed by the projection r -= sigma*1, mu_e -= sigma with
    sigma = <D^-1, r>/<D^-1, 1>, so z = D^-1 r sums to zero and so does
    every search direction.  The iteration stops once ||r|| <= cg_rel_tol *
    ||rhs|| after that projection; the initial state counts as iteration 0.
    Exceeding the iteration cap, or a nonpositive p'Ap, raises
    ``ConvergenceError`` with the residual history attached.
    """
    rhs = np.asarray(rhs, dtype=float)
    _check_cells(rhs, g, "solve_spd")
    for what, a in (("the warm start", x0), ("nu", coeffs.nu)):
        if not (isinstance(a, np.ndarray) and a.shape == rhs.shape and a.dtype == float
                and a.flags.writeable):
            raise ParameterError(f"solve_spd: {what} must be a writeable float array of "
                                 f"shape {rhs.shape}")
    basis = np.asarray(basis, dtype=float) if len(basis) else np.empty((0,) + rhs.shape)
    if basis.shape[1:] != rhs.shape:
        raise ParameterError(f"solve_spd basis: expected fields of cell shape {rhs.shape}, "
                             f"got {basis.shape[1:]}")
    x = x0
    k = kappa / (g.h * g.h)
    # built once: each apply is s*(e*p - N(p))
    e = coeffs.nu
    s = _fold_diagonal(e, k, cfg.tau_eff())
    if cfg.preconditioner == "diagonal":
        inv_diag = np.divide(1.0 / s, e)
    else:
        inv_diag = np.ones(g.cell_shape())
    inv_sum = float(np.sum(inv_diag))
    # C order: the stencil writes its outputs through flat views.
    z = np.empty(rhs.shape)  # z, then the stencil's and the updates' scratch
    r = np.empty(rhs.shape)
    Ap = np.empty(rhs.shape)  # A p over s

    def residual() -> float:
        # r = rhs - A x, projected once; what it loses along 1 is the first mu_e.
        np.multiply(_apply(x, e, k, r, z), -s, out=r)
        np.add(r, rhs, out=r)
        mu = -_dot(inv_diag, r) / inv_sum
        np.add(r, mu, out=r)
        return mu

    # The first residual is about -mu_e*1.  Projecting it once leaves a
    # round-off part along 1 that is large next to the rest of r, so the
    # first directions would move the mass; the loop's first projection
    # removes it.  The start from the basis needs r projected twice as well,
    # or the round-off sums of the basis fields pick up that part.
    mu_e = residual()
    if len(basis):
        r -= _dot(inv_diag, r) / inv_sum
        _galerkin_start(x, r, basis, e, k, Ap, z)
        mu_e = residual()

    b_norm = math.sqrt(_dot(rhs, rhs))
    tol_abs = cfg.cg_rel_tol * b_norm
    max_iter = cfg.resolved_max_iter(g)
    history: List[float] = []
    p = np.empty(rhs.shape)
    it = 0
    while True:
        sigma = _dot(inv_diag, r) / inv_sum
        r -= sigma
        mu_e -= sigma
        res = math.sqrt(_dot(r, r))
        history.append(res)
        if res <= tol_abs:
            return x, mu_e, it, res / b_norm if b_norm > 0.0 else 0.0
        if it == max_iter:
            raise ConvergenceError(
                f"conjugate gradients did not reach ||r|| <= {tol_abs:.3e} within "
                f"{max_iter} iterations (last residual {res:.3e})",
                residual_history=history,
            )
        np.multiply(r, inv_diag, out=z)
        rz_new = _dot(r, z)
        if it:
            p *= rz_new / rz
            p += z
        else:
            np.copyto(p, z)
        rz = rz_new
        _apply(p, e, k, Ap, z)
        pAp = s * _dot(p, Ap)
        if not pAp > 0.0:
            raise ConvergenceError(
                f"conjugate gradients lost positive definiteness (p'Ap = {pAp})",
                residual_history=history,
            )
        alpha = rz / pAp
        np.multiply(alpha, p, out=z)
        x += z
        np.multiply(alpha * s, Ap, out=z)
        r -= z
        it += 1


def _galerkin_start(x, r, basis, e, k, Ap, z) -> None:
    """Move ``x`` to the point of x + span(basis) whose error has the smallest A-norm.

    ``r`` is rhs - A x up to a multiple of 1, and every field of ``basis``,
    an (m, ny, nx) array, has zero sum, so the coefficients a solve
    (V'AV) a = V'r.  A = s*(e - N) as ``_fold_diagonal`` leaves it, so
    V'AV is s times the Gram matrix of e - N: one stencil apply per field,
    into ``Ap`` with ``z`` as scratch, both clobbered, one ``einsum`` per
    column, one for V'r and one for V a.
    """
    m = len(basis)
    gram = [[0.0] * m for _ in range(m)]
    for j in range(m):
        _apply(basis[j], e, k, Ap, z)
        for i, v in enumerate(np.einsum("kij,ij->k", basis[j:], Ap).tolist(), j):
            gram[i][j] = gram[j][i] = v
    s = k or 1.0
    vr = [v / s for v in np.einsum("kij,ij->k", basis, r).tolist()]
    x += np.einsum("k,kij->ij", _cholesky_solve(gram, vr), basis, out=z)


def _cholesky_solve(gram: List[List[float]], rhs: List[float]) -> List[float]:
    """a with gram a = rhs, by a Cholesky factorization in Python floats.

    A direction whose pivot is at most 1e-12 of its diagonal entry depends
    on the earlier ones (or is zero, as on a uniform state); its coefficient
    is 0 and the rest are solved without it.
    """
    m = len(rhs)
    low = [[0.0] * m for _ in range(m)]
    kept: List[int] = []
    for j in range(m):
        pivot = gram[j][j] - sum(low[j][q] ** 2 for q in kept)
        if not pivot > 1e-12 * gram[j][j]:
            continue
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, m):
            low[i][j] = (gram[i][j] - sum(low[i][q] * low[j][q] for q in kept)) / low[j][j]
        kept.append(j)
    y = [0.0] * m
    for j in kept:
        y[j] = (rhs[j] - sum(low[j][q] * y[q] for q in kept if q < j)) / low[j][j]
    a = [0.0] * m
    for j in reversed(kept):
        a[j] = (y[j] - sum(low[q][j] * a[q] for q in kept if q > j)) / low[j][j]
    return a


def _push_differences(basis: np.ndarray, m: int, new: np.ndarray, old: np.ndarray) -> int:
    """Advance the Newton differences in ``basis[:m]`` from state ``old`` to ``new``.

    ``basis[j]`` holds the difference of order j + 1, less its mean.  At
    ``new``, order q + 1 is new - old less orders 1..q at ``old``, and order
    j is order j at ``old`` plus order j + 1 at ``new``.  So the top order
    is built first, in the next field or the dropped order's, and the lower
    ones follow in place.  Returns the number of orders held.
    """
    top = min(m, len(basis) - 1)
    d = np.subtract(new, old, out=basis[top])
    for prev in basis[:top]:
        d -= prev
    d -= np.sum(d) / d.size
    for j in range(top - 1, -1, -1):
        d = basis[j]
        d += basis[j + 1]
        d -= np.sum(d) / d.size
    return top + 1


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
    the initial energy of increase.  The march holds START_DIRECTIONS + 2
    fields of its own: the current state, the next one, in which the solve
    runs, and the differences of the last states, which choose the solve's
    start.  ``observer(c, report)`` sees the initial state as step 0
    (``nan`` multiplier and residual, zero iterations) and then every step;
    ``c`` is overwritten by a later step, so an observer that keeps a state
    must copy it.
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

    def mass(field: np.ndarray) -> float:
        # h^2 * <field, 1>, without holding a field of ones for the run
        return float(g.h * g.h * np.sum(field))

    slack = cfg.bounds_slack(ef)
    c_min, c_max = float(np.min(c)), float(np.max(c))
    nan = float("nan")
    # One pass gives the initial energy and step 1's coefficients; step 1
    # judges the window.
    coeffs = scheme_coefficients(c, ef, p, g, bounds_slack=np.inf)
    report = StepReport(
        step_index=0, mu_e=nan, breakdown=coeffs.energy,
        interval=interval, c_min=c_min, c_max=c_max, mass=mass(c),
        cg_iters=0, residual=nan,
        admissibility_ok=True,
        bounds_ok=bool(c_min >= ef.c_m - slack and c_max <= ef.c_M + slack),
        energy_decreased=True,
    )
    energy_slack = cfg.energy_slack_rel * abs(report.energy)
    if observer is not None:
        observer(c, report)

    tau_eff = cfg.tau_eff()
    reports: List[StepReport] = []
    x = np.empty(c.shape)  # the next state
    basis = np.empty((START_DIRECTIONS,) + c.shape)  # the last states' differences
    m = 0  # how many of them basis holds, by order
    for n in range(1, n_steps + 1):
        keep_going = not report.bounds_ok and cfg.on_violation == "continue"
        if n == 1 and not keep_going:
            # An initial state outside the window raises here, naming the
            # offending cell, unless the run is configured to continue.
            require_in_window(c, ef, slack, "step 1")
        if keep_going:
            warnings.warn(
                f"step {n}: previous state leaves the density window "
                f"[{ef.c_m}, {ef.c_M}]; continuing as configured",
                stacklevel=2,
            )
        # The step owns its coefficients: the right-hand side c/tau_eff + s_r
        # is built in s_r's field, and the solve builds A's diagonal in nu's.
        b = coeffs.s_r
        b += np.divide(c, tau_eff, out=x)
        np.copyto(x, c)
        x, mu_e, iters, res = solve_spd(b, coeffs, cfg, p.kappa, g, x0=x, basis=basis[:m])
        # Freed before the next pass allocates its fields: kept alive, these
        # would raise the peak memory.
        del b, coeffs
        m = _push_differences(basis, m, x, c)
        c, x = x, c

        c_min, c_max = float(np.min(c)), float(np.max(c))
        # One pass gives this state's energy and the next step's
        # coefficients; the report below judges the window.
        coeffs = scheme_coefficients(c, ef, p, g, bounds_slack=np.inf)
        report = StepReport(
            step_index=n, mu_e=mu_e, breakdown=coeffs.energy, interval=interval,
            c_min=c_min, c_max=c_max, mass=mass(c),
            cg_iters=iters, residual=res,
            admissibility_ok=interval.contains(mu_e),
            bounds_ok=bool(c_min >= ef.c_m - slack and c_max <= ef.c_M + slack),
            energy_decreased=bool(coeffs.energy.total <= report.energy + energy_slack),
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

