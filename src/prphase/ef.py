"""Energy factorization of the convex bulk terms and the resulting
semi-implicit coefficients.

The sum of the ideal and repulsion free energies (divided by R*T) is
factorized through

    G(c) = sqrt(lam*c - c*ln(1 - beta*c)),

which is smooth, positive and concave on 0 < c < 1/beta provided the shift
``lam`` is large enough; the minimal admissible shift depends only on
epsilon_0 = beta*c_M, the packing fraction at the top of the working
density window [c_m, c_M]:

    lam_min(e) = e/(1-e)^2 + sqrt( e^2/(1-e)^4 - 2*ln(1-e)*e/(1-e)^2 ).

Concavity of G makes the linearized update

    G(c_new) ~ G(c_old) + G'(c_old)*(c_new - c_old)

an upper bound for G(c_new), which is what yields unconditional energy
stability of the time stepper.  The per-step linear operator uses

    nu(c)  = R*T*(1/c + G'(c)^2)                      [positive, decreasing]
    s_r(c) = -vartheta0 - R*T*ln(c)
             + R*T*(G'(c)^2 * c - 2*G(c)*G'(c) + lam) - mu_attraction(c)

which satisfy nu(c)*c - s_r(c) = mu_b(c) identically, so spatially uniform
states are exact fixed points of the scheme.

``scheme_coefficients`` evaluates both fields of a state together with its
discrete energy in one in-place pass over the cells, bitwise equal to
``nu``, ``s_r`` and ``diagnostics.discrete_energy``; the time stepper makes
one such pass per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .eos import EosParams, _SQRT2, _require_admissible
from .errors import BoundsViolationError, DomainError, ParameterError
from .grid import Grid2D, gradient_sq_norm

ArrayLike = Union[float, np.ndarray]


def minimal_lambda(epsilon_0: float) -> float:
    """Smallest shift keeping G concave on a window with beta*c_M = epsilon_0."""
    if not (isinstance(epsilon_0, (int, float)) and math.isfinite(epsilon_0)):
        raise DomainError(f"epsilon_0 must be finite, got {epsilon_0!r}")
    if not 0.0 < epsilon_0 < 1.0:
        raise DomainError(f"epsilon_0 must lie in (0, 1), got {epsilon_0}")
    e = float(epsilon_0)
    q = e / (1.0 - e) ** 2
    return q + math.sqrt(q * q - 2.0 * math.log1p(-e) * q)


@dataclass(frozen=True)
class EfParams:
    """Factorization shift plus the density window it was sized for.

    ``lam`` must be at least ``minimal_lambda(beta*c_M)``; overriding is
    allowed upward only (a larger shift keeps concavity, a smaller one
    breaks it).
    """

    lam: float
    c_m: float
    c_M: float
    epsilon_0: float

    @classmethod
    def for_window(
        cls,
        c_m: float,
        c_M: float,
        p: EosParams,
        lam: Optional[float] = None,
    ) -> "EfParams":
        """Build parameters for the window [c_m, c_M] under the model ``p``.

        A ``ParameterError`` carries ``key`` "window" or "lam".
        """
        if not (math.isfinite(c_m) and math.isfinite(c_M) and 0.0 < c_m < c_M):
            raise ParameterError(f"density window needs finite 0 < c_m < c_M, got [{c_m!r}, {c_M!r}]",
                                 key="window")
        epsilon_0 = p.beta * c_M
        if epsilon_0 >= 1.0:
            raise ParameterError(f"window top exceeds the packing limit: beta*c_M = {epsilon_0} >= 1",
                                 key="window")
        lam_min = minimal_lambda(epsilon_0)
        if lam is None:
            lam = lam_min
        elif lam < lam_min * (1.0 - 1e-12):
            raise ParameterError(f"lam = {lam} is below the minimal admissible shift {lam_min}; "
                                 "override upward only", key="lam")
        return cls(lam=float(lam), c_m=float(c_m), c_M=float(c_M), epsilon_0=epsilon_0)


def g_and_gprime(c: ArrayLike, lam: float, p: EosParams) -> Tuple[ArrayLike, ArrayLike]:
    """The factor G(c) and its derivative G'(c).

    G' is evaluated as (lam - ln(1-beta*c) + beta*c/(1-beta*c)) / (2*G),
    which is the closed-form derivative of G^2 divided by 2*G.
    """
    c = np.asarray(c, dtype=float)
    _require_admissible(c, p, "g_and_gprime")
    bc = p.beta * c
    g_sq = lam * c - c * np.log1p(-bc)
    if np.any(g_sq <= 0.0):
        raise DomainError(
            f"G^2 must be positive; lam = {lam} is too small for this density range"
        )
    g = np.sqrt(g_sq)
    gp = (lam - np.log1p(-bc) + bc / (1.0 - bc)) / (2.0 * g)
    return g, gp


def mu_attraction(c: ArrayLike, p: EosParams) -> ArrayLike:
    """Derivative of the attraction free energy, d f_attraction / d c (J/mol)."""
    c = np.asarray(c, dtype=float)
    _require_admissible(c, p, "mu_attraction")
    bc = p.beta * c
    log_part = (
        p.alpha / (2.0 * _SQRT2 * p.beta)
        * np.log((1.0 + (1.0 - _SQRT2) * bc) / (1.0 + (1.0 + _SQRT2) * bc))
    )
    return log_part - p.alpha * c / (1.0 + 2.0 * bc - bc * bc)


class SemiImplicitPotentials(NamedTuple):
    """Convex-part chemical potentials of the linearized update."""

    mu_ideal: ArrayLike
    mu_repulsion: ArrayLike


def semi_implicit_potentials(
    c_old: ArrayLike, c_new: ArrayLike, ef: EfParams, p: EosParams
) -> SemiImplicitPotentials:
    """Linearized ideal/repulsion potentials used by one time step.

        mu_ideal      = vartheta0 + R*T*ln(c_old) + R*T*c_new/c_old
        mu_repulsion  = R*T*G'(c_old)*(2*G(c_old) + G'(c_old)*(c_new - c_old))
                        - lam*R*T

    Both reduce to the exact bulk potentials when c_new == c_old, and their
    convexity/concavity structure guarantees per-step energy dissipation.
    """
    c_old = np.asarray(c_old, dtype=float)
    c_new = np.asarray(c_new, dtype=float)
    _require_admissible(c_old, p, "semi_implicit_potentials (old state)")
    _require_admissible(c_new, p, "semi_implicit_potentials (new state)")
    RT = p.R * p.T
    g, gp = g_and_gprime(c_old, ef.lam, p)
    mu_ideal = p.vartheta0 + RT * np.log(c_old) + RT * c_new / c_old
    mu_rep = RT * gp * (2.0 * g + gp * (c_new - c_old)) - ef.lam * RT
    return SemiImplicitPotentials(mu_ideal=mu_ideal, mu_repulsion=mu_rep)


def nu(c: ArrayLike, ef: EfParams, p: EosParams) -> ArrayLike:
    """Implicit-side coefficient nu(c) = R*T*(1/c + G'(c)^2), in J m^3/mol^2.

    Strictly positive and strictly decreasing on the physical domain.
    Callers are expected to have validated ``c``; this evaluates anywhere
    in 0 < c < 1/beta.
    """
    c = np.asarray(c, dtype=float)
    return _nu(c, g_and_gprime(c, ef.lam, p), p)


def s_r(c: ArrayLike, ef: EfParams, p: EosParams) -> ArrayLike:
    """Explicit-side source s_r(c) = nu(c)*c - mu_b(c), in closed form (J/mol)."""
    c = np.asarray(c, dtype=float)
    return _s_r(c, g_and_gprime(c, ef.lam, p), ef, p)


def _nu(c: np.ndarray, g_gp, p: EosParams) -> ArrayLike:
    _, gp = g_gp
    return p.R * p.T * (1.0 / c + gp * gp)


def _s_r(c: np.ndarray, g_gp, ef: EfParams, p: EosParams) -> ArrayLike:
    g, gp = g_gp
    RT = p.R * p.T
    return (
        -p.vartheta0
        - RT * np.log(c)
        + RT * (gp * gp * c - 2.0 * g * gp + ef.lam)
        - mu_attraction(c, p)
    )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Total discrete energy in J and its two contributions."""

    bulk: float
    gradient: float
    total: float


@dataclass(frozen=True)
class SchemeCoefficients:
    """Frozen per-step coefficient fields evaluated at the previous state.

    ``energy`` is that state's discrete energy; ``scheme_coefficients``
    always fills it, coefficients built by hand may leave it out.
    """

    nu: np.ndarray
    s_r: np.ndarray
    energy: Optional[EnergyBreakdown] = None


def require_in_window(c: np.ndarray, ef: EfParams, bounds_slack: float, what: str) -> None:
    """Raise ``BoundsViolationError`` unless ``c`` lies in [c_m, c_M].

    ``bounds_slack`` is an absolute allowance (mol/m^3) for round-off
    excursions just outside the window; the error names ``what`` and carries
    the first offending flat cell index and its value.  A cell passes only
    if it is inside the window, so ``nan`` fails.
    """
    c = np.asarray(c, dtype=float)
    inside = (c >= ef.c_m - bounds_slack) & (c <= ef.c_M + bounds_slack)
    if not np.all(inside):
        idx = int(np.flatnonzero(~inside.ravel())[0])
        val = float(c.ravel()[idx])
        raise BoundsViolationError(
            f"{what}: cell {idx}: density {val} outside the window "
            f"[{ef.c_m}, {ef.c_M}] (slack {bounds_slack})",
            cell_index=idx,
            value=val,
        )


def scheme_coefficients(
    c_old: np.ndarray,
    ef: EfParams,
    p: EosParams,
    g: Grid2D,
    bounds_slack: float = 0.0,
) -> SchemeCoefficients:
    """nu, s_r and the discrete energy (gradient weight p.kappa) of ``c_old``.

    ``require_in_window`` runs first, unless ``bounds_slack`` is infinite
    (the caller then judges the window itself); a density outside
    0 < c < 1/beta raises ``DomainError``.  One log(c), one log1p(-beta*c),
    one attraction log and one sqrt per cell serve all three results, which
    are computed in place in four scratch fields.  Every field keeps the
    operation order of ``nu``, ``s_r`` and ``eos.bulk_free_energy``, so the
    results are bitwise those of ``nu``, ``s_r`` and
    ``diagnostics.discrete_energy``.
    """
    c = np.ascontiguousarray(c_old, dtype=float)
    if c.shape != g.cell_shape():
        raise ParameterError(f"scheme_coefficients: expected cell shape {g.cell_shape()}, "
                             f"got {c.shape}")
    if bounds_slack != math.inf:
        require_in_window(c, ef, bounds_slack, "scheme_coefficients")
    _require_admissible(c, p, "scheme_coefficients")
    RT = p.R * p.T
    bc = p.beta * c
    a = np.log(c)
    b = np.empty_like(c)
    nu_f = np.empty_like(c)  # the bulk energy density, G, G'^2, then nu
    sr = np.multiply(RT, a)
    np.subtract(-p.vartheta0, sr, out=sr)

    # f_b = c*vartheta0 + c*RT*ln(c) - c*RT*ln(1 - beta*c) + attraction
    np.multiply(c, p.vartheta0, out=nu_f)
    np.multiply(c, RT, out=b)
    b *= a
    nu_f += b
    log1m = a  # ln(1 - beta*c); ln(c) is done with
    np.negative(bc, out=log1m)
    np.log1p(log1m, out=log1m)
    np.negative(c, out=b)
    b *= RT
    b *= log1m
    nu_f += b
    att = np.multiply(1.0 - _SQRT2, bc)  # the attraction log
    att += 1.0
    np.multiply(1.0 + _SQRT2, bc, out=b)
    b += 1.0
    att /= b
    np.log(att, out=att)
    np.multiply(p.alpha, c, out=b)
    b /= 2.0 * _SQRT2 * p.beta
    b *= att
    nu_f += b
    bulk = float(g.h * g.h * np.sum(nu_f))
    gradient = 0.5 * p.kappa * gradient_sq_norm(c, g, scratch=b)

    # G and G' as g_and_gprime computes them
    np.multiply(ef.lam, c, out=nu_f)
    np.multiply(c, log1m, out=b)
    nu_f -= b
    if np.any(nu_f <= 0.0):
        raise DomainError(
            f"G^2 must be positive; lam = {ef.lam} is too small for this density range"
        )
    np.sqrt(nu_f, out=nu_f)
    np.subtract(1.0, bc, out=b)
    np.divide(bc, b, out=b)
    gp = log1m
    np.subtract(ef.lam, log1m, out=gp)
    gp += b
    np.multiply(2.0, nu_f, out=b)
    gp /= b
    b *= gp  # 2*G*G'
    np.multiply(gp, gp, out=nu_f)

    # s_r = -vartheta0 - RT*ln(c) + RT*(G'^2*c - 2*G*G' + lam) - mu_attraction
    np.multiply(nu_f, c, out=a)
    a -= b
    a += ef.lam
    a *= RT
    sr += a
    att *= p.alpha / (2.0 * _SQRT2 * p.beta)
    np.multiply(2.0, bc, out=a)
    a += 1.0
    np.multiply(bc, bc, out=b)
    a -= b
    np.multiply(p.alpha, c, out=b)
    b /= a
    att -= b
    sr -= att

    # nu = RT*(1/c + G'^2)
    np.divide(1.0, c, out=a)
    nu_f += a
    nu_f *= RT
    return SchemeCoefficients(nu=nu_f, s_r=sr, energy=EnergyBreakdown(
        bulk=bulk, gradient=gradient, total=float(bulk + gradient)))
