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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .eos import EosParams, _SQRT2, _require_admissible
from .errors import BoundsViolationError, DomainError, ParameterError

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
class SchemeCoefficients:
    """Frozen per-step coefficient fields evaluated at the previous state."""

    nu: np.ndarray
    s_r: np.ndarray


def require_in_window(c: np.ndarray, ef: EfParams, bounds_slack: float, what: str) -> None:
    """Raise ``BoundsViolationError`` unless ``c`` lies in [c_m, c_M].

    ``bounds_slack`` is an absolute allowance (mol/m^3) for round-off
    excursions just outside the window; the error names ``what`` and carries
    the first offending flat cell index and its value.
    """
    c = np.asarray(c, dtype=float)
    bad = (c < ef.c_m - bounds_slack) | (c > ef.c_M + bounds_slack)
    if np.any(bad):
        idx = int(np.flatnonzero(bad.ravel())[0])
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
    bounds_slack: float = 0.0,
) -> SchemeCoefficients:
    """Evaluate nu and s_r at ``c_old`` after ``require_in_window``, from one G, G'."""
    c_old = np.asarray(c_old, dtype=float)
    require_in_window(c_old, ef, bounds_slack, "scheme_coefficients")
    g_gp = g_and_gprime(c_old, ef.lam, p)
    return SchemeCoefficients(nu=np.asarray(_nu(c_old, g_gp, p)),
                              s_r=np.asarray(_s_r(c_old, g_gp, ef, p)))
