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

One private pointwise kernel, ``_pointwise``, is the only home of nu, s_r
and the bulk energy density f_b: ``scheme_coefficients``, ``nu``, ``s_r``,
``diagnostics.discrete_energy`` and ``diagnostics.admissible_interval`` all
call it.  It takes the sum of logarithms that is f_b/c once, builds mu_b
from it, and gets s_r as nu*c - mu_b.  ``scheme_coefficients`` adds the
state's discrete energy; the time stepper makes one such pass per state.
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
    return _pointwise(c, p, ef.lam, "nu")[1][()]


def s_r(c: ArrayLike, ef: EfParams, p: EosParams) -> ArrayLike:
    """Explicit-side source s_r(c) = nu(c)*c - mu_b(c), in closed form (J/mol)."""
    return _pointwise(c, p, ef.lam, "s_r")[2][()]


def _pointwise(c: ArrayLike, p: EosParams, lam: Optional[float], what: str):
    """f_b/c and, given the shift ``lam``, nu and s_r of densities of any shape.

    Returns float arrays (f_b/c, nu, s_r) of the shape of ``c``; without
    ``lam``, nu and s_r are None.  With b = beta*c, L = ln(1 - b),
    t = b/(1 - b), M = lam - L and N = M + t (so G^2 = c*M, 2*G*G' = N and
    c*G'^2 = N^2/(4*M)):

        f_b/c = vartheta0 + R*T*(ln c - L) + alpha/(2*sqrt2*beta)*ln(a)
        mu_b  = f_b/c + R*T*(1 + t) - alpha*c/(1 + 2*b - b^2)
        nu    = R*T*(1 + N^2/(4*M))/c
        s_r   = nu*c - mu_b = R*T*(N^2/(4*M) - t) - f_b/c + alpha*c/(1 + 2*b - b^2)

    where a = (1 + (1 - sqrt2)*b)/(1 + (1 + sqrt2)*b) is the attraction ratio.

    One log(c), one log(1 - b) and one log1p for the attraction ratio per
    density, in five fields.  A density outside 0 < c < 1/beta raises
    ``DomainError`` naming ``what``.
    """
    c = np.asarray(c, dtype=float)
    _require_admissible(c, p, what)
    RT = p.R * p.T
    bc = np.multiply(p.beta, c, out=np.empty_like(c))
    u = np.subtract(1.0, bc, out=np.empty_like(c))
    f = np.log(c, out=np.empty_like(c))
    ln1m = np.log(u, out=np.empty_like(c))  # L
    f -= ln1m
    # the attraction ratio is 1 - 2*sqrt2*b/(1 + (1 + sqrt2)*b)
    w = np.multiply(-(1.0 + _SQRT2) / (2.0 * _SQRT2), bc, out=np.empty_like(c))
    w -= 1.0 / (2.0 * _SQRT2)
    np.divide(bc, w, out=w)
    np.log1p(w, out=w)
    w *= p.alpha / (2.0 * _SQRT2 * p.beta * RT)
    f += w
    f += p.vartheta0 / RT
    f *= RT
    if lam is None:
        return f, None, None

    t = np.divide(bc, u, out=w)
    np.multiply(u, u, out=u)
    np.subtract(2.0, u, out=u)  # 1 + 2*b - b^2
    np.divide(bc, u, out=bc)
    m = ln1m
    np.subtract(lam, ln1m, out=m)
    # G^2 = c*M, and M >= lam since L < 0: only a nonpositive shift can fail
    if not lam > 0.0 and np.any(m <= 0.0):
        raise DomainError(
            f"G^2 must be positive; lam = {lam} is too small for this density range"
        )
    n4 = u  # N^2/M, four times c*G'^2
    np.add(m, t, out=n4)
    n4 *= n4
    n4 /= m
    nu_f = m
    np.add(n4, 4.0, out=nu_f)
    nu_f /= c
    nu_f *= 0.25 * RT
    sr = n4
    t *= 4.0
    sr -= t
    sr *= 0.25 * RT
    sr -= f
    bc *= p.alpha / p.beta
    sr += bc
    return f, nu_f, sr


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
    0 < c < 1/beta raises ``DomainError``.  The fields come from
    ``_pointwise``, and the energy is bitwise ``diagnostics.discrete_energy``:
    the bulk part h^2*<c, f_b/c> and (kappa/2)*``gradient_sq_norm``.
    """
    c = np.ascontiguousarray(c_old, dtype=float)
    if c.shape != g.cell_shape():
        raise ParameterError(f"scheme_coefficients: expected cell shape {g.cell_shape()}, "
                             f"got {c.shape}")
    if bounds_slack != math.inf:
        require_in_window(c, ef, bounds_slack, "scheme_coefficients")
    f, nu_f, sr = _pointwise(c, p, ef.lam, "scheme_coefficients")
    bulk = float(g.h * g.h * np.einsum("ij,ij->", c, f))
    gradient = 0.5 * p.kappa * gradient_sq_norm(c, g, scratch=f)
    return SchemeCoefficients(nu=nu_f, s_r=sr, energy=EnergyBreakdown(
        bulk=bulk, gradient=gradient, total=float(bulk + gradient)))
