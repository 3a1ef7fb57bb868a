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
             + R*T*(G'(c)^2 * c - 2*G(c)*G'(c) + lam) - mu_a(c)

with mu_a = d f_attraction / d c the attraction potential,

    mu_a(c) = alpha/(2*sqrt2*beta) * ln[ (1 + (1 - sqrt2)*b) / (1 + (1 + sqrt2)*b) ]
              - alpha*c / (1 + 2*b - b^2),       b = beta*c.

nu and s_r satisfy nu(c)*c - s_r(c) = mu_b(c) identically, so spatially
uniform states are fixed points of the scheme in exact arithmetic (in
floating point a uniform 100 x 100 state at 3 000 mol/m^3 drifts by
2.7e-12 mol/m^3 over 5 steps, at zero iterations a step), and for any two
densities in the window they bound the bulk energy's increment,

    f_b(c_new) - f_b(c_old) <= (nu(c_old)*c_new - s_r(c_old))*(c_new - c_old),

the inequality behind the scheme's energy dissipation.

One private pointwise kernel, ``_pointwise``, is the only home of nu, s_r
and the bulk energy density f_b: ``scheme_coefficients`` and
``diagnostics.admissible_interval`` call it.  It takes the sum of
logarithms that is f_b/c once, builds mu_b from it, and gets s_r as
nu*c - mu_b.  ``scheme_coefficients``, the per-state pass, adds the state's
discrete energy and extreme densities.  ``EfParams.contains`` is the one
rule of the window with its round-off slack: the time stepper judges each
state's extremes by it, and ``require_in_window`` a field's cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .eos import R_DEFAULT, EosParams, _require_admissible
from .errors import BoundsViolationError, DomainError, ParameterError
from .grid import RED, Grid2D, _Checkerboard

ArrayLike = Union[float, np.ndarray]

_SQRT2 = math.sqrt(2.0)
#: The window check's round-off allowance, as a fraction of max(|c_m|, |c_M|).
WINDOW_SLACK_REL = 1e-10


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

    @property
    def slack(self) -> float:
        """The window check's allowance in mol/m^3 for round-off excursions."""
        return WINDOW_SLACK_REL * max(abs(self.c_m), abs(self.c_M))

    def contains(self, c: ArrayLike) -> ArrayLike:
        """Whether ``c`` lies in [c_m - slack, c_M + slack], elementwise for
        an array; ``nan`` does not."""
        slack = self.slack
        return (c >= self.c_m - slack) & (c <= self.c_M + slack)


def _pointwise(c: ArrayLike, p: EosParams, lam: float, what: str,
               fields: Optional[Sequence[np.ndarray]] = None):
    """f_b/c, nu and s_r under the shift ``lam`` of densities of any shape.

    Returns float arrays (f_b/c, nu, s_r) of the shape of ``c`` and the
    pair (min c, max c) that the domain check reads.  With b = beta*c,
    L = ln(1 - b), t = b/(1 - b), M = lam - L and N = M + t (so G^2 = c*M,
    2*G*G' = N and c*G'^2 = N^2/(4*M)):

        f_b/c = vartheta0 + R*T*(ln c - L) + alpha/(2*sqrt2*beta)*ln(a)
        mu_b  = f_b/c + R*T*(1 + t) - alpha*c/(1 + 2*b - b^2)
        nu    = R*T*(1 + N^2/(4*M))/c
        s_r   = nu*c - mu_b = R*T*(N^2/(4*M) - t) - f_b/c + alpha*c/(1 + 2*b - b^2)

    where a = (1 + (1 - sqrt2)*b)/(1 + (1 + sqrt2)*b) is the attraction ratio.

    One log(c), one log(1 - b) and one log1p for the attraction ratio per
    density, in five fields: ``fields``, five arrays of the shape of ``c``,
    when given, else new ones.  nu, s_r and f_b/c come back in the first
    three; the other two are clobbered.  A density outside 0 < c < 1/beta
    raises ``DomainError`` naming ``what``.
    """
    c = np.asarray(c, dtype=float)
    extremes = _require_admissible(c, p, what)
    RT = R_DEFAULT * p.T
    ln1m, u, f, bc, w = fields if fields is not None else [np.empty_like(c) for _ in range(5)]
    np.multiply(p.beta, c, out=bc)
    np.subtract(1.0, bc, out=u)
    np.log(c, out=f)
    np.log(u, out=ln1m)  # L
    f -= ln1m
    # the attraction ratio is 1 - 2*sqrt2*b/(1 + (1 + sqrt2)*b)
    np.multiply(-(1.0 + _SQRT2) / (2.0 * _SQRT2), bc, out=w)
    w -= 1.0 / (2.0 * _SQRT2)
    np.divide(bc, w, out=w)
    np.log1p(w, out=w)
    w *= p.alpha / (2.0 * _SQRT2 * p.beta * RT)
    f += w
    f += p.vartheta0 / RT
    f *= RT
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
    return f, nu_f, sr, extremes


@dataclass(frozen=True)
class EnergyBreakdown:
    """Total discrete energy in J and its two contributions."""

    bulk: float
    gradient: float
    total: float


@dataclass(frozen=True)
class SchemeCoefficients:
    """Frozen per-step coefficient fields evaluated at the previous state.

    ``energy`` is that state's discrete energy and ``c_min``/``c_max`` its
    extreme densities.
    """

    nu: np.ndarray
    s_r: np.ndarray
    energy: EnergyBreakdown
    c_min: float
    c_max: float


def require_in_window(c: np.ndarray, ef: EfParams, what: str) -> None:
    """Raise ``BoundsViolationError`` unless every cell of ``c`` passes
    ``ef.contains``, the window with its round-off slack.

    The error names ``what`` and carries the first offending flat cell
    index and its value; ``nan`` fails.  The field's extremes decide; only
    a field that fails is scanned cell by cell, to name the offender.
    """
    c = np.asarray(c, dtype=float)
    if not c.size or (ef.contains(c.min()) and ef.contains(c.max())):
        return
    idx = int(np.flatnonzero(~ef.contains(c.ravel()))[0])
    val = float(c.ravel()[idx])
    raise BoundsViolationError(
        f"{what}: cell {idx}: density {val} outside the window "
        f"[{ef.c_m}, {ef.c_M}] (slack {ef.slack})",
        cell_index=idx,
        value=val,
    )


def scheme_coefficients(
    c_old: np.ndarray, ef: EfParams, p: EosParams, g: Grid2D,
    fields: Sequence[np.ndarray], board: _Checkerboard,
) -> SchemeCoefficients:
    """nu, s_r, the discrete energy and the extreme densities of ``c_old``.

    The energy, with gradient weight p.kappa, is

        F_h(c) = h^2*<c, f_b/c> + (kappa/2)*||grad_h c||^2,

    the squared gradient norm summed over interior faces
    (``_Checkerboard.gradient_sq_norm``).  The fields come from
    ``_pointwise``; a density outside 0 < c < 1/beta raises
    ``DomainError``.  The window is the caller's to judge, from ``c_min``
    and ``c_max``.

    The pass runs on the red and black halves of ``g``'s ``board``, the
    march's layout.  ``c_old`` is a pair in it whose pads and ends are
    zero, and ``fields``, five writeable, C-contiguous float pairs apart
    from it whose ends are zero, are the pass's work space: nu and s_r come
    back in the first two, so ``run`` splits no field, and the other three
    are left clobbered.  The ends of all five are zero on return, the pads
    of s_r too, and those of nu hold nu at the field's first cell.

    ``_pointwise`` runs on the pairs' flat ``run``s, with the first cell's
    density at the state's pads and ``gap``; then the gaps are zeroed, and
    the pads of the state and of s_r.
    """
    pair = (2, board.size)
    if not (len(fields) == 5 and all(
            isinstance(a, np.ndarray) and a.shape == pair and a.dtype == float
            and a.flags.writeable and a.flags.c_contiguous for a in (c_old, *fields))):
        # the pass works in each pair's flat run, and the flat view of an
        # array in any other order is a copy: the writes would be lost
        raise ParameterError(f"scheme_coefficients: the state and 5 fields must be writeable, "
                             f"C-contiguous float pairs of shape {pair}")
    flat = [a.reshape(-1) for a in (c_old, *fields)]
    first = c_old[RED, board.span.start]  # cell (0, 0)
    board.fill_pads(c_old, first)
    flat[0][board.gap] = first
    *_, (c_min, c_max) = _pointwise(flat[0][board.run], p, ef.lam, "scheme_coefficients",
                                    [a[board.run] for a in flat[1:]])
    for a in flat:
        a[board.gap] = 0.0
    board.fill_pads(c_old, 0.0)
    board.fill_pads(fields[1], 0.0)
    # the pads of c_old are zero, whatever f holds there
    bulk = float(g.h * g.h * np.einsum("ij,ij->", c_old, fields[2]))
    gradient = 0.5 * p.kappa * board.gradient_sq_norm(c_old, fields[3][0])
    return SchemeCoefficients(nu=fields[0], s_r=fields[1], energy=EnergyBreakdown(
        bulk=bulk, gradient=gradient, total=float(bulk + gradient)), c_min=c_min, c_max=c_max)
