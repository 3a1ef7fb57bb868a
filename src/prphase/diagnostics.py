"""Run diagnostics: the admissible multiplier interval and a droplet
shape-anisotropy metric.

The discrete free energy of a state has one home, the pass that evaluates
the scheme's coefficients (``ef.scheme_coefficients``); the time stepper
reports it for every state.

The mass-constraint multiplier produced by the stepper provably stays inside

    [ max_{[c_m, c_M]} (c_m*nu(c) - s_r(c)),  min_{[c_m, c_M]} (c_M*nu(c) - s_r(c)) ]

whenever the previous state respects the window; both envelope extrema are
located by a dense scan of ``ef._pointwise`` refined with golden-section
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ef import EfParams, _pointwise
from .eos import EosParams
from .errors import ParameterError
from .grid import Grid2D

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class AdmissibleInterval:
    """Closed interval of multiplier values compatible with the window."""

    mu_lower: float
    mu_upper: float

    @property
    def empty(self) -> bool:
        return self.mu_lower > self.mu_upper

    def contains(self, mu: float) -> bool:
        return self.mu_lower <= mu <= self.mu_upper


def _golden_max(f: Callable[[float], float], a: float, b: float, x_tol: float) -> float:
    """Maximum value of a scalar unimodal-on-[a,b] function, by golden section.

    The bracket tolerance is floored at a few ulps of the endpoints so the
    loop terminates even when the requested tolerance is below float
    resolution (near-degenerate windows).
    """
    x_tol = max(x_tol, 8.0 * np.finfo(float).eps * max(abs(a), abs(b)))
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > x_tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
    return max(f1, f2)


def _refined_extremum(
    values: np.ndarray, cs: np.ndarray, f: Callable[[float], float], x_tol: float
) -> float:
    """Refine the argmax of sampled ``values`` within its bracketing cell."""
    k = int(np.argmax(values))
    a = cs[max(k - 1, 0)]
    b = cs[min(k + 1, len(cs) - 1)]
    coarse = float(values[k])
    if b <= a:
        return coarse
    return max(coarse, _golden_max(f, float(a), float(b), x_tol))


def admissible_interval(
    ef: EfParams, p: EosParams, n_samples: int = 20000, rel_tol: float = 1e-10
) -> AdmissibleInterval:
    """Envelope extrema of c_m*nu - s_r (lower) and c_M*nu - s_r (upper).

    ``rel_tol`` controls the golden-section bracket width relative to the
    window size.  The interval may come back empty for exotic windows; the
    caller decides whether that is fatal.
    """
    if n_samples < 2:
        raise ParameterError(f"n_samples must be >= 2, got {n_samples}")
    cs = np.linspace(ef.c_m, ef.c_M, n_samples)
    _, nu_vals, sr_vals, _ = _pointwise(cs, p, ef.lam, "admissible_interval")
    x_tol = rel_tol * (ef.c_M - ef.c_m)

    def lower_env(c: float) -> float:
        _, nu_c, sr_c, _ = _pointwise(c, p, ef.lam, "admissible_interval")
        return ef.c_m * float(nu_c) - float(sr_c)

    def upper_env_neg(c: float) -> float:
        _, nu_c, sr_c, _ = _pointwise(c, p, ef.lam, "admissible_interval")
        return -(ef.c_M * float(nu_c) - float(sr_c))

    mu_lower = _refined_extremum(ef.c_m * nu_vals - sr_vals, cs, lower_env, x_tol)
    mu_upper = -_refined_extremum(-(ef.c_M * nu_vals - sr_vals), cs, upper_env_neg, x_tol)
    return AdmissibleInterval(mu_lower=float(mu_lower), mu_upper=float(mu_upper))


def shape_anisotropy(c: np.ndarray, g: Grid2D, threshold: float) -> float:
    """Deviation of the region {c > threshold} from a centered disk.

    Sum of two dimensionless terms computed from the region's area moments
    about its centroid: the second-moment imbalance |Ixx - Iyy|/(Ixx + Iyy)
    and the four-fold angular moment |<cos 4*theta>|.  Both vanish for a
    disk (the angular one at any resolution, unlike a boundary-ring average
    which carries a pixelation bias) and a square scores about 0.14 on the
    angular term.

    Raises ``ParameterError`` when the indicator is empty; returns 0.0 when
    it covers the whole grid (no interface to measure).
    """
    c = np.asarray(c, dtype=float)
    g.check_cells(c, "shape_anisotropy")
    mask = c > threshold
    if not mask.any():
        raise ParameterError(f"shape_anisotropy: no cells exceed threshold {threshold}")
    if mask.all():
        return 0.0

    X, Y = g.cell_centers()
    xs = X[mask]
    ys = Y[mask]
    xbar = float(xs.mean())
    ybar = float(ys.mean())
    ixx = float(np.sum((xs - xbar) ** 2))
    iyy = float(np.sum((ys - ybar) ** 2))
    moment_term = abs(ixx - iyy) / (ixx + iyy) if (ixx + iyy) > 0 else 0.0

    theta = np.arctan2(ys - ybar, xs - xbar)
    angular_term = abs(float(np.mean(np.cos(4.0 * theta))))
    return moment_term + angular_term
