"""Run diagnostics: the admissible multiplier interval and a droplet
shape-anisotropy metric.

The discrete free energy of a state has one home, the pass that evaluates
the scheme's coefficients (``ef.scheme_coefficients``); the time stepper
reports it for every state.

The mass-constraint multiplier produced by the stepper provably stays inside

    [ max_{[c_m, c_M]} (c_m*nu(c) - s_r(c)),  min_{[c_m, c_M]} (c_M*nu(c) - s_r(c)) ]

whenever the previous state respects the window; both envelope extrema are
located by a dense scan of ``ef._pointwise`` refined by a few vectorized
zoom rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ef import EfParams, _pointwise
from .eos import EosParams
from .errors import ParameterError
from .grid import Grid2D

# zoom stop, relative to the window width; densities in the first scan, and
# per bracket and round after it
_REL_TOL = 1e-10
_SCAN_POINTS = 20000
_ZOOM_POINTS = 65
# cells per block of rows in shape_anisotropy's angular sum
_BLOCK_CELLS = 8192
_TINY = np.finfo(float).tiny


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


def admissible_interval(ef: EfParams, p: EosParams) -> AdmissibleInterval:
    """Envelope extrema of c_m*nu - s_r (lower) and c_M*nu - s_r (upper).

    A scan of ``_SCAN_POINTS`` evenly spaced densities brackets each extremum
    by the cells around its sampled argmax; each zoom round then samples
    both brackets in one kernel call and keeps the cells around the new
    argmax, until every bracket is narrower than ``_REL_TOL`` of the window
    (or a few ulps of c_M).  The interval may come back empty for exotic
    windows; the caller decides whether that is fatal.
    """
    # row 0 maximizes c_m*nu - s_r, row 1 maximizes -(c_M*nu - s_r)
    ends = np.array([[ef.c_m], [ef.c_M]])
    signs = np.array([[1.0], [-1.0]])
    # a bracket cannot shrink below an ulp or two; without the floor a
    # window narrower than a few millionths of c_M would never stop zooming
    x_tol = max(_REL_TOL * (ef.c_M - ef.c_m), 8.0 * np.finfo(float).eps * ef.c_M)
    cs = np.linspace(ef.c_m, ef.c_M, _SCAN_POINTS)[np.newaxis, :]
    best = np.full((2, 1), -np.inf)
    while True:
        _, nu_vals, sr_vals, _ = _pointwise(cs, p, ef.lam, "admissible_interval")
        values = ends * nu_vals
        values -= sr_vals
        values *= signs
        k = np.argmax(values, axis=1, keepdims=True)
        best = np.maximum(best, np.take_along_axis(values, k, axis=1))
        a = np.take_along_axis(cs, np.maximum(k - 1, 0), axis=1)
        b = np.take_along_axis(cs, np.minimum(k + 1, cs.shape[1] - 1), axis=1)
        if np.all(b - a <= x_tol):
            return AdmissibleInterval(mu_lower=float(best[0, 0]), mu_upper=-float(best[1, 0]))
        cs = np.linspace(a[:, 0], b[:, 0], _ZOOM_POINTS, axis=1)


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

    # The moments follow from the region's row and column counts, in cells
    # about the centroid: dx along a row, dy down a column.  The indices'
    # sums are exact, so a centroid on a cell centre gives that cell
    # dx = dy = 0 exactly, wherever the grid lies and whatever its h.
    cols = mask.sum(axis=0, dtype=float)
    rows = mask.sum(axis=1, dtype=float)
    area = float(rows.sum())
    dx = np.arange(g.nx, dtype=float)
    dx -= float(np.einsum("j,j->", cols, dx)) / area
    dy = np.arange(g.ny, dtype=float)
    dy -= float(np.einsum("i,i->", rows, dy)) / area
    dx2, dy2 = dx * dx, dy * dy
    ixx = float(np.einsum("j,j->", cols, dx2))
    iyy = float(np.einsum("i,i->", rows, dy2))
    moment_term = abs(ixx - iyy) / (ixx + iyy) if (ixx + iyy) > 0 else 0.0

    # cos 4*theta = 1 - 8 dx^2 dy^2/r^4, summed over the region's bounding
    # box in blocks of rows, so that the mask is the only field held.  A
    # cell at the centroid has dx = dy = 0 and counts as 1, as theta = 0.
    occupied = np.flatnonzero(cols)
    box = slice(occupied[0], occupied[-1] + 1)
    dx2 = dx2[box]
    occupied = np.flatnonzero(rows)
    stop = occupied[-1] + 1
    step = max(1, _BLOCK_CELLS // dx2.size)
    off_axis = 0.0
    for i in range(occupied[0], stop, step):
        block = slice(i, min(i + step, stop))
        wy = dy2[block, np.newaxis]
        num = np.multiply(wy, dx2)
        den = np.add(wy, dx2)
        den *= den
        np.maximum(den, _TINY, out=den)  # zero only where num is zero too
        num /= den
        off_axis += float(num.sum(where=mask[block, box]))
    angular_term = abs(1.0 - 8.0 * off_axis / area)
    return moment_term + angular_term
