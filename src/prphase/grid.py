"""Cell-centered mesh of a uniform 2-D grid, its inner product and gradient norm.

Cell fields have shape (ny, nx), stored row-major so the flat index of cell
(i, j) is i + nx*j.  ``inner`` is the cell-area-weighted (h^2) inner
product of two cell fields.  ``gradient_sq_norm`` is the squared norm of
the discrete gradient: the differences of neighbouring cells, one per
interior face, so no flux crosses the domain boundary (the homogeneous
Neumann condition).  The Laplacian that matches it, in the summation-by-
parts sense <c, -Lap(c)> = gradient_sq_norm(c), is the five-point stencil
the solver applies (``solver.apply_operator``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class Grid2D:
    """Uniform mesh of nx-by-ny square cells of side h, origin at (x0, y0)."""

    nx: int
    ny: int
    h: float
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.nx, int) and isinstance(self.ny, int)):
            raise ParameterError(f"cell counts must be integers, got nx={self.nx!r}, ny={self.ny!r}")
        if self.nx < 1 or self.ny < 1:
            raise ParameterError(f"need at least one cell per direction, got nx={self.nx}, ny={self.ny}")
        if not (np.isfinite(self.h) and self.h > 0):
            raise ParameterError(f"cell size h must be finite and positive, got {self.h!r}")

    @property
    def lx(self) -> float:
        return self.nx * self.h

    @property
    def ly(self) -> float:
        return self.ny * self.h

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    def cell_centers(self):
        """Coordinate arrays (X, Y), each of cell shape (ny, nx)."""
        x = self.x0 + (np.arange(self.nx) + 0.5) * self.h
        y = self.y0 + (np.arange(self.ny) + 0.5) * self.h
        return np.meshgrid(x, y)

    def cell_shape(self):
        return (self.ny, self.nx)


def _check(a: np.ndarray, shape, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ParameterError(f"{what}: expected shape {shape}, got {a.shape}")
    return a


def gradient_sq_norm(c: np.ndarray, g: Grid2D, scratch=None) -> float:
    """Squared norm of the discrete gradient of a cell field.

    h^2 times the sum of ((c_j - c_i)/h)^2 over neighbouring cell pairs,
    each direction summed as one contiguous array, then the two added.
    ``scratch``, a C-contiguous float array of at least ``g.ncells``
    elements, is clobbered; without it one is allocated.
    """
    c = _check(c, g.cell_shape(), "gradient_sq_norm")
    flat = np.empty(g.ncells) if scratch is None else scratch.reshape(-1)
    total = 0.0
    for hi, lo in ((c[:, 1:], c[:, :-1]), (c[1:, :], c[:-1, :])):
        d = flat[:hi.size].reshape(hi.shape)
        np.subtract(hi, lo, out=d)
        d /= g.h
        d *= d
        total += float(g.h * g.h * np.sum(d))
    return total


def inner(a: np.ndarray, b: np.ndarray, g: Grid2D) -> float:
    """h^2-weighted inner product of two cell fields.

    Uses numpy's pairwise summation, so results are deterministic for a
    fixed platform.
    """
    a = _check(a, g.cell_shape(), "inner")
    b = _check(b, g.cell_shape(), "inner")
    return float(g.h * g.h * np.sum(a * b))
