"""Cell-centered mesh of a uniform 2-D grid and its gradient norm.

Cell fields have shape (ny, nx), stored row-major so the flat index of cell
(i, j) is i + nx*j.  ``gradient_sq_norm`` is the squared norm of
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


def gradient_sq_norm(c: np.ndarray, g: Grid2D, scratch=None) -> float:
    """Squared norm of the discrete gradient of a cell field.

    h^2 times the sum of ((c_j - c_i)/h)^2 over neighbouring cell pairs,
    that is the sum of (c_j - c_i)^2.  Each direction is one flat run of
    differences, summed by ``einsum``; in the x-run the pairs that wrap from
    a row's end to the next row's start are zeroed.  ``scratch``, a
    C-contiguous float array of at least ``g.ncells`` elements, is
    clobbered; without it one is allocated.
    """
    c = np.ascontiguousarray(c, dtype=float)
    if c.shape != g.cell_shape():
        raise ParameterError(f"gradient_sq_norm: expected shape {g.cell_shape()}, got {c.shape}")
    flat = c.ravel()
    d = (np.empty(g.ncells) if scratch is None else scratch.reshape(-1))[:flat.size - 1]
    np.subtract(flat[1:], flat[:-1], out=d)
    d[g.nx - 1::g.nx] = 0.0
    total = float(np.einsum("i,i->", d, d))
    d = d[:flat.size - g.nx]
    np.subtract(flat[g.nx:], flat[:-g.nx], out=d)
    return total + float(np.einsum("i,i->", d, d))
