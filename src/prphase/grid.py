"""Cell-centered finite differences on a uniform 2-D staggered mesh.

Cell fields have shape (ny, nx), stored row-major so the flat index of cell
(i, j) is i + nx*j.  x-face fields have shape (ny, nx+1) and y-face fields
(ny+1, nx); the outermost face layers represent the domain boundary and are
kept at zero by the centered-difference operators, which encodes the no-flux
(homogeneous Neumann) condition.

Operators:

    diff_x_c, diff_y_c : cell -> face   (gradient components)
    diff_x_u, diff_y_v : face -> cell   (divergence components)

They are skew-adjoint under the mesh inner products below (a summation-by-
parts identity), so the composite discrete_laplacian is symmetric negative
semidefinite with constants as its null space.  The program itself runs
none of them: the energy takes the gradient's squared norm from
``gradient_sq_norm``, straight from differences of neighbouring cells and
bitwise equal to the face-field form, and the solver has its own stencil.

Inner products carry the cell-area weight h^2; for face fields only interior
faces contribute, matching the zero boundary layers.
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

    @property
    def area(self) -> float:
        return self.lx * self.ly

    def cell_centers(self):
        """Coordinate arrays (X, Y), each of cell shape (ny, nx)."""
        x = self.x0 + (np.arange(self.nx) + 0.5) * self.h
        y = self.y0 + (np.arange(self.ny) + 0.5) * self.h
        return np.meshgrid(x, y)

    def cell_shape(self):
        return (self.ny, self.nx)

    def xface_shape(self):
        return (self.ny, self.nx + 1)

    def yface_shape(self):
        return (self.ny + 1, self.nx)


def _check(a: np.ndarray, shape, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ParameterError(f"{what}: expected shape {shape}, got {a.shape}")
    return a


def diff_x_c(c: np.ndarray, g: Grid2D) -> np.ndarray:
    """x-derivative of a cell field, on x-faces; boundary faces stay zero."""
    c = _check(c, g.cell_shape(), "diff_x_c")
    out = np.zeros(g.xface_shape())
    out[:, 1:-1] = (c[:, 1:] - c[:, :-1]) / g.h
    return out


def diff_y_c(c: np.ndarray, g: Grid2D) -> np.ndarray:
    """y-derivative of a cell field, on y-faces; boundary faces stay zero."""
    c = _check(c, g.cell_shape(), "diff_y_c")
    out = np.zeros(g.yface_shape())
    out[1:-1, :] = (c[1:, :] - c[:-1, :]) / g.h
    return out


def gradient_sq_norm(c: np.ndarray, g: Grid2D, scratch=None) -> float:
    """||diff_x_c c||^2 + ||diff_y_c c||^2 under ``inner``, without face fields.

    Each term is h^2 times the sum of ((c_j - c_i)/h)^2 over neighbouring
    cell pairs, summed as a contiguous array just as ``inner`` sums the
    interior faces, so the bits match.  ``scratch``, a C-contiguous float
    array of at least ``g.ncells`` elements, is clobbered; without it one is
    allocated.
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


def diff_x_u(u: np.ndarray, g: Grid2D) -> np.ndarray:
    """x-derivative of an x-face field, on cells."""
    u = _check(u, g.xface_shape(), "diff_x_u")
    return (u[:, 1:] - u[:, :-1]) / g.h


def diff_y_v(v: np.ndarray, g: Grid2D) -> np.ndarray:
    """y-derivative of a y-face field, on cells."""
    v = _check(v, g.yface_shape(), "diff_y_v")
    return (v[1:, :] - v[:-1, :]) / g.h


def inner(a: np.ndarray, b: np.ndarray, g: Grid2D) -> float:
    """h^2-weighted inner product; dispatches on the (shared) field shape.

    Face fields contribute interior faces only.  Uses numpy's pairwise
    summation, so results are deterministic for a fixed platform.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ParameterError(f"inner: shape mismatch {a.shape} vs {b.shape}")
    if a.shape == g.cell_shape():
        s = np.sum(a * b)
    elif a.shape == g.xface_shape():
        s = np.sum(a[:, 1:-1] * b[:, 1:-1])
    elif a.shape == g.yface_shape():
        s = np.sum(a[1:-1, :] * b[1:-1, :])
    else:
        raise ParameterError(
            f"inner: shape {a.shape} is neither cell {g.cell_shape()}, "
            f"x-face {g.xface_shape()}, nor y-face {g.yface_shape()}"
        )
    return float(g.h * g.h * s)


def norm(a: np.ndarray, g: Grid2D) -> float:
    """Norm induced by ``inner``."""
    return float(np.sqrt(inner(a, a, g)))


def discrete_laplacian(c: np.ndarray, g: Grid2D) -> np.ndarray:
    """Five-point Neumann Laplacian, composed from the staggered operators."""
    return diff_x_u(diff_x_c(c, g), g) + diff_y_v(diff_y_c(c, g), g)
