"""Per-term numpy references for the Peng-Robinson bulk model.

The package evaluates f_b, mu_b, nu and s_r in one fused kernel,
``prphase.ef._pointwise``.  These are the model's terms written out one by
one, as in the paper, for the tests to compare that kernel against and to
check the factorization's per-term inequalities on.  They take scalars or
arrays and make no domain checks: keeping 0 < c < 1/beta (and a shift
that keeps G^2 positive) is the caller's job.  ``gradient_sq_norm`` is the
gradient energy's face sum on a cell field, which the package takes on
the march's red and black halves, ``neumann_laplacian`` the matching
five-point Laplacian as a dense matrix, and ``shape_anisotropy`` the
droplet shape metric on full coordinate grids, which the package sums from
the region's row and column counts.
"""

from typing import NamedTuple

import numpy as np

from prphase.eos import R_DEFAULT
from prphase.grid import Grid2D

SQRT2 = np.sqrt(2.0)


def _attraction_log(c, p):
    """ln[(1 + (1 - sqrt2)*beta*c) / (1 + (1 + sqrt2)*beta*c)]."""
    bc = p.beta * c
    return np.log((1.0 + (1.0 - SQRT2) * bc) / (1.0 + (1.0 + SQRT2) * bc))


class FreeEnergyBreakdown(NamedTuple):
    """Bulk free-energy density split by mechanism (each in J/m^3)."""

    ideal: np.ndarray
    repulsion: np.ndarray
    attraction: np.ndarray
    total: np.ndarray


def bulk_free_energy(c, p):
    """f_b(c) and its ideal, repulsion and attraction parts."""
    c = np.asarray(c, dtype=float)
    RT = R_DEFAULT * p.T
    ideal = c * RT * np.log(c)
    repulsion = -c * RT * np.log1p(-p.beta * c)
    attraction = p.alpha * c / (2.0 * SQRT2 * p.beta) * _attraction_log(c, p)
    return FreeEnergyBreakdown(ideal=ideal, repulsion=repulsion, attraction=attraction,
                               total=ideal + repulsion + attraction)


def mu_attraction(c, p):
    """d f_attraction / d c, in J/mol."""
    c = np.asarray(c, dtype=float)
    bc = p.beta * c
    return (p.alpha / (2.0 * SQRT2 * p.beta) * _attraction_log(c, p)
            - p.alpha * c / (1.0 + 2.0 * bc - bc * bc))


def bulk_chemical_potential(c, p):
    """mu_b(c) = d f_b / d c, in J/mol."""
    c = np.asarray(c, dtype=float)
    RT = R_DEFAULT * p.T
    bc = p.beta * c
    mu_ideal = RT * (np.log(c) + 1.0)
    mu_rep = -RT * np.log1p(-bc) + RT * bc / (1.0 - bc)
    return mu_ideal + mu_rep + mu_attraction(c, p)


def pressure(c, p):
    """P(c) = c R T / (1 - beta c) - alpha c^2 / (1 + 2 beta c - (beta c)^2), in Pa."""
    c = np.asarray(c, dtype=float)
    bc = p.beta * c
    return c * R_DEFAULT * p.T / (1.0 - bc) - p.alpha * c * c / (1.0 + 2.0 * bc - bc * bc)


def g_and_gprime(c, lam, p):
    """G(c) = sqrt(lam*c - c*ln(1 - beta*c)) and G'(c), the derivative of G^2
    over 2*G: (lam - ln(1 - beta*c) + beta*c/(1 - beta*c)) / (2*G)."""
    c = np.asarray(c, dtype=float)
    bc = p.beta * c
    g = np.sqrt(lam * c - c * np.log1p(-bc))
    gp = (lam - np.log1p(-bc) + bc / (1.0 - bc)) / (2.0 * g)
    return g, gp


class SemiImplicitPotentials(NamedTuple):
    """Convex-part chemical potentials of the linearized update."""

    mu_ideal: np.ndarray
    mu_repulsion: np.ndarray


def semi_implicit_potentials(c_old, c_new, ef, p):
    """Linearized ideal and repulsion potentials of one time step:

        mu_ideal     = R*T*ln(c_old) + R*T*c_new/c_old
        mu_repulsion = R*T*G'(c_old)*(2*G(c_old) + G'(c_old)*(c_new - c_old))
                       - lam*R*T

    Both reduce to the exact potentials when c_new == c_old.
    """
    c_old = np.asarray(c_old, dtype=float)
    c_new = np.asarray(c_new, dtype=float)
    RT = R_DEFAULT * p.T
    g, gp = g_and_gprime(c_old, ef.lam, p)
    mu_ideal = RT * np.log(c_old) + RT * c_new / c_old
    mu_rep = RT * gp * (2.0 * g + gp * (c_new - c_old)) - ef.lam * RT
    return SemiImplicitPotentials(mu_ideal=mu_ideal, mu_repulsion=mu_rep)


def scheme_coefficients(c, lam, p):
    """The scheme's frozen coefficients as the paper writes them:

        nu(c)  = R*T*(1/c + G'(c)^2)
        s_r(c) = -R*T*ln(c) + R*T*(G'(c)^2*c - 2*G(c)*G'(c) + lam) - mu_a(c)
    """
    c = np.asarray(c, dtype=float)
    RT = R_DEFAULT * p.T
    g, gp = g_and_gprime(c, lam, p)
    nu = RT * (1.0 / c + gp * gp)
    s_r = (-RT * np.log(c) + RT * (gp * gp * c - 2.0 * g * gp + lam)
           - mu_attraction(c, p))
    return nu, s_r


def gradient_sq_norm(c, g: Grid2D, scratch=None) -> float:
    """Squared norm of the discrete gradient of a cell field.

    h^2 times the sum of ((c_j - c_i)/h)^2 over neighbouring cell pairs,
    that is the sum of (c_j - c_i)^2.  Each direction is one flat run of
    differences, summed by ``einsum``; in the x-run the pairs that wrap from
    a row's end to the next row's start are zeroed.  ``scratch``, a
    C-contiguous float array of at least ``g.ncells`` elements, is
    clobbered; without it one is allocated.
    """
    c = np.ascontiguousarray(c, dtype=float)
    g.check_cells(c, "gradient_sq_norm")
    flat = c.ravel()
    d = (np.empty(g.ncells) if scratch is None else scratch.reshape(-1))[:flat.size - 1]
    np.subtract(flat[1:], flat[:-1], out=d)
    d[g.nx - 1::g.nx] = 0.0
    total = float(np.einsum("i,i->", d, d))
    d = d[:flat.size - g.nx]
    np.subtract(flat[g.nx:], flat[:-g.nx], out=d)
    return total + float(np.einsum("i,i->", d, d))


def neumann_laplacian(g: Grid2D) -> np.ndarray:
    """Lap_h of the Neumann five-point stencil as a dense matrix over the
    flat cell order: each in-domain neighbour less the cell, over h^2,
    written out cell by cell."""
    n = g.ncells
    lap = np.zeros((n, n))
    for i in range(g.ny):
        for j in range(g.nx):
            k = i * g.nx + j
            for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= ii < g.ny and 0 <= jj < g.nx:
                    lap[k, k] -= 1.0
                    lap[k, ii * g.nx + jj] += 1.0
    lap *= 1.0 / (g.h * g.h)
    return lap


def shape_anisotropy(c, g: Grid2D, threshold: float) -> float:
    """The droplet shape metric on full coordinate grids: the moment
    imbalance |Ixx - Iyy|/(Ixx + Iyy) of the region {c > threshold} plus
    |mean of cos 4*theta| over its cells, theta from ``arctan2`` about the
    centroid (0 at the centroid itself).  The region must be nonempty."""
    X, Y = np.broadcast_arrays(*g.cell_centers())
    mask = np.asarray(c, dtype=float) > threshold
    xs = X[mask]
    ys = Y[mask]
    xbar = float(xs.mean())
    ybar = float(ys.mean())
    ixx = float(np.sum((xs - xbar) ** 2))
    iyy = float(np.sum((ys - ybar) ** 2))
    moment_term = abs(ixx - iyy) / (ixx + iyy) if (ixx + iyy) > 0 else 0.0
    theta = np.arctan2(ys - ybar, xs - xbar)
    return moment_term + abs(float(np.mean(np.cos(4.0 * theta))))
