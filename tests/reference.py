"""Per-term numpy references for the Peng-Robinson bulk model.

The package evaluates f_b, mu_b, nu and s_r in one fused kernel,
``prphase.ef._pointwise``.  These are the model's terms written out one by
one, as in the paper, for the tests to compare that kernel against and to
check the factorization's per-term inequalities on.  They take scalars or
arrays and make no domain checks: keeping 0 < c < 1/beta (and a shift
that keeps G^2 positive) is the caller's job.
"""

from typing import NamedTuple

import numpy as np

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
    RT = p.R * p.T
    ideal = c * p.vartheta0 + c * RT * np.log(c)
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
    RT = p.R * p.T
    bc = p.beta * c
    mu_ideal = p.vartheta0 + RT * (np.log(c) + 1.0)
    mu_rep = -RT * np.log1p(-bc) + RT * bc / (1.0 - bc)
    return mu_ideal + mu_rep + mu_attraction(c, p)


def pressure(c, p):
    """P(c) = c R T / (1 - beta c) - alpha c^2 / (1 + 2 beta c - (beta c)^2), in Pa."""
    c = np.asarray(c, dtype=float)
    bc = p.beta * c
    return c * p.R * p.T / (1.0 - bc) - p.alpha * c * c / (1.0 + 2.0 * bc - bc * bc)


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

        mu_ideal     = vartheta0 + R*T*ln(c_old) + R*T*c_new/c_old
        mu_repulsion = R*T*G'(c_old)*(2*G(c_old) + G'(c_old)*(c_new - c_old))
                       - lam*R*T

    Both reduce to the exact potentials when c_new == c_old.
    """
    c_old = np.asarray(c_old, dtype=float)
    c_new = np.asarray(c_new, dtype=float)
    RT = p.R * p.T
    g, gp = g_and_gprime(c_old, ef.lam, p)
    mu_ideal = p.vartheta0 + RT * np.log(c_old) + RT * c_new / c_old
    mu_rep = RT * gp * (2.0 * g + gp * (c_new - c_old)) - ef.lam * RT
    return SemiImplicitPotentials(mu_ideal=mu_ideal, mu_repulsion=mu_rep)
