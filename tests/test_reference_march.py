"""``run`` step by step against a dense reference march.

A reference step takes nu and s_r at the old state from ``reference.py``'s
formulas, assembles A = I/tau_eff - kappa*Lap_h + diag(nu) from the Neumann
five-point Laplacian written out cell by cell, and solves the (n+1) x (n+1)
system of A, the multiplier and the mass constraint with
``numpy.linalg.solve``.  It shares no code with ``prphase.solver``, so a
fault in how the march joins its pieces (layout, start, mass step) shows
here even when the march's invariants hold.

Each reference step starts from the state ``run`` reached, so the bound is
that of one solve.  ``run`` stops conjugate gradients at ||r|| <= tol*||b||,
b = c/tau_eff + s_r, with the mass exact.  The error e of the new state then
has <e, 1> = 0 and A e = dmu*1 - r, so ||e|| <= ||r||/lambda_min(A) and
|dmu| <= (lambda_max/lambda_min)*||r||/sqrt(n), with lambda_min >=
1/tau_eff + min(nu) and lambda_max <= 1/tau_eff + max(nu) + 8*kappa/h^2.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prphase import Grid2D, SolverConfig, run

from conftest import C_GAS, C_LIQ
from reference import bulk_free_energy, neumann_laplacian, scheme_coefficients

#: The solver tolerance the march runs at, so that the bound is tight.
TOL = 1e-13
#: Round-off of the dense solve and of the march's own sums, as a fraction
#: of the largest density or multiplier.
ROUNDOFF = 1e-14


def reference_step(c, lam, p, tau_eff, lap):
    """(new state, mu_e, ||b||, lambda_min bound, lambda_max bound) of one step from ``c``."""
    n = c.size
    nu, s_r = scheme_coefficients(c.ravel(), lam, p)
    b = c.ravel() / tau_eff + s_r
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = np.diag(1.0 / tau_eff + nu) - p.kappa * lap
    kkt[:n, n] = -1.0
    kkt[n, :n] = 1.0
    sol = np.linalg.solve(kkt, np.append(b, np.sum(c)))
    lam_lo = 1.0 / tau_eff + float(np.min(nu))
    lam_hi = 1.0 / tau_eff + float(np.max(nu)) - 8.0 * p.kappa * float(np.min(np.diag(lap)) / 4.0)
    return sol[:n].reshape(c.shape), float(sol[n]), float(np.linalg.norm(b)), lam_lo, lam_hi


def reference_energy(c, p, h):
    """(F_h, its scale): h^2*sum f_b + (kappa/2)*sum over faces of the squared difference."""
    f_b = bulk_free_energy(c, p).total
    faces = float(np.sum(np.diff(c, axis=0) ** 2) + np.sum(np.diff(c, axis=1) ** 2))
    gradient = 0.5 * p.kappa * faces
    bulk = h * h * float(np.sum(f_b))
    return bulk + gradient, h * h * float(np.sum(np.abs(f_b))) + gradient


@st.composite
def marches(draw):
    """A small grid, a step size and an off-centre square or disk droplet."""
    nx = draw(st.integers(1, 9), label="nx")
    ny = draw(st.integers(1, 9), label="ny")
    g = Grid2D(nx=nx, ny=ny, h=3.0e-10)
    tau = 10.0 ** draw(st.floats(-2.0, 10.0), label="log10 tau")
    i, j = np.indices(g.cell_shape())
    ci = draw(st.floats(0.0, ny), label="centre row")
    cj = draw(st.floats(0.0, nx), label="centre column")
    size = draw(st.floats(0.5, 0.5 * max(nx, ny)), label="half size")
    if draw(st.booleans(), label="disk"):
        liquid = (i + 0.5 - ci) ** 2 + (j + 0.5 - cj) ** 2 <= size * size
    else:
        liquid = (np.abs(i + 0.5 - ci) <= size) & (np.abs(j + 0.5 - cj) <= size)
    c0 = np.where(liquid, C_LIQ, C_GAS)
    return g, tau, c0, draw(st.integers(3, 6), label="steps")


def march_errors(g, tau, c0, n_steps, window, nc4):
    """The largest ratio, over the steps, of each of run's errors against the
    reference to its bound: state, multiplier, energy."""
    states, reports = [], []

    def keep(c, report):
        states.append(c.copy())
        reports.append(report)

    cfg = SolverConfig(tau=tau, cg_rel_tol=TOL)
    with warnings.catch_warnings():
        # a droplet on a few cells may leave the window: that is not this check's
        warnings.filterwarnings("ignore", "step .* leaves the density window")
        run(c0, n_steps, window, nc4, cfg, g, observer=keep)
    lap = neumann_laplacian(g)
    worst = {"state": 0.0, "mu_e": 0.0, "energy": 0.0}
    for n, (c, report) in enumerate(zip(states, reports)):
        energy, scale = reference_energy(c, nc4, g.h)
        worst["energy"] = max(worst["energy"], abs(report.energy - energy) / (1e-14 * scale))
        if not n:
            continue
        x, mu, b_norm, lam_lo, lam_hi = reference_step(states[n - 1], window.lam, nc4,
                                                        cfg.tau_eff(), lap)
        r_norm = TOL * b_norm
        state_bound = r_norm / lam_lo + ROUNDOFF * float(np.max(np.abs(x)))
        mu_bound = lam_hi / lam_lo * r_norm / math.sqrt(g.ncells) + ROUNDOFF * abs(mu)
        worst["state"] = max(worst["state"], float(np.max(np.abs(c - x))) / state_bound)
        worst["mu_e"] = max(worst["mu_e"], abs(report.mu_e - mu) / mu_bound)
    return worst


@settings(max_examples=60, deadline=None)
@given(case=marches())
def test_run_follows_the_dense_reference_march(nc4, window, case):
    g, tau, c0, n_steps = case
    worst = march_errors(g, tau, c0, n_steps, window, nc4)
    assert max(worst.values()) <= 1.0, worst
