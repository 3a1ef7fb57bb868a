import os
from pathlib import Path

import numpy as np
import pytest

import prphase
from prphase import (
    EfParams,
    Grid2D,
    SchemeCoefficients,
    SolverConfig,
    derive_eos_params,
    get_substance,
)
from prphase.ef import _pointwise
from prphase.solver import _BlackSystem, _fold_diagonal, solve_work_size

C_GAS = 249.1123
C_LIQ = 9526.8428


@pytest.fixture(scope="session")
def nc4():
    return derive_eos_params(get_substance("nC4"), 330.0)


@pytest.fixture(scope="session")
def window(nc4):
    return EfParams.for_window(0.9 * C_GAS, 1.1 * C_LIQ, nc4)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def unit_grid():
    # O(1) spacing keeps round-off comparisons meaningful in operator tests
    return Grid2D(nx=12, ny=9, h=0.5, x0=-1.0, y0=2.0)


def inner(a, b, g):
    """h^2-weighted inner product of two cell fields, by numpy's pairwise sum."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for field in (a, b):
        g.check_cells(field, "inner")
    return float(g.h * g.h * np.sum(a * b))


def nu_s_r(c, ef, p):
    """nu(c) and s_r(c) under the window's shift, by the scheme's pointwise kernel."""
    _, nu, s_r, _ = _pointwise(c, p, ef.lam, "nu_s_r")
    return nu, s_r


def kernel_bulk_bound(c_old, c_new, ef, p):
    """Both sides of the bulk dissipation bound on ``_pointwise``'s own output.

    Returns (lhs, rhs, scale): lhs = f_b(c_new) - f_b(c_old) with f_b =
    c*(f_b/c), rhs = (nu(c_old)*c_new - s_r(c_old))*(c_new - c_old), the
    increment the scheme's bulk potential allows, and the magnitude
    |f_b(c_new)| + |f_b(c_old)| + |rhs| that a relative slack scales by.
    """
    f_old, nu_old, sr_old, _ = _pointwise(c_old, p, ef.lam, "c_old")
    f_old = c_old * f_old
    f_new = c_new * _pointwise(c_new, p, ef.lam, "c_new")[0]
    rhs = (nu_old * c_new - sr_old) * (c_new - c_old)
    return f_new - f_old, rhs, np.abs(f_new) + np.abs(f_old) + np.abs(rhs)


def neighbour_sum(p, out):
    """Sum of the (up to four) in-domain neighbours of each cell, into ``out``.

    ``out`` must be C-contiguous.  The x-neighbours are summed along the
    flattened rows, one long shifted run; the row ends, where that run
    wraps into the adjacent row, are then overwritten with their one
    in-row neighbour.
    """
    if p.shape[1] == 1:
        out.fill(0.0)
    else:
        flat = p.ravel()
        np.add(flat[2:], flat[:-2], out=out.ravel()[1:-1])
        out[:, 0] = p[:, 1]
        out[:, -1] = p[:, -2]
    out[:-1, :] += p[1:, :]
    out[1:, :] += p[:-1, :]
    return out


def stencil(p, e, k):
    """(A p)/s = e*p - (sum of neighbours of p), the whole five-point stencil.

    e is A's diagonal over s and k = kappa/h^2 (``solver._fold_diagonal``);
    when k is 0 no neighbour couples.  The solve applies it in red and black
    halves; ``test_solver.TestHalfStencils`` holds those to this.
    """
    p = np.ascontiguousarray(p, dtype=float)
    out = e * p
    if k:
        out -= neighbour_sum(p, np.empty(p.shape))
    return out


def apply_operator(c, coeffs, cfg, kappa, g):
    """A c = c/tau_eff - kappa*Lap(c) + nu*c, by the solve's diagonal
    (``solver._fold_diagonal``) and the five-point ``stencil``."""
    k = kappa / (g.h * g.h)
    e = np.array(coeffs.nu, dtype=float)
    s = _fold_diagonal(e, k, cfg.tau_eff())
    return s * stencil(c, e, k)


def solve_step(rhs, coeffs, cfg, kappa, g, x0, basis=()):
    """One step's solve (``solver._BlackSystem.solve``) in a fresh system on a
    fresh work buffer, started from ``x0`` moved by the fields of ``basis``.
    Returns (x, mu_e, iterations, residual); x is ``x0``, and ``coeffs.nu``
    is consumed."""
    system = _BlackSystem(g, kappa, cfg, np.empty(solve_work_size(g)))
    return system.solve(rhs, coeffs.nu, x0, basis, len(basis), float(x0.sum()))


def minus_laplacian(c, g):
    """-Lap_h(c) through the operator the solver runs: A c at kappa = 1 less
    A c at kappa = 0, with nu = 0 and tau = 1."""
    zero = np.zeros(g.cell_shape())
    coeffs, cfg = SchemeCoefficients(nu=zero, s_r=zero), SolverConfig(tau=1.0)
    return apply_operator(c, coeffs, cfg, 1.0, g) - apply_operator(c, coeffs, cfg, 0.0, g)


def prepend_path(env, key, directory):
    env[key] = os.pathsep.join([str(directory)] + ([env[key]] if env.get(key) else []))


def child_env():
    """Environment in which a child process imports the same `prphase`
    package as this test process, however pytest was launched."""
    env = dict(os.environ)
    prepend_path(env, "PYTHONPATH", Path(prphase.__file__).resolve().parents[1])
    return env


def old_txt_bytes(c, g, step, time):
    """What the per-value txt writer wrote: the header, then one value a line."""
    head = (f"# N {g.nx}\n# M {g.ny}\n# h {g.h!r}\n# x0 {g.x0!r}\n# y0 {g.y0!r}\n"
            f"# step {step}\n# time {float(time)!r}\n")
    return (head + "".join(f"{float(v)!r}\n"
                           for v in np.asarray(c, dtype=float).ravel(order="C"))).encode()


def old_csv_bytes(c):
    """What the per-value csv writer wrote: one row of reprs a line."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n"
                   for row in np.asarray(c, dtype=float)).encode()
