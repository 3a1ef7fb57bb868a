import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import prphase
from prphase import (
    EfParams,
    Grid2D,
    SolverConfig,
    derive_eos_params,
    get_substance,
    scheme_coefficients,
)
from prphase.ef import _pointwise
from prphase.grid import BLACK, RED, _Checkerboard
from prphase.solver import _BlackSystem

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


def cell_coefficients(c, ef, p, g):
    """``ef.scheme_coefficients`` on the cell field ``c``: the field is split
    into the march's red and black halves, the pass runs there in fresh
    pairs, and nu and s_r are joined back into cell fields."""
    c = np.asarray(c, dtype=float)
    g.check_cells(c, "cell_coefficients")
    board = _Checkerboard(g)
    pairs = np.zeros((6, 2, board.size))
    coeffs = scheme_coefficients(board.split(c, pairs[0]), ef, p, g, fields=list(pairs[1:]),
                                 board=board)
    return replace(coeffs, nu=board.join(coeffs.nu, np.empty(c.shape)),
                   s_r=board.join(coeffs.s_r, np.empty(c.shape)))


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


def stencil(p, e):
    """(A p)/s = e*p - (sum of neighbours of p), the whole five-point stencil,
    with e A's diagonal over s = kappa/h^2.  The solve applies it in red and
    black halves; ``test_solver.TestHalfStencils`` holds those to this.
    """
    p = np.ascontiguousarray(p, dtype=float)
    return e * p - neighbour_sum(p, np.empty(p.shape))


def black_halves(board, fields):
    """The black halves of the cell ``fields``, in ``board``'s layout."""
    halves = np.zeros((len(fields), board.size))
    for field, half in zip(fields, halves):
        half[:] = board.split(np.asarray(field, dtype=float), np.zeros((2, board.size)))[BLACK]
    return halves


def loaded_system(g, kappa, cfg, nu, x0):
    """A fresh reduced system on ``g`` with the cell fields ``nu`` and ``x0``
    split into its pairs for them."""
    system = _BlackSystem(g, kappa, cfg)
    system.board.split(np.asarray(nu, dtype=float), system.nu)
    system.board.split(np.asarray(x0, dtype=float), system.state)
    return system


def apply_operator(c, nu, cfg, kappa, g):
    """A c = c/tau - kappa*Lap(c) + nu*c through the solve's own halves:
    its diagonal (``_BlackSystem.fold_diagonal``) and its half-stencils."""
    system = loaded_system(g, kappa, cfg, nu, c)
    s = system.s
    system.fold_diagonal()
    e = system.nu
    system.neighbours(system.X, system.Z, RED, system.P)
    system.neighbours(system.T, system.W, BLACK, system.P)
    out = e * system.state - system.rows[system.Z:system.W + 1]
    return s * system.board.join(out, np.empty(g.cell_shape()))


def solve_step(rhs, nu, cfg, kappa, g, x0, basis=()):
    """One step's solve (``solver._BlackSystem.solve``) in a fresh system on
    ``g``, started from the cell field ``x0`` moved by the cell fields of
    ``basis``.  The fields are split into the system's halves, and x is
    joined back into ``x0``, also when the solve raises.  Returns (x, mu_e,
    iterations, residual); x is ``x0``."""
    system = loaded_system(g, kappa, cfg, nu, x0)
    board = system.board
    pair = board.split(np.asarray(rhs, dtype=float), np.zeros((2, board.size)))
    try:
        mu_e, iters, res = system.solve(pair, black_halves(board, basis), len(basis),
                                        float(system.state.sum()))
    finally:
        board.join(system.state, x0)
    return x0, mu_e, iters, res


def minus_laplacian(c, g):
    """-Lap_h(c) through the operator the solver runs: A c at kappa = 1,
    nu = 0 and tau = 1, less c."""
    return apply_operator(c, np.zeros(g.cell_shape()), SolverConfig(tau=1.0), 1.0, g) - c


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
