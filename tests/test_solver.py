import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest

from prphase import (
    BoundsViolationError,
    ConvergenceError,
    Grid2D,
    ParameterError,
    SolverConfig,
    run,
    scheme_coefficients,
)
from prphase import solver as solver_module
from prphase.config import load_config
from prphase.ef import EfParams, require_in_window
from prphase.grid import BLACK, RED, _Checkerboard
from prphase.solver import _HALVES, START_DIRECTIONS, _BlackSystem

from conftest import (C_GAS, C_LIQ, apply_operator, black_halves, cell_coefficients, child_env,
                      inner, loaded_system, solve_step, stencil)
from reference import bulk_chemical_potential, neumann_laplacian


@pytest.fixture
def toy():
    """Small synthetic SPD system: O(1) coefficients, visible kappa term."""
    g = Grid2D(nx=8, ny=6, h=0.5)
    r = np.random.default_rng(7)
    nu = r.uniform(1.0, 2.0, size=g.cell_shape())
    cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-12)
    return g, nu, cfg, 0.2, r


def dense_operator(g, nu, cfg, kappa):
    """A = I/tau - kappa*Lap_h + diag(nu) as a dense matrix, from the
    Laplacian written out cell by cell."""
    mat = neumann_laplacian(g)
    mat *= -kappa
    mat[np.diag_indices(g.ncells)] += 1.0 / cfg.tau + nu.ravel()
    return mat


def dense_kkt_solve(g, nu, cfg, kappa, rhs, mass):
    """(x, mu_e) of A x - mu_e*1 = rhs, h^2 <x, 1> = mass, by a dense solve."""
    n = g.ncells
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = dense_operator(g, nu, cfg, kappa)
    kkt[:n, n] = -1.0
    kkt[n, :n] = g.h * g.h
    sol = np.linalg.solve(kkt, np.append(rhs.ravel(), mass))
    return sol[:n].reshape(g.cell_shape()), sol[n]


def mass(c, g):
    return inner(c, np.ones(g.cell_shape()), g)


def norm(a, g):
    return float(np.sqrt(inner(a, a, g)))


def red_cells(g):
    """Mask of the red cells, i + j even, in the flat cell order."""
    i, j = np.indices(g.cell_shape())
    return ((i + j) % 2 == 0).ravel()


def galerkin_start(g, nu, cfg, kappa, rhs, c_n, basis):
    """The point a solve from ``c_n`` starts its iteration at: the black cells
    moved by the Galerkin start, the reds eliminated at c_n's mass."""
    system = loaded_system(g, kappa, cfg, nu, c_n)
    board = system.board
    pair = board.split(rhs, np.zeros((2, board.size)))
    mass = float(system.state.sum())
    system.load(pair)
    system.reduce()
    system.galerkin_start(black_halves(board, basis), len(basis))
    system.lift(pair, mass)
    return board.join(system.state, np.empty(g.cell_shape()))


def staggered_laplacian(c, g):
    """Lap_h c composed from face fields: differences onto faces, whose
    boundary layers stay zero (no flux), then back to cells."""
    u = np.zeros((g.ny, g.nx + 1))
    u[:, 1:-1] = (c[:, 1:] - c[:, :-1]) / g.h
    v = np.zeros((g.ny + 1, g.nx))
    v[1:-1, :] = (c[1:, :] - c[:-1, :]) / g.h
    return (u[:, 1:] - u[:, :-1]) / g.h + (v[1:, :] - v[:-1, :]) / g.h


class TestOperator:
    def test_symmetry(self, toy):
        g, nu, cfg, kappa, r = toy
        c1 = r.standard_normal(g.cell_shape())
        c2 = r.standard_normal(g.cell_shape())
        a = inner(apply_operator(c1, nu, cfg, kappa, g), c2, g)
        b = inner(c1, apply_operator(c2, nu, cfg, kappa, g), g)
        assert a == pytest.approx(b, rel=1e-13)

    def test_positive_definite_lower_bound(self, toy):
        g, nu, cfg, kappa, r = toy
        lower = 1.0 / cfg.tau + float(np.min(nu))
        for _ in range(20):
            c = r.standard_normal(g.cell_shape())
            quad = inner(apply_operator(c, nu, cfg, kappa, g), c, g)
            assert quad >= lower * inner(c, c, g) * (1 - 1e-12)

    def test_diagonal_matches_dense_matrix(self, toy):
        # the diagonal a solve builds in nu's pair, 1/tau + nu + kappa/h^2
        # per in-domain neighbour, on strips too, where a boundary cell lacks
        # neighbours on both sides
        _, _, cfg, kappa, r = toy
        for ny, nx in ((6, 8), (5, 7), (1, 1), (1, 5), (5, 1), (2, 2)):
            g = Grid2D(nx=nx, ny=ny, h=0.5)
            nu = r.uniform(1.0, 2.0, size=g.cell_shape())
            system = loaded_system(g, kappa, cfg, nu, r.uniform(1.0, 2.0, size=g.cell_shape()))
            system.load(np.zeros((2, system.board.size)))
            # held over kappa/h^2, the scale the stencil is applied at
            e = system.s * system.board.join(system.nu, np.empty(g.cell_shape()))
            ones = np.pad(np.ones(g.cell_shape()), 1)
            count = ones[:-2, 1:-1] + ones[2:, 1:-1] + ones[1:-1, :-2] + ones[1:-1, 2:]
            want = 1.0 / cfg.tau + nu + kappa / (g.h * g.h) * count
            assert np.max(np.abs(e - want) / want) <= 1e-15

    @pytest.mark.parametrize("ny,nx", [(1, 1), (1, 5), (5, 1), (2, 2), (6, 8), (5, 7), (37, 13)])
    def test_diagonal_is_that_of_a_stored_fixed_pair(self, ny, nx):
        # The diagonal as it was built from a stored pair, A's diagonal over
        # s less nu/s: 4 + 1/(tau*s) over both spans, less 1 per edge
        # that a cell lies on, added to nu/s.  fold_diagonal keeps no pair,
        # and must give the same bits, in every entry of nu's pair.
        g = Grid2D(nx=nx, ny=ny, h=0.5)
        cfg, kappa = SolverConfig(tau=0.7), 0.2
        system = _BlackSystem(g, kappa, cfg)
        board, s = system.board, system.s
        fixed = np.zeros((2, board.size))
        fixed[:, board.span] = 4.0 + 1.0 / (cfg.tau * s)
        for colour in (RED, BLACK):
            for edge in ({"i": 0}, {"i": g.ny - 1}, {"j": 0}, {"j": g.nx - 1}):
                fixed[colour, board.line(colour, **edge)] -= 1.0
        nu = np.random.default_rng(11).uniform(1.0, 2.0, size=(2, board.size))
        want = nu * (1.0 / s) + fixed
        system.nu[...] = nu
        system.fold_diagonal()
        assert np.array_equal(system.nu.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("ny,nx", [(1, 1), (1, 5), (5, 1), (37, 13)])
    def test_fused_stencil_matches_staggered_operators(self, ny, nx):
        g = Grid2D(nx=nx, ny=ny, h=0.5)
        r = np.random.default_rng(3)
        nu = r.uniform(1.0, 2.0, size=(ny, nx))
        cfg, kappa = SolverConfig(tau=0.7), 0.2
        for _ in range(2):
            c = r.standard_normal((ny, nx))
            got = apply_operator(c, nu, cfg, kappa, g)
            ref = c / cfg.tau - kappa * staggered_laplacian(c, g) + nu * c
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestHalfStencils:
    """The red and black halves the solve works in (``solver._Checkerboard``)."""

    @staticmethod
    def halves(g):
        """A solve's reduced system on ``g``, its work zeroed: the system, its
        layout and its rows."""
        # kappa = h^2, so the stencil's neighbour weight is 1
        system = _BlackSystem(g, g.h * g.h, SolverConfig(tau=1.0))
        return system, system.board, system.rows

    @staticmethod
    def put(board, full, half, colour):
        for cells, view in board.views(half, colour):
            view[...] = full[cells]

    @staticmethod
    def take(board, half, colour, full):
        for cells, view in board.views(half, colour):
            full[cells] = view

    @pytest.mark.parametrize("ny,nx", [(1, 1), (1, 5), (5, 1), (6, 8), (5, 7), (37, 13)])
    def test_half_stencils_build_the_whole_stencil(self, ny, nx):
        g = Grid2D(nx=nx, ny=ny, h=0.5)
        r = np.random.default_rng(5)
        e = r.uniform(4.0, 6.0, size=(ny, nx))
        for _ in range(2):
            p = r.standard_normal((ny, nx))
            ref = stencil(p, e)
            for pairs_first in (True, False):
                got = np.full((ny, nx), np.nan)
                for colour, other in ((RED, BLACK), (BLACK, RED)):
                    system, board, rows = self.halves(g)
                    # p's own cells, the other colour's, e's own and a mask of the cells
                    for i, (full, c) in enumerate(((p, colour), (p, other), (e, colour),
                                                   (np.ones((ny, nx)), colour))):
                        self.put(board, full, rows[i], c)
                    rows[5].fill(np.nan)  # scratch: the sum must not read it
                    if pairs_first:
                        system.neighbours(1, 4, colour, 5)
                    else:
                        board.neighbours(rows[1], rows[4], colour)
                    system.zero_pads(4, colour)
                    assert np.all(rows[4][rows[3] == 0] == 0.0)  # nothing off the cells
                    np.subtract(rows[2] * rows[0], rows[4], out=rows[6])
                    self.take(board, rows[6], colour, got)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ny,nx", [(1, 1), (2, 1), (4, 6), (5, 7)])
    def test_split_of_c0_and_join_keep_every_cell(self, ny, nx, monkeypatch, nc4, window):
        # run splits c0 into the state's pair once, writing its cells only,
        # and joins the pair back into one cell field after a step
        g = Grid2D(nx=nx, ny=ny, h=0.5)
        system, board, rows = self.halves(g)
        p = np.random.default_rng(1).uniform(1.0, 2.0, (ny, nx))
        board.split(p, system.state)
        for colour in (RED, BLACK):
            for cells, view in board.views(system.state[colour], colour):
                assert np.array_equal(view, p[cells])
        assert np.count_nonzero(system.state) == p.size  # pads and ends stay zero
        assert np.array_equal(board.join(system.state, np.full((ny, nx), np.nan)), p)
        # through run: the field the observer sees after a step is the join of
        # the state the step's solve left
        states = []

        class Kept(solver_module._BlackSystem):
            def solve(self, *args):
                out = super().solve(*args)
                states.append(self.board.join(self.state, np.empty(g.cell_shape())))
                return out

        monkeypatch.setattr(solver_module, "_BlackSystem", Kept)
        seen = []
        c0 = np.where(p > 1.5, C_LIQ, C_GAS)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "step .* leaves the density window")
            c, _ = run(c0, 2, window, nc4, SolverConfig(tau=1e10), g,
                       observer=lambda c, rep: seen.append(c.copy()))
        assert np.array_equal(seen[0], c0)
        assert all(np.array_equal(a, b) for a, b in zip(seen[1:], states))
        assert np.array_equal(c, states[-1])

    @pytest.mark.parametrize("ny,nx", [(1, 1), (1, 5), (5, 1), (2, 2), (6, 8), (5, 7), (37, 13),
                                       (100, 100)])
    def test_march_halves_on_cache_lines(self, ny, nx, monkeypatch, nc4, window):
        # every half the march allocates starts on a 64-byte line, and so do
        # its span and each pair's run; the ends stay zero through a march
        g = Grid2D(nx=nx, ny=ny, h=0.5)
        board = _Checkerboard(g)
        assert board.size % 8 == 0 and board.span.start % 8 == 0
        p = np.random.default_rng(2).uniform(1.0, 2.0, (ny, nx))
        pair = board.split(p, board.zeros(2))
        assert np.count_nonzero(pair) == p.size
        assert np.array_equal(board.join(pair, np.full((ny, nx), np.nan)), p)

        allocated = []
        zeros = _Checkerboard.zeros

        def kept(self, *lead):
            allocated.append(zeros(self, *lead))
            return allocated[-1]

        monkeypatch.setattr(_Checkerboard, "zeros", kept)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "step .* leaves the density window")
            run(np.where(p > 1.5, C_LIQ, C_GAS), 2, window, nc4, SolverConfig(tau=1e10), g)
        assert len(allocated) == 4  # the solve's rows, s_r, the differences, the last state
        for halves in allocated:
            rows = halves.reshape(-1, board.size)
            views = [*rows, *(row[board.span] for row in rows),
                     *(halves.reshape(-1)[k * board.size:][board.run] for k in range(len(rows) - 1))]
            assert all(view.__array_interface__["data"][0] % 64 == 0 for view in views)
            assert not np.any(rows[:, :board.span.start]) and not np.any(rows[:, board.span.stop:])


class TestSolveSpd:
    """The solve of A x = rhs + mu_e*1 at the mass of the warm start."""

    def test_manufactured_solution(self, toy):
        g, nu, cfg, kappa, r = toy
        x_true = r.standard_normal(g.cell_shape())
        mu_true = 0.37
        rhs = apply_operator(x_true, nu, cfg, kappa, g) - mu_true
        x0 = np.full(g.cell_shape(), np.mean(x_true))
        x, mu_e, iters, res = solve_step(rhs, nu, cfg, kappa, g, x0=x0)
        assert res <= cfg.cg_rel_tol
        assert iters > 0
        assert norm(x - x_true, g) <= 1e-8 * norm(x_true, g)
        assert abs(mu_e - mu_true) <= 1e-8 * abs(mu_true)

    def test_matches_dense_solve(self, toy):
        g8, nu8, cfg8, kappa, r = toy
        g3 = Grid2D(nx=3, ny=3, h=0.5)
        nu3 = r.uniform(1.0, 2.0, size=(3, 3))
        cfg3 = SolverConfig(tau=0.7, cg_rel_tol=1e-13)
        for g, nu, cfg in ((g3, nu3, cfg3), (g8, nu8, cfg8)):
            rhs = r.standard_normal(g.cell_shape())
            x0 = r.uniform(1.0, 2.0, size=g.cell_shape())
            x_direct, mu_direct = dense_kkt_solve(g, nu, cfg, kappa, rhs, mass(x0, g))
            x_cg, mu_cg, _, _ = solve_step(rhs, nu, cfg, kappa, g, x0=x0)
            assert np.max(np.abs(x_cg - x_direct)) <= 1e-8 * np.max(np.abs(x_direct))
            assert abs(mu_cg - mu_direct) <= 1e-8 * abs(mu_direct)

    @pytest.mark.parametrize("fill", [0.0, np.nan], ids=["zero", "nan"])
    def test_rhs_without_a_positive_norm_is_refused(self, toy, fill):
        # the tolerance is relative to ||rhs||, so it must not be 0 or nan
        g, nu, cfg, kappa, r = toy
        rhs = np.full(g.cell_shape(), fill)
        with pytest.raises(ParameterError, match="right-hand side"):
            solve_step(rhs, nu, cfg, kappa, g, x0=r.uniform(1.0, 2.0, size=g.cell_shape()))

    def test_fortran_ordered_inputs(self, toy):
        # the stencil writes through flat views, so its buffers must not
        # inherit the inputs' memory order
        g, nu, cfg, kappa, r = toy
        x_true = r.standard_normal(g.cell_shape())
        rhs = np.asfortranarray(apply_operator(x_true, nu, cfg, kappa, g) - 0.37)
        x0 = np.asfortranarray(np.full(g.cell_shape(), np.mean(x_true)))
        x, mu_e, _, res = solve_step(rhs, nu, cfg, kappa, g, x0=x0)
        assert res <= cfg.cg_rel_tol
        assert norm(x - x_true, g) <= 1e-8 * norm(x_true, g)
        assert abs(mu_e - 0.37) <= 1e-8 * 0.37

    def test_warm_start_at_solution_returns_immediately(self, toy):
        g, nu, cfg, kappa, r = toy
        x_true = r.standard_normal(g.cell_shape())
        rhs = apply_operator(x_true, nu, cfg, kappa, g) - 0.37
        x0 = x_true.copy()
        x, mu_e, iters, _ = solve_step(rhs, nu, cfg, kappa, g, x0=x0)
        assert x is x0  # the iteration runs in the warm start
        assert iters == 0
        # lift rewrites the reds by round-off: 1.2e-16 of ||x|| measured
        assert norm(x - x_true, g) <= 1e-14 * norm(x_true, g)
        assert abs(mu_e - 0.37) <= 1e-12

    @pytest.mark.parametrize("ny,nx", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 5), (5, 1)])
    def test_small_grids_and_strips_match_dense_solve(self, ny, nx):
        # a 1 x 1 grid has no black cell, and a strip's cells have at most
        # two neighbours
        g = Grid2D(nx=nx, ny=ny, h=0.5)
        r = np.random.default_rng(ny * 10 + nx)
        nu = r.uniform(1.0, 2.0, size=(ny, nx))
        cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-13)
        rhs = r.standard_normal((ny, nx))
        x0 = r.uniform(1.0, 2.0, size=(ny, nx))
        x_direct, mu_direct = dense_kkt_solve(g, nu, cfg, 0.2, rhs, mass(x0, g))
        x, mu_e, _, res = solve_step(rhs, nu, cfg, 0.2, g, x0=x0)
        assert res <= cfg.cg_rel_tol
        assert np.max(np.abs(x - x_direct)) <= 1e-8 * np.max(np.abs(x_direct))
        assert abs(mu_e - mu_direct) <= 1e-8 * abs(mu_direct)

    @pytest.mark.parametrize("ny,nx", [(6, 8), (5, 7), (1, 5), (5, 1)])
    def test_reported_residual_is_the_full_residual(self, ny, nx):
        g = Grid2D(nx=nx, ny=ny, h=0.5)
        r = np.random.default_rng(9)
        nu = r.uniform(1.0, 2.0, size=(ny, nx))
        cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-8)
        rhs = r.standard_normal((ny, nx))
        x, mu_e, iters, res = solve_step(rhs, nu, cfg, 0.2, g,
                                         x0=r.uniform(1.0, 2.0, size=(ny, nx)))
        full = norm(rhs + mu_e - apply_operator(x, nu, cfg, 0.2, g), g) / norm(rhs, g)
        assert iters > 0
        # the updated residual drifts from the recomputed one by round-off,
        # about 1e-15 of ||rhs||; a strip's two black cells are solved exactly
        assert res == pytest.approx(full, rel=1e-5, abs=1e-14)

    def test_iteration_cap_raises_with_history(self, toy):
        g, nu, _, kappa, r = toy
        cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-14, cg_max_iter=1)
        rhs = r.standard_normal(g.cell_shape())
        with pytest.raises(ConvergenceError, match="within 1 iterations") as exc:
            solve_step(rhs, nu, cfg, kappa, g, x0=np.zeros(g.cell_shape()))
        assert len(exc.value.residual_history) == 2
        assert exc.value.residual_history[0] > 0

    def test_iteration_cap_history_starts_at_projected_residual(self, toy):
        g, nu, _, kappa, r = toy
        cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-14, cg_max_iter=1)
        rhs = r.standard_normal(g.cell_shape())
        mat = dense_operator(g, nu, cfg, kappa)
        with pytest.raises(ConvergenceError) as exc:
            solve_step(rhs, nu, cfg, kappa, g, x0=np.zeros(g.cell_shape()))
        history = exc.value.residual_history
        assert len(history) == 2
        # From x0 = 0 the first residual is that of the black rows at x_B = 0,
        # with the reds and mu_e eliminated at mass 0: the red rows give
        # x_R = (rhs_R + mu_e)/A_RR, and sum(x_R) = 0 gives mu_e.
        red = red_cells(g)
        d_red = np.diag(mat)[red]
        mu = -np.sum(rhs.ravel()[red] / d_red) / np.sum(1.0 / d_red)
        x_red = (rhs.ravel()[red] + mu) / d_red
        r0 = rhs.ravel()[~red] + mu - mat[np.ix_(~red, red)] @ x_red
        assert history[0] == pytest.approx(np.sqrt(np.sum(r0**2)), rel=1e-12)


class TestProjectedSolve:
    """Feasibility and failure modes of the iteration."""

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
    def test_mass_kept_after_every_iteration(self, toy, cap):
        g, nu, _, kappa, r = toy
        cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-14, cg_max_iter=cap)
        x0 = r.uniform(1.0, 2.0, size=g.cell_shape())
        m0 = mass(x0, g)
        start = x0.copy()
        with pytest.raises(ConvergenceError) as exc:
            solve_step(r.standard_normal(g.cell_shape()), nu, cfg, kappa, g, x0=x0)
        assert len(exc.value.residual_history) == cap + 1
        assert not np.array_equal(x0, start)  # the capped solve left its iterate in x0
        assert abs(mass(x0, g) - m0) <= 1e-12 * abs(m0)

    def test_large_multiplier_keeps_the_mass(self, toy):
        # The first residual is then about -mu_e*1.  The solve puts the mass
        # back by x0's own sum after restoring the reds; without that last
        # correction this fails.
        g, nu, cfg, kappa, r = toy
        for _ in range(5):
            x_true = r.uniform(1.0, 2.0, size=g.cell_shape())
            rhs = apply_operator(x_true, nu, cfg, kappa, g) - 1e6
            x0 = np.full(g.cell_shape(), np.mean(x_true))
            m0 = mass(x0, g)
            x, mu_e, _, _ = solve_step(rhs, nu, cfg, kappa, g, x0=x0)
            assert abs(mu_e - 1e6) <= 1e-12 * 1e6
            assert abs(mass(x, g) - m0) <= 1e-14 * abs(m0)

    def test_indefinite_operator_raises(self, toy):
        g, _, cfg, kappa, r = toy
        nu = np.full(g.cell_shape(), -10.0)
        rhs = r.standard_normal(g.cell_shape())
        with pytest.raises(ConvergenceError, match="positive definiteness") as exc:
            solve_step(rhs, nu, cfg, kappa, g, x0=np.ones(g.cell_shape()))
        assert len(exc.value.residual_history) == 1


class TestGalerkinStart:
    """The start drawn from the last changes of the state."""

    @staticmethod
    def history(g, r, times=(-3.0, -2.0, -1.0, 0.0)):
        """States of a smooth synthetic march at one mass, oldest first, and
        the last ``START_DIRECTIONS`` changes between them, oldest first."""
        c_n = r.uniform(1.0, 2.0, size=g.cell_shape())
        u, v, w = (r.standard_normal(g.cell_shape()) for _ in range(3))
        states = []
        for t in times:
            s = c_n + t * u + 0.1 * t * t * v + 0.01 * t ** 3 * w
            states.append(s - np.mean(s) + np.mean(c_n))
        changes = [new - old for old, new in zip(states, states[1:])]
        return states, np.array(changes[-START_DIRECTIONS:])

    @pytest.mark.parametrize("ny,nx", [(3, 3), (6, 8), (5, 7)])
    def test_newton_differences_give_the_same_start(self, ny, nx):
        # the Newton backward differences of the last four states span what
        # their three changes span, so the start moves by round-off only: at
        # most 5.5e-13 of the state on 3 x 3, whose four black cells make the
        # Gram matrix the worst conditioned, and 2.7e-14 on the others
        g = Grid2D(nx=nx, ny=ny, h=0.5)
        cfg, kappa = SolverConfig(tau=0.7), 0.2
        for seed in range(4):
            r = np.random.default_rng(seed)
            nu = r.uniform(1.0, 2.0, size=(ny, nx))
            states, changes = self.history(g, r)
            rhs = r.standard_normal(g.cell_shape())
            lower, newton = list(states), []
            for _ in range(START_DIRECTIONS):
                lower = [b - a for a, b in zip(lower, lower[1:])]
                newton.append(lower[-1])
            raw = galerkin_start(g, nu, cfg, kappa, rhs, states[-1], changes)
            by_order = galerkin_start(g, nu, cfg, kappa, rhs, states[-1], np.array(newton))
            assert np.max(np.abs(raw - by_order)) <= 1e-11 * np.max(np.abs(raw))

    @pytest.mark.parametrize("ny,nx", [(3, 3), (6, 8), (5, 7)])
    def test_never_worse_in_a_norm_than_the_extrapolation(self, ny, nx):
        g = Grid2D(nx=nx, ny=ny, h=0.5)
        cfg, kappa = SolverConfig(tau=0.7), 0.2
        for seed in range(4):
            r = np.random.default_rng(seed)
            nu = r.uniform(1.0, 2.0, size=(ny, nx))
            states, basis = self.history(g, r)
            assert len(basis) == START_DIRECTIONS
            c_n, c_prev = states[-1], states[-2]
            rhs = r.standard_normal(g.cell_shape())
            x_star, _ = dense_kkt_solve(g, nu, cfg, kappa, rhs, mass(c_n, g))
            mat = dense_operator(g, nu, cfg, kappa)

            def a_norm_error(x):
                e = (x - x_star).ravel()
                return float(np.sqrt(e @ mat @ e))

            # the states have one mass, so the differences have zero sum
            extrapolated = 2.0 * c_n - c_prev
            start = galerkin_start(g, nu, cfg, kappa, rhs, c_n, basis)
            assert a_norm_error(start) <= a_norm_error(extrapolated) * (1 + 1e-12)
            # the optimality condition: the error, whose reds are eliminated, is
            # A-orthogonal to the basis
            e = (start - x_star).ravel()
            scale = a_norm_error(c_n)
            for v in basis:
                v_a = float(np.sqrt(v.ravel() @ mat @ v.ravel()))
                assert abs(v.ravel() @ mat @ e) <= 1e-10 * v_a * scale
            assert abs(mass(start, g) - mass(c_n, g)) <= 1e-14 * abs(mass(c_n, g))

    def test_solve_from_a_basis_matches_dense_solve_and_keeps_inputs(self, toy):
        g, nu, cfg, kappa, r = toy
        states, basis = self.history(g, r)
        rhs = r.standard_normal(g.cell_shape())
        inputs = [rhs, nu] + list(basis)
        kept = [a.copy() for a in inputs]
        x_direct, mu_direct = dense_kkt_solve(g, nu, cfg, kappa, rhs, mass(states[-1], g))
        x, mu_e, _, res = solve_step(rhs, nu, cfg, kappa, g, x0=states[-1].copy(),
                                     basis=basis)
        assert res <= cfg.cg_rel_tol
        assert np.max(np.abs(x - x_direct)) <= 1e-8 * np.max(np.abs(x_direct))
        assert abs(mu_e - mu_direct) <= 1e-8 * abs(mu_direct)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, kept))

    def test_zero_differences_are_dropped(self, toy):
        # a zero difference gives a zero row and column in the Gram matrix
        g, nu, cfg, kappa, r = toy
        x_true = r.standard_normal(g.cell_shape())
        rhs = apply_operator(x_true, nu, cfg, kappa, g) - 0.37
        zero = np.zeros(g.cell_shape())
        delta = r.standard_normal(g.cell_shape())
        delta -= np.mean(delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, _, _, _ = solve_step(rhs, nu, cfg, kappa, g, x0=x_true.copy(),
                                    basis=np.array([zero, zero, zero]))
            # lift rewrites the reds by round-off, as in the warm start above
            assert norm(x - x_true, g) <= 1e-14 * norm(x_true, g)
            x, _, _, res = solve_step(rhs, nu, cfg, kappa, g,
                                      x0=np.full(g.cell_shape(), np.mean(x_true)),
                                      basis=np.array([delta, zero, 2.0 * delta]))
        assert res <= cfg.cg_rel_tol
        assert norm(x - x_true, g) <= 1e-8 * norm(x_true, g)


def preset_square(n=128):
    """The nc4_droplet physics on an n x n square of liquid half the box wide."""
    cfg = load_config(str(resources.files("prphase").joinpath("presets", "nc4_droplet.yaml")))
    g = Grid2D(nx=n, ny=n, h=cfg.grid.h)
    c0 = np.full(g.cell_shape(), cfg.c_gas)
    c0[n // 4:3 * n // 4, n // 4:3 * n // 4] = cfg.c_liq
    return cfg, g, c0


def test_march_peak_memory_in_fields():
    # run allocates its memory once, ahead of the step-0 report: the cell
    # field it joins the state into, the reduced system's eleven halves
    # (the state, nu's pair and the solve's work, which holds the pass's
    # other three pairs), s_r's pair, and four black halves, the three
    # differences and the last state.  Traced from the step-0 report on, so
    # the set-up's allocations are left out: 10.04 fields here, the halves'
    # pads, ends and the reduced system's views included; 10.95 with a stored
    # pair of A's fixed diagonal, 11.85 when each step also split and
    # joined full fields.
    cfg, g, c0 = preset_square()

    def reset_at_step_0(c, report):
        if report.step_index == 0:
            tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        run(c0, 6, cfg.window, cfg.eos, cfg.solver, g, observer=reset_at_step_0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / c0.nbytes <= 10.7


def test_step_allocates_no_field():
    # What a step allocates above what was held when the last step ended,
    # from step 2 on, in fields: 0.04 here, and 5.7 when the solve
    # allocates its own work.
    cfg, g, c0 = preset_square()
    held, growth = [], []

    def observe(c, report):
        current, peak = tracemalloc.get_traced_memory()
        if report.step_index >= 2:
            growth.append((peak - held[-1]) / c0.nbytes)
        held.append(current)
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        run(c0, 8, cfg.window, cfg.eos, cfg.solver, g, observer=observe)
    finally:
        tracemalloc.stop()
    assert len(growth) == 7
    assert max(growth) < 0.25, growth


class TestWorkFields:
    """The pairs run passes to the per-state pass, and the system it solves in."""

    @staticmethod
    def bad_fields(shape):
        fortran = [np.zeros(shape) for _ in range(5)]
        fortran[2] = np.asfortranarray(np.zeros(shape))
        assert not fortran[2].flags.c_contiguous
        wrong_shape = [np.zeros(shape) for _ in range(5)]
        wrong_shape[4] = np.zeros((shape[0] + 1, shape[1]))
        read_only = [np.zeros(shape) for _ in range(5)]
        read_only[0].flags.writeable = False
        return [fortran, wrong_shape, read_only, [np.zeros(shape) for _ in range(4)],
                [np.zeros(shape, dtype=np.float32) for _ in range(5)]]

    def test_pass_rejects_bad_fields(self, nc4, window, droplet_setup):
        g, c0, _ = droplet_setup
        board = _BlackSystem(g, nc4.kappa, SolverConfig(tau=1.0)).board
        state = board.split(c0, np.zeros((2, board.size)))
        for fields in self.bad_fields(state.shape):
            with pytest.raises(ParameterError, match="scheme_coefficients: the state and 5 fields "
                                                     "must be writeable, C-contiguous float pairs"):
                scheme_coefficients(state, window, nc4, g, fields=fields, board=board)

    def test_reused_system_keeps_no_state(self, toy):
        # run solves every step in one system: each solve must give the bits
        # of a fresh system's, whatever the last one and the pass between
        # them left in the work: here nan in every span but the state's and
        # nu's cells, whose pads hold zero and any positive number
        g, _, cfg, kappa, r = toy
        system = _BlackSystem(g, kappa, cfg)
        board = system.board
        for n_basis in (START_DIRECTIONS, 2, 0):
            nu = r.uniform(1.0, 2.0, size=g.cell_shape())
            states, basis = TestGalerkinStart.history(g, r)
            basis = np.ascontiguousarray(basis[:n_basis])
            rhs = r.standard_normal(g.cell_shape())
            x = states[-1].copy()
            want = solve_step(rhs, nu, cfg, kappa, g, x0=x, basis=basis)
            system.rows[:, board.span] = np.nan
            board.fill_pads(system.state, 0.0)
            board.fill_pads(system.nu, 7.0)
            board.split(nu, system.nu)
            board.split(states[-1], system.state)
            pair = board.split(rhs, np.zeros((2, board.size)))
            got = system.solve(pair, black_halves(board, basis), n_basis,
                               float(system.state.sum()))
            assert want[2] > 0
            assert np.array_equal(board.join(system.state, np.empty(g.cell_shape())), x)
            assert got == want[1:]

    def test_pass_in_given_fields_gives_the_same_bits(self, nc4, window, droplet_setup):
        # the pass in the march's pairs, whose spans hold garbage, against the
        # pass on the cell field; it leaves the state's pads zero
        g, c0, _ = droplet_setup
        c = c0 * np.random.default_rng(3).uniform(0.99, 1.01, g.cell_shape())
        board = _BlackSystem(g, nc4.kappa, SolverConfig(tau=1.0)).board
        state = board.split(c, np.zeros((2, board.size)))
        kept = state.copy()
        fields = [np.zeros(state.shape) for _ in range(5)]
        for field in fields:
            field[:, board.span] = np.nan
        own = cell_coefficients(c, window, nc4, g)
        given = scheme_coefficients(state, window, nc4, g, fields=fields, board=board)
        assert given.nu is fields[0] and given.s_r is fields[1]
        for pair, cells in ((given.nu, own.nu), (given.s_r, own.s_r)):
            assert np.array_equal(board.join(pair, np.empty(g.cell_shape())), cells)
        assert (own.energy, own.c_min, own.c_max) == (given.energy, given.c_min, given.c_max)
        assert np.array_equal(state, kept)
        # the ends of every pair and the pads of s_r are zero, as the solve needs
        off = np.ones(state.shape, dtype=bool)
        off[:, board.span] = False
        assert not np.any(np.array([field[off] for field in fields]))
        board.fill_pads(off, True)
        assert not np.any(given.s_r[off])


# START_DIRECTIONS + 2 400x400 steps of the nc4_droplet physics, so that the
# start from the full basis is reached; prints a digest of the last field and
# every step's iterations and multiplier.
_STEP_400 = """
import hashlib
from importlib import resources
import numpy as np
from prphase import Grid2D, run
from prphase.config import load_config
from prphase.solver import START_DIRECTIONS
cfg = load_config(str(resources.files("prphase").joinpath("presets", "nc4_droplet.yaml")))
g = Grid2D(nx=400, ny=400, h=cfg.grid.h)
c0 = np.full(g.cell_shape(), cfg.c_gas)
c0[100:300, 100:300] = cfg.c_liq
c, reports = run(c0, START_DIRECTIONS + 2, cfg.window, cfg.eos, cfg.solver, g)
print(hashlib.sha256(c.tobytes()).hexdigest())
for rep in reports:
    print(rep.cg_iters, rep.mu_e.hex())
"""


def test_step_does_not_depend_on_blas_threads():
    # At 400x400, BLAS dot products change with the thread count; the
    # solve's reductions, the Galerkin start's included, must not.
    digests = []
    for threads in ("1", "2"):
        env = child_env()
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _STEP_400],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(tau=0.0),
        dict(tau=-1.0),
        dict(tau=float("inf")),
        dict(tau=1.0, cg_rel_tol=0.0),
        dict(tau=1.0, cg_rel_tol=1.5),
        dict(tau=1.0, cg_max_iter=0),
        dict(tau=1.0, on_violation="ignore"),
        dict(tau=1.0, energy_slack_rel=-1e-3),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            SolverConfig(**kwargs)

    def test_iteration_cap_default_scales_with_cells(self):
        g = Grid2D(nx=5, ny=4, h=1.0)
        assert SolverConfig(tau=1.0).resolved_max_iter(g) == 200
        assert SolverConfig(tau=1.0, cg_max_iter=7).resolved_max_iter(g) == 7


@pytest.fixture(scope="module")
def droplet_setup(nc4, window):
    """16x16 gas box with a centered liquid block, physical parameters."""
    g = Grid2D(nx=16, ny=16, h=3.0e-8 / 16)
    c0 = np.full(g.cell_shape(), C_GAS)
    c0[4:12, 4:12] = C_LIQ
    cfg = SolverConfig(tau=1e10)
    return g, c0, cfg


class TestStep:
    def test_uniform_state_is_fixed_point(self, nc4, window, droplet_setup):
        _, _, cfg = droplet_setup
        c_bar = 2000.0
        mu_exact = float(bulk_chemical_potential(c_bar, nc4))
        for n in (16, 32):
            g = Grid2D(nx=n, ny=n, h=3.0e-8 / 16)
            c0 = np.full(g.cell_shape(), c_bar)
            # Enough steps to reach the start from the full basis, whose
            # differences are all zero here.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                c, reports = run(c0, START_DIRECTIONS + 2, window, nc4, cfg, g)
            assert len(reports) == START_DIRECTIONS + 2
            for report in reports:
                assert report.cg_iters == 0
                assert abs(report.mu_e - mu_exact) <= 1e-10 * abs(mu_exact)
                assert report.all_ok
            # A fixed point in exact arithmetic only: the eliminated reds and
            # the multiplier come back by round-off.  Over these 5 steps the
            # state moved by at most 4 ulps of c_bar on 16 x 16 and 32 x 32
            # (6 on 100 x 100), so twice that is allowed.
            assert np.max(np.abs(c - c0)) <= 8 * np.spacing(c_bar)

    def test_mass_pinned_to_target(self, nc4, window, droplet_setup):
        g, c0, cfg = droplet_setup
        c_t = inner(c0, np.ones(g.cell_shape()), g)
        _, (report,) = run(c0, 1, window, nc4, cfg, g)
        assert abs(report.mass - c_t) <= 1e-12 * abs(c_t)

    def test_report_invariants_on_droplet(self, nc4, window, droplet_setup):
        g, c0, cfg = droplet_setup
        _, (report,) = run(c0, 1, window, nc4, cfg, g)
        assert report.admissibility_ok
        assert report.bounds_ok
        assert report.energy_decreased
        assert window.c_m <= report.c_min <= report.c_max <= window.c_M

    @pytest.mark.parametrize("excess,inside", [(0.5, True), (1.5, False)])
    def test_window_slack_on_both_checks(self, nc4, window, droplet_setup, excess, inside):
        # a uniform state above c_M by a part of the window's round-off
        # slack: the initial field's check and the step-0 report agree
        g, _, cfg = droplet_setup
        c0 = np.full(g.cell_shape(), window.c_M + excess * window.slack)
        assert c0[0, 0] > window.c_M
        seen = []
        run(c0, 0, window, nc4, cfg, g, observer=lambda c, report: seen.append(report))
        assert [report.bounds_ok for report in seen] == [inside]
        if inside:
            require_in_window(c0, window, "test")
        else:
            with pytest.raises(BoundsViolationError, match="outside the window"):
                require_in_window(c0, window, "test")

    def test_shape_mismatch(self, nc4, window, droplet_setup):
        g, _, cfg = droplet_setup
        with pytest.raises(ParameterError, match="shape"):
            run(np.full((3, 3), 1000.0), 1, window, nc4, cfg, g)

    def test_out_of_window_state_warns_when_continuing(self, nc4, window, droplet_setup):
        # a uniform state is a fixed point, so step 1 leaves it outside too
        g, _, cfg = droplet_setup
        c_low = np.full(g.cell_shape(), 0.5 * window.c_m)
        with pytest.warns(UserWarning, match="density window") as record:
            _, reports = run(c_low, 2, window, nc4, cfg, g)
        assert [str(w.message).split(":")[0] for w in record] == ["step 1", "step 2"]
        assert [r.bounds_ok for r in reports] == [False, False]

    def test_out_of_window_state_raises_when_aborting(self, nc4, window, droplet_setup):
        g, _, _ = droplet_setup
        cfg = SolverConfig(tau=1e10, on_violation="abort")
        c_low = np.full(g.cell_shape(), 0.5 * window.c_m)
        c_low[0, :5] = window.c_m  # inside: cell 5 is the first outside
        with pytest.raises(BoundsViolationError, match="step 1") as exc:
            run(c_low, 1, window, nc4, cfg, g)
        assert exc.value.cell_index == 5


#: Two black cells, i + j odd, that are not neighbours.
BUMP_CELLS = ((2, 3), (5, 2))


def mass_free_bump(g, delta):
    """+delta at the first of ``BUMP_CELLS`` and -delta at the second."""
    bump = np.zeros(g.cell_shape())
    (i, j), (k, l) = BUMP_CELLS
    bump[i, j], bump[k, l] = delta, -delta
    return bump


def bump_after_solve(monkeypatch, bump):
    """Make each solve of ``run``, at a uniform fixed point, add the cell
    field ``bump`` to the state after the real solve."""
    real_solve = _BlackSystem.solve

    def bumped_solve(system, *args):
        result = real_solve(system, *args)
        assert result[1] == 0  # the fixed point
        system.state += system.board.split(bump, np.zeros(system.state.shape))
        return result

    monkeypatch.setattr(_BlackSystem, "solve", bumped_solve)


class TestDissipationCheck:
    """The check E_n <= E_(n-1) + energy_slack_rel*|E_0|, seen on both sides.

    A uniform state in the window is a fixed point: the solve takes no
    iteration and keeps the energy.  A mass-free bump added after the real
    solve (``mass_free_bump``, ``bump_after_solve``) raises the energy by a
    known amount, quadratic in delta.
    """

    def step(self, nc4, window, monkeypatch, rise):
        """One step from a uniform state bumped to raise its energy by about
        ``rise`` times the slack; returns (report, the energy's rise over the slack)."""
        g = Grid2D(nx=8, ny=8, h=3.0e-8 / 16)
        c0 = np.full(g.cell_shape(), C_GAS)
        cfg = SolverConfig(tau=1e10)
        e0 = cell_coefficients(c0, window, nc4, g).energy.total
        slack = cfg.energy_slack_rel * abs(e0)
        trial = 1e-3 * C_GAS
        gain = cell_coefficients(c0 + mass_free_bump(g, trial), window, nc4, g).energy.total - e0
        assert gain > 0
        bump_after_solve(monkeypatch, mass_free_bump(g, trial * np.sqrt(rise * slack / gain)))
        _, (report,) = run(c0, 1, window, nc4, cfg, g)
        assert report.admissibility_ok and report.bounds_ok
        return report, (report.energy - e0) / slack

    def test_a_rise_above_the_slack_fails(self, nc4, window, monkeypatch):
        report, rise = self.step(nc4, window, monkeypatch, 100.0)
        assert 50.0 < rise < 200.0
        assert not report.energy_decreased
        assert not report.all_ok

    def test_a_rise_below_the_slack_passes(self, nc4, window, monkeypatch):
        report, rise = self.step(nc4, window, monkeypatch, 0.01)
        assert 0.005 < rise < 0.02
        assert report.energy_decreased
        assert report.all_ok


class TestBoundsCheck:
    """The window check on a step's largest density, seen on both sides.

    A uniform state 0.01 mol/m^3 below the window's top c_M is a fixed
    point.  At the window's minimal shift its multiplier, mu_b of the state,
    lies above the admissible interval, whose top is 16 J/mol below
    mu_b(c_M); at twice that shift the interval's top is mu_b(c_M), and the
    multiplier is inside.  The mass-free bump added after the real solve
    lifts one cell to ``excess`` window slacks above c_M and lowers another
    by as much, which stays inside the window, so only the step's largest
    density can fail the check.
    """

    def step(self, nc4, window, monkeypatch, excess):
        """One step whose largest density ends about ``excess`` slacks above
        c_M; returns (report, its excess in slacks)."""
        g = Grid2D(nx=8, ny=8, h=3.0e-8 / 16)
        top = EfParams.for_window(window.c_m, window.c_M, nc4, lam=2.0 * window.lam)
        c0 = np.full(g.cell_shape(), top.c_M - 0.01)
        bump_after_solve(monkeypatch, mass_free_bump(g, 0.01 + excess * top.slack))
        _, (report,) = run(c0, 1, top, nc4, SolverConfig(tau=1e10), g)
        assert top.c_m < report.c_min < top.c_M - 0.01
        assert report.admissibility_ok and report.energy_decreased
        return report, (report.c_max - top.c_M) / top.slack

    def test_a_density_above_the_slack_fails(self, nc4, window, monkeypatch):
        report, excess = self.step(nc4, window, monkeypatch, 2.0)
        assert 1.9 < excess < 2.1
        assert not report.bounds_ok
        assert not report.all_ok

    def test_a_density_within_the_slack_passes(self, nc4, window, monkeypatch):
        report, excess = self.step(nc4, window, monkeypatch, 0.5)
        assert 0.4 < excess < 0.6
        assert report.bounds_ok
        assert report.all_ok


@pytest.fixture(scope="module")
def marched(nc4, window, droplet_setup):
    g, c0, cfg = droplet_setup
    c, reports = run(c0, 50, window, nc4, cfg, g)
    return g, c0, c, reports


class TestRun:
    def test_start_directions_fit_the_work_rows(self):
        # U is built in the rows U_ROWS (P, T, Q), one per direction; a fourth
        # direction would overwrite d, which made the droplet run's first
        # Galerkin step lose positive definiteness
        u_rows = range(_HALVES)[_BlackSystem.U_ROWS]
        assert len(u_rows) >= START_DIRECTIONS
        assert _BlackSystem.D not in u_rows[:START_DIRECTIONS]

    def test_start_basis_holds_the_last_changes(self, nc4, window, droplet_setup, monkeypatch):
        # the solve of step n gets the black halves of the changes of steps
        # n - 1, n - 2, ..., at most START_DIRECTIONS of them, as they are:
        # step k's change in row (k - 1) % START_DIRECTIONS
        g, c0, cfg = droplet_setup
        real_solve = _BlackSystem.solve
        received, before, after = [], [], []

        def recorded_solve(self, rhs, basis, m, mass):
            received.append(basis[:m].copy())
            before.append(self.state[BLACK].copy())
            result = real_solve(self, rhs, basis, m, mass)
            after.append(self.state[BLACK].copy())
            return result

        monkeypatch.setattr(_BlackSystem, "solve", recorded_solve)
        n_steps = 2 * START_DIRECTIONS + 1
        run(c0, n_steps, window, nc4, cfg, g)
        assert len(received) == n_steps
        changes = [None] + [new - old for old, new in zip(before, after)]
        for n, basis in enumerate(received, start=1):
            assert len(basis) == min(n - 1, START_DIRECTIONS)
            for k in range(max(1, n - START_DIRECTIONS), n):
                assert np.array_equal(basis[(k - 1) % START_DIRECTIONS], changes[k])

    def test_march_builds_one_reduced_system(self, nc4, window, droplet_setup, monkeypatch):
        g, c0, cfg = droplet_setup
        built = []

        class Counted(solver_module._BlackSystem):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(solver_module, "_BlackSystem", Counted)
        _, reports = run(c0, 8, window, nc4, cfg, g)
        assert all(rep.cg_iters > 0 for rep in reports)
        assert len(built) == 1

    def test_zero_steps_returns_copy(self, nc4, window, droplet_setup):
        g, c0, cfg = droplet_setup
        c, reports = run(c0, 0, window, nc4, cfg, g)
        assert reports == []
        assert np.array_equal(c, c0)
        c[0, 0] = -1.0
        assert c0[0, 0] != -1.0

    def test_negative_steps_rejected(self, nc4, window, droplet_setup):
        g, c0, cfg = droplet_setup
        with pytest.raises(ParameterError, match="nonnegative"):
            run(c0, -1, window, nc4, cfg, g)

    def test_mass_conserved_through_march(self, marched):
        g, c0, _, reports = marched
        c_t = inner(c0, np.ones(g.cell_shape()), g)
        drift = max(abs(rep.mass - c_t) for rep in reports)
        assert drift <= 1e-8 * abs(c_t)

    def test_energy_monotone(self, marched):
        _, _, _, reports = marched
        assert all(rep.energy_decreased for rep in reports)
        energies = [rep.energy for rep in reports]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_multiplier_and_bounds_hold(self, marched, window):
        _, _, _, reports = marched
        assert all(rep.admissibility_ok for rep in reports)
        assert all(rep.bounds_ok for rep in reports)
        assert all(window.c_m <= rep.c_min <= rep.c_max <= window.c_M for rep in reports)

    def test_two_phases_persist(self, marched):
        # relaxation smooths the block but must not flatten the field: both
        # a liquid core and a gas background survive the march
        _, c0, c, _ = marched
        assert not np.array_equal(c, c0)
        assert c[8, 8] > 0.5 * C_LIQ
        assert c[0, 0] < 2.0 * C_GAS

    @pytest.mark.parametrize("n", [15, 16])
    def test_symmetric_droplet_stays_symmetric_to_the_bit(self, nc4, window, n):
        # a half turn and a transposition keep each cell's colour and swap its
        # neighbour pairs, which the half-stencils sum first; the snapshot
        # writer then formats each repeated value once
        g = Grid2D(nx=n, ny=n, h=3.0e-8 / 16)
        c0 = np.full(g.cell_shape(), C_GAS)
        c0[4:n - 4, 4:n - 4] = C_LIQ
        c, reports = run(c0, 8, window, nc4, SolverConfig(tau=1e10), g)
        assert all(rep.cg_iters > 0 for rep in reports)
        assert np.array_equal(c, c[::-1, ::-1])
        assert np.array_equal(c, c.T)

    def test_observer_sees_every_step(self, nc4, window, droplet_setup):
        g, c0, cfg = droplet_setup
        seen = []
        run(c0, 5, window, nc4, cfg, g, observer=lambda c, rep: seen.append(rep.step_index))
        assert seen == [0, 1, 2, 3, 4, 5]

    def test_deterministic_reruns(self, nc4, window, droplet_setup, marched):
        g, c0, cfg = droplet_setup
        _, _, c_first, reports_first = marched
        c_second, reports_second = run(c0, 50, window, nc4, cfg, g)
        assert np.array_equal(c_first, c_second)
        assert reports_first == reports_second
