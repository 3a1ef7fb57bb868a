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
    SchemeCoefficients,
    SolverConfig,
    bulk_chemical_potential,
    run,
    solve_spd,
)
from prphase.config import load_config
from prphase.solver import (
    START_DIRECTIONS,
    _galerkin_start,
    _push_differences,
    apply_operator,
)

from conftest import C_GAS, C_LIQ, child_env, inner


@pytest.fixture
def toy():
    """Small synthetic SPD system: O(1) coefficients, visible kappa term."""
    g = Grid2D(nx=8, ny=6, h=0.5)
    r = np.random.default_rng(7)
    coeffs = SchemeCoefficients(
        nu=r.uniform(1.0, 2.0, size=g.cell_shape()),
        s_r=np.zeros(g.cell_shape()),
    )
    cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-12)
    return g, coeffs, cfg, 0.2, r


def dense_operator(g, coeffs, cfg, kappa):
    n = g.ncells
    mat = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        mat[:, k] = apply_operator(e.reshape(g.cell_shape()), coeffs, cfg, kappa, g).ravel()
    return mat


def dense_kkt_solve(g, coeffs, cfg, kappa, rhs, mass):
    """(x, mu_e) of A x - mu_e*1 = rhs, h^2 <x, 1> = mass, by a dense solve."""
    n = g.ncells
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = dense_operator(g, coeffs, cfg, kappa)
    kkt[:n, n] = -1.0
    kkt[n, :n] = g.h * g.h
    sol = np.linalg.solve(kkt, np.append(rhs.ravel(), mass))
    return sol[:n].reshape(g.cell_shape()), sol[n]


def mass(c, g):
    return inner(c, np.ones(g.cell_shape()), g)


def norm(a, g):
    return float(np.sqrt(inner(a, a, g)))


def spare(coeffs):
    """A copy of ``coeffs`` for a solve to consume: it builds A's diagonal in nu."""
    return SchemeCoefficients(nu=coeffs.nu.copy(), s_r=coeffs.s_r)


def staggered_laplacian(c, g):
    """Lap_h c composed from face fields: differences onto faces, whose
    boundary layers stay zero (no flux), then back to cells."""
    u = np.zeros((g.ny, g.nx + 1))
    u[:, 1:-1] = (c[:, 1:] - c[:, :-1]) / g.h
    v = np.zeros((g.ny + 1, g.nx))
    v[1:-1, :] = (c[1:, :] - c[:-1, :]) / g.h
    return (u[:, 1:] - u[:, :-1]) / g.h + (v[1:, :] - v[:-1, :]) / g.h


class TestOperator:
    def test_no_gradient_term_is_pointwise(self, toy):
        # the stencil folds 1/tau_eff into its diagonal
        g, coeffs, cfg, _, r = toy
        c = r.standard_normal(g.cell_shape())
        got = apply_operator(c, coeffs, cfg, 0.0, g)
        assert np.array_equal(got, (coeffs.nu + 1.0 / cfg.tau_eff()) * c)

    def test_symmetry(self, toy):
        g, coeffs, cfg, kappa, r = toy
        c1 = r.standard_normal(g.cell_shape())
        c2 = r.standard_normal(g.cell_shape())
        a = inner(apply_operator(c1, coeffs, cfg, kappa, g), c2, g)
        b = inner(c1, apply_operator(c2, coeffs, cfg, kappa, g), g)
        assert a == pytest.approx(b, rel=1e-13)

    def test_positive_definite_lower_bound(self, toy):
        g, coeffs, cfg, kappa, r = toy
        lower = 1.0 / cfg.tau_eff() + float(np.min(coeffs.nu))
        for _ in range(20):
            c = r.standard_normal(g.cell_shape())
            quad = inner(apply_operator(c, coeffs, cfg, kappa, g), c, g)
            assert quad >= lower * inner(c, c, g) * (1 - 1e-12)

    def test_diagonal_matches_dense_matrix(self, toy):
        # the diagonal a solve builds in nu's field, on strips too, where a
        # boundary cell lacks neighbours on both sides
        g8, _, cfg, kappa, r = toy
        for g in (g8, Grid2D(nx=1, ny=1, h=0.5), Grid2D(nx=5, ny=1, h=0.5),
                  Grid2D(nx=1, ny=5, h=0.5)):
            coeffs = SchemeCoefficients(nu=r.uniform(1.0, 2.0, size=g.cell_shape()),
                                        s_r=np.zeros(g.cell_shape()))
            mat = dense_operator(g, coeffs, cfg, kappa)
            zero = np.zeros(g.cell_shape())
            solve_spd(zero, coeffs, cfg, kappa, g, x0=zero.copy())
            # held over kappa/h^2, the scale the stencil is applied at
            assert np.array_equal(kappa / (g.h * g.h) * coeffs.nu.ravel(), np.diag(mat))

    @pytest.mark.parametrize("ny,nx", [(1, 1), (1, 5), (5, 1), (37, 13)])
    def test_fused_stencil_matches_staggered_operators(self, ny, nx):
        g = Grid2D(nx=nx, ny=ny, h=0.5)
        r = np.random.default_rng(3)
        coeffs = SchemeCoefficients(nu=r.uniform(1.0, 2.0, size=(ny, nx)),
                                    s_r=np.zeros((ny, nx)))
        cfg, kappa = SolverConfig(tau=0.7), 0.2
        for _ in range(2):
            c = r.standard_normal((ny, nx))
            got = apply_operator(c, coeffs, cfg, kappa, g)
            ref = c / cfg.tau_eff() - kappa * staggered_laplacian(c, g) + coeffs.nu * c
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestSolveSpd:
    """The projected solve of A x = rhs + mu_e*1 at the mass of the warm start."""

    def test_manufactured_solution(self, toy):
        g, coeffs, cfg, kappa, r = toy
        x_true = r.standard_normal(g.cell_shape())
        mu_true = 0.37
        rhs = apply_operator(x_true, coeffs, cfg, kappa, g) - mu_true
        x0 = np.full(g.cell_shape(), np.mean(x_true))
        x, mu_e, iters, res = solve_spd(rhs, coeffs, cfg, kappa, g, x0=x0)
        assert res <= cfg.cg_rel_tol
        assert iters > 0
        assert norm(x - x_true, g) <= 1e-8 * norm(x_true, g)
        assert abs(mu_e - mu_true) <= 1e-8 * abs(mu_true)

    def test_matches_dense_solve(self, toy):
        g8, coeffs8, cfg8, kappa, r = toy
        g3 = Grid2D(nx=3, ny=3, h=0.5)
        coeffs3 = SchemeCoefficients(nu=r.uniform(1.0, 2.0, size=(3, 3)), s_r=np.zeros((3, 3)))
        cfg3 = SolverConfig(tau=0.7, cg_rel_tol=1e-13)
        for g, coeffs, cfg in ((g3, coeffs3, cfg3), (g8, coeffs8, cfg8)):
            rhs = r.standard_normal(g.cell_shape())
            x0 = r.uniform(1.0, 2.0, size=g.cell_shape())
            x_direct, mu_direct = dense_kkt_solve(g, coeffs, cfg, kappa, rhs, mass(x0, g))
            x_cg, mu_cg, _, _ = solve_spd(rhs, coeffs, cfg, kappa, g, x0=x0)
            assert np.max(np.abs(x_cg - x_direct)) <= 1e-8 * np.max(np.abs(x_direct))
            assert abs(mu_cg - mu_direct) <= 1e-8 * abs(mu_direct)

    def test_zero_rhs_short_circuits(self, toy):
        g, coeffs, cfg, kappa, _ = toy
        x, mu_e, iters, res = solve_spd(np.zeros(g.cell_shape()), coeffs, cfg, kappa, g,
                                        x0=np.zeros(g.cell_shape()))
        assert np.all(x == 0) and mu_e == 0.0 and iters == 0 and res == 0.0

    def test_fortran_ordered_inputs(self, toy):
        # the stencil writes through flat views, so its buffers must not
        # inherit the inputs' memory order
        g, coeffs, cfg, kappa, r = toy
        x_true = r.standard_normal(g.cell_shape())
        rhs = np.asfortranarray(apply_operator(x_true, coeffs, cfg, kappa, g) - 0.37)
        x0 = np.asfortranarray(np.full(g.cell_shape(), np.mean(x_true)))
        x, mu_e, _, res = solve_spd(rhs, coeffs, cfg, kappa, g, x0=x0)
        assert res <= cfg.cg_rel_tol
        assert norm(x - x_true, g) <= 1e-8 * norm(x_true, g)
        assert abs(mu_e - 0.37) <= 1e-8 * 0.37

    def test_warm_start_at_solution_returns_immediately(self, toy):
        g, coeffs, cfg, kappa, r = toy
        x_true = r.standard_normal(g.cell_shape())
        rhs = apply_operator(x_true, coeffs, cfg, kappa, g) - 0.37
        x0 = x_true.copy()
        x, mu_e, iters, _ = solve_spd(rhs, coeffs, cfg, kappa, g, x0=x0)
        assert x is x0  # the iteration runs in the warm start
        assert iters == 0
        assert np.array_equal(x, x_true)
        assert abs(mu_e - 0.37) <= 1e-12

    def test_jacobi_solves_diagonal_system_in_one_iteration(self, toy):
        g, coeffs, cfg, _, r = toy
        rhs = r.standard_normal(g.cell_shape())
        x0 = r.uniform(1.0, 2.0, size=g.cell_shape())
        m0 = mass(x0, g)
        x, mu_e, iters, _ = solve_spd(rhs, spare(coeffs), cfg, 0.0, g, x0=x0)
        assert iters == 1
        diag = 1.0 / cfg.tau_eff() + coeffs.nu
        assert np.allclose(x, (rhs + mu_e) / diag, rtol=1e-12, atol=0)
        assert abs(mass(x, g) - m0) <= 1e-12 * abs(m0)

    def test_unpreconditioned_fallback(self, toy):
        g, coeffs, cfg, kappa, r = toy
        plain = SolverConfig(tau=0.7, cg_rel_tol=1e-12, preconditioner="none")
        rhs = r.standard_normal(g.cell_shape())
        x0 = r.uniform(1.0, 2.0, size=g.cell_shape())
        x_jac, mu_jac, _, _ = solve_spd(rhs, spare(coeffs), cfg, kappa, g, x0=x0.copy())
        x, mu_e, _, res = solve_spd(rhs, coeffs, plain, kappa, g, x0=x0.copy())
        assert res <= plain.cg_rel_tol
        assert norm(x - x_jac, g) <= 1e-8 * norm(x_jac, g)
        assert abs(mu_e - mu_jac) <= 1e-8 * abs(mu_jac)

    def test_iteration_cap_raises_with_history(self, toy):
        g, coeffs, _, kappa, r = toy
        cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-14, cg_max_iter=1)
        rhs = r.standard_normal(g.cell_shape())
        with pytest.raises(ConvergenceError, match="within 1 iterations") as exc:
            solve_spd(rhs, coeffs, cfg, kappa, g, x0=np.zeros(g.cell_shape()))
        assert len(exc.value.residual_history) == 2
        assert exc.value.residual_history[0] > 0

    def test_iteration_cap_history_starts_at_projected_residual(self, toy):
        g, coeffs, _, kappa, r = toy
        cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-14, cg_max_iter=1)
        rhs = r.standard_normal(g.cell_shape())
        inv_diag = 1.0 / np.diag(dense_operator(g, coeffs, cfg, kappa)).reshape(g.cell_shape())
        with pytest.raises(ConvergenceError) as exc:
            solve_spd(rhs, coeffs, cfg, kappa, g, x0=np.zeros(g.cell_shape()))
        history = exc.value.residual_history
        assert len(history) == 2
        # From x0 = 0 the first residual is rhs with its D^-1-weighted mean removed.
        r0 = rhs - np.sum(inv_diag * rhs) / np.sum(inv_diag)
        assert history[0] == pytest.approx(np.sqrt(np.sum(r0**2)), rel=1e-12)


class TestProjectedSolve:
    """Feasibility and failure modes of the projected iteration."""

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
    def test_mass_kept_after_every_iteration(self, toy, cap):
        g, coeffs, _, kappa, r = toy
        cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-14, cg_max_iter=cap)
        x0 = r.uniform(1.0, 2.0, size=g.cell_shape())
        m0 = mass(x0, g)
        start = x0.copy()
        with pytest.raises(ConvergenceError) as exc:
            solve_spd(r.standard_normal(g.cell_shape()), coeffs, cfg, kappa, g, x0=x0)
        assert len(exc.value.residual_history) == cap + 1
        assert not np.array_equal(x0, start)  # the capped iterations ran in x0
        assert abs(mass(x0, g) - m0) <= 1e-12 * abs(m0)

    def test_large_multiplier_keeps_the_mass(self, toy):
        # The first residual is then about -mu_e*1; a single projection of it
        # leaves round-off along 1 that moved the mass by ~1e-11 here.
        g, coeffs, cfg, kappa, r = toy
        for _ in range(5):
            x_true = r.uniform(1.0, 2.0, size=g.cell_shape())
            rhs = apply_operator(x_true, coeffs, cfg, kappa, g) - 1e6
            x0 = np.full(g.cell_shape(), np.mean(x_true))
            m0 = mass(x0, g)
            x, mu_e, _, _ = solve_spd(rhs, coeffs, cfg, kappa, g, x0=x0)
            assert abs(mu_e - 1e6) <= 1e-12 * 1e6
            assert abs(mass(x, g) - m0) <= 1e-14 * abs(m0)

    def test_warm_start_must_match_the_field(self, toy):
        g, coeffs, cfg, kappa, r = toy
        rhs = r.standard_normal(g.cell_shape())
        for x0 in (np.zeros((2,) + g.cell_shape()), np.zeros(g.cell_shape(), dtype=int), None):
            with pytest.raises(ParameterError, match="warm start"):
                solve_spd(rhs, coeffs, cfg, kappa, g, x0=x0)

    def test_indefinite_operator_raises(self, toy):
        g, _, cfg, kappa, r = toy
        coeffs = SchemeCoefficients(nu=np.full(g.cell_shape(), -10.0),
                                    s_r=np.zeros(g.cell_shape()))
        rhs = r.standard_normal(g.cell_shape())
        with pytest.raises(ConvergenceError, match="positive definiteness") as exc:
            solve_spd(rhs, coeffs, cfg, kappa, g, x0=np.ones(g.cell_shape()))
        assert len(exc.value.residual_history) == 1


class TestGalerkinStart:
    """The start drawn from the differences of the last states."""

    @staticmethod
    def history(g, r, times=(-3.0, -2.0, -1.0, 0.0)):
        """States of a smooth synthetic march at one mass, oldest first, and
        the Newton differences of the newest, by order."""
        c_n = r.uniform(1.0, 2.0, size=g.cell_shape())
        u, v, w = (r.standard_normal(g.cell_shape()) for _ in range(3))
        states = []
        for t in times:
            s = c_n + t * u + 0.1 * t * t * v + 0.01 * t ** 3 * w
            states.append(s - np.mean(s) + np.mean(c_n))
        basis = np.empty((START_DIRECTIONS,) + g.cell_shape())
        m = 0
        for old, new in zip(states, states[1:]):
            m = _push_differences(basis, m, new, old)
        return states, basis[:m]

    @pytest.mark.parametrize("n_states", [2, 3, 4, 6])
    def test_differences_are_the_newton_differences(self, n_states):
        # built from the highest order down, in place, also once the oldest
        # order drops out
        g = Grid2D(nx=7, ny=5, h=0.5)
        times = tuple(float(t) for t in range(1 - n_states, 1))
        states, basis = self.history(g, np.random.default_rng(11), times)
        assert len(basis) == min(n_states - 1, START_DIRECTIONS)
        lower = list(states)
        for got in basis:
            lower = [b - a for a, b in zip(lower, lower[1:])]
            want = lower[-1] - np.mean(lower[-1])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert abs(np.sum(got)) <= 1e-14 * np.sum(np.abs(got))

    @pytest.mark.parametrize("ny,nx", [(3, 3), (6, 8), (5, 7)])
    def test_never_worse_in_a_norm_than_the_extrapolation(self, ny, nx):
        g = Grid2D(nx=nx, ny=ny, h=0.5)
        cfg, kappa = SolverConfig(tau=0.7), 0.2
        for seed in range(4):
            r = np.random.default_rng(seed)
            coeffs = SchemeCoefficients(nu=r.uniform(1.0, 2.0, size=(ny, nx)),
                                        s_r=np.zeros((ny, nx)))
            states, basis = self.history(g, r)
            assert len(basis) == START_DIRECTIONS
            c_n, c_prev = states[-1], states[-2]
            rhs = r.standard_normal(g.cell_shape())
            x_star, _ = dense_kkt_solve(g, coeffs, cfg, kappa, rhs, mass(c_n, g))
            mat = dense_operator(g, coeffs, cfg, kappa)

            def a_norm_error(x):
                e = (x - x_star).ravel()
                return float(np.sqrt(e @ mat @ e))

            delta = c_n - c_prev
            extrapolated = c_n + (delta - np.mean(delta))
            start = c_n.copy()
            residual = rhs - apply_operator(c_n, coeffs, cfg, kappa, g)
            k = kappa / (g.h * g.h)
            _galerkin_start(start, residual, basis, np.diag(mat).reshape(g.cell_shape()) / k,
                            k, np.empty(g.cell_shape()), np.empty(g.cell_shape()))
            assert a_norm_error(start) <= a_norm_error(extrapolated) * (1 + 1e-12)
            # the optimality condition: the error is A-orthogonal to the basis
            e = (start - x_star).ravel()
            scale = a_norm_error(c_n)
            for v in basis:
                v_a = float(np.sqrt(v.ravel() @ mat @ v.ravel()))
                assert abs(v.ravel() @ mat @ e) <= 1e-10 * v_a * scale
            assert abs(mass(start, g) - mass(c_n, g)) <= 1e-14 * abs(mass(c_n, g))

    def test_solve_from_a_basis_matches_dense_solve_and_keeps_inputs(self, toy):
        g, coeffs, cfg, kappa, r = toy
        states, basis = self.history(g, r)
        rhs = r.standard_normal(g.cell_shape())
        inputs = [rhs, coeffs.s_r] + list(basis)
        kept = [a.copy() for a in inputs]
        mat = dense_operator(g, coeffs, cfg, kappa)
        x_direct, mu_direct = dense_kkt_solve(g, coeffs, cfg, kappa, rhs, mass(states[-1], g))
        x, mu_e, _, res = solve_spd(rhs, coeffs, cfg, kappa, g, x0=states[-1].copy(),
                                    basis=basis)
        assert res <= cfg.cg_rel_tol
        assert np.max(np.abs(x - x_direct)) <= 1e-8 * np.max(np.abs(x_direct))
        assert abs(mu_e - mu_direct) <= 1e-8 * abs(mu_direct)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, kept))
        # nu is consumed: it now holds A's diagonal over kappa/h^2
        assert np.array_equal(kappa / (g.h * g.h) * coeffs.nu.ravel(), np.diag(mat))

    def test_nu_must_be_a_writeable_float_field(self, toy):
        g, coeffs, cfg, kappa, r = toy
        rhs = r.standard_normal(g.cell_shape())
        read_only = coeffs.nu.copy()
        read_only.flags.writeable = False
        for nu in (coeffs.nu[:-1], coeffs.nu.astype(np.float32), coeffs.nu.tolist(), read_only):
            with pytest.raises(ParameterError, match="nu must be"):
                solve_spd(rhs, SchemeCoefficients(nu=nu, s_r=coeffs.s_r), cfg, kappa, g,
                          x0=np.zeros(g.cell_shape()))

    def test_zero_differences_are_dropped(self, toy):
        # a zero difference gives a zero row and column in the Gram matrix
        g, coeffs, cfg, kappa, r = toy
        x_true = r.standard_normal(g.cell_shape())
        rhs = apply_operator(x_true, coeffs, cfg, kappa, g) - 0.37
        zero = np.zeros(g.cell_shape())
        delta = r.standard_normal(g.cell_shape())
        delta -= np.mean(delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, _, _, _ = solve_spd(rhs, spare(coeffs), cfg, kappa, g, x0=x_true.copy(),
                                   basis=[zero, zero, zero])
            assert np.array_equal(x, x_true)
            x, _, _, res = solve_spd(rhs, coeffs, cfg, kappa, g,
                                     x0=np.full(g.cell_shape(), np.mean(x_true)),
                                     basis=[delta, zero, 2.0 * delta])
        assert res <= cfg.cg_rel_tol
        assert norm(x - x_true, g) <= 1e-8 * norm(x_true, g)


def test_march_peak_memory_in_fields():
    # The march holds the state, the next state and three differences; the
    # solve adds the right-hand side and A's diagonal, built in the fields
    # of s_r and nu, and five of its own.  Traced from the step-0 report on,
    # so the set-up's allocations are left out: 12.1 fields here, 13.1 when
    # b or the diagonal takes a field of its own and 14.1 when both do.
    cfg = load_config(str(resources.files("prphase").joinpath("presets", "nc4_droplet.yaml")))
    g = Grid2D(nx=128, ny=128, h=cfg.grid.h)
    c0 = np.full(g.cell_shape(), cfg.c_gas)
    c0[32:96, 32:96] = cfg.c_liq

    def reset_at_step_0(c, report):
        if report.step_index == 0:
            tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        run(c0, 6, cfg.window, cfg.eos, cfg.solver, g, observer=reset_at_step_0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / c0.nbytes <= 12.5


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
        dict(tau=1.0, preconditioner="ilu"),
        dict(tau=1.0, mobility=0.0),
        dict(tau=1.0, on_violation="ignore"),
        dict(tau=1.0, energy_slack_rel=-1e-3),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            SolverConfig(**kwargs)

    def test_effective_step(self):
        assert SolverConfig(tau=2.0, mobility=3.0).tau_eff() == 6.0

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
        g, _, cfg = droplet_setup
        c_bar = 2000.0
        c0 = np.full(g.cell_shape(), c_bar)
        mu_exact = float(bulk_chemical_potential(c_bar, nc4))
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
        assert np.array_equal(c, c0)

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

    def test_mobility_is_a_time_rescaling(self, nc4, window, droplet_setup):
        g, c0, _ = droplet_setup
        a, _ = run(c0, 1, window, nc4, SolverConfig(tau=2e9, mobility=5.0), g)
        b, _ = run(c0, 1, window, nc4, SolverConfig(tau=1e10, mobility=1.0), g)
        assert np.array_equal(a, b)

    def test_shape_mismatch(self, nc4, window, droplet_setup):
        g, _, cfg = droplet_setup
        with pytest.raises(ParameterError, match="shape"):
            run(np.full((3, 3), 1000.0), 1, window, nc4, cfg, g)

    def test_out_of_window_state_warns_when_continuing(self, nc4, window, droplet_setup):
        g, _, cfg = droplet_setup
        c_low = np.full(g.cell_shape(), 0.5 * window.c_m)
        with pytest.warns(UserWarning, match="density window"):
            run(c_low, 1, window, nc4, cfg, g)

    def test_out_of_window_state_raises_when_aborting(self, nc4, window, droplet_setup):
        g, _, _ = droplet_setup
        cfg = SolverConfig(tau=1e10, on_violation="abort")
        c_low = np.full(g.cell_shape(), 0.5 * window.c_m)
        with pytest.raises(BoundsViolationError):
            run(c_low, 1, window, nc4, cfg, g)


@pytest.fixture(scope="module")
def marched(nc4, window, droplet_setup):
    g, c0, cfg = droplet_setup
    c, reports = run(c0, 50, window, nc4, cfg, g)
    return g, c0, c, reports


class TestRun:
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
