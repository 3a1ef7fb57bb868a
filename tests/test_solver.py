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
    inner,
    norm,
    run,
    solve_spd,
    step,
)
from prphase.solver import apply_operator, operator_diagonal

from conftest import C_GAS, C_LIQ


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


class TestOperator:
    def test_no_gradient_term_is_pointwise(self, toy):
        g, coeffs, cfg, _, r = toy
        c = r.standard_normal(g.cell_shape())
        got = apply_operator(c, coeffs, cfg, 0.0, g)
        assert np.array_equal(got, c / cfg.tau_eff() + coeffs.nu * c)

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
        g, coeffs, cfg, kappa, _ = toy
        mat = dense_operator(g, coeffs, cfg, kappa)
        got = operator_diagonal(coeffs, cfg, kappa, g).ravel()
        assert np.allclose(got, np.diag(mat), rtol=1e-13, atol=0)


class TestSolveSpd:
    def test_manufactured_solution(self, toy):
        g, coeffs, cfg, kappa, r = toy
        x_true = r.standard_normal(g.cell_shape())
        rhs = apply_operator(x_true, coeffs, cfg, kappa, g)
        x, iters, res = solve_spd(rhs, coeffs, cfg, kappa, g)
        assert res <= cfg.cg_rel_tol
        assert iters > 0
        assert norm(x - x_true, g) <= 1e-8 * norm(x_true, g)

    def test_matches_dense_solve(self):
        g = Grid2D(nx=3, ny=3, h=0.5)
        r = np.random.default_rng(11)
        coeffs = SchemeCoefficients(
            nu=r.uniform(1.0, 2.0, size=(3, 3)), s_r=np.zeros((3, 3))
        )
        cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-13)
        kappa = 0.2
        rhs = r.standard_normal((3, 3))
        mat = dense_operator(g, coeffs, cfg, kappa)
        x_direct = np.linalg.solve(mat, rhs.ravel()).reshape(3, 3)
        x_cg, _, _ = solve_spd(rhs, coeffs, cfg, kappa, g)
        assert np.max(np.abs(x_cg - x_direct)) <= 1e-8 * np.max(np.abs(x_direct))

    def test_zero_rhs_short_circuits(self, toy):
        g, coeffs, cfg, kappa, _ = toy
        x, iters, res = solve_spd(np.zeros(g.cell_shape()), coeffs, cfg, kappa, g)
        assert np.all(x == 0) and iters == 0 and res == 0.0

    def test_warm_start_at_solution_returns_immediately(self, toy):
        g, coeffs, cfg, kappa, r = toy
        x_true = r.standard_normal(g.cell_shape())
        rhs = apply_operator(x_true, coeffs, cfg, kappa, g)
        x, iters, _ = solve_spd(rhs, coeffs, cfg, kappa, g, x0=x_true)
        assert iters == 0
        assert np.array_equal(x, x_true)

    def test_jacobi_solves_diagonal_system_in_one_iteration(self, toy):
        g, coeffs, cfg, _, r = toy
        rhs = r.standard_normal(g.cell_shape())
        x, iters, _ = solve_spd(rhs, coeffs, cfg, 0.0, g)
        assert iters == 1
        diag = 1.0 / cfg.tau_eff() + coeffs.nu
        assert np.allclose(x, rhs / diag, rtol=1e-12, atol=0)

    def test_unpreconditioned_fallback(self, toy):
        g, coeffs, _, kappa, r = toy
        cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-12, preconditioner="none")
        x_true = r.standard_normal(g.cell_shape())
        rhs = apply_operator(x_true, coeffs, cfg, kappa, g)
        x, iters, _ = solve_spd(rhs, coeffs, cfg, kappa, g)
        assert norm(x - x_true, g) <= 1e-8 * norm(x_true, g)

    def test_iteration_cap_raises_with_history(self, toy):
        g, coeffs, _, kappa, r = toy
        cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-14, cg_max_iter=1)
        rhs = r.standard_normal(g.cell_shape())
        with pytest.raises(ConvergenceError) as exc:
            solve_spd(rhs, coeffs, cfg, kappa, g)
        assert len(exc.value.residual_history) == 2
        assert exc.value.residual_history[0] > 0


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
        c1, report = step(c0, window, nc4, cfg, g)
        mu_exact = float(bulk_chemical_potential(c_bar, nc4))
        assert abs(report.mu_e - mu_exact) <= 1e-10 * abs(mu_exact)
        assert np.max(np.abs(c1 - c_bar)) <= 1e-10 * c_bar
        assert report.all_ok

    def test_mass_pinned_to_target(self, nc4, window, droplet_setup):
        g, c0, cfg = droplet_setup
        c_t = inner(c0, np.ones(g.cell_shape()), g)
        _, report = step(c0, window, nc4, cfg, g)
        assert abs(report.mass - c_t) <= 1e-12 * abs(c_t)

    def test_report_invariants_on_droplet(self, nc4, window, droplet_setup):
        g, c0, cfg = droplet_setup
        _, report = step(c0, window, nc4, cfg, g)
        assert report.admissibility_ok
        assert report.bounds_ok
        assert report.energy_decreased
        assert window.c_m <= report.c_min <= report.c_max <= window.c_M

    def test_mobility_is_a_time_rescaling(self, nc4, window, droplet_setup):
        g, c0, _ = droplet_setup
        a, _ = step(c0, window, nc4, SolverConfig(tau=2e9, mobility=5.0), g)
        b, _ = step(c0, window, nc4, SolverConfig(tau=1e10, mobility=1.0), g)
        assert np.array_equal(a, b)

    def test_shape_mismatch(self, nc4, window, droplet_setup):
        g, _, cfg = droplet_setup
        with pytest.raises(ParameterError, match="shape"):
            step(np.full((3, 3), 1000.0), window, nc4, cfg, g)

    def test_out_of_window_state_warns_when_continuing(self, nc4, window, droplet_setup):
        g, _, cfg = droplet_setup
        c_low = np.full(g.cell_shape(), 0.5 * window.c_m)
        with pytest.warns(UserWarning, match="density window"):
            step(c_low, window, nc4, cfg, g)

    def test_out_of_window_state_raises_when_aborting(self, nc4, window, droplet_setup):
        g, _, _ = droplet_setup
        cfg = SolverConfig(tau=1e10, on_violation="abort")
        c_low = np.full(g.cell_shape(), 0.5 * window.c_m)
        with pytest.raises(BoundsViolationError):
            step(c_low, window, nc4, cfg, g)


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
