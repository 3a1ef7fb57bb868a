import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prphase import (
    BoundsViolationError,
    DomainError,
    EfParams,
    Grid2D,
    ParameterError,
    R_DEFAULT,
    minimal_lambda,
)
from prphase.ef import _PassLayout, _pointwise, require_in_window
from prphase.grid import _Checkerboard

import oracles
from conftest import C_GAS, C_LIQ, cell_coefficients, kernel_bulk_bound, nu_s_r
from reference import (
    bulk_chemical_potential,
    bulk_free_energy,
    g_and_gprime,
    mu_attraction,
    semi_implicit_potentials,
)

FROZEN = oracles.FROZEN


def grid_of(c, h=1e-9):
    """A grid whose cell shape is that of the 2-D field ``c``."""
    return Grid2D(nx=c.shape[1], ny=c.shape[0], h=h)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestMinimalLambda:
    def test_frozen_values(self):
        assert rel(minimal_lambda(0.7585), FROZEN["minimal_lambda_07585"]) < 1e-12
        assert rel(minimal_lambda(0.5), FROZEN["minimal_lambda_05"]) < 1e-12
        assert rel(minimal_lambda(FROZEN["epsilon_0"]), FROZEN["minimal_lambda_eps0"]) < 1e-12

    def test_small_packing_gives_small_shift(self):
        assert minimal_lambda(1e-3) < 1e-2

    def test_monotone_in_packing_fraction(self):
        es = np.linspace(0.01, 0.99, 99)
        lams = [minimal_lambda(float(e)) for e in es]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            minimal_lambda(bad)


class TestEfParams:
    def test_for_window_defaults_to_minimal_shift(self, nc4):
        ef = EfParams.for_window(100.0, 9000.0, nc4)
        assert ef.epsilon_0 == nc4.beta * 9000.0
        assert ef.lam == minimal_lambda(ef.epsilon_0)

    def test_override_upward_allowed(self, nc4):
        ef = EfParams.for_window(100.0, 9000.0, nc4, lam=50.0)
        assert ef.lam == 50.0

    def test_override_downward_rejected(self, nc4):
        lam_min = minimal_lambda(nc4.beta * 9000.0)
        with pytest.raises(ParameterError, match="upward"):
            EfParams.for_window(100.0, 9000.0, nc4, lam=0.9 * lam_min)

    def test_minimal_shift_within_roundoff_accepted(self, nc4):
        lam_min = minimal_lambda(nc4.beta * 9000.0)
        ef = EfParams.for_window(100.0, 9000.0, nc4, lam=lam_min * (1.0 - 1e-13))
        assert ef.lam == pytest.approx(lam_min)

    @pytest.mark.parametrize(
        "c_m,c_M",
        [(-1.0, 100.0), (0.0, 100.0), (100.0, 100.0), (200.0, 100.0)],
    )
    def test_bad_window_rejected(self, nc4, c_m, c_M):
        with pytest.raises(ParameterError):
            EfParams.for_window(c_m, c_M, nc4)

    def test_window_above_packing_limit_rejected(self, nc4):
        with pytest.raises(ParameterError, match="packing"):
            EfParams.for_window(100.0, 1.5 / nc4.beta, nc4)


class TestFactorG:
    def test_square_identity(self, nc4, window, rng):
        # G is defined through G^2 = lam*c - c*ln(1-beta*c)
        cs = rng.uniform(window.c_m, window.c_M, size=2000)
        g, _ = g_and_gprime(cs, window.lam, nc4)
        expected = window.lam * cs - cs * np.log1p(-nc4.beta * cs)
        assert np.all(np.abs(g * g - expected) <= 1e-13 * expected)

    def test_positive_on_window(self, nc4, window, rng):
        cs = rng.uniform(window.c_m, window.c_M, size=2000)
        g, gp = g_and_gprime(cs, window.lam, nc4)
        assert np.all(g > 0)
        assert np.all(np.isfinite(gp))

    def test_derivative_matches_finite_difference(self, nc4, window, rng):
        cs = rng.uniform(window.c_m, window.c_M, size=1000)
        delta = 1e-6 * cs
        gp = g_and_gprime(cs, window.lam, nc4)[1]
        fd = (
            g_and_gprime(cs + delta, window.lam, nc4)[0]
            - g_and_gprime(cs - delta, window.lam, nc4)[0]
        ) / (2.0 * delta)
        assert np.all(np.abs(fd - gp) <= 1e-6 * np.abs(gp))

    def test_concave_on_window(self, nc4, window, rng):
        # second differences stay nonpositive up to a tiny relative slack
        cs = rng.uniform(window.c_m, window.c_M, size=10_000)
        delta = 1e-4 * cs
        g0 = g_and_gprime(cs, window.lam, nc4)[0]
        gp_ = g_and_gprime(cs + delta, window.lam, nc4)[0]
        gm = g_and_gprime(cs - delta, window.lam, nc4)[0]
        assert np.all(gp_ - 2.0 * g0 + gm <= 1e-12 * g0)

    def test_undersized_shift_detected(self, nc4):
        # lam small enough to push G^2 through zero is reported by the
        # kernel, not NaN'd
        with pytest.raises(DomainError, match="too small"):
            _pointwise(9000.0, nc4, -2.0, "test")

    def test_oracle_values(self, nc4, window):
        g, gp = g_and_gprime(C_LIQ, window.lam, nc4)
        assert rel(float(g), float(oracles.g_value(C_LIQ, window.lam))) < 1e-12
        assert rel(float(gp), float(oracles.g_prime(C_LIQ, window.lam))) < 1e-12


class TestMuAttraction:
    def test_small_density_slope(self, nc4):
        # mu_attraction ~ -2*alpha*c as c -> 0
        c = 1e-6 / nc4.beta
        assert rel(float(mu_attraction(c, nc4)), -2.0 * nc4.alpha * c) < 1e-3

    def test_finite_difference(self, nc4, rng):
        cs = rng.uniform(0.9 * C_GAS, 1.1 * C_LIQ, size=500)
        delta = 1e-6 * cs
        f = lambda c: np.asarray(bulk_free_energy(c, nc4).attraction)
        fd = (f(cs + delta) - f(cs - delta)) / (2.0 * delta)
        mu = np.asarray(mu_attraction(cs, nc4))
        assert np.all(np.abs(fd - mu) <= 1e-6 * np.abs(mu))

    def test_oracle_values(self, nc4):
        assert rel(float(mu_attraction(C_LIQ, nc4)), FROZEN["mu_attraction_liq"]) < 1e-12
        assert rel(float(mu_attraction(C_GAS, nc4)), FROZEN["mu_attraction_gas"]) < 1e-12

    def test_domain_error_at_packing_limit(self, nc4, window):
        # one cell at c = 1/beta among good ones reaches the packing-limit
        # branch of the domain rule
        c = np.full((3, 4), 1000.0)
        c[2, 1] = 1.0 / nc4.beta
        with pytest.raises(DomainError, match="packing limit"):
            cell_coefficients(c, window, nc4, grid_of(c))


class TestSchemeCoefficients:
    def test_nu_positive_and_decreasing(self, nc4, window):
        cs = np.linspace(window.c_m, window.c_M, 1000)
        vals, _ = nu_s_r(cs, window, nc4)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_nu_endpoint_oracle(self, nc4, window):
        assert rel(float(nu_s_r(window.c_m, window, nc4)[0]), FROZEN["nu_c_m"]) < 1e-12
        assert rel(float(nu_s_r(window.c_M, window, nc4)[0]), FROZEN["nu_c_M"]) < 1e-12

    def test_splitting_identity(self, nc4, window, rng):
        # nu(c)*c - s_r(c) reproduces the exact bulk chemical potential
        cs = rng.uniform(window.c_m, window.c_M, size=1000)
        nus, srs = nu_s_r(cs, window, nc4)
        lhs = nus * cs - srs
        mu = np.asarray(bulk_chemical_potential(cs, nc4))
        assert np.all(np.abs(lhs - mu) <= 1e-10 * np.abs(mu))

    def test_s_r_oracle(self, nc4, window):
        got = float(nu_s_r(C_LIQ, window, nc4)[1])
        want = float(oracles.s_r(C_LIQ, window.lam))
        assert rel(got, want) < 1e-12

    def test_preserves_field_shape(self, nc4, window):
        c = np.full((4, 5), 1000.0)
        coeffs = cell_coefficients(c, window, nc4, grid_of(c))
        assert coeffs.nu.shape == (4, 5)
        assert coeffs.s_r.shape == (4, 5)


class TestRequireInWindow:
    def test_out_of_window_reports_cell(self, window):
        c = np.full((4, 5), 1000.0)
        c[2, 3] = window.c_M * 1.5
        with pytest.raises(BoundsViolationError) as exc:
            require_in_window(c, window, "test")
        assert exc.value.cell_index == 2 * 5 + 3
        assert exc.value.value == pytest.approx(window.c_M * 1.5)

    def test_below_window_rejected(self, window):
        c = np.full((1, 6), window.c_m)
        c[0, 4] = 0.5 * window.c_m
        with pytest.raises(BoundsViolationError) as exc:
            require_in_window(c, window, "test")
        assert exc.value.cell_index == 4

    def test_empty_field_passes(self, window):
        require_in_window(np.empty((0, 3)), window, "test")

    def test_offenders_only_below_name_the_first(self, window):
        # the maximum sits on c_M, so only the minimum fails the extremes
        # check, and the scan names the first offender, not the minimum
        c = np.full((3, 4), window.c_M)
        c[1, 1] = 0.9 * window.c_m
        c[2, 3] = 0.5 * window.c_m
        with pytest.raises(BoundsViolationError) as exc:
            require_in_window(c, window, "test")
        assert exc.value.cell_index == 1 * 4 + 1
        assert exc.value.value == 0.9 * window.c_m

    def test_bounds_slack_absorbs_roundoff(self, window):
        slack = 1e-10 * window.c_M
        assert window.slack == slack
        c = np.full((1, 3), window.c_M + 0.5 * slack)
        require_in_window(c, window, "test")
        with pytest.raises(BoundsViolationError):
            require_in_window(c + slack, window, "test")


def draw_grid(data):
    return Grid2D(nx=data.draw(st.integers(1, 6), label="nx"),
                  ny=data.draw(st.integers(1, 6), label="ny"),
                  h=data.draw(st.floats(1e-10, 1.0), label="h"))


class TestFusedPass:
    """scheme_coefficients, the per-state pass, against the mpmath oracles."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pass_and_evaluators_match_the_oracles(self, nc4, window, data):
        g = draw_grid(data)
        c = data.draw(hnp.arrays(np.float64, g.cell_shape(),
                                 elements=st.floats(window.c_m, window.c_M)), label="c")
        coeffs = cell_coefficients(c, window, nc4, g)
        for cell, got_nu, got_sr in zip(c.ravel(), coeffs.nu.ravel(), coeffs.s_r.ravel()):
            assert rel(got_nu, float(oracles.nu(cell, window.lam))) < 1e-12
            assert rel(got_sr, float(oracles.s_r(cell, window.lam))) < 1e-12
        f_b = [oracles.f_total(cell) for cell in c.ravel()]
        bulk = float(g.h * g.h * mp.fsum(f_b))
        bulk_scale = float(g.h * g.h * mp.fsum(abs(f) for f in f_b))
        cm = [[mp.mpf(v) for v in row] for row in c.tolist()]
        pairs = [(row[i], row[i + 1]) for row in cm for i in range(g.nx - 1)]
        pairs += [(a, b) for lo, hi in zip(cm, cm[1:]) for a, b in zip(lo, hi)]
        gradient = float(0.5 * nc4.kappa * mp.fsum((b - a) ** 2 for a, b in pairs))
        energy = coeffs.energy
        assert abs(energy.bulk - bulk) <= 1e-12 * bulk_scale
        assert abs(energy.gradient - gradient) <= 1e-12 * gradient
        assert abs(energy.total - (bulk + gradient)) <= 1e-12 * (bulk_scale + gradient)
        assert (coeffs.c_min, coeffs.c_max) == (float(np.min(c)), float(np.max(c)))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_nonpositive_cell_raises_domain_error(self, nc4, window, data):
        g = draw_grid(data)
        c = np.full(g.cell_shape(), 0.5 * (window.c_m + window.c_M))
        cell = data.draw(st.integers(0, g.ncells - 1), label="cell")
        c.ravel()[cell] = data.draw(st.floats(max_value=0.0, allow_infinity=False), label="value")
        with pytest.raises(DomainError, match="positive"):
            cell_coefficients(c, window, nc4, g)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_cell_raises_domain_error(self, nc4, window, bad):
        c = np.full((3, 4), 1000.0)
        c[1, 2] = bad
        with pytest.raises(DomainError, match="finite"):
            cell_coefficients(c, window, nc4, grid_of(c))

    def test_shape_mismatch(self, nc4, window):
        g = Grid2D(nx=2, ny=3, h=1.0)
        board = _Checkerboard(g)
        fields = [np.zeros((2, board.size)) for _ in range(5)]
        with pytest.raises(ParameterError, match="shape"):
            _PassLayout(np.full((2, board.size + 1), 1000.0), fields, board)


class TestSemiImplicitPotentials:
    def test_fixed_point_recovers_exact_potentials(self, nc4, window, rng):
        RT = R_DEFAULT * nc4.T
        cs = rng.uniform(window.c_m, window.c_M, size=1000)
        pots = semi_implicit_potentials(cs, cs, window, nc4)
        mu_ideal_exact = RT * (np.log(cs) + 1.0)
        bc = nc4.beta * cs
        mu_rep_exact = -RT * np.log1p(-bc) + RT * bc / (1.0 - bc)
        assert np.all(np.abs(pots.mu_ideal - mu_ideal_exact) <= 1e-12 * np.abs(mu_ideal_exact))
        assert np.all(np.abs(pots.mu_repulsion - mu_rep_exact) <= 1e-12 * np.abs(mu_rep_exact))

    def test_fixed_point_sums_to_bulk_potential(self, nc4, window, rng):
        cs = rng.uniform(window.c_m, window.c_M, size=1000)
        pots = semi_implicit_potentials(cs, cs, window, nc4)
        total = pots.mu_ideal + pots.mu_repulsion + np.asarray(mu_attraction(cs, nc4))
        mu = np.asarray(bulk_chemical_potential(cs, nc4))
        assert np.all(np.abs(total - mu) <= 1e-10 * np.abs(mu))


@pytest.fixture(scope="module")
def pairs(window):
    r = np.random.default_rng(1534)
    c_old = r.uniform(window.c_m, window.c_M, size=10_000)
    c_new = r.uniform(window.c_m, window.c_M, size=10_000)
    return c_old, c_new


class TestFactorizationInequalities:
    """Per-term dissipation bounds behind the unconditional energy stability.

    Each semi-implicit potential must bound its share of the free-energy
    increment from above for arbitrary old/new states inside the window.
    """

    SLACK = 1e-9

    def test_ideal_term(self, nc4, window, pairs):
        c_old, c_new = pairs
        f = lambda c: np.asarray(bulk_free_energy(c, nc4).ideal)
        lhs = f(c_new) - f(c_old)
        mu = semi_implicit_potentials(c_old, c_new, window, nc4).mu_ideal
        rhs = mu * (c_new - c_old)
        slack = self.SLACK * (np.abs(f(c_new)) + np.abs(f(c_old)) + np.abs(rhs))
        assert np.all(lhs <= rhs + slack)

    def test_factor_square_bound(self, nc4, window, pairs):
        c_old, c_new = pairs
        g_old, gp_old = g_and_gprime(c_old, window.lam, nc4)
        g_new = g_and_gprime(c_new, window.lam, nc4)[0]
        dc = c_new - c_old
        g_lin = g_old + gp_old * dc
        lhs = g_new * g_new - g_old * g_old
        rhs = (g_lin + g_old) * gp_old * dc
        slack = self.SLACK * (g_new * g_new + g_old * g_old + np.abs(rhs))
        assert np.all(lhs <= rhs + slack)

    def test_repulsion_term(self, nc4, window, pairs):
        c_old, c_new = pairs
        f = lambda c: np.asarray(bulk_free_energy(c, nc4).repulsion)
        lhs = f(c_new) - f(c_old)
        mu = semi_implicit_potentials(c_old, c_new, window, nc4).mu_repulsion
        rhs = mu * (c_new - c_old)
        slack = self.SLACK * (np.abs(f(c_new)) + np.abs(f(c_old)) + np.abs(rhs))
        assert np.all(lhs <= rhs + slack)

    def test_attraction_term(self, nc4, window, pairs):
        # the concave part is bounded by its tangent at the old state
        c_old, c_new = pairs
        f = lambda c: np.asarray(bulk_free_energy(c, nc4).attraction)
        lhs = f(c_new) - f(c_old)
        rhs = np.asarray(mu_attraction(c_old, nc4)) * (c_new - c_old)
        slack = self.SLACK * (np.abs(f(c_new)) + np.abs(f(c_old)) + np.abs(rhs))
        assert np.all(lhs <= rhs + slack)

    def test_combined_bulk_bound(self, nc4, window, pairs):
        # summing the four bounds controls the whole bulk increment
        c_old, c_new = pairs
        f = lambda c: np.asarray(bulk_free_energy(c, nc4).total)
        lhs = f(c_new) - f(c_old)
        pots = semi_implicit_potentials(c_old, c_new, window, nc4)
        mu = pots.mu_ideal + pots.mu_repulsion + np.asarray(mu_attraction(c_old, nc4))
        rhs = mu * (c_new - c_old)
        slack = self.SLACK * (np.abs(f(c_new)) + np.abs(f(c_old)) + np.abs(rhs))
        assert np.all(lhs <= rhs + slack)

    def test_kernel_combined_bound(self, nc4, window, pairs):
        # the combined bound on the fields the march runs: f_b/c, nu and s_r
        # of the pointwise kernel
        lhs, rhs, scale = kernel_bulk_bound(*pairs, window, nc4)
        assert np.all(lhs <= rhs + self.SLACK * scale)
