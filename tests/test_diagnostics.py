import numpy as np
import pytest

from prphase import (
    AdmissibleInterval,
    EfParams,
    Grid2D,
    ParameterError,
    admissible_interval,
    bulk_free_energy,
    discrete_energy,
    shape_anisotropy,
)
from prphase.ef import nu, s_r

import oracles
from conftest import C_GAS, C_LIQ

FROZEN = oracles.FROZEN


class TestDiscreteEnergy:
    def test_uniform_field(self, nc4, unit_grid):
        c_bar = 3000.0
        c = np.full(unit_grid.cell_shape(), c_bar)
        e = discrete_energy(c, nc4, nc4.kappa, unit_grid)
        expected = unit_grid.area * float(bulk_free_energy(c_bar, nc4).total)
        assert e.gradient == 0.0
        assert e.bulk == pytest.approx(expected, rel=1e-13)
        assert e.total == e.bulk

    def test_brute_force_3x3(self, nc4):
        g = Grid2D(nx=3, ny=3, h=0.5)
        r = np.random.default_rng(3)
        c = r.uniform(500.0, 9000.0, size=(3, 3))
        kappa = 0.125

        bulk = 0.0
        for j in range(3):
            for i in range(3):
                bulk += g.h**2 * float(bulk_free_energy(c[j, i], nc4).total)
        grad = 0.0
        for j in range(3):
            for i in range(2):  # interior x-faces
                grad += g.h**2 * ((c[j, i + 1] - c[j, i]) / g.h) ** 2
        for j in range(2):  # interior y-faces
            for i in range(3):
                grad += g.h**2 * ((c[j + 1, i] - c[j, i]) / g.h) ** 2
        grad *= 0.5 * kappa

        e = discrete_energy(c, nc4, kappa, g)
        assert e.bulk == pytest.approx(bulk, rel=1e-13)
        assert e.gradient == pytest.approx(grad, rel=1e-13)
        assert e.total == pytest.approx(bulk + grad, rel=1e-13)

    def test_gradient_scales_linearly_in_kappa(self, nc4, unit_grid, rng):
        c = rng.uniform(500.0, 9000.0, size=unit_grid.cell_shape())
        g1 = discrete_energy(c, nc4, 1.0, unit_grid).gradient
        g2 = discrete_energy(c, nc4, 2.5, unit_grid).gradient
        assert g2 == pytest.approx(2.5 * g1, rel=1e-13)
        assert g1 > 0

    def test_shape_mismatch(self, nc4, unit_grid):
        with pytest.raises(ParameterError, match="shape"):
            discrete_energy(np.full((2, 2), 1000.0), nc4, nc4.kappa, unit_grid)


class TestAdmissibleInterval:
    def test_interval_semantics(self):
        iv = AdmissibleInterval(mu_lower=1.0, mu_upper=2.0)
        assert not iv.empty
        assert iv.contains(1.0) and iv.contains(2.0) and iv.contains(1.5)
        assert not iv.contains(0.999) and not iv.contains(2.001)
        assert AdmissibleInterval(mu_lower=2.0, mu_upper=1.0).empty

    def test_working_window_is_nonempty(self, nc4, window):
        iv = admissible_interval(window, nc4)
        assert not iv.empty
        assert iv.mu_upper > iv.mu_lower

    def test_contains_coexistence_potential(self, nc4, window):
        # a uniform state at either coexistence density is a fixed point with
        # multiplier mu_b, so mu_b must sit inside the interval
        iv = admissible_interval(window, nc4)
        assert iv.contains(FROZEN["mu_b_gas"])
        assert iv.contains(FROZEN["mu_b_liq"])

    def test_matches_dense_envelope_scan(self, nc4, window):
        iv = admissible_interval(window, nc4)
        cs = np.linspace(window.c_m, window.c_M, 200_001)
        nus = np.asarray(nu(cs, window, nc4))
        srs = np.asarray(s_r(cs, window, nc4))
        lo = float(np.max(window.c_m * nus - srs))
        hi = float(np.min(window.c_M * nus - srs))
        assert iv.mu_lower == pytest.approx(lo, rel=1e-9)
        assert iv.mu_upper == pytest.approx(hi, rel=1e-9)
        # the refined extrema can only improve on any finite scan
        assert iv.mu_lower >= lo - 1e-9 * abs(lo)
        assert iv.mu_upper <= hi + 1e-9 * abs(hi)

    def test_sampling_density_converged(self, nc4, window):
        a = admissible_interval(window, nc4, n_samples=20000)
        b = admissible_interval(window, nc4, n_samples=40000)
        assert abs(a.mu_lower - b.mu_lower) <= 1e-8 * abs(b.mu_lower)
        assert abs(a.mu_upper - b.mu_upper) <= 1e-8 * abs(b.mu_upper)

    def test_degenerate_window_limits(self, nc4):
        # as c_M -> c_m the envelopes collapse onto single evaluations
        c_m = C_GAS
        c_M = c_m * (1.0 + 1e-6)
        ef = EfParams.for_window(c_m, c_M, nc4)
        iv = admissible_interval(ef, nc4)
        lo_expected = c_m * float(nu(c_m, ef, nc4)) - float(s_r(c_m, ef, nc4))
        hi_expected = c_M * float(nu(c_m, ef, nc4)) - float(s_r(c_m, ef, nc4))
        assert iv.mu_lower == pytest.approx(lo_expected, rel=1e-4)
        assert iv.mu_upper == pytest.approx(hi_expected, rel=1e-4)

    def test_nested_windows_give_nested_intervals(self, nc4):
        # widening the density window admits more states, hence more
        # multiplier values
        pairs = [(0.9, 1.1), (0.8, 1.2), (0.7, 1.3)]
        ivs = [
            admissible_interval(
                EfParams.for_window(fm * C_GAS, fM * C_LIQ, nc4), nc4
            )
            for fm, fM in pairs
        ]
        for small, big in zip(ivs, ivs[1:]):
            assert big.mu_lower <= small.mu_lower
            assert big.mu_upper >= small.mu_upper

    def test_sample_count_validated(self, nc4, window):
        with pytest.raises(ParameterError, match="n_samples"):
            admissible_interval(window, nc4, n_samples=1)


def indicator_grid(n=64):
    return Grid2D(nx=n, ny=n, h=1.0 / n)


class TestShapeAnisotropy:
    def test_disk_scores_low(self):
        g = indicator_grid(64)
        X, Y = g.cell_centers()
        c = np.where((X - 0.5) ** 2 + (Y - 0.5) ** 2 < 0.3**2, 1.0, 0.0)
        assert shape_anisotropy(c, g, 0.5) < 0.02

    def test_disk_scores_low_off_center(self):
        g = indicator_grid(96)
        X, Y = g.cell_centers()
        c = np.where((X - 0.37) ** 2 + (Y - 0.61) ** 2 < 0.2**2, 1.0, 0.0)
        assert shape_anisotropy(c, g, 0.5) < 0.02

    def test_square_scores_high(self):
        g = indicator_grid(64)
        X, Y = g.cell_centers()
        c = np.where((np.abs(X - 0.5) < 0.25) & (np.abs(Y - 0.5) < 0.25), 1.0, 0.0)
        assert shape_anisotropy(c, g, 0.5) > 0.1

    def test_rectangle_dominated_by_moment_imbalance(self):
        g = indicator_grid(64)
        X, Y = g.cell_centers()
        c = np.where((np.abs(X - 0.5) < 0.4) & (np.abs(Y - 0.5) < 0.2), 1.0, 0.0)
        # for a 2:1 box the second-moment term alone is (4-1)/(4+1) = 0.6
        assert shape_anisotropy(c, g, 0.5) > 0.5

    def test_square_beats_its_relaxed_disk(self):
        # the ordering the droplet experiment relies on
        g = indicator_grid(100)
        X, Y = g.cell_centers()
        square = np.where((np.abs(X - 0.5) < 0.25) & (np.abs(Y - 0.5) < 0.25), 1.0, 0.0)
        disk = np.where((X - 0.5) ** 2 + (Y - 0.5) ** 2 < 0.25**2, 1.0, 0.0)
        assert shape_anisotropy(disk, g, 0.5) < shape_anisotropy(square, g, 0.5)

    def test_full_coverage_returns_zero(self):
        g = indicator_grid(8)
        assert shape_anisotropy(np.ones(g.cell_shape()), g, 0.5) == 0.0

    def test_empty_indicator_rejected(self):
        g = indicator_grid(8)
        with pytest.raises(ParameterError, match="threshold"):
            shape_anisotropy(np.zeros(g.cell_shape()), g, 0.5)

    def test_shape_mismatch(self):
        g = indicator_grid(8)
        with pytest.raises(ParameterError, match="shape"):
            shape_anisotropy(np.ones((4, 4)), g, 0.5)
