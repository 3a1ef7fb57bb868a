import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prphase import (
    AdmissibleInterval,
    EfParams,
    Grid2D,
    ParameterError,
    admissible_interval,
    derive_eos_params,
    diagnostics,
    get_substance,
    shape_anisotropy,
)
from prphase.ef import _PassLayout, _pointwise
from prphase.grid import _Checkerboard

import oracles
import reference
from conftest import C_GAS, C_LIQ, cell_coefficients, nu_s_r
from reference import bulk_free_energy

FROZEN = oracles.FROZEN


class TestDiscreteEnergy:
    """The discrete energy, as the per-state pass reports it."""

    def test_uniform_field(self, nc4, window, unit_grid):
        c_bar = 3000.0
        c = np.full(unit_grid.cell_shape(), c_bar)
        e = cell_coefficients(c, window, nc4, unit_grid).energy
        expected = unit_grid.lx * unit_grid.ly * float(bulk_free_energy(c_bar, nc4).total)
        assert e.gradient == 0.0
        assert e.bulk == pytest.approx(expected, rel=1e-13)
        assert e.total == e.bulk

    def test_brute_force_3x3(self, nc4, window):
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

        e = cell_coefficients(c, window, replace(nc4, kappa=kappa), g).energy
        assert e.bulk == pytest.approx(bulk, rel=1e-13)
        assert e.gradient == pytest.approx(grad, rel=1e-13)
        assert e.total == pytest.approx(bulk + grad, rel=1e-13)

    def test_gradient_scales_linearly_in_kappa(self, nc4, window, unit_grid, rng):
        c = rng.uniform(500.0, 9000.0, size=unit_grid.cell_shape())
        g1, g2 = (cell_coefficients(c, window, replace(nc4, kappa=kappa), unit_grid)
                  .energy.gradient for kappa in (1.0, 2.5))
        assert g2 == pytest.approx(2.5 * g1, rel=1e-13)
        assert g1 > 0

    def test_shape_mismatch(self, nc4, window, unit_grid):
        # the pass takes the state as a pair in the board's layout, not a cell field
        board = _Checkerboard(unit_grid)
        fields = [np.zeros((2, board.size)) for _ in range(5)]
        with pytest.raises(ParameterError, match="shape"):
            _PassLayout(np.full(unit_grid.cell_shape(), 1000.0), fields, board)


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
        nus, srs = nu_s_r(cs, window, nc4)
        lo = float(np.max(window.c_m * nus - srs))
        hi = float(np.min(window.c_M * nus - srs))
        assert iv.mu_lower == pytest.approx(lo, rel=1e-9)
        assert iv.mu_upper == pytest.approx(hi, rel=1e-9)
        # the refined extrema can only improve on any finite scan
        assert iv.mu_lower >= lo - 1e-9 * abs(lo)
        assert iv.mu_upper <= hi + 1e-9 * abs(hi)

    def test_ends_match_the_mpmath_envelope_extrema(self, nc4, window):
        # FROZEN pins oracles.envelope_extrema for exactly this window
        assert (window.c_m, window.c_M, window.lam) == (
            224.20107000000002, 10479.527080000002, 27.365631502878895)
        iv = admissible_interval(window, nc4)
        for got, key in ((iv.mu_lower, "mu_lower_window"), (iv.mu_upper, "mu_upper_window")):
            assert abs(got - FROZEN[key]) <= 1e-14 * abs(FROZEN[key]), key

    @pytest.mark.parametrize("fm, fM", [(0.9, 1.1), (0.8, 1.2), (0.7, 1.3)])
    def test_few_kernel_calls(self, nc4, monkeypatch, fm, fM):
        # the scan and each zoom round are one vectorized call; a scalar
        # refinement would make dozens
        calls = []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return _pointwise(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "_pointwise", counted)
        admissible_interval(EfParams.for_window(fm * C_GAS, fM * C_LIQ, nc4), nc4)
        assert 1 <= len(calls) <= 8

    def test_sampling_density_converged(self, nc4, window, monkeypatch):
        monkeypatch.setattr(diagnostics, "_SCAN_POINTS", 20000)
        a = admissible_interval(window, nc4)
        monkeypatch.setattr(diagnostics, "_SCAN_POINTS", 40000)
        b = admissible_interval(window, nc4)
        assert abs(a.mu_lower - b.mu_lower) <= 1e-8 * abs(b.mu_lower)
        assert abs(a.mu_upper - b.mu_upper) <= 1e-8 * abs(b.mu_upper)

    # above nC4's critical temperature there is no coexistence, but the
    # envelope is still defined
    @pytest.mark.filterwarnings("ignore:T = .* critical temperature:UserWarning")
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_coarse_scan_finds_the_dense_scans_ends(self, data):
        p = derive_eos_params(get_substance("nC4"), data.draw(st.floats(150.0, 600.0), label="T"))
        top = 0.999 / p.beta
        c_m = data.draw(st.floats(10.0, top, exclude_max=True), label="c_m")
        c_M = data.draw(st.floats(c_m, top, exclude_min=True), label="c_M")
        ef = EfParams.for_window(c_m, c_M, p)
        iv = admissible_interval(ef, p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics, "_SCAN_POINTS", 20000)
            dense = admissible_interval(ef, p)
        # relative to the larger end, since either end may cross zero; the
        # worst of 3 000 such draws read 2.1e-13
        scale = max(abs(dense.mu_lower), abs(dense.mu_upper))
        assert abs(iv.mu_lower - dense.mu_lower) <= 1e-12 * scale
        assert abs(iv.mu_upper - dense.mu_upper) <= 1e-12 * scale

    @pytest.mark.parametrize("width", [1e-6, 1e-12])
    def test_degenerate_window_limits(self, nc4, width):
        # as c_M -> c_m the envelopes collapse onto single evaluations; at the
        # narrower width the scan itself is at float resolution
        c_m = C_GAS
        c_M = c_m * (1.0 + width)
        ef = EfParams.for_window(c_m, c_M, nc4)
        iv = admissible_interval(ef, nc4)
        nu_m, sr_m = (float(v) for v in nu_s_r(c_m, ef, nc4))
        lo_expected = c_m * nu_m - sr_m
        hi_expected = c_M * nu_m - sr_m
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

    @pytest.mark.parametrize("ny,nx,shape,centre,size", [
        (64, 64, "square", (0.5, 0.5), 0.25),      # even grid, centroid on a cell corner
        (63, 63, "square", (0.5, 0.5), 0.25),      # odd grid, centroid on a cell centre
        (63, 63, "disk", (0.5, 0.5), 0.3),
        (33, 33, "square", (0.5, 0.5), 0.1),       # odd side about the middle cell
        (64, 64, "square", (0.31, 0.62), 0.17),    # off centre
        (64, 64, "disk", (0.37, 0.61), 0.2),
        (48, 80, "disk", (0.7, 0.4), 0.25),        # non-square grids
        (75, 40, "square", (0.3, 0.55), 0.2),
        (75, 40, "rectangle", (0.5, 0.5), 0.3),
        (17, 29, "disk", (0.05, 0.9), 0.3),        # cut by two edges
        (16, 16, "cell", (0.3, 0.7), 0.0),         # one cell
        (1, 9, "square", (0.5, 0.5), 0.3),         # one row
    ])
    def test_matches_full_grid_formula(self, ny, nx, shape, centre, size):
        # the reference takes the moments and arctan2 on full coordinate
        # grids; dyadic h and origin keep its centroid exact, so a cell at
        # the centroid has theta = 0 there as well
        g = Grid2D(nx=nx, ny=ny, h=1.0 / 64, x0=-0.25, y0=0.5)
        X, Y = g.cell_centers()
        u = (X - g.x0) / g.lx - centre[0]
        v = (Y - g.y0) / g.ly - centre[1]
        if shape == "square":
            inside = (np.abs(u) < size) & (np.abs(v) < size)
        elif shape == "rectangle":
            inside = (np.abs(u) < size) & (np.abs(v) < 0.5 * size)
        elif shape == "disk":
            inside = u * u + v * v < size * size
        else:
            inside = np.zeros(g.cell_shape(), dtype=bool)
            inside[int(centre[1] * ny), int(centre[0] * nx)] = True
        c = np.where(inside, 1.0, 0.0)
        assert 0 < np.count_nonzero(c) < c.size
        got = shape_anisotropy(c, g, 0.5)
        assert abs(got - reference.shape_anisotropy(c, g, 0.5)) <= 1e-12

    def test_cell_at_centroid_counts_as_one(self):
        # a plus of five cells: the middle one has theta = 0, and the four
        # arms cos(4*theta) = 1, so the mean is 1 and the moments balance
        g = Grid2D(nx=7, ny=7, h=0.1)
        c = np.zeros(g.cell_shape())
        c[3, 2:5] = c[2:5, 3] = 1.0
        assert shape_anisotropy(c, g, 0.5) == 1.0
        c[3, 3] = 0.0  # the four arms alone
        assert shape_anisotropy(c, g, 0.5) == 1.0

    def test_transient_memory_is_a_fraction_of_a_field(self):
        # The mask is the only full-size array: 0.39 fields on a 400x400
        # field with 81% coverage, against 6.18 on full coordinate grids.
        g = Grid2D(nx=400, ny=400, h=3e-10)
        c = np.zeros(g.cell_shape())
        c[20:380, 20:380] = 1.0
        assert np.count_nonzero(c) == 81 * c.size // 100
        shape_anisotropy(c, g, 0.5)  # first-call allocations stay out
        tracemalloc.start()
        try:
            shape_anisotropy(c, g, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / c.nbytes <= 0.45

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
