import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prphase import Grid2D, ParameterError
from prphase.grid import _Checkerboard

from conftest import inner, minus_laplacian
from reference import gradient_sq_norm


@pytest.fixture(params=[(3, 3), (4, 7), (100, 100)], ids=lambda s: f"{s[0]}x{s[1]}")
def mesh(request):
    nx, ny = request.param
    return Grid2D(nx=nx, ny=ny, h=0.37)


def norm(a, g):
    return float(np.sqrt(inner(a, a, g)))


def face_gradient_sq_norm(c, g):
    """||grad_h c||^2 in the staggered form: differences on x- and y-face
    fields whose boundary layers stay zero, summed over interior faces."""
    u = np.zeros((g.ny, g.nx + 1))
    u[:, 1:-1] = (c[:, 1:] - c[:, :-1]) / g.h
    v = np.zeros((g.ny + 1, g.nx))
    v[1:-1, :] = (c[1:, :] - c[:-1, :]) / g.h
    return (float(g.h * g.h * np.sum(u[:, 1:-1] * u[:, 1:-1]))
            + float(g.h * g.h * np.sum(v[1:-1, :] * v[1:-1, :])))


def stencil_scale(c, g):
    """(4/h^2) max|c|: the size of the terms the stencil cancels."""
    return 4.0 / (g.h * g.h) * float(np.max(np.abs(c)))


class TestGrid2D:
    def test_geometry(self):
        g = Grid2D(nx=4, ny=3, h=0.5, x0=-1.0, y0=2.0)
        assert g.lx == 2.0 and g.ly == 1.5
        assert g.ncells == 12
        X, Y = g.cell_centers()
        assert (X.shape, Y.shape) == ((1, 4), (3, 1))
        assert np.broadcast_shapes(X.shape, Y.shape) == g.cell_shape() == (3, 4)
        assert X[0, 0] == -0.75 and Y[0, 0] == 2.25
        assert X[0, 3] == 0.75 and Y[2, 0] == 3.25

    @pytest.mark.parametrize("kwargs", [
        dict(nx=0, ny=3, h=1.0),
        dict(nx=3, ny=-1, h=1.0),
        dict(nx=3, ny=3, h=0.0),
        dict(nx=3, ny=3, h=float("nan")),
        dict(nx=2.5, ny=3, h=1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            Grid2D(**kwargs)


class TestDifferenceOperators:
    """The gradient norm and the Laplacian the solver applies."""

    def test_constant_has_zero_differences(self, unit_grid):
        c = np.full(unit_grid.cell_shape(), 3.7)
        assert gradient_sq_norm(c, unit_grid) == 0.0
        # the folded stencil, d*c - k*(sum of neighbours), leaves round-off
        lap = minus_laplacian(c, unit_grid)
        assert np.max(np.abs(lap)) <= 1e-14 * stencil_scale(c, unit_grid)

    def test_linear_field_exact_gradient(self, unit_grid):
        g = unit_grid
        X, Y = g.cell_centers()
        c = 2.0 * X - 3.0 * Y
        want = g.h**2 * (4.0 * g.ny * (g.nx - 1) + 9.0 * g.nx * (g.ny - 1))
        assert gradient_sq_norm(c, g) == pytest.approx(want, rel=1e-13)
        # zero inside; each boundary face carries no flux, so a boundary
        # cell keeps only its inner face's difference
        want = np.zeros(g.cell_shape())
        want[:, 0] -= 2.0 / g.h
        want[:, -1] += 2.0 / g.h
        want[0, :] += 3.0 / g.h
        want[-1, :] -= 3.0 / g.h
        lap = minus_laplacian(c, g)
        assert np.max(np.abs(lap - want)) <= 1e-14 * stencil_scale(c, g)

    def test_impulse_row_by_hand(self):
        # 1x4 strip, h=2: an impulse at cell 1 has differences 1/2 and -1/2
        # on its two faces, and the stencil is the three-point [1, -2, 1]/h^2
        g = Grid2D(nx=4, ny=1, h=2.0)
        c = np.array([[0.0, 1.0, 0.0, 0.0]])
        assert gradient_sq_norm(c, g) == 2.0
        lap = -minus_laplacian(c, g)
        assert lap.tolist() == [[0.25, -0.5, 0.25, 0.0]]

    def test_shape_mismatch_rejected(self, unit_grid):
        wrong = np.zeros((unit_grid.ny + 1, unit_grid.nx + 1))
        with pytest.raises(ParameterError, match="expected cell shape"):
            gradient_sq_norm(wrong, unit_grid)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gradient_sq_norm_is_the_face_form(self, data):
        # with and without a (larger) scratch buffer; the sum of at most 84
        # nonnegative terms, in another order and without the 1/h and h^2
        # scalings, so to within 1e-13 relative (about 450 ulps), plus the
        # smallest normal float for squares below the normal range
        g = Grid2D(nx=data.draw(st.integers(1, 7)), ny=data.draw(st.integers(1, 7)),
                   h=data.draw(st.floats(1e-10, 1.0)))
        c = data.draw(hnp.arrays(np.float64, g.cell_shape(), elements=st.floats(-1e4, 1e4)))
        want = face_gradient_sq_norm(c, g)
        got = gradient_sq_norm(c, g)
        assert abs(got - want) <= 1e-13 * want + np.finfo(float).tiny
        assert gradient_sq_norm(c, g, scratch=np.empty(g.ncells + 3)) == got

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_halves_gradient_is_the_face_form(self, data):
        # the norm the per-state pass takes on the march's red and black
        # halves, each face once from its black cell, the pads left out
        g = Grid2D(nx=data.draw(st.integers(1, 9)), ny=data.draw(st.integers(1, 9)), h=0.5)
        c = data.draw(hnp.arrays(np.float64, g.cell_shape(), elements=st.floats(-1e4, 1e4)))
        board = _Checkerboard(g)
        scratch = np.zeros((2, board.size))
        scratch[:, board.span] = np.nan  # its spans are written before they are read
        got = board.gradient_sq_norm_of(board.split(c, np.zeros((2, board.size))), scratch)()
        want = face_gradient_sq_norm(c, g)
        assert abs(got - want) <= 1e-13 * want + np.finfo(float).tiny


class TestInnerProduct:
    def test_constant_measures_domain_area(self, unit_grid):
        ones = np.ones(unit_grid.cell_shape())
        assert inner(ones, ones, unit_grid) == pytest.approx(unit_grid.lx * unit_grid.ly,
                                                             rel=1e-14)

    def test_cauchy_schwarz(self, unit_grid, rng):
        a = rng.standard_normal(unit_grid.cell_shape())
        b = rng.standard_normal(unit_grid.cell_shape())
        assert abs(inner(a, b, unit_grid)) <= norm(a, unit_grid) * norm(b, unit_grid) * (1 + 1e-14)

    def test_shape_mismatch(self, unit_grid):
        # cell fields only
        for a, b in ((np.ones((2, 2)), np.ones((3, 3))), (np.ones((2, 2)), np.ones((2, 2)))):
            with pytest.raises(ParameterError, match="expected cell shape"):
                inner(a, b, unit_grid)


class TestSummationByParts:
    """<grad_h a, grad_h b> = <a, -Lap_h b>, each direction on its own strip.

    A strip one cell wide has neighbours in one direction only.  The face
    product is taken by polarization of ``gradient_sq_norm``.
    """

    N_TRIALS = 100

    @classmethod
    def check_strip(cls, strip, rng):
        for _ in range(cls.N_TRIALS):
            a = rng.standard_normal(strip.cell_shape())
            b = rng.standard_normal(strip.cell_shape())
            lhs = (gradient_sq_norm(a + b, strip) - gradient_sq_norm(a - b, strip)) / 4.0
            rhs = inner(a, minus_laplacian(b, strip), strip)
            scale = max(norm(a, strip) * np.sqrt(gradient_sq_norm(b, strip)) / strip.h, 1e-30)
            assert abs(lhs - rhs) <= 1e-13 * scale

    def test_x_adjointness(self, mesh, rng):
        self.check_strip(Grid2D(nx=mesh.nx, ny=1, h=mesh.h), rng)

    def test_y_adjointness(self, mesh, rng):
        self.check_strip(Grid2D(nx=1, ny=mesh.ny, h=mesh.h), rng)

    def test_boundary_faces_do_not_contribute(self, mesh, rng):
        # the stencil is the full five-point one on the field extended by
        # ghost cells that copy their boundary neighbour: no difference,
        # hence no flux, across a boundary face
        c = rng.standard_normal(mesh.cell_shape())
        e = np.pad(c, 1, mode="edge")
        full = (4.0 * c - e[1:-1, 2:] - e[1:-1, :-2] - e[2:, 1:-1] - e[:-2, 1:-1]) / mesh.h**2
        lap = minus_laplacian(c, mesh)
        assert np.max(np.abs(lap - full)) <= 1e-14 * stencil_scale(c, mesh)


def laplacian_matrix(g):
    n = g.ncells
    mat = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        mat[:, k] = -minus_laplacian(e.reshape(g.cell_shape()), g).ravel()
    return mat


class TestLaplacian:
    def test_annihilates_constants(self, mesh):
        c = np.full(mesh.cell_shape(), 2.5)
        lap = minus_laplacian(c, mesh)
        assert np.max(np.abs(lap)) <= 1e-14 * stencil_scale(c, mesh)

    def test_conserves_mass(self, mesh, rng):
        # <L c, 1> = 0: no-flux boundaries mean nothing leaves the domain
        c = rng.standard_normal(mesh.cell_shape())
        ones = np.ones(mesh.cell_shape())
        total = inner(minus_laplacian(c, mesh), ones, mesh)
        assert abs(total) <= 1e-12 * norm(c, mesh)

    def test_dirichlet_identity(self, mesh, rng):
        # <-L c, c> equals the squared gradient norm, hence L is negative
        # semidefinite
        c = rng.standard_normal(mesh.cell_shape())
        lhs = inner(minus_laplacian(c, mesh), c, mesh)
        assert lhs == pytest.approx(gradient_sq_norm(c, mesh), rel=1e-12)
        assert lhs >= 0

    def test_symmetry(self, mesh, rng):
        c1 = rng.standard_normal(mesh.cell_shape())
        c2 = rng.standard_normal(mesh.cell_shape())
        lc1 = minus_laplacian(c1, mesh)
        a = inner(lc1, c2, mesh)
        b = inner(c1, minus_laplacian(c2, mesh), mesh)
        # scaled by the Cauchy-Schwarz bound on |a|, which no cancellation shrinks
        assert abs(a - b) <= 1e-13 * norm(lc1, mesh) * norm(c2, mesh)

    def test_null_space_is_constants_only(self):
        g = Grid2D(nx=5, ny=4, h=0.7)
        mat = laplacian_matrix(g)
        eigvals = np.linalg.eigvalsh(-(g.h**2) * mat)
        assert eigvals[0] == pytest.approx(0.0, abs=1e-12)
        assert eigvals[1] > 1e-3  # spectral gap: only one zero mode

    def test_dense_matrix_on_3x3(self):
        g = Grid2D(nx=3, ny=3, h=0.5)
        mat = laplacian_matrix(g) * g.h**2
        # hand-assembled stencil: -(# neighbours) on the diagonal, +1 per
        # edge-adjacent neighbour, flat index i + nx*j
        expected = np.zeros((9, 9))
        for j in range(3):
            for i in range(3):
                k = i + 3 * j
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < 3 and 0 <= jj < 3:
                        expected[k, ii + 3 * jj] += 1.0
                        expected[k, k] -= 1.0
        assert np.allclose(mat, expected, rtol=0, atol=1e-13)


class TestWindowCutoffInequalities:
    """Difference-operator bounds on the clipped fields c^- and c^+.

    With c^- = min(c - c_m, 0) and c^+ = max(c - c_M, 0),

        ||grad_h c^-||^2 <= <-Lap_h c, c^->   (same for c^+)

    These are what turn the multiplier bounds into a per-step maximum
    principle for the density.
    """

    @pytest.fixture(params=[0, 1, 2, 3])
    def field(self, request, rng):
        g = Grid2D(nx=9, ny=7, h=0.3)
        c = rng.uniform(-2.0, 2.0, size=g.cell_shape())
        return g, c

    @staticmethod
    def clip_low(c, c_m=-0.5):
        return np.minimum(c - c_m, 0.0)

    @staticmethod
    def clip_high(c, c_M=0.5):
        return np.maximum(c - c_M, 0.0)

    @staticmethod
    def holds(c, w, g):
        lhs = gradient_sq_norm(w, g)
        rhs = inner(minus_laplacian(c, g), w, g)
        return lhs <= rhs + 1e-12 * max(abs(rhs), 1.0)

    @pytest.mark.parametrize("clip", ["clip_low", "clip_high"])
    def test_x_direction(self, field, clip):
        # a 1x9 strip: x-neighbours only
        g, c = field
        strip, c = Grid2D(nx=9, ny=1, h=g.h), c[:1, :]
        assert self.holds(c, getattr(self, clip)(c), strip)

    @pytest.mark.parametrize("clip", ["clip_low", "clip_high"])
    def test_y_direction(self, field, clip):
        # the same nine values on a 9x1 strip: y-neighbours only
        g, c = field
        strip, c = Grid2D(nx=1, ny=9, h=g.h), c[:1, :].reshape(9, 1)
        assert self.holds(c, getattr(self, clip)(c), strip)

    @pytest.mark.parametrize("clip", ["clip_low", "clip_high"])
    def test_combined_laplacian_form(self, field, clip):
        g, c = field
        assert self.holds(c, getattr(self, clip)(c), g)
