import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prphase import Grid2D, ParameterError, discrete_laplacian, inner, norm
from prphase.grid import diff_x_c, diff_x_u, diff_y_c, diff_y_v, gradient_sq_norm


@pytest.fixture(params=[(3, 3), (4, 7), (100, 100)], ids=lambda s: f"{s[0]}x{s[1]}")
def mesh(request):
    nx, ny = request.param
    return Grid2D(nx=nx, ny=ny, h=0.37)


class TestGrid2D:
    def test_geometry(self):
        g = Grid2D(nx=4, ny=3, h=0.5, x0=-1.0, y0=2.0)
        assert g.lx == 2.0 and g.ly == 1.5
        assert g.ncells == 12
        assert g.area == pytest.approx(3.0)
        X, Y = g.cell_centers()
        assert X.shape == g.cell_shape() == (3, 4)
        assert X[0, 0] == -0.75 and Y[0, 0] == 2.25
        assert X[2, 3] == 0.75 and Y[2, 3] == 3.25

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
    def test_constant_has_zero_differences(self, unit_grid):
        c = np.full(unit_grid.cell_shape(), 3.7)
        assert np.all(diff_x_c(c, unit_grid) == 0)
        assert np.all(diff_y_c(c, unit_grid) == 0)
        assert np.all(discrete_laplacian(c, unit_grid) == 0)

    def test_linear_field_exact_gradient(self, unit_grid):
        X, Y = unit_grid.cell_centers()
        c = 2.0 * X - 3.0 * Y
        dx = diff_x_c(c, unit_grid)
        dy = diff_y_c(c, unit_grid)
        assert np.allclose(dx[:, 1:-1], 2.0, rtol=1e-13, atol=0)
        assert np.allclose(dy[1:-1, :], -3.0, rtol=1e-13, atol=0)
        # boundary faces encode the no-flux condition
        assert np.all(dx[:, 0] == 0) and np.all(dx[:, -1] == 0)
        assert np.all(dy[0, :] == 0) and np.all(dy[-1, :] == 0)

    def test_impulse_row_by_hand(self):
        # 1x4 strip, h=2: differencing an impulse at cell 1 and bringing it
        # back to cells applies the three-point stencil [1, -2, 1]/h^2
        g = Grid2D(nx=4, ny=1, h=2.0)
        c = np.array([[0.0, 1.0, 0.0, 0.0]])
        u = diff_x_c(c, g)
        assert u.tolist() == [[0.0, 0.5, -0.5, 0.0, 0.0]]
        lap = diff_x_u(u, g)
        assert lap.tolist() == [[0.25, -0.5, 0.25, 0.0]]

    def test_shape_mismatch_rejected(self, unit_grid):
        wrong = np.zeros((unit_grid.ny + 1, unit_grid.nx + 1))
        for op in (diff_x_c, diff_y_c, diff_x_u, diff_y_v):
            with pytest.raises(ParameterError, match="expected shape"):
                op(wrong, unit_grid)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gradient_sq_norm_is_the_face_form(self, data):
        # bitwise, with and without a (larger) scratch buffer
        g = Grid2D(nx=data.draw(st.integers(1, 7)), ny=data.draw(st.integers(1, 7)),
                   h=data.draw(st.floats(1e-10, 1.0)))
        c = data.draw(hnp.arrays(np.float64, g.cell_shape(), elements=st.floats(-1e4, 1e4)))
        want = (inner(diff_x_c(c, g), diff_x_c(c, g), g)
                + inner(diff_y_c(c, g), diff_y_c(c, g), g))
        assert gradient_sq_norm(c, g) == want
        assert gradient_sq_norm(c, g, scratch=np.empty(g.ncells + 3)) == want


class TestInnerProduct:
    def test_constant_measures_domain_area(self, unit_grid):
        ones = np.ones(unit_grid.cell_shape())
        assert inner(ones, ones, unit_grid) == pytest.approx(unit_grid.area, rel=1e-14)

    def test_face_products_skip_boundary(self, unit_grid):
        u = np.ones(unit_grid.xface_shape())
        # only nx-1 interior x-faces per row carry weight
        expected = unit_grid.h**2 * unit_grid.ny * (unit_grid.nx - 1)
        assert inner(u, u, unit_grid) == pytest.approx(expected, rel=1e-14)
        v = np.ones(unit_grid.yface_shape())
        expected = unit_grid.h**2 * unit_grid.nx * (unit_grid.ny - 1)
        assert inner(v, v, unit_grid) == pytest.approx(expected, rel=1e-14)

    def test_cauchy_schwarz(self, unit_grid, rng):
        a = rng.standard_normal(unit_grid.cell_shape())
        b = rng.standard_normal(unit_grid.cell_shape())
        assert abs(inner(a, b, unit_grid)) <= norm(a, unit_grid) * norm(b, unit_grid) * (1 + 1e-14)

    def test_shape_mismatch(self, unit_grid):
        with pytest.raises(ParameterError, match="mismatch"):
            inner(np.ones((2, 2)), np.ones((3, 3)), unit_grid)
        with pytest.raises(ParameterError, match="neither"):
            inner(np.ones((2, 2)), np.ones((2, 2)), unit_grid)


class TestSummationByParts:
    """<d_x c, u>_faces = -<c, d_x u>_cells and the y analogue."""

    N_TRIALS = 100

    def test_x_adjointness(self, mesh, rng):
        for _ in range(self.N_TRIALS):
            c = rng.standard_normal(mesh.cell_shape())
            u = rng.standard_normal(mesh.xface_shape())
            u[:, 0] = u[:, -1] = 0.0
            lhs = inner(diff_x_c(c, mesh), u, mesh)
            rhs = -inner(c, diff_x_u(u, mesh), mesh)
            scale = max(norm(c, mesh) * norm(u, mesh) / mesh.h, 1e-30)
            assert abs(lhs - rhs) <= 1e-13 * scale

    def test_y_adjointness(self, mesh, rng):
        for _ in range(self.N_TRIALS):
            c = rng.standard_normal(mesh.cell_shape())
            v = rng.standard_normal(mesh.yface_shape())
            v[0, :] = v[-1, :] = 0.0
            lhs = inner(diff_y_c(c, mesh), v, mesh)
            rhs = -inner(c, diff_y_v(v, mesh), mesh)
            scale = max(norm(c, mesh) * norm(v, mesh) / mesh.h, 1e-30)
            assert abs(lhs - rhs) <= 1e-13 * scale

    def test_boundary_faces_do_not_contribute(self, mesh, rng):
        # adjointness holds for arbitrary face data too, because the inner
        # product ignores the boundary layers entirely
        c = rng.standard_normal(mesh.cell_shape())
        u = rng.standard_normal(mesh.xface_shape())
        u_zeroed = u.copy()
        u_zeroed[:, 0] = u_zeroed[:, -1] = 0.0
        assert inner(diff_x_c(c, mesh), u, mesh) == inner(diff_x_c(c, mesh), u_zeroed, mesh)


def laplacian_matrix(g):
    n = g.ncells
    mat = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        mat[:, k] = discrete_laplacian(e.reshape(g.cell_shape()), g).ravel()
    return mat


class TestLaplacian:
    def test_annihilates_constants(self, mesh):
        c = np.full(mesh.cell_shape(), 2.5)
        assert np.all(discrete_laplacian(c, mesh) == 0)

    def test_conserves_mass(self, mesh, rng):
        # <L c, 1> = 0: no-flux boundaries mean nothing leaves the domain
        c = rng.standard_normal(mesh.cell_shape())
        ones = np.ones(mesh.cell_shape())
        total = inner(discrete_laplacian(c, mesh), ones, mesh)
        assert abs(total) <= 1e-12 * norm(c, mesh)

    def test_dirichlet_identity(self, mesh, rng):
        # <-L c, c> equals the squared gradient norm, hence L is negative
        # semidefinite
        c = rng.standard_normal(mesh.cell_shape())
        lhs = -inner(discrete_laplacian(c, mesh), c, mesh)
        grad_sq = (
            inner(diff_x_c(c, mesh), diff_x_c(c, mesh), mesh)
            + inner(diff_y_c(c, mesh), diff_y_c(c, mesh), mesh)
        )
        assert lhs == pytest.approx(grad_sq, rel=1e-12)
        assert lhs >= 0

    def test_symmetry(self, mesh, rng):
        c1 = rng.standard_normal(mesh.cell_shape())
        c2 = rng.standard_normal(mesh.cell_shape())
        a = inner(discrete_laplacian(c1, mesh), c2, mesh)
        b = inner(c1, discrete_laplacian(c2, mesh), mesh)
        assert abs(a - b) <= 1e-13 * max(abs(a), abs(b), 1.0)

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

        <d_x[c^-], d_x[c^-]> <= -<d_x^u[d_x[c]], c^->   (same for c^+, y)

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

    @pytest.mark.parametrize("clip", ["clip_low", "clip_high"])
    def test_x_direction(self, field, clip):
        g, c = field
        w = getattr(self, clip)(c)
        lhs = inner(diff_x_c(w, g), diff_x_c(w, g), g)
        rhs = -inner(diff_x_u(diff_x_c(c, g), g), w, g)
        assert lhs <= rhs + 1e-12 * max(abs(rhs), 1.0)

    @pytest.mark.parametrize("clip", ["clip_low", "clip_high"])
    def test_y_direction(self, field, clip):
        g, c = field
        w = getattr(self, clip)(c)
        lhs = inner(diff_y_c(w, g), diff_y_c(w, g), g)
        rhs = -inner(diff_y_v(diff_y_c(c, g), g), w, g)
        assert lhs <= rhs + 1e-12 * max(abs(rhs), 1.0)

    @pytest.mark.parametrize("clip", ["clip_low", "clip_high"])
    def test_combined_laplacian_form(self, field, clip):
        g, c = field
        w = getattr(self, clip)(c)
        lhs = (
            inner(diff_x_c(w, g), diff_x_c(w, g), g)
            + inner(diff_y_c(w, g), diff_y_c(w, g), g)
        )
        rhs = -inner(discrete_laplacian(c, g), w, g)
        assert lhs <= rhs + 1e-12 * max(abs(rhs), 1.0)
