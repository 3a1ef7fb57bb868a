"""Semi-implicit time stepper with a mass-constraint multiplier.

One step solves, for the new cell field c and a scalar mu_e,

    c/tau_eff - kappa*Lap(c) + nu(c_old)*c = c_old/tau_eff + s_r(c_old) + mu_e
    <c, 1> = c_t                                       (total moles fixed)

where tau_eff = mobility*tau and Lap is the Neumann five-point Laplacian.
The operator A = I/tau_eff - kappa*Lap + nu is symmetric positive definite.

Colour the cells like a checkerboard.  The five-point stencil couples a red
cell only to black ones, so A's red block is diagonal and the red unknowns
are eliminated exactly, x_R = D_R^-1 (b_R + mu_e + N_R x_B); the mass
constraint then gives mu_e from x_B.  ``solve_spd`` runs conjugate
gradients on the black cells alone, on the Schur complement S = D_B -
N_B D_R^-1 N_R plus the rank-one term that eliminating mu_e adds: the
reduced system of Hageman & Young (Applied Iterative Methods, 1981, ch. 9).
Its preconditioner, diag(S) plus that rank-one term, is applied exactly by
Sherman-Morrison.  The red residual is zero by construction, so the black
residual is the whole residual of the iterate with its reds eliminated.
After the loop the reds and mu_e follow, and one correction puts the mass
back to round-off, whatever the solver tolerance.  On the droplet run this
takes 823 iterations where the projected Jacobi iteration it replaced took
1 546.

Each colour is held as one flat half of a grid whose rows are padded to an
odd width, so a cell's colour is the parity of its padded flat index and a
half-stencil is four shifted slices of one flat run (``_Checkerboard``).
Over s = kappa/h^2, A = e - N with e (1/tau_eff folded in) built in nu's
field once per solve.  The sums run through ``np.einsum`` and ndarray
``sum``, not BLAS, so a run gives the same bits whatever the number of BLAS threads.

``run`` starts step 1 from c_old.  Every later step starts from the point
of c_old + span{D^1, ..., D^m} whose error has the smallest norm in the
reduced operator, the D^j being the Newton backward differences of the
last m + 1 states (m up to ``START_DIRECTIONS``), each less its mean: the
projection of successive right-hand sides of Fischer (Comput. Methods Appl.
Mech. Engrg. 163, 1998).  Only their black cells count; with the reds
eliminated, that start is never worse in A-norm than c_old + (D^1 - mean
D^1), the linear extrapolation of the last change.  On the droplet run it
takes 823 iterations against 2 338 from c_old.  The half-stencils sum each
cell's x pair and y pair first, so a symmetric droplet stays symmetric to
the last bit.

``run`` evaluates and measures every state once, with
``ef.scheme_coefficients``: the pass gives the state's energy and extreme
densities for its report and the next step's nu and s_r.  ``run`` alone
judges the state: one report per state, the initial one as step 0, holds
the window, multiplier and dissipation checks.

``run`` allocates the march's memory once: the state and the next state,
the START_DIRECTIONS differences, and one block that holds s_r's field and
the solve's work, which begins with nu's field and holds the pass's other
three.  It passes them down, so no step allocates a field, and no step pays
to fault freed memory back in.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics
from .ef import (EfParams, EnergyBreakdown, SchemeCoefficients, require_in_window,
                 scheme_coefficients)
from .eos import EosParams
from .errors import ConvergenceError, InvariantViolation, ParameterError
from .grid import Grid2D

log = logging.getLogger(__name__)

_PRECONDITIONERS = ("diagonal",)
_VIOLATION_MODES = ("continue", "abort")
#: Number of state differences ``run`` keeps to choose each solve's start.
#: A fourth cut the droplet run's iterations by a further quarter, but not
#: its wall time, and it costs one more field.
START_DIRECTIONS = 3


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the stepper; only ``tau`` has no default.

    tau : time-step size in s.
    cg_rel_tol : stop conjugate gradients once the step's residual has
        ||r|| <= cg_rel_tol*||rhs||, rhs = c_old/tau_eff + s_r.
    cg_max_iter : iteration cap; ``None`` means 10 * (number of cells).
    preconditioner : "diagonal", the only value: the diagonal of the
        black-cell system (``solve_spd``) plus its rank-one mass term.
    mobility : constant mobility folded into the effective step tau*mobility.
    on_violation : "continue" records failed invariant checks in the step
        report; "abort" raises instead.
    energy_slack_rel : dissipation checks allow an increase of this fraction
        of the reference energy (absorbs finite solver residuals only).
    bounds_slack_rel : window checks allow excursions of this fraction of
        max(|c_m|, |c_M|).
    """

    tau: float
    cg_rel_tol: float = 1e-10
    cg_max_iter: Optional[int] = None
    preconditioner: str = "diagonal"
    mobility: float = 1.0
    on_violation: str = "continue"
    energy_slack_rel: float = 1e-8
    bounds_slack_rel: float = 1e-10

    def __post_init__(self):
        # ParameterError.key names the field; the config loader maps it to a YAML key.
        rules = (
            ("tau", math.isfinite(self.tau) and self.tau > 0, "must be finite and positive"),
            ("cg_rel_tol", 0.0 < self.cg_rel_tol < 1.0, "must be positive and below 1"),
            ("cg_max_iter", self.cg_max_iter is None or self.cg_max_iter >= 1, "must be >= 1"),
            ("preconditioner", self.preconditioner in _PRECONDITIONERS,
             f"must be one of {_PRECONDITIONERS}"),
            ("mobility", math.isfinite(self.mobility) and self.mobility > 0,
             "must be finite and positive"),
            ("on_violation", self.on_violation in _VIOLATION_MODES,
             f"must be one of {_VIOLATION_MODES}"),
            ("energy_slack_rel", self.energy_slack_rel >= 0, "must be nonnegative"),
            ("bounds_slack_rel", self.bounds_slack_rel >= 0, "must be nonnegative"),
        )
        for key, ok, rule in rules:
            if not ok:
                raise ParameterError(f"{key}: {rule}, got {getattr(self, key)!r}", key=key)

    def tau_eff(self) -> float:
        return self.tau * self.mobility

    def resolved_max_iter(self, g: Grid2D) -> int:
        return self.cg_max_iter if self.cg_max_iter is not None else 10 * g.ncells

    def bounds_slack(self, ef: EfParams) -> float:
        """Absolute window allowance in mol/m^3 for the window of ``ef``."""
        return self.bounds_slack_rel * max(abs(ef.c_m), abs(ef.c_M))


@dataclass(frozen=True)
class StepReport:
    """Per-step record of the solve and the invariant checks.

    Step 0 describes the initial state: ``nan`` multiplier and residual,
    zero iterations, and only the window check is made.
    """

    step_index: int
    mu_e: float
    breakdown: EnergyBreakdown
    interval: diagnostics.AdmissibleInterval
    c_min: float
    c_max: float
    mass: float
    cg_iters: int
    residual: float
    admissibility_ok: bool
    bounds_ok: bool
    energy_decreased: bool

    @property
    def energy(self) -> float:
        """Total discrete energy in J."""
        return self.breakdown.total

    @property
    def all_ok(self) -> bool:
        return self.admissibility_ok and self.bounds_ok and self.energy_decreased


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a*b over two flat halves.

    einsum without ``optimize`` sums in its own loops, not through BLAS, so
    the result does not depend on the number of BLAS threads.
    """
    return float(np.einsum("i,i->", a, b))


def _fold_diagonal(d: np.ndarray, k: float, tau_eff: float) -> float:
    """Turn ``d``, holding nu, into A's diagonal over s in place; returns s.

    s = k = kappa/h^2, or 1 when k is 0.  The diagonal is nu + 1/tau_eff +
    k*(number of in-domain neighbours), a number that drops by one per
    domain edge the cell touches: the Neumann condition.
    """
    s = k or 1.0
    w = k / s
    d *= 1.0 / s
    d += 4.0 * w + 1.0 / (tau_eff * s)
    d[0, :] -= w
    d[-1, :] -= w
    d[:, 0] -= w
    d[:, -1] -= w
    return s


RED, BLACK = 0, 1
#: Flat halves of ``_Checkerboard.size`` that a solve works in.
_HALVES = 11


class _Checkerboard:
    """The red and the black cells of a grid, each colour packed in a flat half.

    Cell (i, j) is red when i + j is even, so every grid has a red cell.
    Pad each row with zero cells to the odd width ``wid`` (one in front, and
    one behind when nx is odd) and the grid with a zero row above and one
    below.  In the padded grid's flat order cell (i, j) sits at
    q = (i + 1)*wid + j + 1, which is even for red cells and odd for black
    ones, and index q // 2 of its colour's half holds it.  With
    h = (wid - 1)/2, red k's black neighbours are k, k - 1, k + h and
    k - h - 1, and black k's red neighbours k + 1, k, k + h + 1 and k - h.
    So a half-stencil is four shifted slices of one flat run, with no
    fix-up at the row ends, where the pads give zero.

    The slice ``span`` of a half holds all its cells, and the neighbour
    sums write there only; ``zero_pads`` clears what they write at the
    pads in it.  Each colour's cells are two strided blocks of the full
    field, those in even rows and those in odd ones, and two strided blocks
    of the half (``views``).
    """

    def __init__(self, g: Grid2D):
        ny, nx = g.ny, g.nx
        wid = nx + 1 if nx % 2 == 0 else nx + 2
        h = wid // 2
        self.wid = wid
        self.size = (ny + 2) * wid // 2 + 1
        lo, hi = h + 1, self.size - h - 1
        self.span = slice(lo, hi)
        # the other colour's neighbours of red cells, then of black ones:
        # the x pair, then the y pair
        self.shifts = tuple(tuple(slice(lo + d, hi + d) for d in shifts)
                            for shifts in ((0, -1, h, -h - 1), (1, 0, h + 1, -h)))
        top, bottom = (ny + 1) // 2, ny // 2  # rows of even and of odd i
        left, right = (nx + 1) // 2, nx // 2  # columns of even and of odd j
        even, odd = slice(0, None, 2), slice(1, None, 2)
        # (block of the full field, first index in the half, rows, columns)
        self.blocks = (
            (((even, even), h + 1, top, left), ((odd, odd), wid + 1, bottom, right)),
            (((even, odd), h + 1, top, right), ((odd, even), wid, bottom, left)),
        )
        # Pad column 0, and wid - 1 when it is not a cell, in every padded
        # row: the indices in span of each colour, wid apart.
        self.pads: Tuple[List[slice], List[slice]] = ([], [])
        for col in (0,) if wid == nx + 1 else (0, wid - 1):
            for row in (0, 1):
                first = (row * wid + col) // 2
                first += wid * max(0, -((first - lo) // wid))
                stop = min(((ny + 1) * wid + col) // 2 + 1, hi)
                if first < stop:
                    self.pads[(row + col) % 2].append(slice(first, stop, wid))

    def views(self, halves: np.ndarray, colour: int):
        """(index of the full field, view of ``halves``) of the two blocks of
        ``colour``; ``halves`` is one half or a stack of them, and each view
        has the stack's leading shape and then the block's rows and columns."""
        wid, lead = self.wid, halves.shape[:-1]
        return [(cells, halves[..., base:base + rows * wid].reshape(lead + (rows, wid))[..., :cols])
                for cells, base, rows, cols in self.blocks[colour]]

    def neighbours(self, src: np.ndarray, out: np.ndarray, colour: int,
                   scratch: Optional[np.ndarray] = None) -> None:
        """Sum of the neighbours in ``src``, halves of the other colour, of
        each cell of ``colour``, into ``out`` over ``span``.

        With ``scratch``, clobbered over ``span``, the x pair and the y pair
        are each summed first.  A half turn of the grid or a transposition
        maps a cell's pairs onto its image's, so that sum keeps those
        symmetries of a field to the last bit, and so does the march: a
        symmetric droplet's snapshots repeat most values four times, and
        ``experiment._row_texts`` formats each once.  Without ``scratch``
        the terms are added in turn, as the Galerkin start's sums allow.
        """
        o = out[..., self.span]
        a, b, c, d = self.shifts[colour]
        np.add(src[..., a], src[..., b], out=o)
        if scratch is None:
            o += src[..., c]
            o += src[..., d]
        else:
            o += np.add(src[..., c], src[..., d], out=scratch[..., self.span])

    def zero_pads(self, half: np.ndarray, colour: int) -> None:
        for pads in self.pads[colour]:
            half[pads] = 0.0

    def cells_only(self, half: np.ndarray, colour: int) -> None:
        """Zero everything in ``half`` that is not a cell of ``colour``."""
        half[:self.span.start] = 0.0
        half[self.span.stop:] = 0.0
        self.zero_pads(half, colour)


@functools.lru_cache(maxsize=8)
def _board(g: Grid2D) -> _Checkerboard:
    """The layout of ``g``, built once per grid: a march solves on one grid."""
    return _Checkerboard(g)


def solve_work_size(g: Grid2D) -> int:
    """Floats ``solve_spd`` works in on grid ``g``: eleven padded half-fields."""
    return _HALVES * _board(g).size


class _BlackSystem:
    """The step's system reduced to the black cells, in a solve's work buffer.

    Over s (``_fold_diagonal``) A is e - N, N summing the neighbours, and
    the step is A x = b + mu, sum(x) = m, with b = rhs/s and mu = mu_e/s.
    The red rows give x_R = d (b_R + mu + N_R x_B), d = 1/e_R, and with
    them the mass is sum(x_B) + <d, b_R + N_R x_B> + a*mu, a = sum(d).  The
    black rows become S x_B = b_B + N_B d b_R + mu*w, with the Schur
    complement S = e_B - N_B d N_R and w = 1 + N_B d, and taking mu from the
    mass leaves M x_B = f, M = S + w w'/a, symmetric positive definite.  The
    residual of M at x_B is A's at x_B with its reds and mu eliminated;
    that point's red residual is zero.

    The work buffer holds eleven halves (``_Checkerboard``), one per row of
    ``rows``: 1/diag(S) and w/diag(S) for the preconditioner, the red
    scratch t, the iterate x, three for the iteration (z, p and q), x's
    residual r, w, d and e_B.  ``load`` works on the pairs (t, x), (q, r)
    and (d, e_B), red then black, and ``galerkin_start`` stacks the basis in
    rows 0-2 and their neighbour sums in rows 4-6.  The neighbour sums and
    their scratch touch ``span`` only.  Each half is filled before the
    solve first reads it, and every entry off its colour's cells is zero
    whenever it is read, or is multiplied by a zero of d or 1/diag(S).
    """

    T, X, Z, Q, D = 2, 3, 4, 6, 9  # the rows load and lift name

    def __init__(self, g: Grid2D, k: float, work: np.ndarray):
        self.board = board = _board(g)
        self.k = k
        self.ncells = g.ncells
        self.rows = rows = work[:_HALVES * board.size].reshape(_HALVES, board.size)
        (self.inv_ds, self.inv_ds_w, self.t, self.x, self.z, self.p, self.q, self.r,
         self.w, self.d, self.e_b) = rows
        # each colour's two blocks in every row, for ``put`` and ``take``
        self.blocks = [board.views(rows, colour) for colour in (RED, BLACK)]

    def put(self, full: np.ndarray, row, colour: int) -> None:
        """The cells of ``colour`` of ``full`` into ``rows[row]``; ``row`` may
        be a slice of rows, and ``full`` a stack of as many cell fields."""
        for cells, view in self.blocks[colour]:
            view[row] = full[(Ellipsis,) + cells]

    def take(self, row: int, colour: int, full: np.ndarray) -> None:
        """The cells of ``colour`` from ``rows[row]`` into the cell field ``full``."""
        for cells, view in self.blocks[colour]:
            full[cells] = view[row]

    def load(self, e: np.ndarray, rhs: np.ndarray, s: float,
             x0: np.ndarray) -> Tuple[float, float, float]:
        """Split e, b = rhs/s and ``x0`` into halves and take x0's full residual.

        Returns (||b||, ||b + mu - A x0||, mu) with the mu that makes that
        residual smallest; its red cells are left in q and its black ones
        in r.  A field holds fewer floats than two halves, so a work buffer
        that begins with e's field shares it with rows 0 and 1 only, which
        are first written after e is split.
        """
        board, rows, span = self.board, self.rows, self.board.span
        tx, zp, qr, de = (rows[i:i + 2] for i in (self.T, self.Z, self.Q, self.D))
        for pair in (tx, qr, de):
            pair.fill(0.0)
        self.d.fill(1.0)  # inverted in place by ``reduce``
        for first, full in ((self.D, e), (self.T, x0), (self.Q, rhs)):
            self.put(full, first, RED)
            self.put(full, first + 1, BLACK)
        qr *= 1.0 / s
        b_norm = math.sqrt(float(np.einsum("ij,ij->", qr, qr)))
        qr -= np.multiply(de, tx, out=zp)
        q, r, z, p = self.q, self.r, self.z, self.p
        if self.k:
            for src, out, colour in ((self.x, q, RED), (self.t, r, BLACK)):
                board.neighbours(src, z, colour, p)
                out[span] += z[span]
        board.zero_pads(q, RED)
        board.zero_pads(r, BLACK)
        mu = -float(qr.sum()) / self.ncells
        qr[:, span] += mu
        board.zero_pads(q, RED)
        board.zero_pads(r, BLACK)
        return b_norm, math.sqrt(float(np.einsum("ij,ij->", qr, qr))), mu

    def reduce(self) -> None:
        """Build d and w, and turn r into the residual of M at x0_B."""
        board, d, w, q, r, z, span = (self.board, self.d, self.w, self.q, self.r, self.z,
                                      self.board.span)
        np.divide(1.0, d, out=d)
        board.cells_only(d, RED)
        self.a = float(d.sum())
        w.fill(0.0)
        if self.k:
            board.neighbours(d, w, BLACK, z)
        w[span] += 1.0
        board.zero_pads(w, BLACK)
        # x0's full residual is (q, r); eliminating the reds at x0_B adds
        # N_B d q and moves mu by -<d, q>/a, which keeps the mass
        q *= d
        if self.k:
            board.neighbours(q, z, BLACK, self.p)
            r[span] += z[span]
            board.zero_pads(r, BLACK)
        r += np.multiply(w, -float(q.sum()) / self.a, out=z)

    def build_preconditioner(self) -> None:
        """1/diag(S) and w/diag(S), with diag(S) = e_B - N_B d = e_B + 1 - w."""
        inv_ds = self.inv_ds
        np.subtract(self.e_b, self.w, out=inv_ds)
        inv_ds += 1.0  # 1 off the cells, until they are cleared
        np.divide(1.0, inv_ds, out=inv_ds)
        self.board.cells_only(inv_ds, BLACK)
        np.multiply(inv_ds, self.w, out=self.inv_ds_w)
        self.sm = self.a + _dot(self.w, self.inv_ds_w)

    def apply(self, p: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """out = M p = e_B p - N_B d N_R p + w <w, p>/a; ``scratch`` and t are clobbered."""
        if self.k:
            board, t, span = self.board, self.t, self.board.span
            board.neighbours(p, t, RED, scratch)
            t *= self.d
            board.neighbours(t, scratch, BLACK, out)
            o = out[span]
            np.multiply(self.e_b[span], p[span], out=o)
            o -= scratch[span]
            board.zero_pads(out, BLACK)
        else:
            np.multiply(self.e_b, p, out=out)
        out += np.multiply(self.w, _dot(self.w, p) / self.a, out=scratch)

    def precondition(self, r: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """out = (diag(S) + w w'/a)^-1 r, by Sherman-Morrison; ``scratch`` is clobbered."""
        np.multiply(self.inv_ds, r, out=out)
        out -= np.multiply(self.inv_ds_w, _dot(self.w, out) / self.sm, out=scratch)

    def galerkin_start(self, basis: np.ndarray) -> None:
        """Move x to the point of x + span(V_B) whose error has the smallest M-norm.

        V_B are the black cells of the fields of ``basis``, an (m, ny, nx)
        array, stacked in rows 0..m-1, and U = N_R V_B in rows 4..4+m-1.
        The coefficients c solve (V_B'M V_B) c = V_B'r, with
        V_B'M V_B = V_B'e_B V_B - U'd U + (V_B'w)(w'V_B)/a: three ``einsum``
        calls and one for V_B'r.  x then moves by V_B c, and r by M V_B c.
        """
        m, span, rows = len(basis), self.board.span, self.rows
        vb, u = rows[:m], rows[4:4 + m]
        vb.fill(0.0)
        self.put(basis, slice(0, m), BLACK)
        gram = np.einsum("ik,k,jk->ij", vb[:, span], self.e_b[span], vb[:, span])
        if self.k:
            self.board.neighbours(vb, u, RED)
            gram -= np.einsum("ik,k,jk->ij", u[:, span], self.d[span], u[:, span])
        vw = np.einsum("ik,k->i", vb, self.w)
        gram += np.multiply.outer(vw, vw / self.a)
        coef = _cholesky_solve(gram.tolist(), np.einsum("ik,k->i", vb, self.r).tolist())
        p = self.p
        np.einsum("i,ik->k", np.array(coef), vb, out=p)
        self.x += p
        self.apply(p, self.q, self.z)
        self.r -= self.q

    def lift(self, rhs: np.ndarray, s: float, m: float, x0: np.ndarray) -> float:
        """Write x and its eliminated red cells, at the mass m, into ``x0``; returns mu.

        The red cells at mu = 0 are t = d (b_R + N_R x_B).  mu then gives the
        mass by the halves' sums, and one more step of it, by x0's own sum,
        takes out what round-off left: 3.5e-16 of mass drift over the
        droplet run, against 1.4e-15 without that step.
        """
        x, t, z, d, span = self.x, self.t, self.z, self.d, self.board.span
        # z is finite everywhere, and d zero off the red cells
        self.put(rhs, self.Z, RED)
        z *= 1.0 / s
        if self.k:
            self.board.neighbours(x, self.p, RED, self.q)
            z[span] += self.p[span]
        np.multiply(z, d, out=t)
        mu = (m - float(x.sum()) - float(t.sum())) / self.a
        t += np.multiply(d, mu, out=z)
        self.take(self.X, BLACK, x0)
        self.take(self.T, RED, x0)
        step = (m - float(x0.sum())) / self.a
        t += np.multiply(d, step, out=z)
        self.take(self.T, RED, x0)
        return mu + step


def solve_spd(
    rhs: np.ndarray,
    coeffs: SchemeCoefficients,
    cfg: SolverConfig,
    kappa: float,
    g: Grid2D,
    x0: np.ndarray,
    basis: Sequence[np.ndarray] = (),
    work: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float, int, float]:
    """Reduced-system conjugate gradients for the constrained step.

    Solves A x = rhs + mu_e*1 for x and the scalar mu_e, with the mass
    <x, 1> fixed at that of ``x0``.  Returns (x, mu_e, iterations,
    ||r||/||rhs||), where r = rhs + mu_e*1 - A x.

    The solve consumes ``x0``, ``coeffs.nu`` and ``work``:

    - the solution is written into ``x0``, which is the returned x;
    - the diagonal of A over kappa/h^2 (``_fold_diagonal``) is built in
      ``coeffs.nu``'s field, which on return holds that scaled diagonal
      unless ``work`` overlaps it;
    - ``work``, a writeable contiguous 1-D float array of at least
      ``solve_work_size(g)`` elements apart from the other arguments, holds
      the reduced system (``_BlackSystem``) and is left clobbered.  It may
      begin with nu's field, which is read before that part of ``work`` is
      written.  Without it the solve allocates its own.

    ``rhs``, ``coeffs.s_r`` and ``basis`` are left as they are.

    When x0's own residual, with the mu_e that makes it smallest, has
    ||r|| <= cg_rel_tol*||rhs||, x0 is returned untouched after zero
    iterations.  Otherwise the red cells and mu_e are eliminated
    (``_BlackSystem``) and conjugate gradients, preconditioned by diag(S)
    plus the rank-one mass term, run on the black cells from x0's.  When
    ``basis`` (fields V, as an (m, ny, nx) array or a sequence of cell
    fields) is given, they start from the point of x0_B + span(V_B) whose
    error has the smallest norm in the reduced operator; only the black
    cells V_B of the fields count.  The
    iteration stops once the black residual, which is the whole residual of
    the iterate with its reds eliminated, has ||r|| <= cg_rel_tol*||rhs||;
    the start counts as iteration 0.  The red cells then follow, and mu_e
    from the mass.  Exceeding the iteration cap raises ``ConvergenceError``
    with the residual history attached, after writing the last iterate, at
    x0's mass, into x0; a nonpositive p'Mp raises it with x0 untouched.
    """
    rhs = np.asarray(rhs, dtype=float)
    g.check_cells(rhs, "solve_spd")
    for what, a in (("the warm start", x0), ("nu", coeffs.nu)):
        if not (isinstance(a, np.ndarray) and a.shape == rhs.shape and a.dtype == float
                and a.flags.writeable):
            raise ParameterError(f"solve_spd: {what} must be a writeable float array of "
                                 f"shape {rhs.shape}")
    basis = np.asarray(basis, dtype=float) if len(basis) else np.empty((0,) + rhs.shape)
    if basis.shape[1:] != rhs.shape:
        raise ParameterError(f"solve_spd basis: expected fields of cell shape {rhs.shape}, "
                             f"got {basis.shape[1:]}")
    size = solve_work_size(g)
    if work is None:
        work = np.empty(size)
    if not (isinstance(work, np.ndarray) and work.ndim == 1 and work.dtype == float
            and work.flags.writeable and work.flags.c_contiguous and work.size >= size):
        raise ParameterError(f"solve_spd: work must be a writeable, contiguous 1-D float "
                             f"array of at least {size} elements")
    k = kappa / (g.h * g.h)
    s = _fold_diagonal(coeffs.nu, k, cfg.tau_eff())
    m = float(x0.sum())
    system = _BlackSystem(g, k, work)
    b_norm, res, mu = system.load(coeffs.nu, rhs, s, x0)
    tol = cfg.cg_rel_tol * b_norm
    if res <= tol:
        return x0, s * mu, 0, res / b_norm if b_norm > 0.0 else 0.0
    system.reduce()
    if len(basis):
        system.galerkin_start(basis)
    system.build_preconditioner()

    x, r, z, p, q = system.x, system.r, system.z, system.p, system.q
    max_iter = cfg.resolved_max_iter(g)
    history: List[float] = []
    it = 0
    while True:
        res = math.sqrt(_dot(r, r))
        history.append(s * res)
        if res <= tol:
            break
        if it == max_iter:
            system.lift(rhs, s, m, x0)
            raise ConvergenceError(
                f"conjugate gradients did not reach ||r|| <= {s * tol:.3e} within "
                f"{max_iter} iterations (last residual {s * res:.3e})",
                residual_history=history,
            )
        system.precondition(r, z, q)
        rz_new = _dot(r, z)
        if it:
            p *= rz_new / rz
            p += z
        else:
            np.copyto(p, z)
        rz = rz_new
        system.apply(p, q, z)
        pq = _dot(p, q)
        if not pq > 0.0:
            raise ConvergenceError(
                f"conjugate gradients lost positive definiteness (p'Mp = {pq})",
                residual_history=history,
            )
        alpha = rz / pq
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(q, alpha, out=z)
        it += 1
    mu = system.lift(rhs, s, m, x0)
    return x0, s * mu, it, res / b_norm


def _cholesky_solve(gram: List[List[float]], rhs: List[float]) -> List[float]:
    """a with gram a = rhs, by a Cholesky factorization in Python floats.

    A direction whose pivot is at most 1e-12 of its diagonal entry depends
    on the earlier ones (or is zero, as on a uniform state); its coefficient
    is 0 and the rest are solved without it.
    """
    m = len(rhs)
    low = [[0.0] * m for _ in range(m)]
    kept: List[int] = []
    for j in range(m):
        pivot = gram[j][j] - sum(low[j][q] ** 2 for q in kept)
        if not pivot > 1e-12 * gram[j][j]:
            continue
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, m):
            low[i][j] = (gram[i][j] - sum(low[i][q] * low[j][q] for q in kept)) / low[j][j]
        kept.append(j)
    y = [0.0] * m
    for j in kept:
        y[j] = (rhs[j] - sum(low[j][q] * y[q] for q in kept if q < j)) / low[j][j]
    a = [0.0] * m
    for j in reversed(kept):
        a[j] = (y[j] - sum(low[q][j] * a[q] for q in kept if q > j)) / low[j][j]
    return a


def _push_differences(basis: np.ndarray, m: int, new: np.ndarray, old: np.ndarray) -> int:
    """Advance the Newton differences in ``basis[:m]`` from state ``old`` to ``new``.

    ``basis[j]`` holds the difference of order j + 1, less its mean.  At
    ``new``, order q + 1 is new - old less orders 1..q at ``old``, and order
    j is order j at ``old`` plus order j + 1 at ``new``.  So the top order
    is built first, in the next field or the dropped order's, and the lower
    ones follow in place.  Returns the number of orders held.
    """
    top = min(m, len(basis) - 1)
    d = np.subtract(new, old, out=basis[top])
    for prev in basis[:top]:
        d -= prev
    d -= np.sum(d) / d.size
    for j in range(top - 1, -1, -1):
        d = basis[j]
        d += basis[j + 1]
        d -= np.sum(d) / d.size
    return top + 1


def run(
    c0: np.ndarray,
    n_steps: int,
    ef: EfParams,
    p: EosParams,
    cfg: SolverConfig,
    g: Grid2D,
    observer: Optional[Callable[[np.ndarray, StepReport], None]] = None,
) -> Tuple[np.ndarray, List[StepReport]]:
    """March ``n_steps`` steps from ``c0``; returns (final field, reports 1..n).

    The target mass, admissible interval and initial energy are computed
    once from ``c0``; the dissipation check allows energy_slack_rel times
    the initial energy of increase.  The march allocates all its memory
    once, and no step allocates a field:

    - the current state and the next one, into which the solve writes;
    - the START_DIRECTIONS differences of the last states, which choose the
      solve's start;
    - one block: s_r's field, in which the right-hand side is built, then
      the solve's work (``solve_work_size``), which begins with nu's field,
      where A's diagonal is built, and holds the pass's other three.  It is
      about 6.6 fields at 128 x 128 cells.

    ``observer(c, report)`` sees the initial state as step 0
    (``nan`` multiplier and residual, zero iterations) and then every step;
    ``c`` is overwritten by a later step, so an observer that keeps a state
    must copy it.  A step from a state outside the window warns under
    "continue"; under "abort" it raises ``BoundsViolationError`` naming the
    cell, which only the initial state can reach.
    """
    if n_steps < 0:
        raise ParameterError(f"n_steps must be nonnegative, got {n_steps}")
    c = np.array(c0, dtype=float, copy=True)
    g.check_cells(c, "run")
    interval = diagnostics.admissible_interval(ef, p)
    if interval.empty:
        raise ParameterError(
            f"admissible multiplier interval is empty for this window: "
            f"[{interval.mu_lower}, {interval.mu_upper}]"
        )

    def mass(field: np.ndarray) -> float:
        # h^2 * <field, 1>, without holding a field of ones for the run
        return float(g.h * g.h * np.sum(field))

    slack = cfg.bounds_slack(ef)
    x = np.empty(c.shape)  # the next state
    basis = np.empty((START_DIRECTIONS,) + c.shape)  # the last states' differences
    m = 0  # how many of them basis holds, by order
    cells = c.size
    block = np.empty(cells + max(4 * cells, solve_work_size(g)))
    # The block holds s_r's field, then nu's, then the pass's other three (the
    # pass returns nu and s_r in its first two); the solve's work starts at nu's.
    fields = [block[i * cells:(i + 1) * cells].reshape(c.shape) for i in (1, 0, 2, 3, 4)]
    work = block[cells:]
    reports: List[StepReport] = []
    mu_e, iters, res = float("nan"), 0, float("nan")  # step 0 has no solve
    for n in range(n_steps + 1):
        if n:
            if not report.bounds_ok:
                if cfg.on_violation == "abort":
                    # Names the offending cell.  Only the initial state gets
                    # here: a later one aborts with its own report.
                    require_in_window(c, ef, slack, f"step {n}")
                warnings.warn(
                    f"step {n}: previous state leaves the density window "
                    f"[{ef.c_m}, {ef.c_M}]; continuing as configured",
                    stacklevel=2,
                )
            # The step owns its coefficients: the right-hand side c/tau_eff + s_r is
            # built in s_r's field, and the solve builds A's diagonal in nu's.
            b = coeffs.s_r
            b += np.divide(c, cfg.tau_eff(), out=x)
            np.copyto(x, c)
            x, mu_e, iters, res = solve_spd(b, coeffs, cfg, p.kappa, g, x0=x, basis=basis[:m],
                                            work=work)
            m = _push_differences(basis, m, x, c)
            c, x = x, c

        # One pass gives this state's energy and extremes and the next step's coefficients.
        coeffs = scheme_coefficients(c, ef, p, g, fields=fields)
        if not n:
            energy_slack = cfg.energy_slack_rel * abs(coeffs.energy.total)
        report = StepReport(
            step_index=n, mu_e=mu_e, breakdown=coeffs.energy, interval=interval,
            c_min=coeffs.c_min, c_max=coeffs.c_max, mass=mass(c),
            cg_iters=iters, residual=res,
            # the initial state has no multiplier and nothing to dissipate
            admissibility_ok=not n or interval.contains(mu_e),
            bounds_ok=bool(coeffs.c_min >= ef.c_m - slack and coeffs.c_max <= ef.c_M + slack),
            energy_decreased=not n or bool(coeffs.energy.total <= report.energy + energy_slack),
        )
        if n and cfg.on_violation == "abort" and not report.all_ok:
            raise InvariantViolation(
                f"step {n}: invariant check failed "
                f"(admissibility={report.admissibility_ok}, bounds={report.bounds_ok}, "
                f"dissipation={report.energy_decreased})"
            )
        reports.append(report)
        if observer is not None:
            observer(c, report)
    return c, reports[1:]
