"""Semi-implicit time stepper with a mass-constraint multiplier.

One step solves, for the new cell field c and a scalar mu_e,

    c/tau_eff - kappa*Lap(c) + nu(c_old)*c = c_old/tau_eff + s_r(c_old) + mu_e
    <c, 1> = c_t                                       (total moles fixed)

where tau_eff = mobility*tau and Lap is the Neumann five-point Laplacian.
The operator A = I/tau_eff - kappa*Lap + nu is symmetric positive definite.

Colour the cells like a checkerboard.  The five-point stencil couples a red
cell only to black ones, so A's red block is diagonal and the red unknowns
are eliminated exactly, x_R = D_R^-1 (b_R + mu_e + N_R x_B); the mass
constraint then gives mu_e from x_B.  The solve runs conjugate gradients
on the black cells alone, on the Schur complement S = D_B - N_B D_R^-1 N_R
plus the rank-one term that eliminating mu_e adds: the reduced system of
Hageman & Young (Applied Iterative Methods, 1981, ch. 9).  Its
preconditioner, diag(S) plus that rank-one term, is applied exactly by
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

What is built once and what once per solve: the reduced system
(``_BlackSystem``) holds the views of a work buffer's rows, of their pads,
ends and shifted half-stencil slices, and of the padded grid through which
fields are split into halves and joined back.  ``run`` builds it once for
its march and solves every step in it (``_BlackSystem.solve``).  Each
solve builds A's diagonal, the halves of e, x0 and the right-hand side,
d = 1/e_R, w, the start and the preconditioner, and nothing is carried
from one solve to the next.

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

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import diagnostics
from .ef import EfParams, EnergyBreakdown, require_in_window, scheme_coefficients
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
        ||r|| <= cg_rel_tol*||rhs||, rhs = c_old/tau_eff + s_r (relative to
        the start's own residual when rhs is zero; ``_BlackSystem.solve``).
    cg_max_iter : iteration cap; ``None`` means 10 * (number of cells).
    preconditioner : "diagonal", the only value: the diagonal of the
        black-cell system (``_BlackSystem``) plus its rank-one mass term.
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
    sums write there only, also at the pads in it (``pads``).  Each
    colour's cells are two strided blocks of the full field, those in even
    rows and those in odd ones, and two strided blocks of the half
    (``views``).
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

    def neighbours(self, src: np.ndarray, out: np.ndarray, colour: int) -> None:
        """Sum of the neighbours in ``src``, halves of the other colour or
        stacks of them, of each cell of ``colour``, into ``out`` over
        ``span``, the terms added in turn (``_BlackSystem.neighbours`` sums
        the pairs first)."""
        o = out[..., self.span]
        a, b, c, d = self.shifts[colour]
        np.add(src[..., a], src[..., b], out=o)
        o += src[..., c]
        o += src[..., d]


def solve_work_size(g: Grid2D) -> int:
    """Floats a solve works in on grid ``g``: eleven padded half-fields."""
    return _HALVES * _Checkerboard(g).size


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

    ``run`` builds one system for its march, on one grid, step size and
    work buffer, and ``solve`` runs each step's solve in it.  What does not
    change between solves is built here: the views of the rows, of their
    spans, pads and ends, of each row's four shifted half-stencil slices (on
    first use), and of a padded grid through which whole fields are split
    into halves and joined back.  A solve keeps nothing from the last one:
    each half is filled before the solve first reads it, and every entry
    off its colour's cells is zero whenever it is read, or is multiplied
    by a zero of d or 1/diag(S).  ``load`` zeroes those entries of the rows
    it fills.

    The work buffer holds eleven halves (``_Checkerboard``), one per row of
    ``rows``, laid out so that the operations that share a call have their
    rows evenly spaced.  ``load`` works on the pairs (t, x), (q, r) and
    (e_R, e_B), red then black, and splits through the padded grid in rows
    INV_DS and P; the iteration takes z.r, (w/diag(S)).r and r.r in one
    call on rows Z, IW and R; ``galerkin_start`` stacks the basis in rows
    0, 2 and 4 and their neighbour sums in rows 3, 5 and 7, and takes w'V
    and r'V in one call on rows W and R.  A work buffer that begins with
    nu's field shares it with rows Z and W only, which are first written
    after nu is read.
    """

    Z, W, INV_DS, P, IW, T, X, Q, R, D, E = range(_HALVES)

    def __init__(self, g: Grid2D, kappa: float, cfg: SolverConfig, work: np.ndarray):
        self.board = board = _Checkerboard(g)
        self.k = kappa / (g.h * g.h)
        self.tau_eff = cfg.tau_eff()
        self.s = self.k or 1.0
        self.rel_tol = cfg.cg_rel_tol
        self.max_iter = cfg.resolved_max_iter(g)
        self.ncells = g.ncells
        self.n_red = (g.ncells + 1) // 2
        self.rows = rows = work[:_HALVES * board.size].reshape(_HALVES, board.size)
        (self.z, self.w, self.inv_ds, self.p, self.iw, self.t, self.x, self.q, self.r,
         self.d, self.e_b) = rows
        span = board.span
        self.spans = [row[span] for row in rows]
        # the black cell blocks of the basis rows, and those of the last basis
        self.basis_cells = [view for _, view in board.views(rows[0:6:2], BLACK)]
        self.basis: Tuple[Optional[np.ndarray], List[np.ndarray]] = (None, [])
        self.ends = [rows[:, :span.start], rows[:, span.stop:]]
        # the pads of the rows load fills but e_R's, red (t, q) and black (x, r, e_B)
        self.load_pads = ([rows[5:8:2, pads] for pads in board.pads[RED]]
                          + [rows[6:11:2, pads] for pads in board.pads[BLACK]])
        # A padded grid in rows INV_DS and P, through which whole fields are
        # split into their halves and joined back: a field copy and a stride-2
        # copy per colour, which costs less than copying each colour's blocks.
        padded = rows[self.INV_DS:self.INV_DS + 2].reshape(-1)[:(g.ny + 2) * board.wid]
        self.padded_cells = padded.reshape(g.ny + 2, board.wid)[1:g.ny + 1, 1:g.nx + 1]
        self.padded_colours = (padded[0::2], padded[1::2])
        # by (row, colour), made on first use: the part of a row that a
        # colour of the padded grid fills, the row's pads, and its four
        # shifted slices that give that colour's neighbours
        self.heads: dict = {}
        self.pad_views: dict = {}
        self.shifted: dict = {}

    def split(self, full: np.ndarray, red: int, black: Optional[int] = None) -> None:
        """The red cells of the cell field ``full`` into ``rows[red]``, and its
        black ones into ``rows[black]`` if given, through the padded grid.
        The other entries of those rows are left garbage.  Copies only: a
        ufunc on a strided two-dimensional view with short rows allocates a
        64 KiB iterator buffer per call."""
        np.copyto(self.padded_cells, full)
        np.copyto(self.head(red, RED), self.padded_colours[RED])
        if black is not None:
            np.copyto(self.head(black, BLACK), self.padded_colours[BLACK])

    def join(self, red: int, black: Optional[int], full: np.ndarray) -> None:
        """``split`` backwards; without ``black`` the black cells are those
        the padded grid still holds from the last join."""
        if black is not None:
            np.copyto(self.padded_colours[BLACK], self.head(black, BLACK))
        np.copyto(self.padded_colours[RED], self.head(red, RED))
        np.copyto(full, self.padded_cells)

    def head(self, row: int, colour: int) -> np.ndarray:
        """The part of ``rows[row]`` that ``split`` fills with its colour's cells."""
        view = self.heads.get((row, colour))
        if view is None:
            view = self.heads[row, colour] = self.rows[row, :len(self.padded_colours[colour])]
        return view

    def pads(self, row: int, colour: int) -> List[np.ndarray]:
        """Views of the pads in ``span`` of ``rows[row]``, as a half of ``colour``."""
        views = self.pad_views.get((row, colour))
        if views is None:
            views = self.pad_views[row, colour] = [self.rows[row, pads]
                                                   for pads in self.board.pads[colour]]
        return views

    def zero_pads(self, row: int, colour: int) -> None:
        for pads in self.pads(row, colour):
            pads.fill(0.0)

    def neighbours(self, src: int, out: int, colour: int, scratch: int) -> None:
        """Sum of the neighbours in ``rows[src]`` of each cell of ``colour``,
        into ``rows[out]`` over ``span``; ``rows[scratch]`` is clobbered there.

        The x pair and the y pair are each summed first.  A half turn of the
        grid or a transposition maps a cell's pairs onto its image's, so that
        sum keeps those symmetries of a field to the last bit, and so does
        the march: a symmetric droplet's snapshots repeat most values four
        times, and ``experiment._row_texts`` formats each once.
        """
        shifted = self.shifted.get((src, colour))
        if shifted is None:
            shifted = self.shifted[src, colour] = [self.rows[src, shift]
                                                   for shift in self.board.shifts[colour]]
        a, b, c, d = shifted
        o = self.spans[out]
        np.add(a, b, out=o)
        o += np.add(c, d, out=self.spans[scratch])

    def load(self, e: np.ndarray, rhs: np.ndarray, x0: np.ndarray) -> float:
        """Split e, b = rhs/s and ``x0`` into halves and take part of x0's residual.

        Returns ||b||, and leaves in q the red cells of x0's residual at
        mu = 0, b_R - e_R x0_R + N_R x0_B, and in r the black ones less
        their neighbours, b_B - e_B x0_B.  Then the ends of every row, and
        the pads of the rows it fills, are zeroed, but e_R's pads are set to
        1, so that ``reduce`` can invert that row over ``span``.  e is split
        first: a work buffer that begins with its field overlaps rows Z and W.
        """
        rows, spans = self.rows, self.spans
        tx, qr, de = rows[5:7], rows[7:9], rows[9:11]
        self.split(e, self.D, self.E)
        self.split(x0, self.T, self.X)
        self.split(rhs, self.Q, self.R)
        for off in self.ends + self.load_pads:
            off.fill(0.0)
        for pads in self.pads(self.D, RED):
            pads.fill(1.0)
        qr *= 1.0 / self.s
        b_norm = math.sqrt(float(np.einsum("ij,ij->", qr, qr)))
        qr -= np.multiply(de, tx, out=rows[2:4])
        if self.k:
            self.neighbours(self.X, self.Z, RED, self.P)
            spans[self.Q] += spans[self.Z]
            self.zero_pads(self.Q, RED)
        return b_norm

    def red_spread(self) -> Tuple[float, float]:
        """(||q - mean(q)||, |sum(q)|) over the red cells.

        No mu makes x0's full residual smaller than that spread, so x0's
        own residual is needed only when the spread is within round-off of
        the tolerance; ``full_residual`` takes it then.
        """
        q, tmp = self.spans[self.Q], self.spans[self.IW]
        total = float(q.sum())
        np.subtract(q, total / self.n_red, out=tmp)
        self.zero_pads(self.IW, RED)
        return math.sqrt(_dot(tmp, tmp)), abs(total)

    def full_residual(self) -> Tuple[float, float]:
        """(||b + mu - A x0||, mu) with the mu that makes it smallest.

        Its black cells are built in row Z and its shifted red ones in IW;
        q and r are kept for ``reduce``.
        """
        spans, z, red = self.spans, self.spans[self.Z], self.spans[self.IW]
        if self.k:
            self.neighbours(self.T, self.Z, BLACK, self.P)
            z += spans[self.R]
        else:
            np.copyto(z, spans[self.R])
        self.zero_pads(self.Z, BLACK)
        mu = -(float(spans[self.Q].sum()) + float(z.sum())) / self.ncells
        np.add(spans[self.Q], mu, out=red)
        z += mu
        self.zero_pads(self.IW, RED)
        self.zero_pads(self.Z, BLACK)
        return math.sqrt(_dot(red, red) + _dot(z, z)), mu

    def reduce(self) -> None:
        """Build d and w, and turn r into the residual of M at x0_B.

        The reds eliminated at x0_B and mu = 0 are x0_R + d q, and the black
        residual there is r + N_B (x0_R + d q); mu then moves by -<d, q>/a,
        which keeps the mass, and adds mu*w.
        """
        d, w, q, r, z, spans = self.d, self.w, self.q, self.r, self.z, self.spans
        e_r = spans[self.D]  # its pads are 1, and the ends zero
        np.divide(1.0, e_r, out=e_r)
        self.zero_pads(self.D, RED)
        self.a = float(d.sum())
        if self.k:
            self.neighbours(self.D, self.W, BLACK, self.Z)
        else:
            w.fill(0.0)
        spans[self.W] += 1.0
        self.zero_pads(self.W, BLACK)
        q *= d
        mu = -float(q.sum()) / self.a
        if self.k:
            q += self.t
            self.neighbours(self.Q, self.Z, BLACK, self.P)
            spans[self.R] += spans[self.Z]
            self.zero_pads(self.R, BLACK)
        r += np.multiply(w, mu, out=z)

    def build_preconditioner(self) -> None:
        """1/diag(S) and w/diag(S), with diag(S) = e_B - N_B d = e_B + 1 - w."""
        inv_ds = self.spans[self.INV_DS]  # the ends are zero
        np.subtract(self.spans[self.E], self.spans[self.W], out=inv_ds)
        inv_ds += 1.0  # 1 at the pads, until they are cleared
        np.divide(1.0, inv_ds, out=inv_ds)
        self.zero_pads(self.INV_DS, BLACK)
        np.multiply(self.inv_ds, self.w, out=self.iw)
        self.sm = self.a + _dot(self.w, self.iw)

    def apply(self, wp: float) -> None:
        """q = M p = e_B p - N_B d N_R p + w wp/a, given wp = <w, p>; t and z are clobbered."""
        q = self.q
        if self.k:
            spans = self.spans
            self.neighbours(self.P, self.T, RED, self.Z)
            self.t *= self.d
            self.neighbours(self.T, self.Z, BLACK, self.Q)
            o = spans[self.Q]
            np.multiply(spans[self.E], spans[self.P], out=o)
            o -= spans[self.Z]
            self.zero_pads(self.Q, BLACK)
        else:
            np.multiply(self.e_b, self.p, out=q)
        q += np.multiply(self.w, wp / self.a, out=self.z)

    def galerkin_start(self, basis: np.ndarray, m: int) -> None:
        """Move x to the point of x + span(V_B) whose error has the smallest M-norm.

        V_B are the black cells of the first ``m`` fields of ``basis``, an
        (n, ny, nx) array, stacked in rows 0, 2, ..., and e_B V_B and then
        U = N_R V_B in rows 3, 5, ....  The coefficients c solve
        (V_B'M V_B) c = V_B'r, with V_B'M V_B = V_B'e_B V_B - U'd U +
        (V_B'w)(w'V_B)/a: three ``einsum`` calls, one of them for V_B'w and
        V_B'r.  x then moves by p = V_B c, and r by M p.
        """
        rows, span = self.rows, self.board.span
        vb, u = rows[0:2 * m:2], rows[3:3 + 2 * m:2]
        for pads in self.board.pads[BLACK]:
            vb[:, pads] = 0.0
        if self.basis[0] is not basis:  # run lends the same basis every step
            self.basis = (basis, [basis[(Ellipsis,) + cells]
                                  for cells, _, _, _ in self.board.blocks[BLACK]])
        for view, cells in zip(self.basis_cells, self.basis[1]):
            np.copyto(view[:m], cells[:m])
        gram = np.einsum("ik,jk->ij", np.multiply(vb, self.e_b, out=u), vb)
        vw, vr = np.einsum("ik,jk->ij", rows[1:9:7], vb).tolist()
        if self.k:
            self.board.neighbours(vb, u, RED)
            gram -= np.einsum("ik,k,jk->ij", u[:, span], self.d[span], u[:, span])
        scale = [v / self.a for v in vw]
        gram = [[gij + vi * sj for gij, sj in zip(gi, scale)] for gi, vi in zip(gram.tolist(), vw)]
        coef = _cholesky_solve(gram, vr)
        np.einsum("i,ik->k", np.array(coef), vb, out=self.p)
        self.x += self.p
        self.apply(sum(c * v for c, v in zip(coef, vw)))
        self.r -= self.q

    def lift(self, rhs: np.ndarray, m: float, x0: np.ndarray) -> float:
        """Write x and its eliminated red cells, at the mass m, into ``x0``; returns mu.

        The red cells at mu = 0 are t = d (b_R + N_R x_B).  mu then gives the
        mass by the halves' sums, and one more step of it, by x0's own sum,
        takes out what round-off left.  The droplet run's mass drift is
        8.7e-16 with that step and 5.2e-16 without it, but on an 8 x 6 grid
        whose multiplier is 1e6 the halves' sums alone leave 1.2e-11 of the
        mass, and the step 2e-16.
        """
        x, t, z, d = self.x, self.t, self.z, self.d
        # z is finite everywhere, and d zero off the red cells
        self.split(rhs, self.Z)
        z *= 1.0 / self.s
        if self.k:
            self.neighbours(self.X, self.P, RED, self.Q)
            self.spans[self.Z] += self.spans[self.P]
        np.multiply(z, d, out=t)
        mu = (m - float(x.sum()) - float(t.sum())) / self.a
        t += np.multiply(d, mu, out=z)
        self.join(self.T, self.X, x0)
        step = (m - float(x0.sum())) / self.a
        t += np.multiply(d, step, out=z)
        self.join(self.T, None, x0)
        return mu + step

    def solve(self, rhs: np.ndarray, nu: np.ndarray, x0: np.ndarray, basis: np.ndarray,
              m: int, mass: float) -> Tuple[np.ndarray, float, int, float]:
        """Solve A x = rhs + mu_e*1 for x and mu_e, x's mass fixed at x0's.

        Returns (x, mu_e, iterations, ||r||/||rhs||), r = rhs + mu_e*1 - A x,
        the start counting as iteration 0; ``mass`` is x0's own sum,
        ``float(x0.sum())``, and the start is moved by the first ``m`` fields
        of ``basis`` (``galerkin_start``).  The solve consumes ``x0``, into
        which it writes x, nu's field, which holds A's diagonal over
        kappa/h^2 (``_fold_diagonal``) on return unless the work buffer
        overlaps it, and the work buffer; ``rhs`` and ``basis`` are kept.

        A start whose own residual, with the mu_e that makes it smallest, has
        ||r|| <= cg_rel_tol*||rhs|| is returned untouched after zero
        iterations, which ``run`` meets on a uniform state.  A zero rhs
        still has a solution, x0's mass times A^-1 1/<1, A^-1 1>; then x0's
        own residual takes the place of ||rhs|| in both tests and in the
        returned residual.  Exceeding the iteration cap raises
        ``ConvergenceError`` with the residual history attached, after
        writing the last iterate, at x0's mass, into x0; a nonpositive p'Mp
        raises it with x0 untouched.
        """
        s = _fold_diagonal(nu, self.k, self.tau_eff)
        scale = self.load(nu, rhs, x0)
        tol = self.rel_tol * scale
        spread, total = self.red_spread()
        # The spread's round-off is far below 1e-12 of the red residual's
        # mean part; within that of tol, only x0's own residual can tell.
        if not (scale > 0.0 and spread > tol + 1e-12 * total / math.sqrt(self.n_red)):
            res, mu = self.full_residual()
            if not scale > 0.0:  # a zero b: the tolerance is relative to x0's residual
                scale, tol = res, self.rel_tol * res
            if res <= tol:
                return x0, s * mu, 0, res / scale if scale > 0.0 else 0.0
        self.reduce()
        if m:
            self.galerkin_start(basis, m)
        self.build_preconditioner()

        x, r, z, p, q, iw = self.x, self.r, self.z, self.p, self.q, self.iw
        inv_ds, sm, a = self.inv_ds, self.sm, self.a
        zir = self.rows[0:9:4]  # z, iw, r
        history: List[float] = []
        it = 0
        while True:
            np.multiply(inv_ds, r, out=z)
            zr, vr, rr = np.einsum("ij,j->i", zir, r).tolist()
            res = math.sqrt(rr)
            history.append(s * res)
            if res <= tol:
                break
            if it == self.max_iter:
                self.lift(rhs, mass, x0)
                raise ConvergenceError(
                    f"conjugate gradients did not reach ||r|| <= {s * tol:.3e} within "
                    f"{self.max_iter} iterations (last residual {s * res:.3e})",
                    residual_history=history,
                )
            # Sherman-Morrison: z = (diag(S) + w w'/a)^-1 r, so z.r = zr - c*vr
            # and w.z = vr*a/sm; p's <w, p> follows from its own recurrence
            c = vr / sm
            z -= np.multiply(iw, c, out=q)
            rz_new, wz = zr - c * vr, vr * a / sm
            if it:
                beta = rz_new / rz
                p *= beta
                p += z
                wp = wz + beta * wp
            else:
                np.copyto(p, z)
                wp = wz
            rz = rz_new
            self.apply(wp)
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
        mu = self.lift(rhs, mass, x0)
        return x0, s * mu, it, res / scale


def _cholesky_solve(gram: List[List[float]], rhs: List[float]) -> List[float]:
    """a with gram a = rhs, by a Cholesky factorization in Python floats.

    A direction whose pivot is at most 1e-12 of its diagonal entry depends
    on the earlier ones (or is zero, as on a uniform state); its coefficient
    is 0 and the rest are solved without it.
    """
    m = len(rhs)
    low = [[0.0] * m for _ in range(m)]
    y = [0.0] * m
    kept: List[int] = []
    for j in range(m):
        lj = low[j]
        pivot = gram[j][j]
        for q in kept:
            pivot -= lj[q] * lj[q]
        if not pivot > 1e-12 * gram[j][j]:
            continue
        ljj = lj[j] = math.sqrt(pivot)
        for i in range(j + 1, m):
            li = low[i]
            v = gram[i][j]
            for q in kept:
                v -= li[q] * lj[q]
            li[j] = v / ljj
        v = rhs[j]
        for q in kept:
            v -= lj[q] * y[q]
        y[j] = v / ljj
        kept.append(j)
    a = [0.0] * m
    for n, j in enumerate(reversed(kept)):
        v = y[j]
        for q in kept[len(kept) - n:]:
            v -= low[q][j] * a[q]
        a[j] = v / low[j][j]
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

    It also builds the reduced system (``_BlackSystem``) once, in the
    solve's work, and solves every step in it.

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

    slack = cfg.bounds_slack(ef)
    x = np.empty(c.shape)  # the next state
    basis = np.empty((START_DIRECTIONS,) + c.shape)  # the last states' differences
    m = 0  # how many of them basis holds, by order
    cells = c.size
    block = np.empty(cells + max(4 * cells, solve_work_size(g)))
    # The block holds s_r's field, then nu's, then the pass's other three (the
    # pass returns nu and s_r in its first two); the solve's work starts at nu's.
    fields = [block[i * cells:(i + 1) * cells].reshape(c.shape) for i in (1, 0, 2, 3, 4)]
    system = _BlackSystem(g, p.kappa, cfg, block[cells:])
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
            x, mu_e, iters, res = system.solve(b, coeffs.nu, x, basis, m, total)
            m = _push_differences(basis, m, x, c)
            c, x = x, c

        # One pass gives this state's energy and extremes and the next step's coefficients.
        coeffs = scheme_coefficients(c, ef, p, g, fields=fields)
        # The mass is h^2 <c, 1>, without a field of ones; the next solve keeps <c, 1>.
        total = float(np.sum(c))
        if not n:
            energy_slack = cfg.energy_slack_rel * abs(coeffs.energy.total)
        report = StepReport(
            step_index=n, mu_e=mu_e, breakdown=coeffs.energy, interval=interval,
            c_min=coeffs.c_min, c_max=coeffs.c_max, mass=g.h * g.h * total,
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
