"""Semi-implicit time stepper with a mass-constraint multiplier.

One step solves, for the new cell field c and a scalar mu_e,

    c/tau - kappa*Lap(c) + nu(c_old)*c = c_old/tau + s_r(c_old) + mu_e
    <c, 1> = c_t                                       (total moles fixed)

where Lap is the Neumann five-point Laplacian.  The operator
A = I/tau - kappa*Lap + nu is symmetric positive definite.

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
half-stencil is four shifted slices of one flat run
(``grid._Checkerboard``).  Every half the march works in comes from the
layout's ``zeros``, which puts each half, its span of cells and each
pair's run on a 64-byte line: numpy's vector loops take two to three
times as long to write an output that starts off one.  Over s = kappa/h^2,
A = e - N, e = nu/s + the number of in-domain neighbours + 1/(tau*s).
The sums run through ``np.einsum`` and ndarray ``sum``, not BLAS, so a run
gives the same bits whatever the number of BLAS threads.

The march stays in that layout.  ``run`` splits c0 into the state's red
and black halves once; the per-state pass (``ef.scheme_coefficients``)
runs on them and returns nu and s_r in halves; the solve writes the next
state into them; and one join a step gives the observer and the caller a
cell field.  What is built once per march: the reduced system
(``_BlackSystem``), its work rows, the views of their spans, pads and
shifted half-stencil slices, and a table of A's diagonal on the domain's
edge cells, where it depends on the cell as well as on the state.  Each
solve folds nu into the diagonal (one scale, one scalar add per colour and
the edge cells' table) and builds b = rhs/s, d = 1/e_R, w, the start and
the preconditioner; nothing else is carried from one solve to the next.

``run`` starts step 1 from c_old.  Every later step starts from the point
of c_old + span{D^1, ..., D^m} whose error has the smallest norm in the
reduced operator, the D^j being the last m changes of the state (m up to
``START_DIRECTIONS``): the projection of successive right-hand sides of
Fischer (Comput. Methods Appl. Mech. Engrg. 163, 1998).  The start
depends on the span alone, so the changes are kept as they are, in a
ring: step n's replaces that of step n - ``START_DIRECTIONS``.  Only their
black cells count, and only those are kept; with the reds eliminated,
that start is never worse in A-norm than c_old + D^1, the linear
extrapolation of the last change.  On the droplet run it takes 823
iterations against 2 338 from c_old; the multiplier fixes the mass.  The
half-stencils sum each cell's x pair and y pair first, so a symmetric
droplet stays symmetric to the last bit.

``run`` evaluates and measures every state once, with
``ef.scheme_coefficients``: the pass gives the state's energy and extreme
densities for its report and the next step's nu and s_r.  ``run`` alone
judges the state: one report per state, the initial one as step 0, holds
the window, multiplier and dissipation checks.  It allocates the march's
memory once (``run``), so no step allocates a field, and no step pays to
fault freed memory back in.
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
from .grid import BLACK, RED, Grid2D, _Checkerboard

log = logging.getLogger(__name__)

_VIOLATION_MODES = ("continue", "abort")
#: Number of state changes ``run`` keeps to choose each solve's start, at
#: most the rows of ``_BlackSystem.U_ROWS``.  A fourth cut the droplet
#: run's iterations by a further quarter, but not its wall time, and it
#: costs one more field and one more work row.
START_DIRECTIONS = 3


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the stepper; only ``tau`` has no default.

    tau : time-step size in s.
    cg_rel_tol : stop conjugate gradients once the step's residual has
        ||r|| <= cg_rel_tol*||rhs||, rhs = c_old/tau + s_r; a zero rhs
        is refused (``_BlackSystem.solve``).
    cg_max_iter : iteration cap; ``None`` means 10 * (number of cells).
    on_violation : "continue" records failed invariant checks in the step
        report; "abort" raises instead.
    energy_slack_rel : dissipation checks allow an increase of this fraction
        of the reference energy (absorbs finite solver residuals only).
    """

    tau: float
    cg_rel_tol: float = 1e-10
    cg_max_iter: Optional[int] = None
    on_violation: str = "continue"
    energy_slack_rel: float = 1e-8

    def __post_init__(self):
        # ParameterError.key names the field; the config loader maps it to a YAML key.
        rules = (
            ("tau", math.isfinite(self.tau) and self.tau > 0, "must be finite and positive"),
            ("cg_rel_tol", 0.0 < self.cg_rel_tol < 1.0, "must be positive and below 1"),
            ("cg_max_iter", self.cg_max_iter is None or self.cg_max_iter >= 1, "must be >= 1"),
            ("on_violation", self.on_violation in _VIOLATION_MODES,
             f"must be one of {_VIOLATION_MODES}"),
            ("energy_slack_rel", self.energy_slack_rel >= 0, "must be nonnegative"),
        )
        for key, ok, rule in rules:
            if not ok:
                raise ParameterError(f"{key}: {rule}, got {getattr(self, key)!r}", key=key)

    def resolved_max_iter(self, g: Grid2D) -> int:
        return self.cg_max_iter if self.cg_max_iter is not None else 10 * g.ncells


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


#: Flat halves of ``_Checkerboard.size`` that a solve works in.
_HALVES = 11


class _BlackSystem:
    """The step's system reduced to the black cells, in the march's halves.

    Over s = kappa/h^2 A is e - N, N summing the neighbours, and the step
    is A x = b + mu, sum(x) = m, with b = rhs/s and mu = mu_e/s.  The red
    rows give x_R = d (b_R + mu + N_R x_B), d = 1/e_R, and with them the
    mass is sum(x_B) + <d, b_R + N_R x_B> + a*mu, a = sum(d).  The black
    rows become S x_B = b_B + N_B d b_R + mu*w, with the Schur complement
    S = e_B - N_B d N_R and w = 1 + N_B d, and taking mu from the mass
    leaves M x_B = f, M = S + w w'/a, symmetric positive definite.  The
    residual of M at x_B is A's at x_B with its reds and mu eliminated;
    that point's red residual is zero.

    ``run`` builds one system for its march, on one grid and step size,
    and ``solve`` runs each step's solve in it.  What does not change
    between solves is built here: the work rows, which hold the march's
    state (``state``) and nu's pair (``nu``), the views of their spans and
    pads, of each row's four shifted half-stencil slices (on first use),
    and what ``fold_diagonal`` adds to nu/s to make A's diagonal over s:
    1/(tau*s) plus the number of a cell's in-domain neighbours, the
    Neumann condition.  That is the scalar ``diag`` = 4 + 1/(tau*s)
    over both spans, pads included, but on the edge cells, whose flat
    indices in ``rows`` and own values are a table of O(nx + ny) entries
    (``edges``, ``edge_values``).  A solve keeps nothing else from the
    last one: each half is filled before the solve first reads it, and
    every entry off its colour's cells is zero whenever it is read, or is
    multiplied by a zero of d or 1/diag(S).  The ends of every row stay
    zero (``_Checkerboard``).

    The rows are eleven halves, laid out so that the operations that share
    a call have their rows evenly spaced.  ``load`` works on the pairs
    (t, x), (q, r) and (e_R, e_B), red then black; the iteration takes z.r,
    (w/diag(S)).r and r.r in one call on rows Z, IW and R;
    ``galerkin_start`` builds the basis's neighbour sums U in the rows
    ``U_ROWS``, and takes w'V and r'V in one call on rows W and R.
    """

    Z, W, INV_DS, P, IW, T, X, Q, R, D, E = range(_HALVES)
    #: U's rows, P, T and Q, one per basis direction, evenly spaced for one
    #: ``einsum``; the next so spaced is D, which holds d.
    U_ROWS = slice(P, Q + 1, T - P)

    def __init__(self, g: Grid2D, kappa: float, cfg: SolverConfig):
        self.board = board = _Checkerboard(g)
        self.s = s = kappa / (g.h * g.h)
        self.rel_tol = cfg.cg_rel_tol
        self.max_iter = cfg.resolved_max_iter(g)
        self.rows = rows = board.zeros(_HALVES)
        (self.z, self.w, self.inv_ds, self.p, self.iw, self.t, self.x, self.q, self.r,
         self.d, self.e_b) = rows
        self.state = rows[self.T:self.X + 1]
        self.nu = rows[self.D:self.E + 1]
        self.u = rows[self.U_ROWS]
        span = board.span
        self.spans = [row[span] for row in rows]
        self.flat = rows.reshape(-1)
        self.diag = diag = 4.0 + 1.0 / (cfg.tau * s)
        # each edge cell's diagonal less nu/s: diag less 1 per missing neighbour
        edges: dict = {}
        for colour, row in ((RED, self.D), (BLACK, self.E)):
            first = row * board.size
            for edge in ({"i": 0}, {"i": g.ny - 1}, {"j": 0}, {"j": g.nx - 1}):
                for k in range(first, first + board.size)[board.line(colour, **edge)]:
                    edges[k] = edges.get(k, diag) - 1.0
        self.edges = np.array(list(edges), dtype=np.intp)
        self.edge_values = np.array(list(edges.values()))
        self.edge_work = np.empty(len(edges))
        # by (row, colour), made on first use: the row's pads, and its four
        # shifted slices that give that colour's neighbours
        self.pad_views: dict = {}
        self.shifted: dict = {}

    def zero_pads(self, row: int, colour: int) -> None:
        """Zero the pads in ``span`` of ``rows[row]``, as a half of ``colour``."""
        views = self.pad_views.get((row, colour))
        if views is None:
            views = self.pad_views[row, colour] = [self.rows[row, pads]
                                                   for pads in self.board.pads[colour]]
        for pads in views:
            pads.fill(0.0)

    def neighbours(self, src: int, out: int, colour: int, scratch: int) -> None:
        """Sum of the neighbours in ``rows[src]`` of each cell of ``colour``,
        into ``rows[out]`` over ``span``; ``rows[scratch]`` is clobbered there.

        The x pair and the y pair are each summed first.  A half turn of the
        grid or a transposition maps a cell's pairs onto its image's, so that
        sum keeps those symmetries of a field to the last bit, and so does
        the march: a symmetric droplet's snapshots repeat most values four
        times.
        """
        shifted = self.shifted.get((src, colour))
        if shifted is None:
            shifted = self.shifted[src, colour] = [self.rows[src, shift]
                                                   for shift in self.board.shifts[colour]]
        a, b, c, d = shifted
        o = self.spans[out]
        np.add(a, b, out=o)
        o += np.add(c, d, out=self.spans[scratch])

    def fold_diagonal(self) -> None:
        """Turn nu's pair into A's diagonal over s, e = nu/s + its fixed part.

        ``diag`` goes onto both spans, pads included, and then each edge
        cell gets nu/s plus its own value; the ends keep nu/s.
        """
        work = self.edge_work
        self.nu *= 1.0 / self.s
        np.take(self.flat, self.edges, out=work, mode="clip")  # "raise" would buffer
        work += self.edge_values
        self.spans[self.D] += self.diag
        self.spans[self.E] += self.diag
        self.flat[self.edges] = work

    def load(self, rhs: np.ndarray) -> float:
        """Fold nu into A's diagonal, and take b = rhs/s and part of x0's residual.

        Returns ||b||, and leaves e in nu's pair and in q the red cells of
        x0's residual at mu = 0, b_R - e_R x0_R + N_R x0_B, and in r the
        black ones less their neighbours, b_B - e_B x0_B.
        """
        rows, spans, s = self.rows, self.spans, self.s
        qr, de = rows[self.Q:self.R + 1], self.nu
        self.fold_diagonal()
        np.multiply(rhs, 1.0 / s, out=qr)
        b_norm = math.sqrt(float(np.einsum("ij,ij->", qr, qr)))
        qr -= np.multiply(de, self.state, out=rows[2:4])
        self.neighbours(self.X, self.Z, RED, self.P)
        spans[self.Q] += spans[self.Z]
        self.zero_pads(self.Q, RED)
        return b_norm

    def reduce(self) -> None:
        """Build d and w, and turn r into the residual of M at x0_B.

        The reds eliminated at x0_B and mu = 0 are x0_R + d q, and the black
        residual there is r + N_B (x0_R + d q); mu then moves by -<d, q>/a,
        which keeps the mass, and adds mu*w.
        """
        d, w, q, r, z, spans = self.d, self.w, self.q, self.r, self.z, self.spans
        e_r = spans[self.D]  # its pads are positive, and the ends zero
        np.divide(1.0, e_r, out=e_r)
        self.zero_pads(self.D, RED)
        self.a = float(d.sum())
        self.neighbours(self.D, self.W, BLACK, self.Z)
        spans[self.W] += 1.0
        self.zero_pads(self.W, BLACK)
        q *= d
        mu = -float(q.sum()) / self.a
        q += self.t
        self.neighbours(self.Q, self.Z, BLACK, self.P)
        spans[self.R] += spans[self.Z]
        self.zero_pads(self.R, BLACK)
        r += np.multiply(w, mu, out=z)

    def build_preconditioner(self) -> None:
        """1/diag(S) and w/diag(S), with diag(S) = e_B - N_B d = e_B + 1 - w."""
        inv_ds = self.spans[self.INV_DS]  # the ends are zero
        np.subtract(self.spans[self.E], self.spans[self.W], out=inv_ds)
        inv_ds += 1.0  # e_B + 1 at the pads, until they are cleared
        np.divide(1.0, inv_ds, out=inv_ds)
        self.zero_pads(self.INV_DS, BLACK)
        np.multiply(self.inv_ds, self.w, out=self.iw)
        self.sm = self.a + _dot(self.w, self.iw)

    def apply(self, wp: float) -> None:
        """q = M p = e_B p - N_B d N_R p + w wp/a, given wp = <w, p>; t and z are clobbered."""
        spans = self.spans
        self.neighbours(self.P, self.T, RED, self.Z)
        self.t *= self.d
        self.neighbours(self.T, self.Z, BLACK, self.Q)
        o = spans[self.Q]
        np.multiply(spans[self.E], spans[self.P], out=o)
        o -= spans[self.Z]
        self.zero_pads(self.Q, BLACK)
        self.q += np.multiply(self.w, wp / self.a, out=self.z)

    def galerkin_start(self, basis: np.ndarray, m: int) -> None:
        """Move x to the point of x + span(V_B) whose error has the smallest M-norm.

        V_B are the first ``m`` black halves of ``basis``, whose pads are
        zero, and e_B V_B and then U = N_R V_B are built in ``U_ROWS``.
        The coefficients c solve (V_B'M V_B) c = V_B'r, with V_B'M V_B =
        V_B'e_B V_B - U'd U + (V_B'w)(w'V_B)/a: three ``einsum`` calls, one
        of them for V_B'w and V_B'r.  x then moves by p = V_B c, and r by M p.
        """
        rows, span = self.rows, self.board.span
        vb, u = basis[:m], self.u[:m]
        gram = np.einsum("ik,jk->ij", np.multiply(vb, self.e_b, out=u), vb)
        vw, vr = np.einsum("ik,jk->ij", rows[1:9:7], vb).tolist()
        self.board.neighbours(vb, u, RED)
        gram -= np.einsum("ik,k,jk->ij", u[:, span], self.d[span], u[:, span])
        scale = [v / self.a for v in vw]
        gram = [[gij + vi * sj for gij, sj in zip(gi, scale)] for gi, vi in zip(gram.tolist(), vw)]
        coef = _cholesky_solve(gram, vr)
        np.einsum("i,ik->k", np.array(coef), vb, out=self.p)
        self.x += self.p
        self.apply(sum(c * v for c, v in zip(coef, vw)))
        self.r -= self.q

    def lift(self, rhs: np.ndarray, m: float) -> float:
        """Write x's eliminated red cells, at the mass m, into t; returns mu.

        The red cells at mu = 0 are t = d (b_R + N_R x_B).  mu then gives the
        mass by the halves' sums, and one more step of it, by the state's
        own sum, the one ``run`` reports, takes out what round-off left.  The
        droplet run's mass drift is 0 with that step and 1.8e-16 without
        it, but on an 8 x 6 grid whose multiplier is 1e6 the halves' sums
        alone leave 1.2e-11 of the mass, and the step 2e-16.
        """
        x, t, z, d = self.x, self.t, self.z, self.d
        # z is finite everywhere, and d zero off the red cells
        np.multiply(rhs[RED], 1.0 / self.s, out=z)
        self.neighbours(self.X, self.P, RED, self.Q)
        self.spans[self.Z] += self.spans[self.P]
        np.multiply(z, d, out=t)
        mu = (m - float(x.sum()) - float(t.sum())) / self.a
        t += np.multiply(d, mu, out=z)
        step = (m - float(self.state.sum())) / self.a
        t += np.multiply(d, step, out=z)
        return mu + step

    def solve(self, rhs: np.ndarray, basis: np.ndarray, m: int,
              mass: float) -> Tuple[float, int, float]:
        """Solve A x = rhs + mu_e*1 for x and mu_e, x's mass fixed at x0's.

        x0 is ``state``, in which the solve leaves x, and A's diagonal is
        built in nu's pair (``nu``), which the solve consumes.  ``rhs`` is
        a pair with zero pads, ``mass`` x0's own sum, ``float(state.sum())``,
        and the start is moved by the first ``m`` black halves of ``basis``
        (``galerkin_start``); both are kept.  Returns (mu_e, iterations,
        ||r||/||rhs||), r = rhs + mu_e*1 - A x, the start counting as
        iteration 0.

        Every solve takes one path: ``load``, ``reduce``, the start
        (``galerkin_start``) when m > 0, ``build_preconditioner``,
        conjugate gradients until ||r|| <= cg_rel_tol*||rhs||, and ``lift``.
        A start that already meets the tolerance takes zero iterations, and
        ``lift`` still rewrites its reds, by round-off.  A right-hand side
        whose norm is not positive (zero or nan) raises ``ParameterError``:
        the tolerance is relative to it.  Exceeding the iteration cap raises
        ``ConvergenceError`` with the residual history attached, after
        writing the last iterate, at x0's mass, into ``state``; a
        nonpositive p'Mp raises it with the state's red half clobbered.
        """
        s = self.s
        scale = self.load(rhs)
        if not scale > 0.0:
            raise ParameterError(f"the right-hand side's norm must be positive, got {s * scale}")
        tol = self.rel_tol * scale
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
                self.lift(rhs, mass)
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
        mu = self.lift(rhs, mass)
        return s * mu, it, res / scale


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
    the initial energy of increase.  The march holds its fields in the
    solve's red and black halves (``grid._Checkerboard``): it splits ``c0``
    once, and joins the state into one cell field after a step only for
    the observer and the returned field.  It allocates all its memory once,
    and no step allocates a field:

    - that cell field;
    - the reduced system (``_BlackSystem``), built once: its eleven work
      halves, which hold the state, into which each solve writes the next
      one, nu's pair, where A's diagonal is built, and the pass's other
      three pairs;
    - s_r's pair, in which the right-hand side is built;
    - the last START_DIRECTIONS changes of the state, in a ring, and the
      last state, all black halves, which choose the solve's start.

    All but the cell field are halves from ``_Checkerboard.zeros``, on
    64-byte lines.  That is about 10.04 fields at 128 x 128 cells, pads and
    ends included.

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

    system = _BlackSystem(g, p.kappa, cfg)
    board, state, rows = system.board, system.state, system.rows
    board.split(c, state)
    s_r = board.zeros(2)
    basis = board.zeros(START_DIRECTIONS)  # step n's change in row (n - 1) % START_DIRECTIONS
    old = board.zeros()  # the last state's black half
    # The pass returns nu in the solve's pair for it and s_r in its own; f
    # and the other two go to rows that the solve fills before it reads them.
    fields = [system.nu, s_r, rows[0:2], rows[2:4], rows[7:9]]
    reports: List[StepReport] = []
    mu_e, iters, res = float("nan"), 0, float("nan")  # step 0 has no solve
    for n in range(n_steps + 1):
        if n:
            if not report.bounds_ok:
                if cfg.on_violation == "abort":
                    # Names the offending cell.  Only the initial state gets
                    # here, which c still holds: a later one aborts with its
                    # own report.
                    require_in_window(c, ef, f"step {n}")
                warnings.warn(
                    f"step {n}: previous state leaves the density window "
                    f"[{ef.c_m}, {ef.c_M}]; continuing as configured",
                    stacklevel=2,
                )
            # The right-hand side c/tau + s_r is built in s_r's pair.
            b = coeffs.s_r
            b += np.divide(state, cfg.tau, out=fields[2])
            np.copyto(old, state[BLACK])
            mu_e, iters, res = system.solve(b, basis, min(n - 1, START_DIRECTIONS), total)
            # zero at the pads and ends, as the state is, which the start needs
            np.subtract(state[BLACK], old, out=basis[(n - 1) % START_DIRECTIONS])

        # One pass gives this state's energy and extremes and the next step's coefficients.
        coeffs = scheme_coefficients(state, ef, p, g, fields=fields, board=board)
        # The mass is h^2 <c, 1>, without a field of ones; the next solve keeps <c, 1>.
        total = float(np.sum(state))
        if not n:
            energy_slack = cfg.energy_slack_rel * abs(coeffs.energy.total)
        report = StepReport(
            step_index=n, mu_e=mu_e, breakdown=coeffs.energy, interval=interval,
            c_min=coeffs.c_min, c_max=coeffs.c_max, mass=g.h * g.h * total,
            cg_iters=iters, residual=res,
            # the initial state has no multiplier and nothing to dissipate
            admissibility_ok=not n or interval.contains(mu_e),
            bounds_ok=bool(ef.contains(coeffs.c_min) and ef.contains(coeffs.c_max)),
            energy_decreased=not n or bool(coeffs.energy.total <= report.energy + energy_slack),
        )
        if n and cfg.on_violation == "abort" and not report.all_ok:
            raise InvariantViolation(
                f"step {n}: invariant check failed "
                f"(admissibility={report.admissibility_ok}, bounds={report.bounds_ok}, "
                f"dissipation={report.energy_decreased})"
            )
        reports.append(report)
        if n and (observer is not None or n == n_steps):
            board.join(state, c)
        if observer is not None:
            observer(c, report)
    return c, reports[1:]
