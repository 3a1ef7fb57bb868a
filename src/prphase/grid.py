"""Cell-centered mesh of a uniform 2-D grid and its red-black layout.

Cell fields have shape (ny, nx), stored row-major: the cell in row i and
column j has flat index i*nx + j.  ``Grid2D.check_cells`` is the one rule
that a field has that shape.

The march holds its fields in another layout, the red and the black
cells each packed in a flat half (``_Checkerboard``), in which the
five-point stencil is four shifted slices of one flat run.  The squared
norm of the discrete gradient is taken there too: the differences of
neighbouring cells, one per interior face, so no flux crosses the domain
boundary (the homogeneous Neumann condition).  The Laplacian that matches
it, in the summation-by-parts sense <c, -Lap(c)> = ||grad c||^2, is the
stencil the solver applies (``solver._BlackSystem``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class Grid2D:
    """Uniform mesh of nx-by-ny square cells of side h, origin at (x0, y0)."""

    nx: int
    ny: int
    h: float
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.nx, int) and isinstance(self.ny, int)):
            raise ParameterError(f"cell counts must be integers, got nx={self.nx!r}, ny={self.ny!r}")
        if self.nx < 1 or self.ny < 1:
            raise ParameterError(f"need at least one cell per direction, got nx={self.nx}, ny={self.ny}")
        if not (np.isfinite(self.h) and self.h > 0):
            raise ParameterError(f"cell size h must be finite and positive, got {self.h!r}")

    @property
    def lx(self) -> float:
        return self.nx * self.h

    @property
    def ly(self) -> float:
        return self.ny * self.h

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    def cell_centers(self):
        """Coordinates (X, Y) of the cell centres, of shapes (1, nx) and
        (ny, 1), which broadcast to the cell shape (ny, nx)."""
        x = self.x0 + (np.arange(self.nx) + 0.5) * self.h
        y = self.y0 + (np.arange(self.ny) + 0.5) * self.h
        return x[np.newaxis, :], y[:, np.newaxis]

    def cell_shape(self):
        return (self.ny, self.nx)

    def check_cells(self, a: np.ndarray, what: str) -> None:
        """Raise ``ParameterError`` naming ``what`` unless ``a`` has the cell shape."""
        if a.shape != self.cell_shape():
            raise ParameterError(f"{what}: expected cell shape {self.cell_shape()}, got {a.shape}")


RED, BLACK = 0, 1


class _Checkerboard:
    """The red and the black cells of a grid, each colour packed in a flat half.

    Cell (i, j) is red when i + j is even, so every grid has a red cell.
    Pad each row with pad cells to the odd width ``wid`` (one in front, and
    one behind when nx is odd) and the grid with a pad row above and one
    below.  In the padded grid's flat order cell (i, j) sits at
    q = (i + 1)*wid + j + 1, which is even for red cells and odd for black
    ones, and index q // 2 of its colour's half holds it.  With
    h = (wid - 1)/2, red k's black neighbours are k, k - 1, k + h and
    k - h - 1, and black k's red neighbours k + 1, k, k + h + 1 and k - h.
    So a half-stencil is four shifted slices of one flat run, with no
    fix-up at the row ends, where the pads give zero.

    The slice ``span`` of a half holds all its cells and the pads among
    them (``pads``); the entries outside it are the half's ends.  A field
    in this layout is a pair, one C-contiguous (2, size) array of its red
    half and then its black one, so that both spans lie in one flat
    ``run`` of it, with only the ends between them (``gap``) besides.  Each
    colour's cells are two strided blocks of the full field, those in even
    rows and those in odd ones, and two strided blocks of the half
    (``views``), through which ``split`` and ``join`` copy.

    Every index above is moved by ``offset`` leading ends, fewer than 8,
    which put ``span``'s start on a multiple of 8 entries, and ``size`` is
    rounded up to a multiple of 8.  So in halves allocated on a 64-byte
    line (``zeros``) every half, span and pair's run starts on one.  With
    AVX-512 loops, ``np.add(a, b, out=o)`` takes two to three times as long
    when ``o`` starts off a cache line, and the march is long runs of such
    calls over these slices.

    What a pad holds: the ends of every half the march holds are zero from
    its allocation on, and nothing writes them.  Where the stencil reads a
    half its pads hold zero too, so a neighbour sum over ``span`` needs no
    fix-up at the domain's edges.  Only while the per-state pass reads the
    state, in one ``run``, do its pads and ``gap`` hold its first cell
    instead, so that the pass sees densities of the field alone; the pass
    zeroes them again (``ef.scheme_coefficients``).
    """

    def __init__(self, g: Grid2D):
        self.ny, self.nx = ny, nx = g.ny, g.nx
        wid = nx + 1 if nx % 2 == 0 else nx + 2
        h = wid // 2
        self.wid = wid
        # the leading ends that put span's start on a multiple of 8 entries
        self.offset = o = -(h + 1) % 8
        cells = (ny + 2) * wid // 2 + 1  # the half from its first pad on
        self.size = -(-(o + cells) // 8) * 8
        lo, hi = o + h + 1, o + cells - h - 1
        self.span = slice(lo, hi)
        # of a pair's flat view: the run from the red span to the end of the
        # black one, and in it the red half's upper end and the black one's lower
        self.run, self.gap = slice(lo, self.size + hi), slice(hi, self.size + lo)
        # the other colour's neighbours of red cells, then of black ones:
        # the x pair, then the y pair
        self.shifts = tuple(tuple(slice(lo + d, hi + d) for d in shifts)
                            for shifts in ((0, -1, h, -h - 1), (1, 0, h + 1, -h)))
        top, bottom = (ny + 1) // 2, ny // 2  # rows of even and of odd i
        left, right = (nx + 1) // 2, nx // 2  # columns of even and of odd j
        even, odd = slice(0, None, 2), slice(1, None, 2)
        # (block of the full field, first index in the half, rows, columns)
        self.blocks = (
            (((even, even), lo, top, left), ((odd, odd), o + wid + 1, bottom, right)),
            (((even, odd), lo, top, right), ((odd, even), o + wid, bottom, left)),
        )
        # Pad column 0, and wid - 1 when it is not a cell, in every padded
        # row: the indices in span of each colour, wid apart.
        self.pads: Tuple[List[slice], List[slice]] = ([], [])
        for col in (0,) if wid == nx + 1 else (0, wid - 1):
            for row in (0, 1):
                first = o + (row * wid + col) // 2
                first += wid * max(0, -((first - lo) // wid))
                stop = min(o + ((ny + 1) * wid + col) // 2 + 1, hi)
                if first < stop:
                    self.pads[(row + col) % 2].append(slice(first, stop, wid))
        # By black shift (right, left, down, up): the entries of span that
        # hold no interior face, the black pads and the black cells on the
        # edge that the shift crosses.
        self.cuts = [self.pads[BLACK] + [self.line(BLACK, **edge)]
                     for edge in ({"j": nx - 1}, {"j": 0}, {"i": ny - 1}, {"i": 0})]

    def zeros(self, *lead: int) -> np.ndarray:
        """Zeroed halves of shape ``lead + (size,)`` whose first entry, and so
        every half's and every span's, sits on a 64-byte boundary."""
        count = math.prod(lead) * self.size
        buf = np.zeros(count + 7)
        skip = -buf.__array_interface__["data"][0] // 8 % 8
        return buf[skip:skip + count].reshape(lead + (self.size,))

    def line(self, colour: int, i: Optional[int] = None, j: Optional[int] = None) -> slice:
        """The cells of ``colour`` in row ``i``, or in column ``j``, as a
        slice of their half: consecutive along a row, ``wid`` apart down a
        column."""
        if i is not None:
            first = (colour - i) % 2
            count, start, step = len(range(first, self.nx, 2)), (i + 1) * self.wid + first + 1, 1
        else:
            first = (colour - j) % 2
            count, start, step = len(range(first, self.ny, 2)), (first + 1) * self.wid + j + 1, self.wid
        start = self.offset + start // 2
        return slice(start, start + (count - 1) * step + 1, step) if count else slice(0, 0)

    def views(self, halves: np.ndarray, colour: int):
        """(index of the full field, view of ``halves``) of the two blocks of
        ``colour``; ``halves`` is one half or a stack of them, and each view
        has the stack's leading shape and then the block's rows and columns."""
        wid, lead = self.wid, halves.shape[:-1]
        return [(cells, halves[..., base:base + rows * wid].reshape(lead + (rows, wid))[..., :cols])
                for cells, base, rows, cols in self.blocks[colour]]

    def split(self, full: np.ndarray, pair: np.ndarray) -> np.ndarray:
        """Copy the cells of the cell field ``full`` into ``pair``; returns it.
        Its pads and ends are left as they were."""
        for colour in (RED, BLACK):
            for cells, view in self.views(pair[colour], colour):
                np.copyto(view, full[cells])
        return pair

    def join(self, pair: np.ndarray, full: np.ndarray) -> np.ndarray:
        """``split`` backwards: the cells of ``pair`` into ``full``; returns it."""
        for colour in (RED, BLACK):
            for cells, view in self.views(pair[colour], colour):
                np.copyto(full[cells], view)
        return full

    def fill_pads(self, pair: np.ndarray, value: float) -> None:
        for colour, pads in enumerate(self.pads):
            for cut in pads:
                pair[colour, cut] = value

    def neighbours(self, src: np.ndarray, out: np.ndarray, colour: int) -> None:
        """Sum of the neighbours in ``src``, halves of the other colour or
        stacks of them, of each cell of ``colour``, into ``out`` over
        ``span``, the terms added in turn (``solver._BlackSystem.neighbours``
        sums the pairs first)."""
        o = out[..., self.span]
        a, b, c, d = self.shifts[colour]
        np.add(src[..., a], src[..., b], out=o)
        o += src[..., c]
        o += src[..., d]

    def gradient_sq_norm(self, pair: np.ndarray, scratch: np.ndarray) -> float:
        """Squared norm of the discrete gradient of the field whose halves,
        pads zero, are ``pair``: h^2 times the sum of ((c_j - c_i)/h)^2 over
        neighbouring cell pairs, that is the sum of (c_j - c_i)^2.

        Every interior face joins a red cell and a black one, so each is
        one black cell's difference to a red neighbour: four shifted runs,
        each summed by ``einsum`` once the entries that hold no face are
        zeroed (``cuts``).  ``scratch``, a half, is clobbered.
        """
        red, black = pair
        d = scratch[self.span]
        total = 0.0
        for shift, cuts in zip(self.shifts[BLACK], self.cuts):
            np.subtract(black[self.span], red[shift], out=d)
            for cut in cuts:
                scratch[cut] = 0.0
            total += float(np.einsum("i,i->", d, d))
        return total
