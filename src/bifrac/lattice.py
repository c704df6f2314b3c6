"""Sampled functions on a uniform lattice, their cube cell sums, and grid file IO.

A GridFunction is piecewise constant on the cells of [-L, L)^n and zero
outside the box, so every integral over a lattice-aligned cube is a
finite cell sum and therefore exact.  That choice trades smoothness for
testability: the structural identities downstream hold with equality on
step functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConjugateMismatch,
    DegenerateCube,
    InputUnreadable,
    NonAlignedCube,
    NonNegativityViolation,
    OutOfBox,
    SpecMismatch,
)
from .geometry import Cube

CONJUGATE_TOL = 1e-12
_FAR = 2 ** 53  # past any box


def _nearest(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nearest integers to t (ties to even) in +-_FAR, -_FAR where t is not
    finite, and whether t lies within 1e-9 max(1, |t|) of them."""
    near = np.rint(t)
    with np.errstate(invalid="ignore"):  # inf - inf
        ok = np.abs(t - near) <= 1e-9 * np.maximum(1.0, np.abs(t))
    return np.clip(np.where(np.isfinite(near), near, -_FAR), -_FAR, _FAR).astype(np.int64), ok


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice over the box [-L, L)^n.

    N (cells per axis) must be a power of two so dyadic cubes align with
    cell boundaries.  Every module converts between coordinates and cells
    by its map: x -> (x + L) / h in cell units, edge i -> -L + i h.
    """

    dim: int
    half_width: float
    cells_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        n = self.cells_per_axis
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"cells_per_axis must be a power of two, got {n}")

    @cached_property
    def h(self) -> float:
        """Cell side length."""
        return 2.0 * self.half_width / self.cells_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.dim

    @property
    def cell_count(self) -> int:
        return self.cells_per_axis ** self.dim

    @property
    def box_cube(self) -> Cube:
        return Cube((-self.half_width,) * self.dim, 2.0 * self.half_width)

    def to_cells(self, x):
        """Coordinates in cell units, (x + L) / h, for a float or an array."""
        return (x + self.half_width) / self.h

    def edge(self, i):
        """The coordinate -L + i h of cell edge i, for an int or an int array."""
        return -self.half_width + i * self.h

    def edge_index(self, x) -> int:
        """The nearest cell edge to the coordinate x (ties to even), a Python int."""
        return round((x + self.half_width) / self.h)

    def lattice_cubes(self, corners: np.ndarray, sides: np.ndarray) -> tuple[np.ndarray, ...]:
        """Cubes (k x n corners, k sides) on the lattice: the nearest corner
        cells (k x n) and widths in cells (k), and whether each side (k) and
        corner coordinate (k x n) is a whole number of cells (see _nearest)."""
        lo, corner_ok = _nearest(self.to_cells(corners))
        width, side_ok = _nearest(sides / self.h)
        return lo, width, side_ok, corner_ok

    def midpoints(self) -> np.ndarray:
        """Per-axis cell midpoint coordinates."""
        return self.edge(np.arange(self.cells_per_axis) + 0.5)

    def cell_of_point(self, x) -> tuple[int, ...] | None:
        """Cell index containing x, or None when x is outside the box."""
        idx = tuple([math.floor((xi + self.half_width) / self.h + 1e-12) for xi in x])
        return idx if all([0 <= i < self.cells_per_axis for i in idx]) else None


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real samples, one per lattice cell, row-major; zero outside the box."""

    spec: GridSpec
    samples: np.ndarray
    nonnegative: bool = field(default=False)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.shape != self.spec.shape:
            raise ValueError(f"samples shape {arr.shape} != spec shape {self.spec.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("samples must all be finite")
        if self.nonnegative and arr.size and float(arr.min()) < 0.0:
            raise NonNegativityViolation(
                f"declared nonnegative but min sample is {arr.min()}"
            )
        object.__setattr__(self, "samples", _read_only(arr.copy()))

    @classmethod
    def constant(cls, spec: GridSpec, value: float) -> "GridFunction":
        return cls(spec, np.full(spec.shape, float(value)), nonnegative=value >= 0)

    @classmethod
    def indicator(cls, spec: GridSpec, cube: Cube) -> "GridFunction":
        """Characteristic function of a lattice-aligned cube."""
        arr = np.zeros(spec.shape)
        sl = _cell_slices(spec, cube, clip=True)
        arr[sl] = 1.0
        return cls(spec, arr, nonnegative=True)

    def values_at(self, points) -> np.ndarray:
        """The samples at points of shape (..., n), by the rule of
        GridSpec.cell_of_point: cell floor((x + L) / h + 1e-12) per axis, 0
        outside the box."""
        t = np.floor(self.spec.to_cells(np.asarray(points, dtype=np.float64)) + 1e-12)
        ok = ((t >= 0) & (t < self.spec.cells_per_axis)).all(axis=-1)
        out = np.zeros(ok.shape)
        out[ok] = self.samples[tuple(t[ok].astype(np.int64).T)]
        return out

    def abs_pow(self, p: float) -> "GridFunction":
        """|f|^p as a grid function."""
        return GridFunction(self.spec, np.abs(self.samples) ** p, nonnegative=True)

    def _binary(self, other, op):
        if isinstance(other, GridFunction):
            if other.spec != self.spec:
                raise SpecMismatch("grid functions on different specs")
            return GridFunction(self.spec, op(self.samples, other.samples))
        return GridFunction(self.spec, op(self.samples, float(other)))

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)


def _cell_slices(spec: GridSpec, Q: Cube, clip: bool = False):
    """Cell index slices covered by a lattice-aligned cube (GridSpec.lattice_cubes).

    With clip=True the slices are clamped to the box (cube may stick out);
    otherwise OutOfBox is raised for any overhang.
    """
    if Q.dim != spec.dim:
        raise NonAlignedCube(f"cube dimension {Q.dim} != spec dimension {spec.dim}")
    lo, width, side_ok, corner_ok = spec.lattice_cubes(np.array([Q.corner]), np.array([Q.side]))
    iw, n = int(width[0]), spec.cells_per_axis
    if iw == 0:
        raise DegenerateCube(f"cube side {Q.side} is below one cell")
    if not side_ok[0]:
        raise NonAlignedCube(f"side {Q.side} is not a whole number of cells")
    slices = []
    for c, i0, ok in zip(Q.corner, lo[0].tolist(), corner_ok[0].tolist()):
        if not ok:
            raise NonAlignedCube(f"corner {c} off the cell lattice")
        i1 = i0 + iw
        if clip:
            i0, i1 = max(0, i0), min(n, i1)
            i0, i1 = (i0, i1) if i0 < i1 else (0, 0)
        elif i0 < 0 or i1 > n:
            raise OutOfBox(f"cube {Q.serialize()} leaves the box")
        slices.append(slice(i0, i1))
    return tuple(slices)


def check_conjugate(r: float, s: float) -> None:
    if not (r > 1 and s > 1 and abs(1.0 / r + 1.0 / s - 1.0) <= CONJUGATE_TOL):
        raise ConjugateMismatch(f"1/{r} + 1/{s} != 1 within {CONJUGATE_TOL}")


def _scalar_pow(values: np.ndarray, expo: float) -> np.ndarray:
    """values ** expo, bit for bit as scalar `**`: np.float_power on float64
    calls the C library's pow per element, as `**` does, where np.power's
    SIMD kernels differ from it by 1 ulp on some inputs.  Raises as `**` does
    where it has no float result: ZeroDivisionError for 0.0 to a negative
    power, OverflowError past the float range, and ValueError (`**` gives a
    complex) for a negative value to a non-integer power."""
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        try:
            return np.float_power(values, expo)
        except FloatingPointError:
            pass
    if expo < 0.0 and (values == 0.0).any():
        raise ZeroDivisionError("0.0 cannot be raised to a negative power")
    if (np.isfinite(values) & (values < 0.0)).any() and not float(expo).is_integer():
        raise ValueError(f"a negative value has no real power {expo}")
    raise OverflowError(f"a power {expo} leaves the float range")


# np.sum of a contiguous float row runs numpy's pairwise_sum
# (numpy/_core/src/umath/loops_utils.h.src): fewer than 8 values in order;
# up to _PW_BLOCK values in _PW_LANES strided accumulators, combined as
# ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in order;
# longer rows split at n/2 rounded down to a multiple of _PW_LANES.
_PW_BLOCK = 128
_PW_LANES = 8


def _window_sums(rows: np.ndarray, top: int) -> np.ndarray:
    """T[..., s, n] = pairwise_sum(rows[..., s : s + n]) for s + n <= N, n <= top,
    per row of a stack (..., N) of rows.

    Every piece of the pairwise tree is itself a window sum, so the table is
    built in a fixed number of numpy calls plus one gather-add per split
    level, for all rows at once: every step adds elementwise, so each row's
    table holds the bits of its own.  A lane accumulator of the window at s
    is the running sum of cells t, t + lanes, ... from t = s + lane, so the
    running sums are taken once per cell t, not once per window and lane.
    Entries past the end of a row, and columns past top, are garbage (and
    may overflow where no read window does, hence the errstate).
    """
    lanes, known = _PW_LANES, min(top, _PW_BLOCK)
    blocks, lead, count = known // lanes + 1, rows.shape[:-1], rows.shape[-1] + 1
    cells = np.concatenate((rows, np.zeros(lead + (lanes * (blocks + 1),))), axis=-1)
    windows = sliding_window_view(cells, lanes * blocks, axis=-1)  # [..., s, i] = cells[s + i]
    table = np.empty(lead + (count, max(top + 1, lanes * blocks)))
    # the lengths lanes * b + k: after b whole blocks (0.0 for b = 0), the remainder in order
    tail = table[..., : lanes * blocks].reshape(lead + (count, blocks, lanes))
    with np.errstate(over="ignore", invalid="ignore"):
        # [..., t, b]: cells t, t + lanes, ... t + lanes b added in order
        acc = np.cumsum(windows[..., : count + lanes - 1, ::lanes], axis=-1)
        for step in (1, 2, 4):  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
            acc = acc[..., :-step, :] + acc[..., step:, :]
        tail[..., 0, 0] = 0.0
        tail[..., 1:, 0] = acc[..., :-1]
        tail[..., 1:] = windows[..., :count, :].reshape(lead + (count, blocks, lanes))[..., : lanes - 1]
        np.cumsum(tail, axis=-1, out=tail)
        start = np.arange(count)[:, None]
        while known < top:
            n = np.arange(known + 1, top + 1)
            n2 = n // 2 // lanes * lanes
            # n - n2 is not monotone in n: take the run of lengths whose halves are known
            run = np.argmax(np.append(n - n2 > known, True))
            n, n2 = n[:run], n2[:run]
            table[..., n] = table[..., n2] + table[..., np.minimum(start + n2, count - 1), n - n2]
            known = int(n[-1])
    return table


class CellBoxes:
    """Cube-window engine: integer cell boxes [lo[k], hi[k]) (k x n, already
    clipped to a grid of `shape`).  1D window sums equal np.sum(arr[box]) bit
    for bit (but for the sign of a NaN on the table route, whose adds may
    meet two NaNs in another order) by one of two routes, chosen from the
    boxes alone: boxes holding fewer cells in all than the (N + 1) x
    (top + 1) window table gather their cells and reduce them per distinct
    length (see `by_length`); denser sets read that table over every start
    and length up to the longest box (see _window_sums).  The rest reads a
    per-axis power-of-two table: a 2D window sum adds the box's disjoint
    blocks (see `digits`); minima and the outward sweep take the 2^n
    overlapping blocks at its corners (see `blocks`), in any dimension.  The
    table's build steps are index tuples cached once per box set (see
    `_steps`), so a call sets up nothing but the table itself, which
    starts uninitialised but for its cells and the slot past it; the sweep
    replays the steps in reverse from a scatter of each box's distinct
    corner blocks (see `_scatter`).  Containment among the boxes, the pair
    count and the inward maxima (`inner_max`), reads one start x end table
    in 1D (see _start_end) and per-side corner windows over the power-of-two
    table in 2D (see _sides), whose boxes must be squares.

    Window sums take a stack of arrays, one engine pass for all of them, with
    the bits of one call per array.  They keep to the contiguity rule: a
    gather goes through take, whose result is C-contiguous, before a reduce
    along its last axis.  `lo`, `ext` and the cached plans are read-only
    (arrays frozen, steps tuples): cached families (a default family, a
    root's dyadic tree) share them, so a writable plan would leak from one
    call into the next.
    """

    def __init__(self, shape: tuple[int, ...], lo: np.ndarray, hi: np.ndarray):
        self.shape = tuple(shape)
        self.count = len(lo)
        self.lo = _read_only(lo.view())
        self.ext = _read_only(np.maximum(hi - lo, 0))
        self.top = int(self.ext.max(initial=1))

    @classmethod
    def tripled(cls, shape: tuple[int, ...], lo: np.ndarray, width: np.ndarray) -> "CellBoxes":
        """Boxes [lo - width, lo + 2 width) of the tripled blocks, clipped to the grid."""
        w, n = width[:, None], np.array(shape)
        return cls(shape, np.clip(lo - w, 0, n), np.clip(lo + 2 * w, 0, n))

    @cached_property
    def by_length(self) -> tuple[tuple[np.ndarray, np.ndarray], ...] | None:
        """1D: per distinct extent e, the boxes of extent e and their cells
        (boxes x e), when the boxes hold fewer cells in all than the window
        table has entries; None when the table is smaller and sums reads it
        instead.  The rule bounds the plan's memory by the table's; it is not
        a speed crossover, which follows the number of distinct lengths."""
        lo, ext = self.lo[:, 0], self.ext[:, 0]
        if int(ext.sum()) >= (self.shape[0] + 1) * (self.top + 1):
            return None
        plan = []
        for e in np.flatnonzero(np.bincount(ext)).tolist():
            k = np.flatnonzero(ext == e)
            plan.append((_read_only(k), _read_only(lo[k, None] + np.arange(e))))
        return tuple(plan)

    @cached_property
    def table_shape(self) -> tuple[int, ...]:
        """The shape (K_1 ... K_n, N_1 ... N_n) of the power-of-two table,
        with levels up to the longest box on each axis."""
        return tuple(int(t).bit_length() for t in self.ext.max(axis=0, initial=1)) + self.shape

    @cached_property
    def blocks(self) -> np.ndarray:
        """Per box, the flat table positions (2^n x k, the last axis
        outermost) of the blocks of its largest power-of-two extents at its
        2^n corners, which cover it; empty boxes point at the slot past the
        table."""
        levels = self.table_shape[: len(self.shape)]
        k = np.frexp(np.maximum(self.ext, 1))[1].astype(np.int64) - 1  # floor(log2(extent)), exact
        far = self.lo + self.ext - (1 << k)
        at = np.ravel_multi_index(tuple(k.T), levels)[None]
        for ax, n in enumerate(self.shape):
            at = np.concatenate((at * n + self.lo[:, ax], at * n + far[:, ax]))
        at[:, ~(self.ext > 0).all(axis=1)] = math.prod(self.table_shape)
        return _read_only(at)

    @cached_property
    def digits(self) -> np.ndarray:
        """Per box, a column of flat table positions: its disjoint blocks, one
        per binary digit of its extent on each axis, largest first and the last
        axis innermost.  The slot past the table fills the rest of the column
        (missing digits, empty boxes); it holds 0, which changes no sum.
        Positions are int32, half the memory of int64, so the table must have
        fewer than 2^31 slots."""
        dim, shape = len(self.shape), self.table_shape
        assert math.prod(shape) < 2 ** 31, f"a power-of-two table of shape {shape} overflows int32 positions"
        strides = [math.prod(shape[i + 1 :]) for i in range(2 * dim)]
        at, valid = np.zeros((1, self.count), dtype=np.int32), np.ones((1, self.count), dtype=bool)
        for ax, (lo, e) in enumerate(zip(self.lo.T.astype(np.int32), self.ext.T.astype(np.int32))):
            k = np.arange(shape[ax] - 1, -1, -1, dtype=np.int32)[:, None]
            present = e >> k & 1 == 1
            # the axis's digits, each box's present ones first, as many as any box has
            order = np.argsort(~present, axis=0, kind="stable")[: present.sum(axis=0).max(initial=0)]
            k, present = np.take_along_axis(k, order, axis=0), np.take_along_axis(present, order, axis=0)
            start = lo + (e >> (k + 1) << (k + 1))  # the corner plus the box's higher digits
            rows = (len(at) * len(k), self.count)
            at = (at[:, None] + k * strides[ax] + start * strides[dim + ax]).reshape(rows)
            valid = (valid[:, None] & present).reshape(rows)
        return _read_only(np.where(valid, at, math.prod(shape))[valid.any(axis=1)])

    @cached_property
    def _steps(self) -> tuple[tuple[tuple, tuple, tuple], ...]:
        """The steps that build the power-of-two table, whose layer (k_1 ...
        k_n) holds a value per 2^k_1 x ... x 2^k_n block at each corner cell,
        from the cells at layer (0 ... 0): per level, the indices of the
        coarser blocks and of the two finer blocks, half their extent apart,
        that make them up.  Each index leads with `...`, so it reads every
        row of a leading stack axis.  The last axis runs first, then each
        earlier axis on all layers of the axes after it at once, so the steps
        make about n log N numpy calls; a step reads only the finer blocks
        that fit."""
        dim, shape = len(self.shape), self.table_shape
        steps = []
        for ax in reversed(range(dim)):
            later = (slice(None),) * (dim - 1 - ax)  # the later axes' layers, or their cells
            earlier = (slice(None),) * ax  # the earlier axes' cells
            for k in range(1, shape[ax]):
                m, half = shape[dim + ax] - (1 << k) + 1, 1 << (k - 1)
                coarse, fine = ((...,) + (0,) * ax + (level,) + later + earlier for level in (k, k - 1))
                steps.append((coarse + (slice(m),) + later, fine + (slice(m),) + later, fine + (slice(half, half + m),) + later))
        return tuple(steps)

    @cached_property
    def _scatter(self) -> tuple[np.ndarray, np.ndarray]:
        """The sweep's scatter plan: each box's distinct corner blocks, as
        flat table positions in `blocks` order, and the box of each.  A
        power-of-two extent puts both corners of an axis on one block, which
        a max needs once."""
        at = self.blocks
        keep = np.ones(at.shape, dtype=bool)
        for corner in range(1, len(at)):
            keep[corner] = (at[corner] != at[:corner]).all(axis=0)
        return _read_only(at[keep]), _read_only(np.nonzero(keep)[1])

    def _table(self, arr: np.ndarray, ufunc, fill: float) -> np.ndarray:
        """The power-of-two table of arr (..., N_1 ... N_n) under ufunc, flat per
        row of the stack, plus one slot past it that holds fill.  Only layer
        (0, ..., 0) and that slot are written before the build steps; the
        positions no step writes, past each layer's last whole block, are
        never read (`blocks` and `digits` point at whole blocks only)."""
        lead = arr.shape[: arr.ndim - len(self.shape)]
        flat = np.empty(lead + (math.prod(self.table_shape) + 1,))
        flat[..., : math.prod(self.shape)] = arr.reshape(lead + (-1,))
        flat[..., -1] = fill
        table = flat[..., :-1].reshape(lead + self.table_shape)  # a view: only the last axis splits
        with np.errstate(over="ignore", invalid="ignore"):  # blocks that no box reads may overflow
            for coarse, first, second in self._steps:
                ufunc(table[first], table[second], out=table[coarse])
        return flat

    def sums(self, arr: np.ndarray) -> np.ndarray:
        """The sum over each box of each row of a stack arr (..., N_1 ... N_n),
        shape (..., boxes); 0 for empty boxes.  In 1D np.sum(row[box]) bit for
        bit, per length (`by_length`) or from the window table (whose NaN may
        differ in sign); in 2D the box's disjoint blocks (`digits`) added in
        order.  Each row of a stack sums as a call on that row alone would,
        bit for bit, but for the sign of a NaN from the 1D window table past
        one 128-value block and from the 2D table.

        The contiguity rule: a gather goes through take, whose result is
        C-contiguous, so each box's cells are reduced as np.sum reduces a
        slice; arr[..., cells] on a stack is not, and its reduce differs
        from np.sum by one ulp on some boxes."""
        if len(self.shape) == 1 and self.by_length is not None:
            out = np.zeros(arr.shape[:-1] + (self.count,))
            with np.errstate(over="ignore", invalid="ignore"):  # silent, as the table is
                for k, cells in self.by_length:  # each length group's sums straight into its boxes
                    out[..., k] = np.add.reduce(arr.take(cells, axis=-1), axis=-1)
            return out
        if len(self.shape) == 1:
            # + 0.0: np.sum adds the row to its identity 0.0, which turns -0.0 into 0.0
            return _window_sums(arr, self.top)[..., self.lo[:, 0], self.ext[:, 0]] + 0.0
        # the digits in order onto +0.0, so a zero sum reads +0.0 wherever the padding falls;
        # one row of positions at a time: gathering all rows at once costs a digits x boxes array
        flat, out = self._table(arr, np.add, 0.0), np.zeros(arr.shape[:-2] + (self.count,))
        for at in self.digits:
            out += flat.take(at, axis=-1)
        return out

    def minima(self, arr: np.ndarray) -> np.ndarray:
        """arr[box].min() per box; +inf for empty boxes: the min of the 2^n
        corner blocks' minima, which NaN propagates through as in np.min."""
        return np.minimum.reduce(self._table(arr, np.minimum, np.inf)[self.blocks], axis=0)

    def sweep(self, values: np.ndarray) -> np.ndarray:
        """Per cell, the max of values[k] over the boxes containing it.

        Cells in no box get -inf; a NaN value propagates as in np.maximum.
        Each value goes onto the distinct corner blocks of its box (an empty
        box's onto the slot past the table; see `_scatter`), and each block
        passes its max down to the two blocks it is made of, level by level
        (the build steps in reverse), to the cells (layer (0, ..., 0)).
        """
        at, box = self._scatter
        flat = np.full(math.prod(self.table_shape) + 1, -np.inf)
        np.maximum.at(flat, at, values[box])
        table = flat[:-1].reshape(self.table_shape)
        for coarse, first, second in reversed(self._steps):
            np.maximum(table[first], table[coarse], out=table[first])
            np.maximum(table[second], table[coarse], out=table[second])
        return table[(0,) * len(self.shape)].copy()

    def _start_end(self, values: np.ndarray, ufunc, fill) -> tuple[np.ndarray, np.ndarray]:
        """1D: the non-empty boxes k, and per box ufunc reduced over values[k]
        of the non-empty boxes inside it.

        [a', e'] lies in [a, e] when a <= a' and e' <= e: the values go onto
        an N x N start x end table (ufunc.at, so repeated boxes combine), and
        running reductions over e, then back over a, leave the result at (a, e).
        """
        n, k = self.shape[0], np.flatnonzero(self.ext[:, 0] > 0)
        at = self.lo[k, 0] * (n + 1) + self.ext[k, 0] - 1  # first * N + last cell
        table = np.full((n, n), fill)
        ufunc.at(table.reshape(-1), at, values[k])
        # in place: one N x N array per call; at N = 128 each N x N array
        # is at malloc's mmap threshold, so every extra one is page-faulted afresh
        ufunc.accumulate(table, axis=1, out=table)
        ufunc.accumulate(table[::-1], axis=0, out=table[::-1])
        return k, table.reshape(-1)[at]

    @cached_property
    def _sides(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, "CellBoxes"], ...]:
        """2D containment plan, one entry per square side w present: the
        side-w boxes, the flat positions of their corners on the grid of
        (N - w + 1)^2 corners, the boxes of side >= w, and their windows
        [lo, lo + side - w] on that grid.  A side-w square lies in a square
        exactly when its corner lies in the outer square's window.  A
        non-empty box that is not a square raises ValueError naming the
        first one."""
        k = np.flatnonzero(self.ext.min(axis=1) > 0)
        side = self.ext[k, 0]
        bent = k[(self.ext[k] != side[:, None]).any(axis=1)]
        if len(bent):
            b, shape = int(bent[0]), " x ".join(map(str, self.ext[bent[0]].tolist()))
            raise ValueError(f"2D containment needs square boxes; box {b} at cell {self.lo[b].tolist()} is {shape} cells")
        plan = []
        for w in np.flatnonzero(np.bincount(side)).tolist():
            shape = tuple(n - w + 1 for n in self.shape)
            inner, outer = k[side == w], k[side >= w]
            lo = self.lo[outer]
            windows = CellBoxes(shape, lo, lo + (self.ext[outer, :1] - w + 1))
            at = np.ravel_multi_index(tuple(self.lo[inner].T), shape)
            plan.append((_read_only(inner), _read_only(at), _read_only(outer), windows))
        return tuple(plan)

    def pair_count(self) -> int:
        """The number of pairs of non-empty boxes, the first inside the
        second, each box counted inside itself; 2D boxes must be squares.

        1D counts on the start x end table (see _start_end).  In 2D, per side
        w, a prefix table of the side-w corners is read at the four corners of
        every window (see _sides)."""
        if len(self.shape) == 1:
            return int(self._start_end(np.ones(self.count, dtype=np.int64), np.add, 0)[1].sum())
        total = 0
        for _, at, _, windows in self._sides:
            m = windows.shape[0]
            prefix = np.zeros((m + 1, m + 1), dtype=np.int64)
            prefix[1:, 1:] = np.bincount(at, minlength=m * m).reshape(m, m).cumsum(axis=0).cumsum(axis=1)
            (a0, a1), (b0, b1) = windows.lo.T, (windows.lo + windows.ext).T
            total += int((prefix[b0, b1] - prefix[a0, b1] - prefix[b0, a1] + prefix[a0, a1]).sum())
        return total

    def inner_max(self, values: np.ndarray) -> np.ndarray:
        """Per non-empty box, the max of values[k] over the non-empty boxes
        inside it; -inf for empty boxes; NaN propagates as in np.maximum.
        2D boxes must be squares.

        1D reads running maxima of the start x end table (see _start_end).
        In 2D, per side w, the side-w values go negated onto their corners
        (np.minimum.at, so repeated squares combine), and every outer
        square's window minimum, negated, is the max over the side-w squares
        inside it (see _sides); the max over the sides is the answer.
        """
        out = np.full(self.count, -np.inf)
        if len(self.shape) == 1:
            k, best = self._start_end(values, np.maximum, -np.inf)
            out[k] = best
            return out
        for inner, at, outer, windows in self._sides:
            corners = np.full(windows.shape, np.inf)
            np.minimum.at(corners.reshape(-1), at, -values[inner])
            out[outer] = np.maximum(out[outer], -windows.minima(corners))
        return out


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only in place."""
    arr.setflags(write=False)
    return arr


def cell_overlaps(spec: GridSpec, corners: np.ndarray, sides: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the overlaps of the cubes [corner, corner + side) with the
    cells: one vector per distinct (corner, side) pair on that axis, told
    apart by their bits, and each cube's row among them."""
    edges = spec.edge(np.arange(spec.cells_per_axis + 1))
    axes = []
    for ax in range(spec.dim):
        key = np.column_stack((corners[:, ax], sides)).view(np.int64)
        key, row = np.unique(key, axis=0, return_inverse=True)
        lo, side = key.view(np.float64).T[:, :, None]
        overlap = np.maximum(np.minimum(edges[1:], lo + side) - np.maximum(edges[:-1], lo), 0.0)
        axes.append((overlap, row.reshape(-1)))
    return axes


def integrate_overlaps(pw: np.ndarray, overlaps: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Integral of the nonnegative cell values pw over each cube of
    cell_overlaps, per grid of a stack pw (..., N_1 ... N_n): shape (...,
    cubes), each grid with the bits of a call on it alone.

    One matrix product per axis contracts the finite values with every
    distinct overlap vector, and each cube reads its (row, col) entry; the
    same products over an indicator of the non-finite cells give +inf where
    a cube overlaps one.  A stack takes one batched product per axis, which
    makes the BLAS call of a one-grid product once per grid (a 1D grid is a
    1 x N row, as alone).  In 2D a partial sum over cells a cube does not
    reach can overflow (and inf * 0 is nan), so a cube whose value comes out
    non-finite is summed again term by term, (a_i b_j) pw_ij, 0 off its
    cells: +inf marks only an integral that overflows by itself.
    """
    dim = len(overlaps)
    lead = pw.shape[: pw.ndim - dim]
    at = 0
    for vectors, row in overlaps:  # each cube's flat position in the (u, v) products
        at = at * len(vectors) + row
    bad = ~np.isfinite(pw)
    tables = [np.where(bad, 0.0, pw)] + ([bad.astype(np.float64)] if bad.any() else [])
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for part in tables:
            part = part.reshape(part.shape + (1,) * (2 - dim))  # 1D: each grid an N x 1 column, swapped to a row
            for vectors, _ in overlaps:  # each grid's cells of axis 0, leaving (N, u); in 2D then axis 1, leaving (u, v)
                part = np.swapaxes(part, -1, -2) @ vectors.T
            values.append(part.reshape(lead + (-1,)).take(at, axis=-1))
        out = values[0]
        if dim == 2 and not np.isfinite(out).all():  # a 1D product is the cube's own sum
            (first, row0), (second, row1) = overlaps
            for row, cells in zip(out.reshape(-1, len(at)), tables[0].reshape((-1,) + pw.shape[-2:])):
                redo = np.flatnonzero(~np.isfinite(row))
                row[redo] = np.einsum("ki,kj,ij->k", first[row0[redo]], second[row1[redo]], cells)
    if len(values) == 2:
        out[values[1] > 0.0] = np.inf
    return out


def lp_norm(f: GridFunction, p: float) -> float:
    """Global L^p norm over the box."""
    if not (p > 0):
        raise ValueError(f"p must be positive, got {p}")
    total = float(np.sum(np.abs(f.samples) ** p)) * f.spec.h ** f.spec.dim
    return total ** (1.0 / p)


def write_grid_file(path, f: GridFunction) -> None:
    """Text format: header `n L N`, then N^n samples row-major."""
    with open(path, "w", encoding="ascii") as fh:
        spec = f.spec
        fh.write(f"{spec.dim} {spec.half_width!r} {spec.cells_per_axis}\n")
        flat = f.samples.reshape(-1)
        fh.write(" ".join(repr(float(v)) for v in flat))
        fh.write("\n")


def read_grid_file(path) -> GridFunction:
    """Inverse of write_grid_file; any malformed file raises InputUnreadable."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            if len(header) != 3:
                raise InputUnreadable(f"{path}: header must be `n L N`")
            dim, half_width, n = int(header[0]), float(header[1]), int(header[2])
            body = fh.read().split()
    except OSError as exc:
        raise InputUnreadable(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise InputUnreadable(f"{path}: bad header ({exc})") from exc
    try:
        spec = GridSpec(dim, half_width, n)
    except ValueError as exc:
        raise InputUnreadable(f"{path}: bad header ({exc})") from exc
    if len(body) != spec.cell_count:
        raise InputUnreadable(
            f"{path}: expected {spec.cell_count} samples, found {len(body)}"
        )
    try:
        return GridFunction(spec, np.array([float(v) for v in body]).reshape(spec.shape))
    except ValueError as exc:
        raise InputUnreadable(f"{path}: bad sample ({exc})") from exc
