"""Sampled functions on a uniform lattice with exact cell-wise integration.

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
from itertools import product

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


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice over the box [-L, L)^n.

    N (cells per axis) must be a power of two so dyadic cubes align with
    cell boundaries.
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

    @property
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

    def midpoints(self) -> np.ndarray:
        """Per-axis cell midpoint coordinates."""
        i = np.arange(self.cells_per_axis)
        return -self.half_width + (i + 0.5) * self.h

    def cell_cube(self, index: tuple[int, ...]) -> Cube:
        corner = tuple(-self.half_width + i * self.h for i in index)
        return Cube(corner, self.h)

    def cell_of_point(self, x) -> tuple[int, ...] | None:
        """Cell index containing x, or None when x is outside the box."""
        idx = []
        for xi in x:
            t = (xi + self.half_width) / self.h
            i = int(math.floor(t + 1e-12))
            if i < 0 or i >= self.cells_per_axis:
                return None
            idx.append(i)
        return tuple(idx)


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
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must all be finite")
        if self.nonnegative and arr.size and float(arr.min()) < 0.0:
            raise NonNegativityViolation(
                f"declared nonnegative but min sample is {arr.min()}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

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

    def value_at(self, x) -> float:
        idx = self.spec.cell_of_point(x if hasattr(x, "__len__") else (x,))
        if idx is None:
            return 0.0
        return float(self.samples[idx])

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """Vectorized piecewise-constant lookup (1D spec only)."""
        if self.spec.dim != 1:
            raise ValueError("values_at is one-dimensional")
        t = (points + self.spec.half_width) / self.spec.h
        idx = np.floor(t + 1e-12).astype(np.int64)
        ok = (idx >= 0) & (idx < self.spec.cells_per_axis)
        out = np.zeros(points.shape)
        out[ok] = self.samples[idx[ok]]
        return out

    def abs_pow(self, p: float) -> "GridFunction":
        """|f|^p as a grid function."""
        return GridFunction(self.spec, np.abs(self.samples) ** p, nonnegative=True)

    def shifted(self, cells: tuple[int, ...]) -> "GridFunction":
        """Translate by whole cells; mass pushed past the box edge is dropped."""
        arr = np.zeros(self.spec.shape)
        src = []
        dst = []
        for k in cells if isinstance(cells, tuple) else (cells,):
            n = self.spec.cells_per_axis
            lo_dst, hi_dst = max(0, k), min(n, n + k)
            src.append(slice(lo_dst - k, hi_dst - k))
            dst.append(slice(lo_dst, hi_dst))
        arr[tuple(dst)] = self.samples[tuple(src)]
        return GridFunction(self.spec, arr, nonnegative=self.nonnegative)

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
    """Cell index slices covered by a lattice-aligned cube.

    With clip=True the slices are clamped to the box (cube may stick out);
    otherwise OutOfBox is raised for any overhang.
    """
    if Q.dim != spec.dim:
        raise NonAlignedCube(f"cube dimension {Q.dim} != spec dimension {spec.dim}")
    h = spec.h
    n = spec.cells_per_axis
    tol = 1e-9
    width = Q.side / h
    iw = round(width)
    if iw == 0:
        raise DegenerateCube(f"cube side {Q.side} is below one cell")
    if abs(width - iw) > tol * max(1.0, width):
        raise NonAlignedCube(f"side {Q.side} is not a whole number of cells")
    slices = []
    for c in Q.corner:
        t = (c + spec.half_width) / h
        i0 = round(t)
        if abs(t - i0) > tol * max(1.0, abs(t)):
            raise NonAlignedCube(f"corner {c} off the cell lattice")
        i1 = i0 + iw
        if clip:
            i0, i1 = max(0, i0), min(n, i1)
            if i0 >= i1:
                slices.append(slice(0, 0))
                continue
        elif i0 < 0 or i1 > n:
            raise OutOfBox(f"cube {Q.serialize()} leaves the box")
        slices.append(slice(int(i0), int(i1)))
    return tuple(slices)


def integrate(f: GridFunction, Q: Cube) -> float:
    """Exact integral of f over a lattice-aligned cube inside the box."""
    sl = _cell_slices(f.spec, Q, clip=False)
    return float(np.sum(f.samples[sl])) * f.spec.h ** f.spec.dim


def cube_average(f: GridFunction, Q: Cube, p: float) -> float:
    """((1/|Q|) \\int_Q |f|^p)^(1/p), exact for step data."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    sl = _cell_slices(f.spec, Q, clip=False)
    total = float(np.sum(np.abs(f.samples[sl]) ** p)) * f.spec.h ** f.spec.dim
    return (total / Q.measure) ** (1.0 / p)


def clipped_power_integral(f: GridFunction, Q: Cube, p: float) -> float:
    """\\int_{Q ∩ box} |f|^p for a lattice-aligned cube that may leave the box."""
    sl = _cell_slices(f.spec, Q, clip=True)
    return float(np.sum(np.abs(f.samples[sl]) ** p)) * f.spec.h ** f.spec.dim


def check_conjugate(r: float, s: float) -> None:
    if r <= 1 or s <= 1 or abs(1.0 / r + 1.0 / s - 1.0) > CONJUGATE_TOL:
        raise ConjugateMismatch(f"1/{r} + 1/{s} != 1 within {CONJUGATE_TOL}")


def bilinear_average(f: GridFunction, g: GridFunction, Q: Cube, r: float, s: float) -> float:
    """m_Q(|f|^r, |g|^s): product of the two Hoelder-conjugate cube averages.

    Q must be lattice-aligned but may stick out of the box; the functions
    vanish outside, so integration runs over the intersection while the
    normalizing measure stays |Q|.
    """
    check_conjugate(r, s)
    fi = clipped_power_integral(f, Q, r)
    gi = clipped_power_integral(g, Q, s)
    return (fi / Q.measure) ** (1.0 / r) * (gi / Q.measure) ** (1.0 / s)


def box_power_integral(f: GridFunction, corner, side: float, p: float) -> float:
    """Exact \\int over an arbitrary axis-aligned cube of |f|^p.

    Handles partial cell overlaps (needed for shifted-grid cubes whose
    corners are thirds); the integrand is a step function so the integral
    is a sum of per-cell overlap volumes.
    """
    corners = np.array([corner], dtype=np.float64)
    return float(overlap_integrals(f.spec, np.abs(f.samples) ** p, corners, np.array([side]))[0])


def _scalar_pow(values: np.ndarray, expo: float) -> np.ndarray:
    """values ** expo by scalar pow, once per distinct value.

    Scalar pow, not numpy's array power, which differs from it by 1 ulp on
    some inputs on SIMD hosts.  Values are told apart by their bits, so equal
    bits in give equal bits out, -0.0 and NaN payloads included.
    """
    distinct, back = np.unique(np.asarray(values, dtype=np.float64).view(np.int64), return_inverse=True)
    return np.array([v ** expo for v in distinct.view(np.float64).tolist()], dtype=np.float64)[back]


# Cells gathered at once in 2D and by overlap_integrals; bounds the memory of one call.
_GATHER_CELLS = 1 << 13

# np.sum of a contiguous float row runs numpy's pairwise_sum
# (numpy/_core/src/umath/loops_utils.h.src): fewer than 8 values in order;
# up to _PW_BLOCK values in _PW_LANES strided accumulators, combined as
# ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in order;
# longer rows split at n/2 rounded down to a multiple of _PW_LANES.
_PW_BLOCK = 128
_PW_LANES = 8


def _window_sums(row: np.ndarray, top: int) -> np.ndarray:
    """T[s, n] = pairwise_sum(row[s : s + n]) for s + n <= len(row), n <= top.

    Every piece of the pairwise tree is itself a window sum, so the table is
    built in a fixed number of numpy calls plus one gather-add per split
    level.  Entries past the end of the row are garbage (and may overflow
    where no read window does, hence the errstate).
    """
    lanes, known = _PW_LANES, min(top, _PW_BLOCK)
    blocks = known // lanes + 1
    cells = np.concatenate((row, np.zeros(lanes * blocks)))
    view = sliding_window_view(cells, lanes * blocks).reshape(-1, blocks, lanes)
    rows = len(view)
    table = np.empty((rows, top + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        acc = np.cumsum(view, axis=1)  # the accumulators after 1, 2, ... blocks
        while acc.shape[-1] > 1:
            acc = acc[..., 0::2] + acc[..., 1::2]
        # after b whole blocks (0.0 for b = 0), the remainder in order: length lanes * b + k
        tail = np.concatenate((np.zeros((rows, 1)), acc[:, :-1, 0]), axis=1)
        tail = np.concatenate((tail[..., None], view[..., : lanes - 1]), axis=2)
        table[:, : known + 1] = np.cumsum(tail, axis=2).reshape(rows, -1)[:, : known + 1]
        start = np.arange(rows)[:, None]
        while known < top:
            n = np.arange(known + 1, top + 1)
            n2 = n // 2 // lanes * lanes
            # n - n2 is not monotone in n: take the run of lengths whose halves are known
            run = np.argmax(np.append(n - n2 > known, True))
            n, n2 = n[:run], n2[:run]
            table[:, n] = table[:, n2] + table[np.minimum(start + n2, rows - 1), n - n2]
            known = int(n[-1])
    return table


def _window_minima(row: np.ndarray, top: int) -> np.ndarray:
    """T[s, n] = row[s : s + n].min() for s + n <= len(row); +inf for n = 0."""
    view = sliding_window_view(np.concatenate((row, np.full(top, np.inf))), top)
    table = np.full((len(view), top + 1), np.inf)
    np.minimum.accumulate(view, axis=1, out=table[:, 1:])
    return table


class CellBoxes:
    """Cube-window engine: integer cell boxes [lo[k], hi[k]) (k x n, already
    clipped to a grid of `shape`).  Window sums equal np.sum(arr[box]) bit
    for bit.  In 1D, sums and minima read one table over every start and
    length up to the longest box (see _window_sums), one fancy index per
    call, and the containment maxima (`sweep`, `inner_max`) read running
    maxima of one start x end table (see _interval_table), O(N^2) like the
    window-sum table.  In 2D sums and minima group the boxes by shape, one
    numpy call per shape, never one per box, and gather each window as a
    contiguous row of its cells in row-major order (summing a strided view
    over several axes does not give np.sum's bits); the containment maxima
    run on a table of squares (see _containment_max).  Groups and squares
    are built on first use.
    """

    def __init__(self, shape: tuple[int, ...], lo: np.ndarray, hi: np.ndarray):
        self.shape = tuple(shape)
        self.count = len(lo)
        self.lo = lo
        self.ext = np.maximum(hi - lo, 0)
        self.top = int(self.ext.max(initial=1))

    @classmethod
    def tripled(cls, shape: tuple[int, ...], lo: np.ndarray, width: np.ndarray) -> "CellBoxes":
        """Boxes [lo - width, lo + 2 width) of the tripled blocks, clipped to the grid."""
        w, n = width[:, None], np.array(shape)
        return cls(shape, np.clip(lo - w, 0, n), np.clip(lo + 2 * w, 0, n))

    @cached_property
    def groups(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per non-empty box shape: member indices, flat corner cells, flat window offsets."""
        key = np.ravel_multi_index(tuple(self.ext.T), tuple(n + 1 for n in self.shape))
        order = np.argsort(key, kind="stable")
        starts = np.unique(key[order], return_index=True)[1]
        groups = []
        for idx in np.split(order, starts[1:]):
            box = tuple(self.ext[idx[0]].tolist())
            if min(box, default=0) > 0:
                corners = np.ravel_multi_index(tuple(self.lo[idx].T), self.shape)
                offsets = np.ravel_multi_index(tuple(np.indices(box).reshape(len(box), -1)), self.shape)
                groups.append((idx, corners, offsets))
        return groups

    def sums(self, arr: np.ndarray) -> np.ndarray:
        """np.sum(arr[box]) per box, bit for bit; 0 for empty boxes."""
        if len(self.shape) == 1:
            # + 0.0: np.sum adds the row to its identity 0.0, which turns -0.0 into 0.0
            return _window_sums(arr, self.top)[self.lo[:, 0], self.ext[:, 0]] + 0.0
        return self._reduce(arr, 0.0, np.sum)

    def minima(self, arr: np.ndarray) -> np.ndarray:
        """arr[box].min() per box; +inf for empty boxes."""
        if len(self.shape) == 1:
            return _window_minima(arr, self.top)[self.lo[:, 0], self.ext[:, 0]]
        return self._reduce(arr, np.inf, np.min)

    def _reduce(self, arr: np.ndarray, empty: float, op) -> np.ndarray:
        out = np.full(self.count, empty)
        flat = arr.reshape(-1)
        for idx, corners, offsets in self.groups:
            # chunks of at most _GATHER_CELLS cells keep the gathered copies small
            step = max(1, _GATHER_CELLS // len(offsets))
            for start in range(0, len(idx), step):
                cells = corners[start : start + step, None] + offsets
                out[idx[start : start + step]] = op(flat[cells], axis=-1)
        return out

    @cached_property
    def squares(self) -> tuple[np.ndarray, np.ndarray, "_SquareTable"]:
        """The 2D boxes as squares: a w0 x w1 box with w0 <= w1 is exactly the
        union of the w1 - w0 + 1 squares of side w0 inside it.  Returns each
        square's position in a square table, the box it comes from, and the
        table."""
        side = self.ext.min(axis=1)
        box = np.flatnonzero(side > 0)
        count = self.ext[box].max(axis=1) - side[box] + 1
        box = np.repeat(box, count)
        step = np.arange(len(box)) - np.repeat(np.cumsum(count) - count, count)
        side = side[box]
        corner = self.lo[box] + (self.ext[box] > side[:, None]) * step[:, None]
        table = _SquareTable(self.shape, int(side.max(initial=1)))
        return table.positions(side, corner), box, table

    def sweep(self, values: np.ndarray) -> np.ndarray:
        """Per cell, the max of values[k] over the boxes containing it.

        Cells in no box get -inf; a NaN value propagates as in np.maximum.
        In 1D a cell c lies in [a, e] when a <= c <= e: a suffix max over e
        and a prefix max over a leave that max on the diagonal of the
        interval table.  In 2D the values go onto the squares of the boxes,
        and the outward containment recursion carries each down to the
        cells, the squares of side 1.
        """
        if len(self.shape) == 1:
            _, _, table = _interval_table(self, values)
            table = np.maximum.accumulate(table[:, ::-1], axis=1)[:, ::-1]
            return np.maximum.accumulate(table, axis=0).diagonal().copy()
        at, box, table = self.squares
        flat = np.full(table.size, -np.inf)
        np.maximum.at(flat, at, values[box])
        layers = table.layers(flat)
        _containment_max(layers, inward=False)
        return layers[0].copy()

    def inner_max(self, values: np.ndarray) -> np.ndarray:
        """Per non-empty box, the max of values[k] over the non-empty boxes
        inside it; -inf for empty boxes.  2D boxes must be squares.

        In 1D [a', e'] lies in [a, e] when a <= a' and e' <= e: a prefix max
        over e and a suffix max over a leave that max at (a, e) of the
        interval table.  In 2D the values go onto a square table, and the
        inward containment recursion gives each square the max over the
        squares inside it.
        """
        out = np.full(self.count, -np.inf)
        if len(self.shape) == 1:
            k, at, table = _interval_table(self, values)
            table = np.maximum.accumulate(table, axis=1)
            out[k] = np.maximum.accumulate(table[::-1], axis=0)[::-1].reshape(-1)[at]
            return out
        k = np.flatnonzero(self.ext.min(axis=1) > 0)
        side = self.ext[k, 0]
        table = _SquareTable(self.shape, int(side.max(initial=1)))
        at = table.positions(side, self.lo[k])
        flat = np.full(table.size, -np.inf)
        np.maximum.at(flat, at, values[k])
        _containment_max(table.layers(flat), inward=True)
        out[k] = flat[at]
        return out


def _interval_table(boxes: CellBoxes, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The non-empty 1D boxes, their flat positions (first * N + last cell)
    and the N x N start x end table holding, at each, the max of their
    values (-inf elsewhere)."""
    n = boxes.shape[0]
    k = np.flatnonzero(boxes.ext[:, 0] > 0)
    at = boxes.lo[k, 0] * (n + 1) + boxes.ext[k, 0] - 1
    table = np.full(n * n, -np.inf)
    np.maximum.at(table, at, values[k])
    return k, at, table.reshape(n, n)


class _SquareTable:
    """Layout of a table of values on the squares of side W = 1 ... top cells
    that fit in a grid of per-axis `sizes`: a flat array, packed layer by
    layer, where layer W - 1 is indexed by the corner, n - W + 1 per axis.
    Used in 2D only: 1D intervals take the start x end table instead.
    """

    def __init__(self, sizes: tuple[int, ...], top: int):
        self.shapes = [tuple(n - W + 1 for n in sizes) for W in range(1, top + 1)]
        self.starts = np.cumsum([0] + [math.prod(s) for s in self.shapes])
        self.size = int(self.starts[-1])

    def positions(self, side: np.ndarray, corner: np.ndarray) -> np.ndarray:
        """Flat position of each square (side, corner), row-major within its layer."""
        pos = np.zeros(len(side), dtype=np.int64)
        for ax, n in enumerate(self.shapes[0]):
            pos = pos * (n - side + 1) + corner[:, ax]
        return self.starts[side - 1] + pos

    def layers(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of a flat table, one array per side."""
        return [flat[a:b].reshape(s) for a, b, s in zip(self.starts[:-1], self.starts[1:], self.shapes)]


def _containment_max(layers: list[np.ndarray], inward: bool) -> None:
    """Max over square containment, in place on the layers of a 2D square
    table (-inf where there is no square); 1D intervals factor into two
    running maxima instead (see CellBoxes.sweep and CellBoxes.inner_max).

    The square of side W at corner A holds exactly the squares of side
    W - 1 at the corners A + t, t in {0, 1}^n, and through them every
    smaller square inside it.  Inward (W = 2 ... top), T[W - 1][A] max=
    T[W - 2][A + t] leaves in each square the max over the squares inside
    it.  Outward (W = top - 1 ... 1), T[W - 1][A + t] max= T[W][A] leaves in
    each square the max over the squares containing it.
    """
    shifts = list(product((0, 1), repeat=layers[0].ndim))
    steps = list(zip(layers[:-1], layers[1:]))
    for inner, outer in steps if inward else steps[::-1]:
        for t in shifts:
            part = inner[tuple(slice(s, s + m) for s, m in zip(t, outer.shape))]
            if inward:
                np.maximum(outer, part, out=outer)
            else:
                np.maximum(part, outer, out=part)


def overlap_integrals(spec: GridSpec, pw: np.ndarray, corners: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Integral of the cell values pw over each cube [corner, corner + side).

    Per axis, a cube's overlap with each cell is a vector; a stacked matmul
    runs the vector-matrix(-vector) product once per cube, so each value
    equals a single-cube product bit for bit.  Cubes go in chunks so that
    the overlap vectors stay small.

    Only the finite cell values are integrated; a cube whose overlap with a
    non-finite cell is positive gets +inf.  The partial sums of the rows a
    cube does not reach are zeroed before the next product, so an
    overflowed partial sum never meets a zero overlap (inf * 0 = nan).
    """
    if len(sides) == 0:  # 1D families have no shifted cubes: skip the set-up below
        return np.zeros(0)
    edges = -spec.half_width + spec.h * np.arange(spec.cells_per_axis + 1)
    bad = ~np.isfinite(pw)
    # the finite values, then (if any cell is non-finite) an indicator of the bad cells
    tables = [np.where(bad, 0.0, pw), bad.astype(np.float64)] if bad.any() else [pw]
    out = np.empty((len(tables), len(sides)))
    step = max(1, _GATHER_CELLS // spec.cells_per_axis)
    with np.errstate(over="ignore"):  # an integral past the float range is +inf
        for start in range(0, len(sides), step):
            overlaps = []
            for ax in range(spec.dim):
                lo = corners[start : start + step, ax, None]
                hi = lo + sides[start : start + step, None]
                overlaps.append(np.maximum(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0))
            for t, table in enumerate(tables):
                part = overlaps[0][:, None, :] @ table
                for overlap in overlaps[1:]:
                    part = np.where(overlap[:, None, :] > 0.0, part, 0.0)
                    part = part @ overlap[:, :, None]
                out[t, start : start + step] = part.reshape(-1)
    return np.where(out[1] > 0.0, np.inf, out[0]) if len(tables) == 2 else out[0]


def lp_norm(f: GridFunction, p: float) -> float:
    """Global L^p norm over the box."""
    if p <= 0:
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
