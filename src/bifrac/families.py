"""Finite cube families over which discrete suprema are taken.

The weight constants, Morrey norms, and maximal operators all maximize
over the same default families so that both sides of any inequality are
compared on identical index sets:

* n = 1: every lattice-aligned interval in the box, ordered by
  (corner, side).
* n = 2: every lattice-aligned square whose side is a power of two
  times the cell width, plus every in-box cube of the four shifted
  dyadic grids, each cube once, ordered by (corner, side).  The family
  is exact: nothing is capped or subsampled (7,590 cubes at N = 32).

`CubeFamily.integrals` is the per-cube sum of cell values, for a stack of
grids in one pass: the engine's window sums over the aligned cubes' boxes,
and overlap vectors for the shifted cubes.

`nested_pairs` records the nesting relation Q ⊆ Q' among the aligned
members of a family with its exact pair count (CellBoxes.pair_count); a
max over the relation is the engine's too (CellBoxes.inner_max over the
family's boxes).  Pairs are never listed.

`subcube_family` is a root cube's dyadic tree: its dyadic subcubes down to
single cells, breadth first, which `sparse` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import EmptyCubeFamily, NonAlignedCube
from .geometry import Cube, DyadicGrid
from .lattice import CellBoxes, GridSpec, _cell_slices, _read_only, _scalar_pow, cell_overlaps, integrate_overlaps


@dataclass(frozen=True)
class CubeFamily:
    """Ordered cubes as arrays, plus integer cell bounds for the aligned members.

    `corners` (k x n) and `sides` (k,) define the cubes; `cubes` builds the
    Cube objects on first use.  `lo`/`hi` hold per-axis cell index bounds;
    rows are -1 for cubes that do not sit on the cell lattice (shifted-grid
    cubes in 2D).  The four are read-only copies: the caches below hold them.
    """

    spec: GridSpec
    corners: np.ndarray
    sides: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        for key in ("corners", "sides", "lo", "hi"):
            object.__setattr__(self, key, _read_only(np.array(getattr(self, key))))

    @property
    def size(self) -> int:
        return len(self.sides)

    @cached_property
    def aligned(self) -> np.ndarray:
        return self.lo[:, 0] >= 0

    def require_nonempty(self):
        if self.size == 0:
            raise EmptyCubeFamily(f"family {self.name!r} is empty")

    @cached_property
    def cubes(self) -> tuple[Cube, ...]:
        return tuple(Cube(c, s) for c, s in zip(self.corners.tolist(), self.sides.tolist()))

    def cube(self, k: int) -> Cube:
        """Cube k, without building the whole tuple."""
        return Cube(self.corners[k].tolist(), float(self.sides[k]))

    # Per-family arrays and engine boxes, computed once.

    def side_powers(self, expo: float, scale: float = 1.0) -> np.ndarray:
        """(scale * side) ** expo per cube, by lattice._scalar_pow (scalar `**`
        bit for bit, which np.power is not), so |Q| here equals Cube.measure.
        Read-only: the family memoises the array per (expo, scale)."""
        return self._side_powers(expo, scale)

    @cached_property
    def _side_powers(self):
        """side_powers' memo.  A run reads a handful of (expo, scale) pairs
        per family, from every operator call; the bound keeps one that reads
        many from growing without end."""

        @lru_cache(maxsize=16)
        def powers(expo: float, scale: float) -> np.ndarray:
            return _read_only(_scalar_pow(scale * self.sides, expo))

        return powers

    @cached_property
    def measures(self) -> np.ndarray:
        """|Q| per cube, by the same scalar power as Cube.measure."""
        return self.side_powers(self.spec.dim)

    @cached_property
    def shifted(self) -> np.ndarray:
        """Indices of the cubes off the cell lattice."""
        return np.flatnonzero(~self.aligned)

    @cached_property
    def shifted_overlaps(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The shifted cubes' cell overlaps (lattice.cell_overlaps)."""
        k = self.shifted
        return cell_overlaps(self.spec, self.corners[k], self.sides[k])

    @cached_property
    def boxes(self) -> CellBoxes:
        """Cell boxes of the aligned cubes; shifted cubes get empty boxes."""
        return CellBoxes(self.spec.shape, self.lo, self.hi)

    @cached_property
    def cover(self) -> CellBoxes:
        """Boxes of the cells whose midpoints each cube contains."""
        return self._cell_boxes(
            lambda t: np.ceil(t - 0.5 - 1e-12), lambda t: np.floor(t - 0.5 + 1e-12) + 1
        )

    @cached_property
    def touch(self) -> CellBoxes:
        """Boxes of the cells each cube overlaps."""
        return self._cell_boxes(lambda t: np.floor(t + 1e-12), lambda t: np.ceil(t - 1e-12))

    @cached_property
    def windows3(self) -> CellBoxes:
        """Boxes of the tripled cubes 3Q, clipped to the grid, from each cube's
        corner and side rounded to whole cells."""
        lo, width, _, _ = self.spec.lattice_cubes(self.corners, self.sides)
        return CellBoxes.tripled(self.spec.shape, lo, width)

    def _cell_boxes(self, first, stop) -> CellBoxes:
        """Aligned cubes keep lo/hi; shifted cubes map their edges (in cells) by first/stop."""
        spec, k = self.spec, self.shifted
        lo, hi = self.lo.copy(), self.hi.copy()
        start = self.corners[k]
        end = start + self.sides[k, None]
        lo[k] = np.clip(first(spec.to_cells(start)), 0, spec.cells_per_axis)
        hi[k] = np.clip(stop(spec.to_cells(end)), 0, spec.cells_per_axis)
        return CellBoxes(spec.shape, lo, hi)

    def integrals(self, pw: np.ndarray) -> np.ndarray:
        """Integral over each cube of the step function with cell values pw,
        per grid of a stack pw (..., N_1 ... N_n): shape (..., cubes).

        Aligned cubes take engine window sums (in 1D bit-identical to a
        slice sum), shifted cubes per-axis cell overlap vectors; each is one
        pass for the whole stack, with the bits of a call per grid.
        """
        out = self.boxes.sums(pw) * self.spec.h ** self.spec.dim
        if len(self.shifted):  # row by row: a scatter into a stack is 3x slower
            for row, part in zip(out.reshape(-1, self.size), self.shifted_integrals(pw).reshape(-1, len(self.shifted))):
                row[self.shifted] = part
        return out

    def shifted_integrals(self, pw: np.ndarray) -> np.ndarray:
        """Integral of the cell values pw over each shifted cube, with partial
        cells, per grid of a stack pw (see lattice.integrate_overlaps)."""
        if len(self.shifted) == 0:
            return np.zeros(pw.shape[: pw.ndim - self.spec.dim] + (0,))
        return integrate_overlaps(pw, self.shifted_overlaps)


def _with_cell_bounds(spec: GridSpec, corners: np.ndarray, sides: np.ndarray, name: str) -> CubeFamily:
    """The family with the cell bounds of its aligned in-box members (GridSpec.lattice_cubes)."""
    lo, width, side_ok, corner_ok = spec.lattice_cubes(corners, sides)
    hi = lo + width[:, None]
    ok = side_ok & (width >= 1) & (corner_ok & (lo >= 0) & (hi <= spec.cells_per_axis)).all(axis=1)
    return CubeFamily(spec, corners, sides, np.where(ok[:, None], lo, -1), np.where(ok[:, None], hi, -1), name)


def all_intervals(spec: GridSpec) -> CubeFamily:
    """Every lattice interval [ih, jh) in the box (1D), O(N^2) of them."""
    if spec.dim != 1:
        raise ValueError("all_intervals is one-dimensional")
    i, j = np.triu_indices(spec.cells_per_axis + 1, k=1)
    corners = spec.edge(i)[:, None]
    return CubeFamily(spec, corners, (j - i) * spec.h, i[:, None], j[:, None], name="intervals")


def _po2_squares(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Lattice squares whose side is a power of two cells: corners, sides."""
    n = spec.cells_per_axis
    corners, sides = [], []
    s = 1
    while s <= n:
        c = spec.edge(np.arange(n - s + 1))
        corners.append(np.stack(np.meshgrid(c, c, indexing="ij"), -1).reshape(-1, 2))
        sides.append(np.full(len(c) ** 2, s * spec.h))
        s *= 2
    return np.concatenate(corners), np.concatenate(sides)


def _shifted_grid_cubes(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """In-box cubes of every shifted dyadic grid, all levels down to one cell."""
    box = spec.box_cube
    lo, hi = box.corner[0], box.corner[0] + box.side
    tol = 1e-12 * box.side
    k_min = math.ceil(-math.log2(box.side))
    k_max = math.floor(-math.log2(spec.h) + 1e-9)
    corners, sides = [np.zeros((0, spec.dim))], [np.zeros(0)]
    for shift in product((0.0, 1.0 / 3.0), repeat=spec.dim):
        grid = DyadicGrid(shift)
        for level in range(k_min, k_max + 1):
            side = 2.0 ** (-level)
            axes = []
            for sh in grid.level_shift(level):
                m = np.arange(math.floor(lo / side - sh) - 1, math.ceil(hi / side - sh) + 2)
                c = side * (m + sh)
                axes.append(c[(c >= lo - tol) & (c + side <= hi + tol)])
            level_corners = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, spec.dim)
            corners.append(level_corners)
            sides.append(np.full(len(level_corners), side))
    return np.concatenate(corners), np.concatenate(sides)


def default_family(spec: GridSpec) -> CubeFamily:
    """Shared default cube family for sups (see module docstring)."""
    if spec.dim == 1:
        return all_intervals(spec)
    squares, shifted = _po2_squares(spec), _shifted_grid_cubes(spec)
    corners = np.concatenate([squares[0], shifted[0]])
    sides = np.concatenate([squares[1], shifted[1]])
    # the first of the cubes that agree to 12 decimals (a stable sort keeps
    # each group's rows in input order), then all in (corner, side) order
    rows = np.round(np.column_stack([corners, sides]), 12)
    rank = np.lexsort(rows.T[::-1])
    keep = rank[np.append(True, (np.diff(rows[rank], axis=0) != 0).any(axis=1))]
    order = keep[np.lexsort((sides[keep], *corners[keep].T[::-1]))]
    return _with_cell_bounds(spec, corners[order], sides[order], "squares+shifted")


def _root_block(spec: GridSpec, Q0: Cube) -> tuple[tuple[int, ...], int]:
    """Q0's corner cells and width in cells, checked as any cube is, and a power of two."""
    slices = _cell_slices(spec, Q0)
    iw = slices[0].stop - slices[0].start
    if iw & (iw - 1):
        raise NonAlignedCube(f"root width {iw} cells is not a power of two")
    return tuple(sl.start for sl in slices), iw


@lru_cache(maxsize=8)  # the most recent roots, bounded like the kernel tables
def subcube_family(spec: GridSpec, Q0: Cube) -> CubeFamily:
    """All dyadic subcubes of Q0 down to single cells, breadth first: cube 0
    is Q0, and cube i has its 2^n children at 2^n i + 1 ... 2^n i + 2^n, in
    `product((0, half), ...)` order."""
    lo0, w0 = _root_block(spec, Q0)
    offsets = np.array(list(product((0, 1), repeat=spec.dim)), dtype=np.int64)
    levels, widths = [np.array([lo0], dtype=np.int64)], [w0]
    while widths[-1] > 1:
        widths.append(widths[-1] // 2)
        levels.append((levels[-1][:, None, :] + offsets * widths[-1]).reshape(-1, spec.dim))
    lo, width = np.concatenate(levels), np.repeat(widths, [len(lv) for lv in levels])
    return CubeFamily(spec, spec.edge(lo), width * spec.h, lo, lo + width[:, None], "dyadic")


@dataclass(frozen=True)
class NestedPairs:
    """The nesting relation Q ⊆ Q' among the aligned members of `family`.

    `size` is the exact number of nested pairs (Q, Q'), each member counted
    as nested in itself; the pairs themselves are never listed.
    """

    family: CubeFamily
    size: int


def nested_pairs(family: CubeFamily) -> NestedPairs:
    """The nesting relation among the aligned members, with its exact pair
    count from the engine (CellBoxes.pair_count over the aligned cubes' boxes)."""
    return NestedPairs(family, family.boxes.pair_count())
