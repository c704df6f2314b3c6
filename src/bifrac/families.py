"""Finite cube families over which discrete suprema are taken.

The weight constants, Morrey norms, and maximal operators all maximize
over the same default families so that both sides of any inequality are
compared on identical index sets:

* n = 1: every lattice-aligned interval in the box, ordered by
  (corner, side).
* n = 2: every lattice-aligned square whose side is a power of two
  times the cell width, plus the in-box cubes of all four shifted
  dyadic grids, capped at a configurable count with deterministic
  stride subsampling.

`nested_pairs` gives the nesting relation Q ⊆ Q' among the aligned
members of a family: its exact pair count and, per member, the max of a
per-cube value over the members inside it.  Pairs are never listed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import EmptyCubeFamily
from .geometry import Cube, DyadicGrid
from .lattice import CellBoxes, GridSpec, _scalar_pow, overlap_integrals

DEFAULT_CUBE_CAP = 4096


@dataclass(frozen=True)
class CubeFamily:
    """Ordered cubes as arrays, plus integer cell bounds for the aligned members.

    `corners` (k x n) and `sides` (k,) define the cubes; `cubes` builds the
    Cube objects on first use.  `lo`/`hi` hold per-axis cell index bounds;
    rows are -1 for cubes that do not sit on the cell lattice (shifted-grid
    cubes in 2D).
    """

    spec: GridSpec
    corners: np.ndarray
    sides: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    name: str = "custom"

    @property
    def size(self) -> int:
        return len(self.sides)

    @property
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

    @cached_property
    def _distinct_sides(self) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(self.sides, return_inverse=True)

    def side_powers(self, expo: float, scale: float = 1.0) -> np.ndarray:
        """(scale * side) ** expo per cube, by scalar pow over the distinct
        sides (see lattice._scalar_pow), so |Q| here equals Cube.measure."""
        distinct, back = self._distinct_sides
        return _scalar_pow(scale * distinct, expo)[back]

    @cached_property
    def measures(self) -> np.ndarray:
        """|Q| per cube, by the same scalar power as Cube.measure."""
        return self.side_powers(self.spec.dim)

    @cached_property
    def shifted(self) -> np.ndarray:
        """Indices of the cubes off the cell lattice."""
        return np.flatnonzero(~self.aligned)

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
        spec = self.spec
        width = np.rint(self.sides / spec.h).astype(np.int64)
        lo = np.rint((self.corners + spec.half_width) / spec.h).astype(np.int64)
        return CellBoxes.tripled(spec.shape, lo, width)

    def _cell_boxes(self, first, stop) -> CellBoxes:
        """Aligned cubes keep lo/hi; shifted cubes map their edges (in cells) by first/stop."""
        spec, k = self.spec, self.shifted
        lo, hi = self.lo.copy(), self.hi.copy()
        start = self.corners[k]
        end = start + self.sides[k, None]
        lo[k] = np.clip(first((start + spec.half_width) / spec.h), 0, spec.cells_per_axis)
        hi[k] = np.clip(stop((end + spec.half_width) / spec.h), 0, spec.cells_per_axis)
        return CellBoxes(spec.shape, lo, hi)

    def integrals(self, pw: np.ndarray) -> np.ndarray:
        """Integral over each cube of the step function with cell values pw.

        Aligned cubes take engine window sums (bit-identical to a slice
        sum); shifted cubes take per-axis cell overlap vectors.
        """
        out = self.boxes.sums(pw) * self.spec.h ** self.spec.dim
        out[self.shifted] = self.shifted_integrals(pw)
        return out

    def shifted_integrals(self, pw: np.ndarray) -> np.ndarray:
        """Integral of the cell values pw over each shifted cube, with partial cells."""
        k = self.shifted
        return overlap_integrals(self.spec, pw, self.corners[k], self.sides[k])


def family_from_cubes(spec: GridSpec, cubes, name: str = "custom") -> CubeFamily:
    """Wrap an explicit cube list, computing aligned cell bounds."""
    cubes = tuple(cubes)
    corners = np.array([Q.corner for Q in cubes], dtype=np.float64).reshape(-1, spec.dim)
    sides = np.array([Q.side for Q in cubes], dtype=np.float64)
    return _with_cell_bounds(spec, corners, sides, name)


def _with_cell_bounds(spec: GridSpec, corners: np.ndarray, sides: np.ndarray, name: str) -> CubeFamily:
    w = sides / spec.h
    t = (corners + spec.half_width) / spec.h
    iw, i0 = np.rint(w), np.rint(t)
    ok = (np.abs(w - iw) <= 1e-9 * np.maximum(1.0, w)) & (iw >= 1)
    ok &= np.all(np.abs(t - i0) <= 1e-9 * np.maximum(1.0, np.abs(t)), axis=1)
    ok &= np.all((i0 >= 0) & (i0 + iw[:, None] <= spec.cells_per_axis), axis=1)
    lo = np.where(ok[:, None], i0, -1).astype(np.int64)
    hi = np.where(ok[:, None], i0 + iw[:, None], -1).astype(np.int64)
    return CubeFamily(spec, corners, sides, lo, hi, name)


def all_intervals(spec: GridSpec) -> CubeFamily:
    """Every lattice interval [ih, jh) in the box (1D), O(N^2) of them."""
    if spec.dim != 1:
        raise ValueError("all_intervals is one-dimensional")
    i, j = np.triu_indices(spec.cells_per_axis + 1, k=1)
    corners = (-spec.half_width + i * spec.h)[:, None]
    return CubeFamily(spec, corners, (j - i) * spec.h, i[:, None], j[:, None], name="intervals")


def _po2_squares(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Lattice squares whose side is a power of two cells: corners, sides."""
    n = spec.cells_per_axis
    corners, sides = [], []
    s = 1
    while s <= n:
        c = -spec.half_width + np.arange(n - s + 1) * spec.h
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


def default_family(spec: GridSpec, cap: int = DEFAULT_CUBE_CAP) -> CubeFamily:
    """Shared default cube family for sups (see module docstring)."""
    if spec.dim == 1:
        return all_intervals(spec)
    squares, shifted = _po2_squares(spec), _shifted_grid_cubes(spec)
    corners = np.concatenate([squares[0], shifted[0]])
    sides = np.concatenate([squares[1], shifted[1]])
    # keep the first of the cubes that agree to 12 decimals
    keys = np.round(np.column_stack([corners, sides]), 12)
    first = np.sort(np.unique(keys, axis=0, return_index=True)[1])
    corners, sides = corners[first], sides[first]
    order = np.lexsort((sides, *corners.T[::-1]))
    if cap and len(order) > cap:
        order = order[:: -(-len(order) // cap)]
    return _with_cell_bounds(spec, corners[order], sides[order], "squares+shifted")


@dataclass(frozen=True)
class NestedPairs:
    """The nesting relation Q ⊆ Q' among the aligned members of `family`.

    `size` is the exact number of nested pairs (Q, Q'), each member counted
    as nested in itself; the pairs themselves are never listed.
    """

    family: CubeFamily
    size: int

    def require_nonempty(self):
        if self.size == 0:
            raise EmptyCubeFamily("nested pair family is empty")

    def inner_max(self, vals: np.ndarray) -> np.ndarray:
        """Per member Q', the max of vals[Q] over the aligned members Q ⊆ Q'.

        Shifted members get -inf.  The engine's inward containment maxima
        over the aligned cubes' boxes (CellBoxes.inner_max): two running
        maxima of a start x end table in 1D, the square-table recursion in 2D.
        """
        return self.family.boxes.inner_max(vals)


def nested_pairs(family: CubeFamily) -> NestedPairs:
    """The nesting relation among the aligned members, with its exact pair count.

    A member of width w lies in the member (A, W) when its corner is in
    [A, A + W - w]^n; per width w, a prefix sum of the corner counts
    answers that for every outer member at once.
    """
    spec, lo, hi = family.spec, family.lo[family.aligned], family.hi[family.aligned]
    width = hi[:, 0] - lo[:, 0]
    total = 0
    for w in np.unique(width):
        prefix = np.zeros((spec.cells_per_axis - w + 2,) * spec.dim, dtype=np.int64)
        np.add.at(prefix[(slice(1, None),) * spec.dim], tuple(lo[width == w].T), 1)
        for ax in range(spec.dim):
            np.cumsum(prefix, axis=ax, out=prefix)
        outer = width >= w
        a, b = lo[outer], lo[outer] + (width[outer] - w + 1)[:, None]
        for t in product((0, 1), repeat=spec.dim):
            corner = tuple((b if ti else a)[:, i] for i, ti in enumerate(t))
            total += (-1) ** (spec.dim - sum(t)) * int(prefix[corner].sum())
    return NestedPairs(family, total)
