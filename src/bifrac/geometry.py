"""Axis-aligned half-open cubes, shifted dyadic grids, and the cube locator.

Cubes follow the half-open convention [corner, corner + side) on every
axis, so partitions tile exactly with no double counting.  Dyadic grids
carry a per-axis shift in {0, 1/3}; the shift alternates sign with the
level parity, which is what makes parent/child cubes align exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import LevelTooCoarse, NotInGrid

_REL_EPS = 1e-9

_THIRD = 1.0 / 3.0


@dataclass(frozen=True, order=True)
class Cube:
    """Axis-aligned cube: lower corner plus side length, half-open."""

    corner: tuple[float, ...]
    side: float

    def __post_init__(self):
        object.__setattr__(self, "corner", tuple(float(c) for c in self.corner))
        object.__setattr__(self, "side", float(self.side))
        if self.side <= 0.0:
            raise ValueError(f"cube side must be positive, got {self.side}")
        if not self.corner:
            raise ValueError("cube needs at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.corner)

    @property
    def measure(self) -> float:
        return self.side ** self.dim

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(c + self.side for c in self.corner)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(c + 0.5 * self.side for c in self.corner)

    def contains_point(self, x, tol: float = 0.0) -> bool:
        return all(
            c - tol <= xi < c + self.side + tol for c, xi in zip(self.corner, x)
        )

    def contains_cube(self, other: "Cube", tol: float = 0.0) -> bool:
        return all(
            oc >= c - tol and oc + other.side <= c + self.side + tol
            for c, oc in zip(self.corner, other.corner)
        )

    def intersects(self, other: "Cube") -> bool:
        # require genuine overlap: adjacency up to fp noise does not count
        tol = 1e-12 * max(self.side, other.side)
        return all(
            min(c + self.side, oc + other.side) - max(c, oc) > tol
            for c, oc in zip(self.corner, other.corner)
        )

    def serialize(self) -> str:
        """Report form: corner coordinates then side, as decimals."""
        parts = [repr(c) for c in self.corner] + [repr(self.side)]
        return " ".join(parts)


def dilate(Q: Cube, factor: float) -> Cube:
    """Concentric cube with side scaled by `factor` (3 gives volume 3^n |Q|)."""
    if factor <= 0:
        raise ValueError(f"dilation factor must be positive, got {factor}")
    new_side = Q.side * factor
    shift = 0.5 * (Q.side - new_side)
    return Cube(tuple(c + shift for c in Q.corner), new_side)


@dataclass(frozen=True)
class DyadicGrid:
    """Family {2^-k ([0,1)^n + m + (-1)^k t)} for a shift t in {0, 1/3}^n."""

    shift: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "shift", tuple(float(t) for t in self.shift))
        for t in self.shift:
            if not (abs(t) < 1e-12 or abs(t - _THIRD) < 1e-12):
                raise ValueError(f"shift coordinates must be 0 or 1/3, got {t}")

    @property
    def dim(self) -> int:
        return len(self.shift)

    def level_shift(self, level: int) -> tuple[float, ...]:
        sign = -1.0 if level % 2 else 1.0
        return tuple(sign * t for t in self.shift)

    def cube(self, level: int, index: tuple[int, ...]) -> Cube:
        side = 2.0 ** (-level)
        sh = self.level_shift(level)
        return Cube(tuple(side * (m + s) for m, s in zip(index, sh)), side)

    def locate_index(self, level: int, point) -> tuple[int, ...]:
        """Index of the level-`level` grid cube containing `point`."""
        side = 2.0 ** (-level)
        sh = self.level_shift(level)
        return tuple(
            int(math.floor(x / side - s + 1e-12)) for x, s in zip(point, sh)
        )

    def member_index(self, Q: Cube) -> tuple[int, tuple[int, ...]]:
        """Level and integer index of Q, or NotInGrid."""
        if Q.dim != self.dim:
            raise NotInGrid(f"cube dimension {Q.dim} != grid dimension {self.dim}")
        level = round(-math.log2(Q.side))
        side = 2.0 ** (-level)
        if abs(side - Q.side) > _REL_EPS * Q.side:
            raise NotInGrid(f"side {Q.side} is not a power of two")
        sh = self.level_shift(level)
        index = []
        for c, s in zip(Q.corner, sh):
            m = round(c / side - s)
            if abs(c - side * (m + s)) > _REL_EPS * side:
                raise NotInGrid(f"corner {c} off the level-{level} grid")
            index.append(int(m))
        return level, tuple(index)

    def __contains__(self, Q: Cube) -> bool:
        try:
            self.member_index(Q)
        except NotInGrid:
            return False
        return True


def grid_cubes(grid: DyadicGrid, level: int, box) -> list[Cube]:
    """All grid cubes of side 2^-level intersecting the box.

    `box` may be a Cube or anything exposing a `box_cube` attribute
    (a GridSpec does).  Raises LevelTooCoarse when a single cube would
    exceed the box side.
    """
    region: Cube = getattr(box, "box_cube", box)
    side = 2.0 ** (-level)
    if side > region.side * (1.0 + _REL_EPS):
        raise LevelTooCoarse(
            f"level {level} gives side {side} > box side {region.side}"
        )
    sh = grid.level_shift(level)
    axis_ranges = []
    for ax in range(region.dim):
        lo = region.corner[ax]
        hi = lo + region.side
        m_lo = int(math.floor(lo / side - sh[ax])) - 1
        m_hi = int(math.ceil(hi / side - sh[ax])) + 1
        keep = [
            m
            for m in range(m_lo, m_hi + 1)
            if side * (m + sh[ax]) < hi and side * (m + 1 + sh[ax]) > lo
        ]
        axis_ranges.append(keep)
    cubes = []
    for idx in product(*axis_ranges):
        Q = grid.cube(level, idx)
        if Q.intersects(region):
            cubes.append(Q)
    return cubes


def locate_shifted_dyadic(Q: Cube) -> tuple[tuple[float, ...], Cube]:
    """Shift t and cube Q_t in D^t with Q inside Q_t and side(Q_t) <= 6 side(Q).

    The one-row call of `locate_shifted_cubes`.
    """
    shifts, corners, sides = locate_shifted_cubes([Q.corner], [Q.side])
    return tuple(shifts[0].tolist()), Cube(tuple(corners[0].tolist()), float(sides[0]))


# a side window [side(Q), 6 side(Q)] holds at most floor(log2 6) + 1 powers of two
_LOCATOR_LEVELS = math.floor(math.log2(6.0)) + 1


def locate_shifted_cubes(corners, sides) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shifted dyadic witnesses for k cubes at once: (k, n) corners, (k,) sides.

    Returns the shift t (k, n), the corner (k, n) and the side (k,) of a
    cube Q_t in D^t with Q inside Q_t and side(Q_t) <= 6 side(Q), for every
    level whose side lies in [side(Q), 6 side(Q)] over all 2^n shifts.  The
    witness is the smallest one, ties broken by lexicographically smallest
    shift: the first hit with levels walked from small side to large and
    shifts in product order.  Existence at some side in (3 side(Q), 6 side(Q)]
    is guaranteed because the two shifted partitions per axis have
    boundaries at least a third of a cell apart.
    """
    corners = np.asarray(corners, dtype=np.float64)
    ell = np.asarray(sides, dtype=np.float64)
    k, n = corners.shape
    if not np.all(np.isfinite(ell) & (ell > 0.0)):
        raise ValueError("cube sides must be positive and finite")
    # the level range takes math.log2, which numpy's log2 differs from by an ulp on some sides
    k_min = np.ceil(-np.array([math.log2(6.0 * x) for x in ell.tolist()]) - 1e-12)
    k_max = np.floor(-np.array([math.log2(x) for x in ell.tolist()]) + 1e-12).astype(np.int64)
    tol = 1e-12 * np.maximum(1.0, ell)
    found = np.zeros(k, dtype=bool)
    out_shift = np.zeros((k, n))
    out_corner = np.zeros((k, n))
    out_side = np.zeros(k)
    for offset in range(_LOCATOR_LEVELS):
        level = k_max - offset
        side = np.ldexp(1.0, -level)  # 2.0 ** -level, exactly
        live = ~found & (level >= k_min) & (side <= 6.0 * ell * (1 + 1e-12)) & (side >= ell * (1 - 1e-12))
        sign = np.where(level % 2 == 1, -1.0, 1.0)[:, None]
        cube_tol = (tol + 1e-12 * side)[:, None]
        for shift in product((0.0, _THIRD), repeat=n):
            sh = sign * np.array(shift)
            cand = side[:, None] * (np.floor(corners / side[:, None] - sh + 1e-12) + sh)
            hit = live & np.all(
                (corners >= cand - cube_tol)
                & (corners + ell[:, None] <= cand + side[:, None] + cube_tol),
                axis=1,
            )
            out_shift[hit] = shift
            out_corner[hit] = cand[hit]
            out_side[hit] = side[hit]
            found |= hit
            live &= ~hit
    if not found.all():
        j = int(np.argmin(found))
        raise AssertionError(f"no shifted dyadic cube found for {Cube(tuple(corners[j]), ell[j])}")
    return out_shift, out_corner, out_side


def dyadic_children(Q: Cube, grid: DyadicGrid) -> list[Cube]:
    """The 2^n grid cubes of half side tiling Q exactly."""
    level, index = grid.member_index(Q)
    child_level = level + 1
    sh = grid.level_shift(level)
    sh_c = grid.level_shift(child_level)
    start = tuple(
        round(2.0 * (m + s) - sc) for m, s, sc in zip(index, sh, sh_c)
    )
    kids = []
    for offs in product((0, 1), repeat=Q.dim):
        idx = tuple(int(s) + o for s, o in zip(start, offs))
        child = grid.cube(child_level, idx)
        if not Q.contains_cube(child, tol=_REL_EPS * Q.side):
            raise AssertionError(f"child {child} escapes parent {Q}")
        kids.append(child)
    return kids


def dyadic_parent(Q: Cube, grid: DyadicGrid) -> Cube:
    """The unique grid cube of double side containing Q."""
    level, _ = grid.member_index(Q)
    parent_level = level - 1
    parent = grid.cube(parent_level, grid.locate_index(parent_level, Q.center))
    if not parent.contains_cube(Q, tol=_REL_EPS * parent.side):
        raise AssertionError(f"parent {parent} does not contain {Q}")
    return parent
