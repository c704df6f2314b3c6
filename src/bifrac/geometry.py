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

from .errors import NotInGrid

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
        if not (0.0 < self.side < math.inf):
            raise ValueError(f"cube side must be positive and finite, got {self.side}")
        if not self.corner:
            raise ValueError("cube needs at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.corner)

    @property
    def measure(self) -> float:
        return self.side ** self.dim

    def contains_cube(self, other: "Cube", tol: float = 0.0) -> bool:
        return all(
            oc >= c - tol and oc + other.side <= c + self.side + tol
            for c, oc in zip(self.corner, other.corner)
        )

    def serialize(self) -> str:
        """Report form: corner coordinates then side, as decimals."""
        parts = [repr(c) for c in self.corner] + [repr(self.side)]
        return " ".join(parts)


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
