"""Stopping-time selection of cubes with large bilinear averages.

Starting from a root cube Q0 inside a dyadic grid, the decomposition
selects, for each level k >= 1, the maximal dyadic subcubes Q with
m_{3Q}(|f|^r, |g|^s) > a^k, then carves Q0 into the difference sets
E_0 = Q0 \\ D_1 and E_{k,j} = Q_{k,j} \\ D_{k+1}.  Cell index sets make
every partition and measure claim exact integer arithmetic.

The threshold functional is evaluated on 3Q for each candidate Q (the
natural reading consistent with the maximality bounds), the recursion
floors at one lattice cell, and the level index is capped at
ceil(log_a(max m)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AverageOverflow, LevelAbsent, NonNegativityViolation
from .families import subcube_blocks
from .geometry import Cube, DyadicGrid
from .lattice import GridFunction, GridSpec, check_conjugate
from .operators import _block_m3q, _check_same_spec


@dataclass(frozen=True)
class SelectedCube:
    """One maximal selected cube with its difference set."""

    cube: Cube
    m_value: float
    cells: np.ndarray  # flat indices of the cube's cells, sorted
    e_cells: np.ndarray  # flat indices of E_{k,j} = Q \\ D_{k+1}, sorted

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @property
    def e_count(self) -> int:
        return len(self.e_cells)


@dataclass(frozen=True)
class SparseFamily:
    """Levels of selected cubes plus the exact difference-set bookkeeping."""

    spec: GridSpec
    root: Cube
    base_constant: float
    levels: dict[int, tuple[SelectedCube, ...]]
    e0_cells: np.ndarray
    root_cells: np.ndarray
    root_m: float

    @property
    def max_level(self) -> int:
        return max(self.levels) if self.levels else 0

    @property
    def cell_measure(self) -> float:
        return self.spec.h ** self.spec.dim

    @property
    def e0_measure(self) -> float:
        return len(self.e0_cells) * self.cell_measure

    def e_measure(self, level: int, j: int) -> float:
        return self.levels[level][j].e_count * self.cell_measure

    def level_cells(self, level: int) -> np.ndarray:
        """Union of the selected cubes' cells at one level (sorted)."""
        if level not in self.levels:
            return np.zeros(0, dtype=np.int64)
        parts = [sc.cells for sc in self.levels[level]]
        return np.sort(np.concatenate(parts)) if parts else np.zeros(0, np.int64)


def _block_cells(spec: GridSpec, lo, w) -> np.ndarray:
    if spec.dim == 1:
        return np.arange(lo[0], lo[0] + w, dtype=np.int64)
    n = spec.cells_per_axis
    rows = np.arange(lo[0], lo[0] + w, dtype=np.int64)
    cols = np.arange(lo[1], lo[1] + w, dtype=np.int64)
    return (rows[:, None] * n + cols[None, :]).reshape(-1)


def _block_cube(spec: GridSpec, lo, w) -> Cube:
    corner = tuple(-spec.half_width + i * spec.h for i in lo)
    return Cube(corner, w * spec.h)


def cz_decompose(
    f: GridFunction,
    g: GridFunction,
    r: float,
    s: float,
    Q0: Cube,
    grid: DyadicGrid,
    a: float | None = None,
) -> SparseFamily:
    """Stopping-time decomposition of Q0 driven by m_{3Q}(|f|^r, |g|^s).

    `a` defaults to 2^(2n+1), the choice that makes the difference sets
    carry at least half of each selected cube; any a > 2^(2n) is allowed.
    An m_{3Q} past the float range raises AverageOverflow.
    """
    spec = _check_same_spec(f, g)
    check_conjugate(r, s)
    if float(f.samples.min()) < 0.0 or float(g.samples.min()) < 0.0:
        raise NonNegativityViolation("cz_decompose needs nonnegative data")
    n = spec.dim
    if a is None:
        a = float(2 ** (2 * n + 1))
    if a <= 2 ** (2 * n):
        raise ValueError(f"base constant a must exceed 2^(2n) = {2 ** (2 * n)}")

    lo, width = subcube_blocks(spec, Q0, grid)
    m = _block_m3q(f, g, r, s, lo, width)
    if not np.isfinite(m).all():
        raise AverageOverflow(
            f"m_3Q(|f|^r, |g|^s) with r = {r!r}, s = {s!r} leaves the float range "
            f"on a subcube of the root cube {Q0.serialize()}"
        )
    m_vals = m.tolist()
    blocks = list(zip(map(tuple, lo.tolist()), width.tolist()))
    fan = 2 ** n

    max_m = max(m_vals)
    # largest k with a^k < max_m (a^k past the float range reads +inf); levels above select nothing
    k_cap = 0
    with np.errstate(over="ignore"):
        while np.float_power(a, k_cap + 1) < max_m:
            k_cap += 1
    if max_m > a:
        k_cap = max(k_cap, 1)

    level_selected: dict[int, list[int]] = {}
    for k in range(1, k_cap + 1):
        thr = a ** k
        chosen: list[int] = []
        stack = [0]
        while stack:
            node = stack.pop(0)
            if m_vals[node] > thr:
                chosen.append(node)
            elif blocks[node][1] > 1:
                stack.extend(range(fan * node + 1, fan * node + fan + 1))
        if chosen:
            level_selected[k] = chosen

    cell_sets = {
        k: [_block_cells(spec, *blocks[i]) for i in nodes]
        for k, nodes in level_selected.items()
    }
    union_next: dict[int, np.ndarray] = {}
    for k, sets in cell_sets.items():
        union_next[k] = np.sort(np.concatenate(sets))

    levels: dict[int, tuple[SelectedCube, ...]] = {}
    for k in sorted(level_selected):
        d_next = union_next.get(k + 1, np.zeros(0, np.int64))
        scs = []
        for node, cells in zip(level_selected[k], cell_sets[k]):
            e_cells = np.setdiff1d(cells, d_next, assume_unique=False)
            scs.append(
                SelectedCube(
                    cube=_block_cube(spec, *blocks[node]),
                    m_value=m_vals[node],
                    cells=np.sort(cells),
                    e_cells=e_cells,
                )
            )
        levels[k] = tuple(scs)

    root_cells = np.sort(_block_cells(spec, *blocks[0]))
    d1 = union_next.get(1, np.zeros(0, np.int64))
    e0 = np.setdiff1d(root_cells, d1)
    return SparseFamily(
        spec=spec,
        root=_block_cube(spec, *blocks[0]),
        base_constant=float(a),
        levels=levels,
        e0_cells=e0,
        root_cells=root_cells,
        root_m=m_vals[0],
    )


def level_union_measure(family: SparseFamily, k: int) -> dict[Cube, float]:
    """Per-cube measures |Q_{k,j} ∩ D_{k+1}|, exact from the cell sets."""
    if k not in family.levels:
        raise LevelAbsent(f"no level {k} in this family")
    out = {}
    cell_meas = family.cell_measure
    for sc in family.levels[k]:
        out[sc.cube] = (sc.cell_count - sc.e_count) * cell_meas
    return out
