"""Stopping-time selection of cubes with large bilinear averages.

Starting from a root cube Q0 inside a dyadic grid, the decomposition
selects, for each level k >= 1, the maximal dyadic subcubes Q with
m_{3Q}(|f|^r, |g|^s) > a^k, then carves Q0 into the difference sets
E_0 = Q0 \\ D_1 and E_{k,j} = Q_{k,j} \\ D_{k+1}.  Cell index sets make
every partition and measure claim exact integer arithmetic.

The threshold functional is evaluated on 3Q for each candidate Q (the
natural reading consistent with the maximality bounds), the recursion
floors at one lattice cell, and the level index is capped at
ceil(log_a(max m)).  It and the sparse bound sum_Q side^alpha m_{3Q} chi_Q
read m_{3Q} (operators._m3q) over Q0's dyadic tree, families.subcube_family.

Both are read off the tree at once: with above(Q) the max of m over the
strict ancestors of Q, Q is a maximal level-k cube exactly when m(Q) >
a^k >= above(Q); a cell's depth, the number of k with a^k < max(m, above)
at its one-cell block, puts it in E_{k,j} (depth k) or E_0 (depth 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfRange, NonNegativityViolation, NotInGrid
from .families import CubeFamily, subcube_family
from .geometry import Cube, DyadicGrid
from .lattice import GridFunction, GridSpec, check_conjugate
from .operators import _check_same_spec, _finite, _m3q


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
    def cell_measure(self) -> float:
        return self.spec.h ** self.spec.dim

    @property
    def e0_measure(self) -> float:
        return len(self.e0_cells) * self.cell_measure

    def level_cells(self, level: int) -> np.ndarray:
        """Union of the selected cubes' cells at one level (sorted)."""
        if level not in self.levels:
            return np.zeros(0, dtype=np.int64)
        parts = [sc.cells for sc in self.levels[level]]
        return np.sort(np.concatenate(parts)) if parts else np.zeros(0, np.int64)


def _block(tree: CubeFamily, i: int) -> tuple[Cube, np.ndarray]:
    """Cube i of the tree and its cells' flat indices, sorted."""
    box = tuple(slice(a, b) for a, b in zip(tree.lo[i].tolist(), tree.hi[i].tolist()))
    return tree.cube(i), np.arange(tree.spec.cell_count).reshape(tree.spec.shape)[box].ravel()


def _path_accumulate(ufunc, values: np.ndarray, fan: int) -> np.ndarray:
    """ufunc accumulated down the breadth-first tree (children of i: fan i +
    1 ... fan i + fan), along the last axis."""
    out = values.copy()
    start, size = 0, 1
    while start + size < out.shape[-1]:
        kids = slice(start + size, start + size * (fan + 1))
        out[..., kids] = ufunc(np.repeat(out[..., start : start + size], fan, axis=-1), out[..., kids])
        start, size = start + size, size * fan
    return out


def _root_m3q(spec: GridSpec, fs, gs, r, s, Q0: Cube) -> tuple[CubeFamily, np.ndarray]:
    """Q0's dyadic tree (subcube_family) and m_{3Q}(|f|^r, |g|^s) per cube
    (..., cubes) for a stack fs, gs of samples (see operators._m3q), all finite."""
    tree = subcube_family(spec, Q0)
    where = f"on a subcube of the root cube {Q0.serialize()}"
    return tree, _finite(_m3q(tree, fs, gs, r, s), f"m_3Q(|f|^r, |g|^s) with r = {r!r}, s = {s!r}", where)


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
    if not (a > 2 ** (2 * n)):
        raise ValueError(f"base constant a must exceed 2^(2n) = {2 ** (2 * n)}")

    if Q0 not in grid:
        raise NotInGrid(f"root {Q0.serialize()} is not a cube of the grid")
    tree, m = _root_m3q(spec, f.samples, g.samples, r, s, Q0)
    max_m = float(m.max())
    # largest k with a^k < max_m (a^k past the float range reads +inf); levels above select nothing
    k_cap = 0
    with np.errstate(over="ignore"):
        while np.float_power(a, k_cap + 1) < max_m:
            k_cap += 1
    thresholds = [a ** k for k in range(1, k_cap + 1)]

    # peak[i]: the max of m over cube i and its ancestors; above[i]: over its strict ancestors
    peak = _path_accumulate(np.maximum, m, 2 ** n)
    above = np.concatenate(([-np.inf], np.repeat(peak[: (len(m) - 1) // 2 ** n], 2 ** n)))
    # a cell's depth: the number of levels k with a^k < peak at its own cube
    leaves = tree.hi[:, 0] - tree.lo[:, 0] == 1
    depth = np.zeros(spec.cell_count, dtype=np.int64)
    depth[np.ravel_multi_index(tuple(tree.lo[leaves].T), spec.shape)] = np.searchsorted(thresholds, peak[leaves])

    def selected(i: int, k: int) -> SelectedCube:
        cube, cells = _block(tree, i)
        return SelectedCube(cube, float(m[i]), cells, cells[depth[cells] == k])

    # the maximal cubes of level k: m > a^k, and no strict ancestor above it
    levels = {}
    for k, thr in enumerate(thresholds, 1):
        chosen = np.flatnonzero((m > thr) & (above <= thr))
        if len(chosen):
            levels[k] = tuple(selected(i, k) for i in chosen.tolist())

    root, root_cells = _block(tree, 0)
    return SparseFamily(
        spec=spec,
        root=root,
        base_constant=float(a),
        levels=levels,
        e0_cells=root_cells[depth[root_cells] == 0],
        root_cells=root_cells,
        root_m=float(m[0]),
    )


def sparse_bound(
    f: GridFunction,
    g: GridFunction,
    alpha: float,
    r: float,
    s: float,
    Q0: Cube,
    grid: DyadicGrid,
) -> GridFunction:
    """sum over dyadic Q ⊆ Q0 (down to single cells) of side^alpha m_{3Q} χ_Q."""
    spec = _check_same_spec(f, g)
    check_conjugate(r, s)
    if not (0.0 < alpha < spec.dim):
        raise AlphaOutOfRange(f"alpha must lie in (0, {spec.dim}), got {alpha}")
    if Q0 not in grid:
        raise NotInGrid(f"root {Q0.serialize()} is not a cube of the grid")
    return GridFunction(spec, _sparse_sums(spec, f.samples, g.samples, alpha, r, s, Q0))


def _sparse_sums(spec: GridSpec, fs, gs, alpha: float, r: float, s: float, Q0: Cube) -> np.ndarray:
    """sparse_bound's samples per pair of a stack fs, gs (..., N_1 ... N_n) on spec."""
    tree, m = _root_m3q(spec, fs, gs, r, s, Q0)
    # each cell adds its cubes' values from the root down to its own cell
    total = _path_accumulate(np.add, tree.side_powers(alpha) * m, 2 ** spec.dim)
    out = np.zeros(m.shape[:-1] + spec.shape)
    cells = tree.hi[:, 0] - tree.lo[:, 0] == 1
    out[(...,) + tuple(tree.lo[cells].T)] = total[..., cells]
    return out
