"""Integral and maximal operators with singular-kernel cell weights.

The kernel |y|^(alpha-n) is integrated (1D: the antiderivative; 2D: polar
reduction to sec-power integrals, singular origin cell included) over
half-shifted offset cells [(d-1/2)h, (d+1/2)h)^n.  With that convention the
bilinear sum at a cell midpoint x samples f(x - dh) and g(x + dh) exactly
at cell midpoints, so for step data the grid outputs are the continuum
operators' values up to the rounding of the masses (kernel_table) and of
the sum.

Each cell mass is a difference of one function at the cell edges, folded
onto [0, inf) per axis (the kernel is even): in 1D the antiderivative, in
2D the corner mass C(x, y) of [0, x] x [0, y] on the edges 0, h/2, 3h/2,
..., from sec-power integrals at N^2 angles that share one break table
(_sec_power_integrals), so a cell's mass is C(b, d) - C(a, d) - C(b, c) +
C(a, c).  The origin cell folds onto [0, h/2) once per axis.

Every kernel sum (bi_frac, frac_int, and the local part of the kernel
split, _local_weights, that harness.local_part_ratios sums on a stack) is
one compensated (Kahan) sum over kernel offsets in a fixed row-major
order, _offset_sum, in 1D and 2D alike, so results are identical run to
run.  The point evaluators take one math.fsum over KernelTable.offsets.

The two-fold integral multi_frac_int is one table of libm powers over the
distinct radial distances from a midpoint; multi_frac_int_at is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import AlphaOutOfRange, AverageOverflow, NonPositiveWeight, POutOfRange, SpecMismatch
from .families import CubeFamily, default_family, subcube_blocks
from .geometry import Cube, DyadicGrid
from .lattice import CellBoxes, GridFunction, GridSpec, _scalar_pow, check_conjugate


@dataclass(frozen=True)
class KernelTable:
    """Per-offset-cell masses of the kernel |y|^(alpha-n).

    weights[d + N - 1] (per axis) is the integral of the kernel over the
    offset cell centered at d*h, to the accuracy kernel_table states.
    Symmetric and positive.
    """

    spec: GridSpec
    alpha: float
    weights: np.ndarray

    @cached_property
    def offsets(self) -> np.ndarray:
        """The offset d*h of each weight: shape weights.shape + (n,)."""
        d = np.indices(self.weights.shape) - (self.spec.cells_per_axis - 1)
        return np.moveaxis(d, 0, -1) * self.spec.h


def _axis_masses_1d(h: float, alpha: float, count: int) -> np.ndarray:
    """1D masses as differences of the antiderivative |y|^alpha * sign(y) / alpha."""
    d = np.arange(1, count)
    pos = (np.power(d + 0.5, alpha) - np.power(d - 0.5, alpha)) * h ** alpha / alpha
    origin = 2.0 * (0.5 * h) ** alpha / alpha
    right = np.concatenate(([origin], pos))
    return np.concatenate((right[:0:-1], right))


# The positive half of numpy.polynomial.legendre.leggauss(48), which is
# symmetric: 24 nodes, then their weights.  A table spares every import
# numpy.polynomial and a LAPACK eigensolver run (about 1.5 MB of resident
# memory); a test pins it to leggauss.
_GAUSS_HALF_NODES, _GAUSS_HALF_WEIGHTS = np.array([
    0.03238017096286937, 0.0970046992094627, 0.1612223560688917, 0.22476379039468905,
    0.28736248735545555, 0.3487558862921607, 0.4086864819907167, 0.4669029047509584,
    0.523160974722233, 0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
    0.7240341309238146, 0.7671590325157404, 0.8070662040294426, 0.8435882616243935,
    0.8765720202742479, 0.9058791367155696, 0.9313866907065543, 0.9529877031604308,
    0.9705915925462473, 0.9841245837228269, 0.9935301722663508, 0.9987710072524261,
    0.06473769681268365, 0.06446616443594982, 0.06392423858464787, 0.06311419228625373,
    0.06203942315989242, 0.0607044391658936, 0.059114839698395344, 0.057277292100402916,
    0.05519950369998403, 0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
    0.04467456085669423, 0.04154508294346455, 0.0382413510658305, 0.034777222564770394,
    0.031167227832798097, 0.027426509708357034, 0.023570760839324047, 0.019616160457356056,
    0.015579315722943226, 0.011477234579234614, 0.007327553901276135, 0.0031533460523098414,
]).reshape(2, 24)
_GAUSS_NODES = np.concatenate((-_GAUSS_HALF_NODES[::-1], _GAUSS_HALF_NODES))
_GAUSS_WEIGHTS = np.concatenate((_GAUSS_HALF_WEIGHTS[::-1], _GAUSS_HALF_WEIGHTS))


# The quadrature breaks b_0 = 0, b_{k+1} = pi/2 - (pi/2 - b_k)/2 up to pi/2 - b_k <= 1e-15.
_SEC_BREAKS = [0.0]
while 0.5 * math.pi - _SEC_BREAKS[-1] > 1e-15:
    _SEC_BREAKS.append(0.5 * math.pi - 0.5 * (0.5 * math.pi - _SEC_BREAKS[-1]))
_SEC_BREAKS = np.array(_SEC_BREAKS)


def _sec_power_integrals(alpha: float, t: np.ndarray) -> np.ndarray:
    """\\int_0^t sec(u)^alpha du for each t in (0, pi/2), to ~1e-14 for every
    t our cell geometry produces: 48-point Gauss-Legendre on the segments
    between the breaks below t, whose distance to the pole halves.  Every t
    shares the full segments' running sum, left to right, and adds one
    segment from the last break below it.  One np.dot per segment: a
    batched product rounds differently."""
    m = len(_SEC_BREAKS) - 1  # full segments first, then one per t
    k = np.searchsorted(_SEC_BREAKS, t) - 1  # the last break below t
    a, b = np.concatenate((_SEC_BREAKS[:-1], _SEC_BREAKS[k])), np.concatenate((_SEC_BREAKS[1:], t))
    half = 0.5 * (b - a)
    f = np.cos(half[:, None] * _GAUSS_NODES + (0.5 * (a + b))[:, None]) ** (-alpha)
    seg = half * np.array([np.dot(_GAUSS_WEIGHTS, row) for row in f])
    return np.concatenate(([0.0], np.cumsum(seg[:m])))[k] + seg[m:]


def kernel_table(spec: GridSpec, alpha: float) -> KernelTable:
    """Kernel cell masses for |y|^(alpha - n); requires 0 < alpha < n.

    Each mass is a difference of larger values at the cell edges, which
    cancels in far cells.  Against a 40-digit evaluation of the same
    formulas the worst relative error is 1.1e-12 in 1D at N = 1024
    (alpha = 0.1), and 3.4e-13 at N = 16 and about 1e-11 at N = 64 in 2D
    (alpha = 0.5).
    """
    if not (0.0 < alpha < spec.dim):
        raise AlphaOutOfRange(f"alpha must lie in (0, {spec.dim}), got {alpha}")
    return _kernel_table(spec, alpha)


# the most recent tables: room for a run's 2D alphas plus its 1D ones
@lru_cache(maxsize=8)
def _kernel_table(spec: GridSpec, alpha: float) -> KernelTable:
    n = spec.cells_per_axis
    h = spec.h
    if spec.dim == 1:
        weights = _axis_masses_1d(h, alpha, n)
    else:
        # corner masses C(x, y) of [0, x] x [0, y] at the offset-cell edges 0 and
        # (d - 1/2)h + h; split at the diagonal, C = (x^a S(atan(y/x)) + y^a S(atan(x/y))) / a
        # with S the sec-power integral, one angle per ordered pair; row and column 0 are 0
        edges = [(d - 0.5) * h + h for d in range(n)]
        angle = np.array([[math.atan2(y, x) for y in edges] for x in edges])
        s = _sec_power_integrals(alpha, angle.reshape(-1)).reshape(n, n)
        p = np.array([x ** alpha for x in edges])
        c = np.zeros((n + 1, n + 1))
        c[1:, 1:] = (p[:, None] * s + p * s.T) / alpha
        half = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
        # the origin cell folds onto [0, h/2) once per axis
        half[0] *= 2.0
        half[:, 0] *= 2.0
        half = np.triu(half) + np.triu(half, 1).T
        fold = np.abs(np.arange(-(n - 1), n))
        weights = half[fold[:, None], fold]
    return KernelTable(spec, alpha, weights)


def _check_same_spec(*fns: GridFunction) -> GridSpec:
    spec = fns[0].spec
    for f in fns[1:]:
        if f.spec != spec:
            raise SpecMismatch("operands live on different grid specs")
    return spec


# Per-kernel-offset slices, reused by every sum over the same grid shape;
# bounded like the kernel tables.
@lru_cache(maxsize=8)
def _offset_slices(n: int, dim: int, bilinear: bool) -> tuple:
    """(weight index, out slices, f slices, g slices) per offset d, row-major.

    The bilinear sum reads f(x - d) g(x + d) on the cells [|d|, n - |d|) of
    each axis, where both reads stay on the grid; offsets with no such cell
    are left out.  The convolution reads f(x - d) on [max(0, d), min(n, n + d))
    and never its g slices.  The slices lead with `...`, so they index a
    stack of grids as they index one.
    """
    axis = []
    for d in range(-(n - 1), n):
        lo, hi = (abs(d), n - abs(d)) if bilinear else (max(0, d), min(n, n + d))
        if lo < hi:
            axis.append((d + n - 1, slice(lo, hi), slice(lo - d, hi - d), slice(lo + d, hi + d)))
    return tuple(
        (k, (...,) + o, (...,) + a, (...,) + b) for k, o, a, b in (zip(*parts) for parts in product(axis, repeat=dim))
    )


def _offset_sum(weights: np.ndarray, fs: np.ndarray, gs: np.ndarray | None = None) -> np.ndarray:
    """Kahan sum over kernel offsets of f(x - d) g(x + d) w(d), or of f(x - d) w(d),
    per grid of a stack fs (and gs) of shape (..., N_1 ... N_n).

    Offsets run in row-major order and zero weights are skipped, so the
    local table (see _local_weights) sums only its own offsets.
    Every step is elementwise, so a stack's grids take the bits of one-grid
    calls whatever their memory layout: the contiguity rule of
    CellBoxes.sums binds reductions only.
    """
    out = np.zeros(fs.shape)
    comp = np.zeros(fs.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, o, a, b in _offset_slices(fs.shape[-1], weights.ndim, gs is not None):
            w = weights[k]
            if w == 0.0:
                continue
            term = fs[a] * gs[b] * w if gs is not None else fs[a] * w
            y = term - comp[o]
            t = out[o] + y
            comp[o] = (t - out[o]) - y
            out[o] = t
    return out


def _finite(values, operator: str, where: str):
    """values, if every one is finite; otherwise AverageOverflow, worded
    "<operator> leaves the float range <where>"."""
    if not np.isfinite(values).all():
        raise AverageOverflow(f"{operator} leaves the float range {where}")
    return values


def _kernel_grid(spec: GridSpec, out: np.ndarray, operator: str) -> GridFunction:
    """`out` as a grid function; a cell past the float range raises AverageOverflow."""
    return GridFunction(spec, _finite(out, operator, "on a cell"))


def _point_value(terms, operator: str) -> float:
    """math.fsum of a point evaluator's terms; past the float range raises AverageOverflow."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a finite sum past the float range; inf - inf
        total = math.inf
    return _finite(total, operator, "at the point")


def bi_frac(f: GridFunction, g: GridFunction, alpha: float) -> GridFunction:
    """Bilinear fractional integral sampled at cell midpoints.

    out(x) = sum over offset cells d of f(x - dh) g(x + dh) * kernel mass,
    exact for step data at midpoints.  The local part of the kernel split
    (_local_weights) is the same _offset_sum on its table, which
    harness.local_part_ratios takes on a stack of grids.
    """
    spec = _check_same_spec(f, g)
    weights = kernel_table(spec, alpha).weights
    return _kernel_grid(spec, _offset_sum(weights, f.samples, g.samples), f"bi_frac with alpha = {alpha!r}")


def bi_frac_at(f: GridFunction, g: GridFunction, alpha: float, point) -> float:
    """Point evaluation of the bilinear fractional integral (any point):
    sum over offset cells d of f(x - dh) g(x + dh) * kernel mass."""
    table = kernel_table(_check_same_spec(f, g), alpha)
    x = np.reshape(point, f.spec.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # _point_value refuses a value past the float range
        terms = f.values_at(x - table.offsets) * g.values_at(x + table.offsets) * table.weights
    return _point_value(terms.ravel(), f"bi_frac_at with alpha = {alpha!r}")


def frac_int(f: GridFunction, alpha: float) -> GridFunction:
    """Fractional integral: convolution of f with the kernel table (exact)."""
    table = kernel_table(f.spec, alpha)
    return _kernel_grid(f.spec, _offset_sum(table.weights, f.samples), f"frac_int with alpha = {alpha!r}")


def frac_int_at(f: GridFunction, alpha: float, point) -> float:
    """Point evaluation of the fractional integral.

    In 1D the kernel is integrated exactly against the step function
    (per-cell antiderivative differences), so the value is exact for any
    evaluation point; in 2D cell midpoint masses are used.
    """
    spec = f.spec
    x = np.reshape(point, spec.dim)
    if spec.dim == 1:
        if not (0.0 < alpha < 1.0):
            raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha}")
        edges = spec.edge(np.arange(spec.cells_per_axis + 1))
        u = x - edges  # antiderivative F(u) = sign(u)|u|^alpha / alpha
        F = np.sign(u) * np.abs(u) ** alpha / alpha
        values, masses = f.samples, F[:-1] - F[1:]
    else:
        table = kernel_table(spec, alpha)
        values, masses = f.values_at(x - table.offsets), table.weights
    with np.errstate(over="ignore", invalid="ignore"):  # _point_value refuses a value past the float range
        terms = values * masses
    return _point_value(terms.ravel(), f"frac_int_at with alpha = {alpha!r}")


# (x, y) cell pairs indexed at once by multi_frac_int; bounds the memory of one call.
_GATHER_CELLS = 1 << 13


def multi_frac_int(f1: GridFunction, f2: GridFunction, alpha: float) -> GridFunction:
    """Two-fold fractional integral, kernel (|x-y1|+|x-y2|)^(alpha-2n), at the cell midpoints.

    At a midpoint x the kernel sees y1, y2 only through their squared lattice
    distances k1, k2, so out(x) = h^(2n) sum F1_x[k1] W[k1, k2] F2_x[k2], where
    F_x[k] sums f over the cells at distance k and W holds the kernel values
    multi_frac_int_at takes at x: (h (sqrt k1 + sqrt k2))^(alpha-2n), and
    (h sqrt(n) / 2)^(alpha-2n) for the own-cell pair.
    """
    spec = _check_same_spec(f1, f2)
    if not (0.0 < alpha < 2.0 * spec.dim):
        raise AlphaOutOfRange(f"alpha must lie in (0, {2 * spec.dim}), got {alpha}")
    dim, h = spec.dim, spec.h
    cells = np.indices(spec.shape).reshape(dim, -1)
    radii = np.flatnonzero(np.bincount((cells ** 2).sum(axis=0)))  # those from cell 0 are all there are
    W = np.add.outer(np.sqrt(radii), np.sqrt(radii))
    W[0, 0] = 0.5 * math.sqrt(dim)
    np.float_power(np.multiply(W, h, out=W), alpha - 2.0 * dim, out=W)  # in place: K^2 floats once
    out = np.empty(spec.cell_count)
    # a chunk of midpoints x at a time: at most _GATHER_CELLS (x, y) index entries
    step = max(1, _GATHER_CELLS // spec.cell_count)
    with np.errstate(over="ignore", invalid="ignore"):  # _kernel_grid refuses a cell past the float range
        for start in range(0, spec.cell_count, step):
            k = ((cells[:, start : start + step, None] - cells[:, None, :]) ** 2).sum(axis=0)
            idx = (np.searchsorted(radii, k) + len(radii) * np.arange(len(k))[:, None]).reshape(-1)
            F1, F2 = (np.bincount(idx, np.tile(f.samples.ravel(), len(k)), len(k) * len(radii)) for f in (f1, f2))
            out[start : start + step] = ((F1.reshape(len(k), -1) @ W) * F2.reshape(len(k), -1)).sum(axis=1)
        out = out.reshape(spec.shape) * h ** (2 * dim)
    return _kernel_grid(spec, out, f"multi_frac_int with alpha = {alpha!r}")


def multi_frac_int_at(f1: GridFunction, f2: GridFunction, alpha: float, point) -> float:
    """Point evaluation of the two-fold fractional integral, the oracle of multi_frac_int:
    the midpoint rule on every pair of cells, but a pair of cells within h/2 of
    the point takes the kernel's mean over the 2^n x 2^n pairs of their
    sub-points at +-h/4 per axis."""
    spec = _check_same_spec(f1, f2)
    if not (0.0 < alpha < 2.0 * spec.dim):
        raise AlphaOutOfRange(f"alpha must lie in (0, {2 * spec.dim}), got {alpha}")
    dim, h = spec.dim, spec.h
    expo = alpha - 2.0 * dim
    x = np.reshape(point, (dim, 1))
    mids = spec.midpoints()[np.indices(spec.shape).reshape(dim, -1)]
    dist = np.sqrt(((x - mids) ** 2).sum(axis=0))
    with np.errstate(divide="ignore"):  # a zero distance is on a near pair, overwritten below
        kernel = np.float_power(np.add.outer(dist, dist), expo)
    near = np.flatnonzero(dist <= 0.5 * h * (1.0 + 1e-12))
    quarter = 0.25 * h * np.array(list(product((-1.0, 1.0), repeat=dim))).T
    sub = np.sqrt(((x[:, :, None] - (mids[:, near, None] + quarter[:, None, :])) ** 2).sum(axis=0))
    kernel[np.ix_(near, near)] = np.float_power(np.add.outer(sub, sub), expo).mean(axis=(1, 3))
    with np.errstate(over="ignore", invalid="ignore"):  # _point_value refuses a value past the float range
        value = float(f1.samples.reshape(-1) @ kernel @ f2.samples.reshape(-1)) * h ** (2 * dim)
    return _point_value((value,), f"multi_frac_int_at with alpha = {alpha!r}")


def _local_weights(spec: GridSpec, alpha: float, Q0: Cube) -> np.ndarray:
    """The kernel weight table of the local part of the kernel split,
    |y| <= side(Q0), and 0 on the far offsets."""
    table = kernel_table(spec, alpha)
    radius = Q0.side  # 2 * delta with delta = side / 2
    return np.where(np.sqrt((table.offsets ** 2).sum(axis=-1)) <= radius + 1e-12, table.weights, 0.0)


# ---------------------------------------------------------------------------
# Maximal operators.  Each builds one value array over the family and
# sweeps it onto the cells; a cell that no cube covers reads 0, and a cube
# value past the float range raises AverageOverflow (a GridFunction holds
# only finite values).  In 1D the values are bit-identical to a per-cube
# slice loop (the exhaustive oracle in the tests):
#
# * box sums from the cube-window engine of `lattice` equal per-slice np.sum
#   bit for bit in 1D; in 2D each adds the box's disjoint power-of-two
#   blocks (CellBoxes.digits); |f|^p taken once on the whole array equals
#   |f|^p taken on any slice;
# * roots and side powers go through lattice._scalar_pow, which equals
#   scalar `**` bit for bit (np.float_power, not np.power's SIMD kernels);
# * the sweep's max over the containing cubes involves no rounding: the
#   push-down of a per-axis power-of-two table, one code path in 1D and 2D
#   (CellBoxes.sweep).
# ---------------------------------------------------------------------------


def _family_for(spec: GridSpec, family: CubeFamily | None) -> CubeFamily:
    """The family a maximal operator sweeps: the given one, on the data's spec
    (else SpecMismatch) and non-empty, or the default family of the spec."""
    family = family if family is not None else default_family(spec)
    if family.spec != spec:
        raise SpecMismatch(f"data on {spec} swept over a family on {family.spec}")
    family.require_nonempty()
    return family


def _sweep(spec: GridSpec, family: CubeFamily, values: np.ndarray, operator: str) -> GridFunction:
    """Max of the cube values over the family cubes containing each midpoint,
    0 where no cube contains it.  A +inf or NaN cube value raises
    AverageOverflow, naming `operator` and its exponents."""
    out = family.cover.sweep(_finite(values, operator, f"on a cube of the family {family.name!r}"))
    out[np.isneginf(out)] = 0.0
    return GridFunction(spec, out)


def _averages(family: CubeFamily, samples, ps) -> list[np.ndarray]:
    """((1/|Q|) \\int_Q |f|^p)^(1/p) for every family cube, per array f of
    `samples` and its exponent p of `ps`, from one stacked window sum; +inf
    past the float range."""
    with np.errstate(over="ignore"):
        totals = family.integrals(np.stack([np.abs(f) ** p for f, p in zip(samples, ps)])) / family.measures
    return [_scalar_pow(t, 1.0 / p) for t, p in zip(totals, ps)]


def maximal(f: GridFunction, family: CubeFamily | None = None) -> GridFunction:
    """Uncentered Hardy-Littlewood maximal function over the family."""
    family = _family_for(f.spec, family)
    return _sweep(f.spec, family, _averages(family, (f.samples,), (1.0,))[0], "maximal")


def frac_maximal(f: GridFunction, alpha: float, family: CubeFamily | None = None) -> GridFunction:
    """Fractional maximal function |Q|^(alpha/n - 1) \\int_Q |f|."""
    if not (0.0 < alpha < f.spec.dim):
        raise AlphaOutOfRange(f"alpha must lie in (0, {f.spec.dim}), got {alpha}")
    family = _family_for(f.spec, family)
    values = family.side_powers(alpha) * _averages(family, (f.samples,), (1.0,))[0]
    return _sweep(f.spec, family, values, f"frac_maximal with alpha = {alpha!r}")


def p_maximal(f: GridFunction, p: float, family: CubeFamily | None = None) -> GridFunction:
    """L^p-average maximal function, p > 1."""
    if not (p > 1.0):
        raise POutOfRange(f"p must exceed 1, got {p}")
    family = _family_for(f.spec, family)
    return _sweep(f.spec, family, _averages(family, (f.samples,), (p,))[0], f"p_maximal with p = {p!r}")


def multi_maximal(
    f1: GridFunction,
    f2: GridFunction,
    alpha: float,
    r1: float,
    r2: float,
    family: CubeFamily | None = None,
) -> GridFunction:
    """sup over Q of side^alpha * prod_i ((1/|Q|)\\int_Q |f_i|^{r_i})^{1/r_i}.

    The averages take the r_i-th powers of the entries, consistent with
    how the bound is applied downstream.
    """
    spec = _check_same_spec(f1, f2)
    if not (0.0 <= alpha < 2.0 * spec.dim):
        raise AlphaOutOfRange(f"alpha must lie in [0, {2 * spec.dim}), got {alpha}")
    if not (r1 > 0 and r2 > 0):
        raise POutOfRange("averaging exponents must be positive")
    family = _family_for(spec, family)
    a1, a2 = _averages(family, (f1.samples, f2.samples), (r1, r2))
    with np.errstate(invalid="ignore"):  # inf * 0 reads nan, which _sweep refuses
        values = family.side_powers(alpha) * a1 * a2
    return _sweep(spec, family, values, f"multi_maximal with alpha = {alpha!r}, r1 = {r1!r}, r2 = {r2!r}")


def _m3q(spec: GridSpec, fs: np.ndarray, gs: np.ndarray, r, s, windows: CellBoxes, meas3: np.ndarray) -> np.ndarray:
    """m_{3Q}(|f|^r, |g|^s) over the 3Q `windows` (see CellBoxes.tripled), per
    pair of a stack fs, gs (..., N_1 ... N_n) of samples on spec: shape
    (..., windows), from one stacked window sum.

    Integration runs over 3Q clipped to the box; the normalizing measure is
    the full meas3 = (3 * side)^n (functions vanish outside the box),
    matching the compact-support convention.
    """
    vol = spec.h ** spec.dim
    # a power past the float range reads +inf, and +inf * 0 nan
    with np.errstate(over="ignore", invalid="ignore"):
        fi, gi = windows.sums(np.stack((np.abs(fs) ** r, np.abs(gs) ** s))) * vol / meas3
        return _scalar_pow(fi, 1.0 / r) * _scalar_pow(gi, 1.0 / s)


@lru_cache(maxsize=8)  # the most recent roots, bounded like the kernel tables
def _root_plan(spec: GridSpec, Q0: Cube, grid: DyadicGrid) -> tuple[np.ndarray, np.ndarray, CellBoxes, np.ndarray]:
    """Q0's subcube_blocks, their 3Q windows (2D: digit blocks built) and 3Q measures, all read-only."""
    lo, width = subcube_blocks(spec, Q0, grid)
    windows = CellBoxes.tripled(spec.shape, lo, width)
    meas3 = _scalar_pow(3.0 * (width * spec.h), spec.dim)
    for arr in (lo, width, meas3, windows.lo, windows.ext) + ((windows.digits,) if spec.dim == 2 else ()):
        arr.setflags(write=False)
    return lo, width, windows, meas3


def _path_accumulate(ufunc, values: np.ndarray, fan: int) -> np.ndarray:
    """ufunc accumulated down the tree of breadth-first blocks (children of
    i: fan i + 1 ... fan i + fan), along the last axis."""
    out = values.copy()
    start, size = 0, 1
    while start + size < out.shape[-1]:
        kids = slice(start + size, start + size * (fan + 1))
        out[..., kids] = ufunc(np.repeat(out[..., start : start + size], fan, axis=-1), out[..., kids])
        start, size = start + size, size * fan
    return out


def _root_m3q(spec: GridSpec, fs, gs, r, s, Q0: Cube, grid: DyadicGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The root plan's corner cells and widths, and m_{3Q}(|f|^r, |g|^s) per
    block (..., blocks) for a stack fs, gs of samples (see _m3q), all finite."""
    lo, width, windows, meas3 = _root_plan(spec, Q0, grid)
    m = _m3q(spec, fs, gs, r, s, windows, meas3)
    where = f"on a subcube of the root cube {Q0.serialize()}"
    return lo, width, _finite(m, f"m_3Q(|f|^r, |g|^s) with r = {r!r}, s = {s!r}", where)


def weighted_bilinear_maximal(
    f: GridFunction,
    g: GridFunction,
    w1: GridFunction,
    w2: GridFunction,
    alpha: float,
    r: float,
    s: float,
    q: float,
    family: CubeFamily | None = None,
) -> GridFunction:
    """sup over Q of side^alpha * m_{3Q}(|f|^r,|g|^s) * ((1/|Q|)\\int_Q nu^q)^{1/q}.

    nu is the product weight w1*w2; both weights must be positive.
    """
    spec = _check_same_spec(f, g, w1, w2)
    check_conjugate(r, s)
    if not (q > 0):
        raise POutOfRange(f"q must be positive, got {q}")
    if float(w1.samples.min()) <= 0.0 or float(w2.samples.min()) <= 0.0:
        raise NonPositiveWeight("weights must be strictly positive")
    family = _family_for(spec, family)
    name = f"weighted_bilinear_maximal with alpha = {alpha!r}, r = {r!r}, s = {s!r}, q = {q!r}"
    with np.errstate(over="ignore"):
        nu = _finite(w1.samples * w2.samples, name, "in the product weight w1 * w2")
    m3q = _m3q(spec, f.samples, g.samples, r, s, family.windows3, family.side_powers(spec.dim, 3.0))
    (nu_q,) = _averages(family, (nu,), (q,))
    with np.errstate(invalid="ignore"):  # inf * 0 reads nan, which _sweep refuses
        values = family.side_powers(alpha) * m3q * nu_q
    return _sweep(spec, family, values, name)


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
    return GridFunction(spec, _sparse_sums(spec, f.samples, g.samples, alpha, r, s, Q0, grid))


def _sparse_sums(spec: GridSpec, fs, gs, alpha: float, r: float, s: float, Q0: Cube, grid: DyadicGrid) -> np.ndarray:
    """sparse_bound's samples per pair of a stack fs, gs (..., N_1 ... N_n) on spec."""
    check_conjugate(r, s)
    if not (0.0 < alpha < spec.dim):
        raise AlphaOutOfRange(f"alpha must lie in (0, {spec.dim}), got {alpha}")
    lo, width, m = _root_m3q(spec, fs, gs, r, s, Q0, grid)
    # each cell adds its blocks' values from the root down to its own cell
    total = _path_accumulate(np.add, _scalar_pow(width * spec.h, alpha) * m, 2 ** spec.dim)
    out = np.zeros(m.shape[:-1] + spec.shape)
    cells = width == 1
    out[(...,) + tuple(lo[cells].T)] = total[..., cells]
    return out
