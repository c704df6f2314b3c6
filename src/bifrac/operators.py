"""Integral and maximal operators with exact singular-kernel cell weights.

The kernel |y|^(alpha-n) is integrated exactly (1D: closed-form
antiderivative; 2D: polar reduction to sec-power integrals, singular
origin cell included) over half-shifted offset cells [(d-1/2)h, (d+1/2)h)^n.
With that convention the bilinear sum at a cell midpoint x samples
f(x - dh) and g(x + dh) exactly at cell midpoints, so for step data the
grid outputs are exact values of the continuum operators.

All big reductions run in a fixed offset order with compensated
summation, so results are identical run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AlphaOutOfRange, NonPositiveWeight, POutOfRange, SpecMismatch
from .families import CubeFamily, default_family
from .geometry import Cube, DyadicGrid
from .lattice import CellBoxes, GridFunction, GridSpec, _scalar_pow, check_conjugate


@dataclass(frozen=True)
class KernelTable:
    """Per-offset-cell masses of the kernel |y|^(alpha-n).

    weights[d + N - 1] (per axis) is the exact integral of the kernel
    over the offset cell centered at d*h.  Symmetric and positive.
    """

    spec: GridSpec
    alpha: float
    weights: np.ndarray

    def weight(self, offset) -> float:
        n1 = self.spec.cells_per_axis - 1
        if self.spec.dim == 1:
            d = offset if isinstance(offset, int) else offset[0]
            return float(self.weights[d + n1])
        d0, d1 = offset
        return float(self.weights[d0 + n1, d1 + n1])


def _axis_masses_1d(h: float, alpha: float, count: int) -> np.ndarray:
    """Exact 1D masses via the antiderivative |y|^alpha * sign(y) / alpha."""
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


def _sec_power_integral_to(alpha: float, t: float) -> float:
    """\\int_0^t sec(u)^alpha du for t in [0, pi/2).

    The integrand blows up at pi/2, so the interval is split into
    segments whose distance to the pole halves, with Gauss-Legendre on
    each; accuracy is ~1e-14 for every t our cell geometry produces.
    """
    if t <= 0.0:
        return 0.0
    half_pi = 0.5 * math.pi
    breaks = [0.0]
    while half_pi - breaks[-1] > 1e-15 and breaks[-1] < t:
        nxt = half_pi - 0.5 * (half_pi - breaks[-1])
        if nxt >= t:
            break
        breaks.append(nxt)
    breaks.append(t)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        x = 0.5 * (b - a) * _GAUSS_NODES + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.dot(_GAUSS_WEIGHTS, np.cos(x) ** (-alpha)))
    return total


def _corner_mass_2d(x: float, y: float, alpha: float) -> float:
    """\\int_{[0,x] x [0,y]} |u|^(alpha-2) du, exact polar reduction.

    Splitting at the diagonal angle turns the integral into two smooth
    sec-power integrals:  (x^a S(atan(y/x)) + y^a S(atan(x/y))) / a.
    """
    if x <= 0.0 or y <= 0.0:
        return 0.0
    return (
        x ** alpha * _sec_power_integral_to(alpha, math.atan2(y, x))
        + y ** alpha * _sec_power_integral_to(alpha, math.atan2(x, y))
    ) / alpha


def _fold_nonnegative(lo: float, hi: float) -> list[tuple[float, float]]:
    """Reflect an interval onto [0, inf); the kernel is even per axis."""
    out = []
    if hi > 0.0:
        out.append((max(lo, 0.0), hi))
    if lo < 0.0:
        out.append((max(-hi, 0.0), -lo))
    return out


def _rect_mass_2d(x0: float, x1: float, y0: float, y1: float, alpha: float) -> float:
    """Exact \\int over [x0,x1] x [y0,y1] of |u|^(alpha-2)."""
    total = 0.0
    for a, b in _fold_nonnegative(x0, x1):
        for c, d in _fold_nonnegative(y0, y1):
            total += (
                _corner_mass_2d(b, d, alpha)
                - _corner_mass_2d(a, d, alpha)
                - _corner_mass_2d(b, c, alpha)
                + _corner_mass_2d(a, c, alpha)
            )
    return total


def kernel_table(spec: GridSpec, alpha: float) -> KernelTable:
    """Exact kernel cell masses for |y|^(alpha - n); requires 0 < alpha < n."""
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
        count = n
        half = np.zeros((count, count))
        for d0 in range(count):
            for d1 in range(d0, count):
                ax = (d0 - 0.5) * h
                ay = (d1 - 0.5) * h
                m = _rect_mass_2d(ax, ax + h, ay, ay + h, alpha)
                half[d0, d1] = m
                half[d1, d0] = m
        full = np.zeros((2 * count - 1, 2 * count - 1))
        for d0 in range(-(count - 1), count):
            for d1 in range(-(count - 1), count):
                full[d0 + count - 1, d1 + count - 1] = half[abs(d0), abs(d1)]
        weights = full
    return KernelTable(spec, alpha, weights)


def _check_same_spec(*fns: GridFunction) -> GridSpec:
    spec = fns[0].spec
    for f in fns[1:]:
        if f.spec != spec:
            raise SpecMismatch("operands live on different grid specs")
    return spec


def _kahan_add(acc, comp, sl, term):
    y = term - comp[sl]
    t = acc[sl] + y
    comp[sl] = (t - acc[sl]) - y
    acc[sl] = t


def _bilinear_sum_1d(fs, gs, weights) -> np.ndarray:
    n = len(fs)
    out = np.zeros(n)
    comp = np.zeros(n)
    for d in range(-(n - 1), n):
        lo, hi = abs(d), n - abs(d)
        if lo >= hi:
            continue
        w = weights[d + n - 1]
        if w == 0.0:
            continue
        term = fs[lo - d : hi - d] * gs[lo + d : hi + d] * w
        _kahan_add(out, comp, slice(lo, hi), term)
    return out


def _bilinear_sum_2d(fs, gs, weights) -> np.ndarray:
    n = fs.shape[0]
    out = np.zeros((n, n))
    comp = np.zeros((n, n))
    for d0 in range(-(n - 1), n):
        lo0, hi0 = abs(d0), n - abs(d0)
        if lo0 >= hi0:
            continue
        for d1 in range(-(n - 1), n):
            lo1, hi1 = abs(d1), n - abs(d1)
            if lo1 >= hi1:
                continue
            w = weights[d0 + n - 1, d1 + n - 1]
            if w == 0.0:
                continue
            term = (
                fs[lo0 - d0 : hi0 - d0, lo1 - d1 : hi1 - d1]
                * gs[lo0 + d0 : hi0 + d0, lo1 + d1 : hi1 + d1]
                * w
            )
            _kahan_add(out, comp, (slice(lo0, hi0), slice(lo1, hi1)), term)
    return out


def bi_frac(f: GridFunction, g: GridFunction, alpha: float, weights: np.ndarray | None = None) -> GridFunction:
    """Bilinear fractional integral sampled at cell midpoints.

    out(x) = sum over offset cells d of f(x - dh) g(x + dh) * kernel mass,
    exact for step data at midpoints.  An explicit `weights` table (same
    layout as KernelTable.weights) lets callers split the kernel.
    """
    spec = _check_same_spec(f, g)
    if weights is None:
        weights = kernel_table(spec, alpha).weights
    if spec.dim == 1:
        out = _bilinear_sum_1d(f.samples, g.samples, weights)
    else:
        out = _bilinear_sum_2d(f.samples, g.samples, weights)
    return GridFunction(spec, out)


def bi_frac_at(f: GridFunction, g: GridFunction, alpha: float, point) -> float:
    """Point evaluation of the bilinear fractional integral (any point)."""
    spec = _check_same_spec(f, g)
    table = kernel_table(spec, alpha)
    n = spec.cells_per_axis
    h = spec.h
    if spec.dim == 1:
        x = point[0] if hasattr(point, "__len__") else point
        d = np.arange(-(n - 1), n)
        fv = f.values_at(x - d * h)
        gv = g.values_at(x + d * h)
        return float(math.fsum(fv * gv * table.weights))
    x0, x1 = point
    total = []
    for d0 in range(-(n - 1), n):
        for d1 in range(-(n - 1), n):
            w = table.weights[d0 + n - 1, d1 + n - 1]
            a = f.value_at((x0 - d0 * h, x1 - d1 * h))
            if a == 0.0:
                continue
            b = g.value_at((x0 + d0 * h, x1 + d1 * h))
            if b == 0.0:
                continue
            total.append(a * b * w)
    return math.fsum(total)


def frac_int(f: GridFunction, alpha: float) -> GridFunction:
    """Fractional integral: convolution of f with the kernel table (exact)."""
    spec = f.spec
    table = kernel_table(spec, alpha)
    n = spec.cells_per_axis
    if spec.dim == 1:
        out = np.zeros(n)
        comp = np.zeros(n)
        for d in range(-(n - 1), n):
            lo, hi = max(0, d), min(n, n + d)
            if lo >= hi:
                continue
            term = f.samples[lo - d : hi - d] * table.weights[d + n - 1]
            _kahan_add(out, comp, slice(lo, hi), term)
    else:
        out = np.zeros((n, n))
        comp = np.zeros((n, n))
        for d0 in range(-(n - 1), n):
            lo0, hi0 = max(0, d0), min(n, n + d0)
            if lo0 >= hi0:
                continue
            for d1 in range(-(n - 1), n):
                lo1, hi1 = max(0, d1), min(n, n + d1)
                if lo1 >= hi1:
                    continue
                term = (
                    f.samples[lo0 - d0 : hi0 - d0, lo1 - d1 : hi1 - d1]
                    * table.weights[d0 + n - 1, d1 + n - 1]
                )
                _kahan_add(out, comp, (slice(lo0, hi0), slice(lo1, hi1)), term)
    return GridFunction(spec, out)


def frac_int_at(f: GridFunction, alpha: float, point) -> float:
    """Point evaluation of the fractional integral.

    In 1D the kernel is integrated exactly against the step function
    (per-cell antiderivative differences), so the value is exact for any
    evaluation point; in 2D cell midpoint masses are used.
    """
    spec = f.spec
    n = spec.cells_per_axis
    h = spec.h
    if spec.dim == 1:
        if not (0.0 < alpha < 1.0):
            raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha}")
        x = point[0] if hasattr(point, "__len__") else point
        edges = -spec.half_width + h * np.arange(n + 1)
        u = x - edges  # antiderivative F(u) = sign(u)|u|^alpha / alpha
        F = np.sign(u) * np.abs(u) ** alpha / alpha
        masses = F[:-1] - F[1:]
        return float(math.fsum(f.samples * masses))
    table = kernel_table(spec, alpha)
    x0, x1 = point
    terms = []
    for d0 in range(-(n - 1), n):
        for d1 in range(-(n - 1), n):
            a = f.value_at((x0 - d0 * h, x1 - d1 * h))
            if a != 0.0:
                terms.append(a * table.weights[d0 + n - 1, d1 + n - 1])
    return math.fsum(terms)


def _multi_kernel_row(spec: GridSpec, alpha: float, x) -> np.ndarray:
    """Distances |x - midpoint| per cell, flattened (2D) or 1D."""
    mids = spec.midpoints()
    if spec.dim == 1:
        return np.abs((x[0] if hasattr(x, "__len__") else x) - mids)
    dx = x[0] - mids
    dy = x[1] - mids
    return np.sqrt(dx[:, None] ** 2 + dy[None, :] ** 2)


def _dist(x, y) -> float:
    if not hasattr(x, "__len__"):
        x = (x,)
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))


def _quadrant_offsets(dim: int, step: float):
    from itertools import product as _product

    return [tuple(s * step for s in signs) for signs in _product((-1, 1), repeat=dim)]


def multi_frac_int(f1: GridFunction, f2: GridFunction, alpha: float) -> GridFunction:
    """Two-fold fractional integral with kernel (|x-y1|+|x-y2|)^(alpha-2n)."""
    spec = _check_same_spec(f1, f2)
    if not (0.0 < alpha < 2.0 * spec.dim):
        raise AlphaOutOfRange(f"alpha must lie in (0, {2 * spec.dim}), got {alpha}")
    mids = spec.midpoints()
    if spec.dim == 1:
        out = np.array([multi_frac_int_at(f1, f2, alpha, (x,)) for x in mids])
    else:
        out = np.array(
            [
                [multi_frac_int_at(f1, f2, alpha, (x, y)) for y in mids]
                for x in mids
            ]
        )
    return GridFunction(spec, out)


def multi_frac_int_at(f1: GridFunction, f2: GridFunction, alpha: float, point) -> float:
    """Point evaluation of the two-fold fractional integral."""
    spec = _check_same_spec(f1, f2)
    if not (0.0 < alpha < 2.0 * spec.dim):
        raise AlphaOutOfRange(f"alpha must lie in (0, {2 * spec.dim}), got {alpha}")
    n_dim = spec.dim
    h = spec.h
    vol = h ** n_dim
    expo = alpha - 2.0 * n_dim
    dist = _multi_kernel_row(spec, alpha, point).reshape(-1)
    f1v = f1.samples.reshape(-1)
    f2v = f2.samples.reshape(-1)
    near = dist <= 0.5 * h * (1.0 + 1e-12)
    if not near.any():
        kval = np.add.outer(dist, dist) ** expo
        return float(f1v @ kval @ f2v) * vol * vol
    # split off pairs where both cells are near the evaluation point
    far = ~near
    dist_far = dist[far]
    kff = np.add.outer(dist_far, dist_far) ** expo
    total = float(f1v[far] @ kff @ f2v[far]) * vol * vol
    near_idx = np.nonzero(near)[0]
    sub = _quadrant_offsets(n_dim, 0.25 * h)
    mids = spec.midpoints()
    if n_dim == 1:
        center_of = lambda i: (mids[i],)
    else:
        nn = spec.cells_per_axis
        center_of = lambda i: (mids[i // nn], mids[i % nn])
    pt = point if hasattr(point, "__len__") else (point,)
    # near x far cross terms: only the near cell needs care, midpoint is fine
    for i in near_idx:
        ci = center_of(i)
        di = _dist(pt, ci)
        row = (di + dist_far) ** expo
        total += float(f1v[i] * np.dot(row, f2v[far])) * vol * vol
        total += float(f2v[i] * np.dot(row, f1v[far])) * vol * vol
    # near x near pairs: one level of 4^n-fold subdivision
    for i in near_idx:
        ci = np.array(center_of(i))
        pts_i = [ci + np.array(o) for o in sub]
        for j in near_idx:
            cj = np.array(center_of(j))
            pts_j = [cj + np.array(o) for o in sub]
            acc = 0.0
            for u in pts_i:
                du = _dist(pt, u)
                for v in pts_j:
                    acc += (du + _dist(pt, v)) ** expo
            total += f1v[i] * f2v[j] * acc * (vol / len(pts_i)) * (vol / len(pts_j))
    return total


def local_global_split(f: GridFunction, g: GridFunction, alpha: float, Q0: Cube):
    """Kernel sum split at |y| <= 2*delta (delta = half the side of Q0).

    Returns (local, global) grid functions whose sum is bi_frac(f, g).
    """
    spec = _check_same_spec(f, g)
    w_local, w_global = _split_weights(spec, alpha, Q0)
    return (
        bi_frac(f, g, alpha, weights=w_local),
        bi_frac(f, g, alpha, weights=w_global),
    )


def _split_weights(spec: GridSpec, alpha: float, Q0: Cube) -> tuple[np.ndarray, np.ndarray]:
    """Kernel weight tables of the local (|y| <= side(Q0)) and the far part."""
    table = kernel_table(spec, alpha)
    n = spec.cells_per_axis
    h = spec.h
    radius = Q0.side  # 2 * delta with delta = side / 2
    d = np.arange(-(n - 1), n) * h
    if spec.dim == 1:
        mask = np.abs(d) <= radius + 1e-12
    else:
        mask = np.sqrt(d[:, None] ** 2 + d[None, :] ** 2) <= radius + 1e-12
    return np.where(mask, table.weights, 0.0), np.where(mask, 0.0, table.weights)


# ---------------------------------------------------------------------------
# Maximal operators.  Each builds one value array over the family and
# sweeps it onto the cells (a non-finite result becomes 0).  The values are
# bit-identical to a per-cube slice loop (the exhaustive oracle in the tests):
#
# * box sums, grouped by box shape in the cube-window engine of `lattice`,
#   equal per-slice np.sum bit for bit, and |f|^p taken once on the whole
#   array equals |f|^p taken on any slice;
# * the final root stays on scalar `**` (lattice._scalar_pow), because
#   numpy's array `power` differs from scalar pow by 1 ulp on some inputs on
#   SIMD hosts; it is taken once per distinct value (by bits), and side
#   powers once per distinct side (CubeFamily.side_powers);
# * the sweep's max over the containing cubes involves no rounding: in 1D
#   two running maxima of a start x end table, in 2D the square-table
#   recursion (CellBoxes.sweep).
# ---------------------------------------------------------------------------


def _family_for(spec: GridSpec, family: CubeFamily | None) -> CubeFamily:
    family = family if family is not None else default_family(spec)
    family.require_nonempty()
    return family


def _sweep(spec: GridSpec, family: CubeFamily, values: np.ndarray) -> GridFunction:
    """Max of the cube values over the family cubes containing each midpoint."""
    out = family.cover.sweep(values)
    out[~np.isfinite(out)] = 0.0
    return GridFunction(spec, out)


def _averages(f: GridFunction, family: CubeFamily, p: float) -> np.ndarray:
    """((1/|Q|) \\int_Q |f|^p)^(1/p) for every family cube."""
    totals = family.integrals(np.abs(f.samples) ** p) / family.measures
    return _scalar_pow(totals, 1.0 / p)


def maximal(f: GridFunction, family: CubeFamily | None = None) -> GridFunction:
    """Uncentered Hardy-Littlewood maximal function over the family."""
    family = _family_for(f.spec, family)
    return _sweep(f.spec, family, _averages(f, family, 1.0))


def frac_maximal(f: GridFunction, alpha: float, family: CubeFamily | None = None) -> GridFunction:
    """Fractional maximal function |Q|^(alpha/n - 1) \\int_Q |f|."""
    if not (0.0 < alpha < f.spec.dim):
        raise AlphaOutOfRange(f"alpha must lie in (0, {f.spec.dim}), got {alpha}")
    family = _family_for(f.spec, family)
    return _sweep(f.spec, family, family.side_powers(alpha) * _averages(f, family, 1.0))


def p_maximal(f: GridFunction, p: float, family: CubeFamily | None = None) -> GridFunction:
    """L^p-average maximal function, p > 1."""
    if p <= 1.0:
        raise POutOfRange(f"p must exceed 1, got {p}")
    family = _family_for(f.spec, family)
    return _sweep(f.spec, family, _averages(f, family, p))


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
    if r1 <= 0 or r2 <= 0:
        raise POutOfRange("averaging exponents must be positive")
    family = _family_for(spec, family)
    values = family.side_powers(alpha) * _averages(f1, family, r1) * _averages(f2, family, r2)
    return _sweep(spec, family, values)


def _m3q(f, g, r, s, windows: CellBoxes, meas3: np.ndarray) -> np.ndarray:
    """m_{3Q}(|f|^r, |g|^s) over the 3Q `windows` (see CellBoxes.tripled).

    Integration runs over 3Q clipped to the box; the normalizing measure is
    the full meas3 = (3 * side)^n (functions vanish outside the box),
    matching the compact-support convention.
    """
    vol = f.spec.h ** f.spec.dim
    fi = windows.sums(np.abs(f.samples) ** r) * vol / meas3
    gi = windows.sums(np.abs(g.samples) ** s) * vol / meas3
    return _scalar_pow(fi, 1.0 / r) * _scalar_pow(gi, 1.0 / s)


def _block_m3q(f, g, r, s, lo, width) -> np.ndarray:
    """m_{3Q}(|f|^r, |g|^s) for blocks of `width` cells from corner cells lo."""
    spec = f.spec
    meas3 = _scalar_pow(3.0 * (width * spec.h), spec.dim)
    return _m3q(f, g, r, s, CellBoxes.tripled(spec.shape, lo, width), meas3)


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
    if q <= 0:
        raise POutOfRange(f"q must be positive, got {q}")
    if float(w1.samples.min()) <= 0.0 or float(w2.samples.min()) <= 0.0:
        raise NonPositiveWeight("weights must be strictly positive")
    family = _family_for(spec, family)
    nu = GridFunction(spec, w1.samples * w2.samples, nonnegative=True)
    m3q = _m3q(f, g, r, s, family.windows3, family.side_powers(spec.dim, 3.0))
    return _sweep(spec, family, family.side_powers(alpha) * m3q * _averages(nu, family, q))


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
    from .sparse import subcube_blocks  # local import to avoid a cycle

    lo, width = subcube_blocks(spec, Q0, grid)
    vals = _scalar_pow(width * spec.h, alpha) * _block_m3q(f, g, r, s, lo, width)
    root = tuple(slice(a, a + width[0]) for a in lo[0].tolist())
    out = np.zeros(spec.shape)
    # the blocks of one level tile Q0: adding level by level keeps each cell's block order
    for w in np.unique(width)[::-1].tolist():
        level = width == w
        tiles = np.zeros((width[0] // w,) * spec.dim)
        tiles[tuple(((lo[level] - lo[0]) // w).T)] = vals[level]
        for ax in range(spec.dim):
            tiles = tiles.repeat(w, axis=ax)
        out[root] += tiles
    return GridFunction(spec, out)
