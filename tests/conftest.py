import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import settings

from bifrac import Cube, DyadicGrid, GridFunction, GridSpec, all_intervals
from bifrac.errors import DegenerateCube, NonAlignedCube, OutOfBox
from bifrac.geometry import _THIRD, locate_shifted_cubes
from bifrac.families import _with_cell_bounds, subcube_family
from bifrac.harness import SplitMix64, _mix_seed
from bifrac.lattice import CellBoxes, cell_overlaps, integrate_overlaps
from bifrac.operators import kernel_table
from bifrac.weights import ConstantReport, WeightVector, _family_power_averages, _sanitize, conjugate

# One profile for every property test: the same examples on every run and
# no per-example deadline.  Tests set only their own max_examples.
settings.register_profile("bifrac", derandomize=True, deadline=None)
settings.load_profile("bifrac")


@pytest.fixture(scope="session")
def spec32():
    return GridSpec(1, 1.0, 32)


@pytest.fixture(scope="session")
def spec64():
    return GridSpec(1, 4.0, 64)


@pytest.fixture(scope="session")
def spec2d():
    return GridSpec(2, 1.0, 8)


@pytest.fixture(scope="session")
def intervals32(spec32):
    return all_intervals(spec32)


@pytest.fixture(scope="session")
def grid1d():
    return DyadicGrid((0.0,))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_positive(spec, rng, low=0.2, high=1.5):
    return GridFunction(
        spec, rng.uniform(low, high, spec.shape), nonnegative=True
    )


@pytest.fixture(scope="session")
def unit_cube():
    return Cube((0.0,), 1.0)


def family_from_cubes(spec, cubes, name="custom"):
    """A family of an explicit cube list, with the cell bounds of its aligned in-box members."""
    cubes = tuple(cubes)
    corners = np.array([Q.corner for Q in cubes], dtype=np.float64).reshape(-1, spec.dim)
    sides = np.array([Q.side for Q in cubes], dtype=np.float64)
    return _with_cell_bounds(spec, corners, sides, name)


def grid_cube(grid, level, index):
    """The level-`level` cube of a DyadicGrid at an integer index: side
    2^-level, corner 2^-level (index + the level's shift), one cube at a time."""
    side = 2.0 ** (-level)
    return Cube(tuple(side * (m + s) for m, s in zip(index, grid.level_shift(level))), side)


def grid_index(grid, level, point):
    """The index of the level-`level` cube of grid holding point."""
    side = 2.0 ** (-level)
    return tuple(int(math.floor(x / side - s + 1e-12)) for x, s in zip(point, grid.level_shift(level)))


def contains_point(Q, x):
    """Half-open membership: c <= x < c + side on every axis."""
    return all(c <= xi < c + Q.side for c, xi in zip(Q.corner, x))


def locate_shifted_dyadic_oracle(Q: Cube):
    """The slow oracle for locate_shifted_cubes: one cube at a time, every
    level whose side lies in [side(Q), 6 side(Q)] and every shift, keeping
    the smallest (side, shift, corner) key."""
    ell = Q.side
    n = Q.dim
    k_min = math.ceil(-math.log2(6.0 * ell) - 1e-12)
    k_max = math.floor(-math.log2(ell) + 1e-12)
    tol = 1e-12 * max(1.0, ell)
    best_key = None
    best = None
    for level in range(k_min, k_max + 1):
        side = 2.0 ** (-level)
        if side > 6.0 * ell * (1 + 1e-12) or side < ell * (1 - 1e-12):
            continue
        for shift in product((0.0, _THIRD), repeat=n):
            grid = DyadicGrid(shift)
            cand = grid_cube(grid, level, grid_index(grid, level, Q.corner))
            if cand.contains_cube(Q, tol=tol + 1e-12 * side):
                key = (cand.side, shift, cand.corner)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (shift, cand)
    return best


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(48)


def sec_power_integral_oracle(alpha, t):
    """\\int_0^t sec(u)^alpha du for t in [0, pi/2), one angle at a time: the
    scalar quadrature operators._sec_power_integrals batches.  Segments
    whose distance to the pole halves, Gauss-Legendre on each, summed left
    to right."""
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


def corner_mass_2d_oracle(x, y, alpha):
    """\\int_{[0,x] x [0,y]} |u|^(alpha-2) du for x, y > 0, by the polar
    reduction: (x^a S(atan(y/x)) + y^a S(atan(x/y))) / a."""
    return (
        x ** alpha * sec_power_integral_oracle(alpha, math.atan2(y, x))
        + y ** alpha * sec_power_integral_oracle(alpha, math.atan2(x, y))
    ) / alpha


def kernel_table_2d_oracle(spec, alpha):
    """The per-cell loop the 2D kernel table replaced: each offset cell
    [(d - 1/2)h, (d + 1/2)h)^2 with d0 <= d1 reflected onto [0, inf) per
    axis, four corner masses per reflected piece, mirrored, then folded by |d|.
    Corner masses are memoized: a pure function, it gives the same bits."""

    @lru_cache(maxsize=None)
    def corner(x, y):
        return 0.0 if x <= 0.0 or y <= 0.0 else corner_mass_2d_oracle(x, y, alpha)

    def reflect(lo, hi):
        out = []
        if hi > 0.0:
            out.append((max(lo, 0.0), hi))
        if lo < 0.0:
            out.append((max(-hi, 0.0), -lo))
        return out

    n, h = spec.cells_per_axis, spec.h
    half = np.zeros((n, n))
    for d0 in range(n):
        for d1 in range(d0, n):
            ax, ay = (d0 - 0.5) * h, (d1 - 0.5) * h
            total = 0.0
            for a, b in reflect(ax, ax + h):
                for c, d in reflect(ay, ay + h):
                    total += corner(b, d) - corner(a, d) - corner(b, c) + corner(a, c)
            half[d0, d1] = half[d1, d0] = total
    fold = np.abs(np.arange(-(n - 1), n))
    return half[fold[:, None], fold]


def far_weights(spec, alpha, Q0):
    """The far part of the kernel split, which the package never sums: the
    kernel table on the offsets d with |dh| > side(Q0), 0 on the local ones."""
    table = kernel_table(spec, alpha)
    return np.where(np.sqrt((table.offsets ** 2).sum(axis=-1)) > Q0.side + 1e-12, table.weights, 0.0)


def enumerate_nested_pairs(family):
    """Every aligned pair Q ⊆ Q' of family as (inner, outer) index arrays,
    outer-major: the slow oracle for NestedPairs, which never lists pairs."""
    ali = np.nonzero(family.aligned)[0]
    lo = family.lo[ali]
    hi = family.hi[ali]
    inner_parts = []
    outer_parts = []
    for pos, k in enumerate(ali):
        inside = np.all(lo >= lo[pos], axis=1) & np.all(hi <= hi[pos], axis=1)
        idx = ali[np.nonzero(inside)[0]]
        inner_parts.append(idx)
        outer_parts.append(np.full(len(idx), k, dtype=np.int64))
    inner = np.concatenate(inner_parts) if inner_parts else np.zeros(0, np.int64)
    outer = np.concatenate(outer_parts) if outer_parts else np.zeros(0, np.int64)
    return inner, outer


def nested_pair_count_oracle(family):
    """The pair count by one prefix table per width, in any dimension: a
    member of width w lies in (A, W) when its corner is in [A, A + W - w]^n,
    read from a prefix table of the width-w corners."""
    spec, lo, hi = family.spec, family.lo[family.aligned], family.hi[family.aligned]
    width = hi[:, 0] - lo[:, 0]
    total = 0
    for w in sorted(set(width.tolist())):
        prefix = np.zeros((spec.cells_per_axis - w + 2,) * spec.dim, dtype=np.int64)
        np.add.at(prefix[(slice(1, None),) * spec.dim], tuple(lo[width == w].T), 1)
        for ax in range(spec.dim):
            np.cumsum(prefix, axis=ax, out=prefix)
        outer = width >= w
        a, b = lo[outer], lo[outer] + (width[outer] - w + 1)[:, None]
        for t in product((0, 1), repeat=spec.dim):
            corner = tuple((b if ti else a)[:, i] for i, ti in enumerate(t))
            total += (-1) ** (spec.dim - sum(t)) * int(prefix[corner].sum())
    return total


def enumerated_pair_values(lead, wv, q0, q, p1, p2, family, r0=None):
    """(inner, outer, value) per enumerated pair of the iida (lead = w1 w2) or
    two-weight (lead = v) integrand; the pair constant is the max of value."""
    inner, outer = enumerate_nested_pairs(family)
    meas = family.measures
    with np.errstate(invalid="ignore"):
        inner_lead = power_averages(lead, q, family) ** (1.0 / q)
        cp1, cp2 = conjugate(p1), conjugate(p2)
        outer_1 = power_averages(wv.w1, -cp1, family) ** (1.0 / cp1)
        outer_2 = power_averages(wv.w2, -cp2, family) ** (1.0 / cp2)
        vals = (
            (meas[inner] / meas[outer]) ** (1.0 / q0)
            * inner_lead[inner]
            * outer_1[outer]
            * outer_2[outer]
        )
        if r0 is not None:
            vals = vals * meas[outer] ** (1.0 / r0)
    return inner, outer, np.where(np.isnan(vals), np.inf, vals)


def overlap_integrals_oracle(spec, pw, corners, sides):
    """Reference for lattice.integrate_overlaps, independent of its products:
    per cube, math.fsum of the terms (a_1 ... a_n) * pw[cell] over the cells
    it overlaps, each a_i the cell's overlap on axis i in scalar arithmetic;
    +inf where such a cell is non-finite or the sum leaves the float range."""
    n, h, half = spec.cells_per_axis, spec.h, spec.half_width
    edges = [-half + h * i for i in range(n + 1)]
    out = []
    for corner, side in zip(corners.tolist(), np.asarray(sides).tolist()):
        axes = []
        for c in corner:
            overlap = [max(min(edges[i + 1], c + side) - max(edges[i], c), 0.0) for i in range(n)]
            axes.append([(i, a) for i, a in enumerate(overlap) if a > 0.0])
        terms = [math.prod(a for _, a in cell) * float(pw[tuple(i for i, _ in cell)]) for cell in product(*axes)]
        try:
            out.append(math.fsum(terms) if all(math.isfinite(t) for t in terms) else math.inf)
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def fsum_bound(spec):
    """The relative bound of a per-cube average against math.fsum of its cell
    terms.  Every value is a sum of nonnegative cell terms, so a sum whose
    terms each pass through at most k roundings is within k u relative of
    the exact sum, to first order (u = 2^-53).  The product form rounds a
    term at most 2N times (one product and up to N - 1 additions per axis,
    N cells per axis), a 2D engine sum at most 2 log2 N + (log2 N)^2 times
    (its power-of-two block, then the cube's disjoint blocks), a 1D running
    sum or the re-sum of a cube past the float range at most N^n + n - 1
    times, the reference n + 1 times, and a division by the measure once
    more on both sides; 2 u per rounding covers both sides and the
    second-order terms."""
    u, n = 2.0**-53, spec.cells_per_axis
    return 2 * u * (spec.cell_count + 2 * n + 2 * spec.dim + 2)


def _block_sum_oracle(arr, corner, levels):
    """The sum of the 2^levels[0] x 2^levels[1] ... cells at corner, in the
    order the engine's power-of-two table adds them: the first axis with a
    level above 0 splits the block into two halves, each summed the same way."""
    for ax, k in enumerate(levels):
        if k:
            half = levels[:ax] + (k - 1,) + levels[ax + 1 :]
            other = corner[:ax] + (corner[ax] + (1 << (k - 1)),) + corner[ax + 1 :]
            return _block_sum_oracle(arr, corner, half) + _block_sum_oracle(arr, other, half)
    return float(arr[corner])


def power_table_oracle(arr, levels, ufunc):
    """The power-of-two table of one array under ufunc, built afresh from
    plain slices, one layer at a time: {layer (k_1 ... k_n): the value of
    each 2^k_1 x ... x 2^k_n block that fits, by its corner cell}, for levels
    0 ... levels[ax] - 1 per axis.  As in _block_sum_oracle, the first axis
    with a level above 0 splits a block into the two halves it is made of."""
    layers = {}
    for layer in sorted(product(*(range(k) for k in levels)), key=sum):
        ax = next((ax for ax, k in enumerate(layer) if k), None)
        if ax is None:
            layers[layer] = arr
            continue
        fine = layers[layer[:ax] + (layer[ax] - 1,) + layer[ax + 1 :]]
        half = 1 << (layer[ax] - 1)
        m = fine.shape[ax] - half
        layers[layer] = ufunc(fine.take(np.arange(m), axis=ax), fine.take(np.arange(half, half + m), axis=ax))
    return layers


def digit_blocks_oracle(lo, hi):
    """Per box [lo, hi), its disjoint power-of-two blocks as (corner, levels):
    on each axis one block per binary digit of the extent, largest digit
    first, and every combination of one per axis, the last axis innermost."""
    out = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        axes = []
        for start, ext in zip(a, b):
            ext -= start
            digits = []
            for k in reversed(range(ext.bit_length())):
                if ext >> k & 1:
                    digits.append((start, k))
                    start += 1 << k
            axes.append(digits)
        out.append([(tuple(c for c, _ in block), tuple(k for _, k in block)) for block in product(*axes)])
    return out


def digit_sums_oracle(arr, lo, hi):
    """Reference for the 2D CellBoxes.sums, one box at a time in Python
    floats: 0.0 plus the box's digit blocks (digit_blocks_oracle), in order."""
    out = []
    for blocks in digit_blocks_oracle(lo, hi):
        total = 0.0
        for corner, levels in blocks:
            total += _block_sum_oracle(arr, corner, levels)
        out.append(total)
    return np.array(out)


def power_averages(w, expo, family):
    """One factor's power averages, a call of weights._family_power_averages
    on it alone: the per-factor form of the stacked call."""
    return _family_power_averages(family, [(w, expo)])[0]


def family_power_averages_oracle(w, expo, family):
    """The slow oracle for weights._family_power_averages: the aligned mask
    and its bounds rebuilt on every call; in 1D, while the last running sum
    is finite, the running-sum differences clamped at 0 (the code has no
    clamp, so equal bits show that it never acts), and otherwise each
    aligned cube's np.sum over its cell slice (the engine's 1D bits); in 2D
    each aligned cube's digit blocks summed one cube at a time in Python
    floats (digit_sums_oracle); and the shifted cubes' integrals from
    overlap_integrals_oracle."""
    spec = w.spec
    voxel = spec.h ** spec.dim
    ali = family.lo[:, 0] >= 0
    lo, hi = family.lo[ali], family.hi[ali]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pw = np.power(w.samples, expo, dtype=np.float64)
        if spec.dim == 1:
            prefix = np.concatenate(([0.0], np.cumsum(pw))) * voxel
            if np.isfinite(prefix[-1]):
                total = np.maximum(prefix[hi[:, 0]] - prefix[lo[:, 0]], 0.0)
            else:
                total = np.array([np.sum(pw[a:b]) for a, b in zip(lo[:, 0], hi[:, 0])]) * voxel
            aligned = total / family.measures[ali]
        else:
            aligned = digit_sums_oracle(pw, lo, hi) * voxel / family.measures[ali]
    vals = np.empty(family.size)
    vals[ali] = aligned
    shifted = np.flatnonzero(~ali)
    integrals = overlap_integrals_oracle(spec, pw, family.corners[shifted], family.sides[shifted])
    vals[shifted] = integrals / family.measures[shifted]
    return vals


# The per-constant formulas that weights._cube_values replaced, one body each,
# in their own float operations and order: the bit-for-bit references of
# every weight constant and Morrey norm.  Input checks are left to the code
# under test.


def report_oracle(vals, family):
    """The max of per-cube values, a nan read as +inf, and its first cube."""
    vals = _sanitize(vals)
    k = int(np.argmax(vals))
    return ConstantReport(float(vals[k]), family.cube(k), family.size)


def ap_constant_oracle(w, p, family):
    avg1 = power_averages(w, 1.0, family)
    if p == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = avg1 / family.touch.minima(w.samples)
    else:
        dual = power_averages(w, 1.0 - conjugate(p), family)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = avg1 * dual ** (p - 1.0)
    return report_oracle(vals, family)


def apq_constant_oracle(w, p, q, family):
    pp = conjugate(p)
    with np.errstate(invalid="ignore"):
        lead = power_averages(w, q, family) ** (1.0 / q)
        dual = power_averages(w, -pp, family) ** (1.0 / pp)
        return report_oracle(lead * dual, family)


def multiple_apq_constant_oracle(wv, p1, p2, q, family):
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = power_averages(wv.nu, q, family) ** (1.0 / q)
        for p, w in ((p1, wv.w1), (p2, wv.w2)):
            if p == 1.0:
                vals = vals / family.touch.minima(w.samples)
            else:
                pp = conjugate(p)
                vals = vals * power_averages(w, -pp, family) ** (1.0 / pp)
    return report_oracle(vals, family)


def pair_constant_oracle(lead, wv, q0, q, p1, p2, pairs, r0=None):
    fam = pairs.family
    meas = fam.measures
    with np.errstate(invalid="ignore"):
        inner_lead = power_averages(lead, q, fam) ** (1.0 / q)
        cp1, cp2 = conjugate(p1), conjugate(p2)
        outer_1 = power_averages(wv.w1, -cp1, fam) ** (1.0 / cp1)
        outer_2 = power_averages(wv.w2, -cp2, fam) ** (1.0 / cp2)
        inner = _sanitize(meas ** (1.0 / q0) * inner_lead)
        best = fam.boxes.inner_max(inner)
        outer = meas ** (-1.0 / q0) * outer_1 * outer_2
        if r0 is not None:
            outer = outer * meas ** (1.0 / r0)
        K = int(np.argmax(np.where(fam.aligned, _sanitize(outer * best), -np.inf)))
        inside = np.all(fam.lo >= fam.lo[K], axis=1) & np.all(fam.hi <= fam.hi[K], axis=1)
        Q = int(np.argmax(fam.aligned & inside & (inner == best[K])))
        value = (meas[Q] / meas[K]) ** (1.0 / q0) * inner_lead[Q] * outer_1[K] * outer_2[K]
        if r0 is not None:
            value = value * meas[K] ** (1.0 / r0)
    return ConstantReport(float(_sanitize(value)), (fam.cube(Q), fam.cube(K)), pairs.size)


def reverse_holder_probe_oracle(w, epsilon, family):
    """The probe's formula; a nan ratio (inf / inf, where avg_Q w overflows)
    reads +inf, the contract of the shared max."""
    lo = power_averages(w, 1.0, family)
    held = lo > 0.0
    hi = power_averages(w, 1.0 + epsilon, family)[held] ** (1.0 / (1.0 + epsilon))
    with np.errstate(invalid="ignore"):
        return float(np.max(_sanitize(hi / lo[held])))


def morrey_values_oracle(f, p0, q, family):
    """Per cube |Q|^{1/p0} (avg_Q |f|^q)^{1/q}."""
    avgs = power_averages(f.abs_pow(1.0), q, family)
    return family.measures ** (1.0 / p0) * avgs ** (1.0 / q)


def vector_morrey_values_oracle(f1, f2, p0, p1, p2, family):
    """Per cube |Q|^{1/p0} prod_i (avg_Q |f_i|^{p_i})^{1/p_i}."""
    a1 = power_averages(f1.abs_pow(1.0), p1, family) ** (1.0 / p1)
    a2 = power_averages(f2.abs_pow(1.0), p2, family) ** (1.0 / p2)
    with np.errstate(invalid="ignore"):
        return family.measures ** (1.0 / p0) * a1 * a2


def iida_pair_value(
    wv: WeightVector, q0: float, q: float, p1: float, p2: float, Q: Cube, Qp: Cube
) -> float:
    """Integrand of iida_constant at one nested pair (witness re-evaluation)."""
    cp1, cp2 = conjugate(p1), conjugate(p2)
    with np.errstate(divide="ignore", over="ignore"):
        nu_q = _cube_power_integral(wv.nu, q, Q) / Q.measure
        d1 = _cube_power_integral(wv.w1, -cp1, Qp) / Qp.measure
        d2 = _cube_power_integral(wv.w2, -cp2, Qp) / Qp.measure
    value = (
        (Q.measure / Qp.measure) ** (1.0 / q0)
        * nu_q ** (1.0 / q)
        * d1 ** (1.0 / cp1)
        * d2 ** (1.0 / cp2)
    )
    return float(_sanitize(value))


def _cube_power_integral(w: GridFunction, expo: float, Q: Cube) -> float:
    """\\int_Q w^expo, with the power raised only on the cells Q touches (one
    more per side, against rounding at the edges).

    A power that overflows on a cell Q overlaps gives +inf, the sentinel of
    _family_power_averages; cells outside Q do not count.
    """
    spec = w.spec
    corner, side = np.array([Q.corner], dtype=np.float64), np.array([Q.side])
    t = (corner[0] + spec.half_width) / spec.h
    first, stop = np.floor(t).astype(np.int64) - 1, np.ceil(t + Q.side / spec.h).astype(np.int64) + 1
    near = tuple(slice(max(a, 0), max(b, 0)) for a, b in zip(first.tolist(), stop.tolist()))
    pw = np.zeros(spec.shape)
    with np.errstate(divide="ignore", over="ignore"):
        pw[near] = np.power(w.samples[near], expo)
    return float(integrate_overlaps(pw, cell_overlaps(spec, corner, side))[0])


def value_at_oracle(f, x):
    """The sample of the cell holding x, by the scalar rule of
    GridSpec.cell_of_point; 0 outside the box."""
    idx = f.spec.cell_of_point(x)
    return 0.0 if idx is None else float(f.samples[idx])


def bi_frac_at_oracle(f, g, alpha, point):
    """The per-offset loop that bi_frac_at replaced: per kernel offset d,
    row-major, one scalar lookup of f(x - dh) and of g(x + dh), zero terms
    skipped, then one fsum of f g w."""
    spec = f.spec
    n, h = spec.cells_per_axis, spec.h
    x = np.reshape(point, spec.dim).tolist()
    weights = kernel_table(spec, alpha).weights
    terms = []
    for d in product(range(-(n - 1), n), repeat=spec.dim):
        a = value_at_oracle(f, [xi - di * h for xi, di in zip(x, d)])
        if a == 0.0:
            continue
        b = value_at_oracle(g, [xi + di * h for xi, di in zip(x, d)])
        if b == 0.0:
            continue
        terms.append(a * b * float(weights[tuple(di + n - 1 for di in d)]))
    return math.fsum(terms)


def frac_int_at_oracle(f, alpha, point):
    """The per-offset loop that the 2D branch of frac_int_at replaced: per
    kernel offset d, row-major, one scalar lookup of f(x - dh), zero terms
    skipped, then one fsum of f w.  (The 1D branch integrates the kernel
    exactly instead; see the closed-form tests.)"""
    spec = f.spec
    n, h = spec.cells_per_axis, spec.h
    x = np.reshape(point, spec.dim).tolist()
    weights = kernel_table(spec, alpha).weights
    terms = []
    for d in product(range(-(n - 1), n), repeat=spec.dim):
        a = value_at_oracle(f, [xi - di * h for xi, di in zip(x, d)])
        if a != 0.0:
            terms.append(a * float(weights[tuple(di + n - 1 for di in d)]))
    return math.fsum(terms)


def root_m3q_oracle(spec, fs, gs, r, s, Q0):
    """sparse._root_m3q with the root's tree built on every call: an uncached
    subcube_family, a fresh CellBoxes.tripled of its cells (so fresh digit
    blocks) and the 3Q measures by scalar `**`, then operators._m3q's formula."""
    tree = subcube_family.__wrapped__(spec, Q0)
    width = tree.hi[:, 0] - tree.lo[:, 0]
    windows = CellBoxes.tripled(spec.shape, tree.lo, width)
    meas3 = np.array([(3.0 * (w * spec.h)) ** spec.dim for w in width.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):
        fi, gi = windows.sums(np.stack((np.abs(fs) ** r, np.abs(gs) ** s))) * spec.h ** spec.dim / meas3
        return tree, np.float_power(fi, 1.0 / r) * np.float_power(gi, 1.0 / s)


# The lattice coordinate map as three modules once spelled it out, each with
# its own alignment check: lattice._cell_slices, families._root_block and
# families._with_cell_bounds.  All now read GridSpec.lattice_cubes.


def cell_slices_oracle(spec, Q, clip=False):
    """Cell index slices of a lattice-aligned cube, one axis at a time."""
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


def root_block_oracle(spec, Q0):
    """(corner cells, width) of a root cube, with every failure NonAlignedCube."""
    h = spec.h
    w = Q0.side / h
    iw = round(w)
    if abs(w - iw) > 1e-9 * max(1.0, w) or iw < 1:
        raise NonAlignedCube(f"root side {Q0.side} is not a whole number of cells")
    if iw & (iw - 1):
        raise NonAlignedCube(f"root width {iw} cells is not a power of two")
    lo = []
    n = spec.cells_per_axis
    for c in Q0.corner:
        t = (c + spec.half_width) / h
        i0 = round(t)
        if abs(t - i0) > 1e-9 * max(1.0, abs(t)):
            raise NonAlignedCube(f"root corner {c} off the cell lattice")
        if i0 < 0 or i0 + iw > n:
            raise NonAlignedCube(f"root {Q0.serialize()} leaves the box")
        lo.append(int(i0))
    return tuple(lo), iw


def cell_bounds_oracle(spec, corners, sides):
    """Per cube, its cell bounds lo, hi when it is aligned and in the box, else rows of -1."""
    w = sides / spec.h
    t = (corners + spec.half_width) / spec.h
    iw, i0 = np.rint(w), np.rint(t)
    ok = (np.abs(w - iw) <= 1e-9 * np.maximum(1.0, w)) & (iw >= 1)
    ok &= np.all(np.abs(t - i0) <= 1e-9 * np.maximum(1.0, np.abs(t)), axis=1)
    ok &= np.all((i0 >= 0) & (i0 + iw[:, None] <= spec.cells_per_axis), axis=1)
    lo = np.where(ok[:, None], i0, -1).astype(np.int64)
    hi = np.where(ok[:, None], i0 + iw[:, None], -1).astype(np.int64)
    return lo, hi


def one_third_cubes_oracle(seed: int, samples: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """harness._one_third_cubes by one scalar SplitMix64.uniform call at a
    time: per sample the side, then each corner coordinate."""
    rng = SplitMix64(_mix_seed(seed, f"one-third-{dim}d"))
    box_half = 4.0 if dim == 1 else 2.0
    corners = np.empty((samples, dim))
    sides = np.empty(samples)
    for i in range(samples):
        sides[i] = rng.uniform(0.01, box_half / 2)
        corners[i] = [rng.uniform(-box_half, box_half - sides[i]) for _ in range(dim)]
    return corners, sides


def cube_location_worst_ratio_oracle(seed: int, samples: int, dim: int = 1) -> tuple[float, bool]:
    """harness.cube_location_worst_ratio on the cubes of one_third_cubes_oracle."""
    corners, sides = one_third_cubes_oracle(seed, samples, dim)
    _, corner_t, side_t = locate_shifted_cubes(corners, sides)
    tol = (1e-9 * np.maximum(1.0, sides))[:, None]
    inside = (corners >= corner_t - tol) & (corners + sides[:, None] <= corner_t + side_t[:, None] + tol)
    all_ok = bool(np.all(inside) and np.all(side_t <= 6.0 * sides * (1 + 1e-9)))
    worst = float(np.max(side_t / sides, initial=0.0))
    return worst, all_ok
