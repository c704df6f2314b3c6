"""Reference values for the benchmark's correctness checks.

Every function here recomputes a bifrac result from its mathematical
definition with plain numpy and shares no code with the package: cube
sums are built width by width (1D) or from per-axis overlap vectors
(2D), nested-pair maxima use a containment DP over intervals instead of
pair enumeration, and the 1D kernel masses come from the closed-form
antiderivative.  The only package objects read are inputs (sample arrays,
cube corners and sides, pair index arrays, the 2D kernel table, which is
itself checked against an independent quadrature of its total mass).
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# 1D interval tables.  Index [a, b] stands for the cell interval [a, b),
# 0 <= a < b <= N; entries off that triangle are NaN.
# ---------------------------------------------------------------------------


def interval_sums(x: np.ndarray, h: float) -> np.ndarray:
    """h * sum(x[a:b]) for every interval, accumulated width by width."""
    n = len(x)
    out = np.full((n + 1, n + 1), np.nan)
    run = np.zeros(n)
    for w in range(1, n + 1):
        run = run[: n - w + 1] + x[w - 1 :]
        a = np.arange(n - w + 1)
        out[a, a + w] = run * h
    return out


def interval_minima(x: np.ndarray) -> np.ndarray:
    n = len(x)
    out = np.full((n + 1, n + 1), np.nan)
    run = x.copy()
    for w in range(1, n + 1):
        if w > 1:
            run = np.minimum(run[: n - w + 1], x[w - 1 :])
        a = np.arange(n - w + 1)
        out[a, a + w] = run
    return out


def interval_lengths(n: int, h: float) -> np.ndarray:
    a = np.arange(n + 1)
    width = a[None, :] - a[:, None]
    return np.where(width > 0, width * h, np.nan)


def interval_avg(x: np.ndarray, e: float, h: float) -> np.ndarray:
    """(1/|I|) int_I |x|^e for every interval I."""
    return interval_sums(np.abs(x) ** e, h) / interval_lengths(len(x), h)


def sweep_max_1d(vals: np.ndarray) -> np.ndarray:
    """out[c] = max of vals[a, b] over intervals a <= c < b."""
    v = np.where(np.isnan(vals), -np.inf, vals)
    suffix = np.maximum.accumulate(v[:, ::-1], axis=1)[:, ::-1]  # max over b' >= b
    reach = suffix[:, 1:]  # reach[a, c] = max over b > c
    prefix = np.maximum.accumulate(reach, axis=0)  # max over a' <= a
    n = vals.shape[0] - 1
    return prefix[np.arange(n), np.arange(n)]


def nested_max(inner: np.ndarray, outer: np.ndarray) -> float:
    """max over nested intervals I ⊆ J of inner[I] * outer[J] (containment DP)."""
    n = inner.shape[0] - 1
    best = None
    result = -math.inf
    for w in range(1, n + 1):
        a = np.arange(n - w + 1)
        cur = inner[a, a + w]
        if best is not None:
            cur = np.maximum(cur, np.maximum(best[1:], best[:-1]))
        result = max(result, float(np.max(outer[a, a + w] * cur)))
        best = cur
    return result


def nested_pair_count(widths: np.ndarray) -> int:
    """Nested pairs I ⊆ J among all intervals, from the outer widths."""
    w = widths.astype(np.int64)
    return int(np.sum(w * (w + 1) // 2))


# ---------------------------------------------------------------------------
# Operators and norms (1D)
# ---------------------------------------------------------------------------


def kernel_masses_1d(n: int, h: float, alpha: float) -> np.ndarray:
    """Exact masses of |y|^(alpha-1) over the offset cells [(d-1/2)h, (d+1/2)h)."""
    d = np.abs(np.arange(-(n - 1), n)).astype(float)
    far = ((d + 0.5) ** alpha - np.abs(d - 0.5) ** alpha) * h ** alpha / alpha
    return np.where(d == 0, 2.0 * (0.5 * h) ** alpha / alpha, far)


def bilinear_1d(f: np.ndarray, g: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """out[x] = sum_d f[x - d] g[x + d] masses[d], all x at once."""
    n = len(f)
    x = np.arange(n)[:, None]
    d = np.arange(-(n - 1), n)[None, :]
    i, j = x - d, x + d
    ok = (i >= 0) & (i < n) & (j >= 0) & (j < n)
    terms = np.where(ok, f[np.clip(i, 0, n - 1)] * g[np.clip(j, 0, n - 1)] * masses[None, :], 0.0)
    return terms.sum(axis=1)


def morrey_1d(x: np.ndarray, p0: float, q: float, h: float) -> float:
    lengths = interval_lengths(len(x), h)
    vals = lengths ** (1.0 / p0) * interval_avg(x, q, h) ** (1.0 / q)
    return float(np.nanmax(vals))


def vector_morrey_1d(f1, f2, p0, p1, p2, h) -> float:
    lengths = interval_lengths(len(f1), h)
    vals = (
        lengths ** (1.0 / p0)
        * interval_avg(f1, p1, h) ** (1.0 / p1)
        * interval_avg(f2, p2, h) ** (1.0 / p2)
    )
    return float(np.nanmax(vals))


def lp_1d(x: np.ndarray, p: float, h: float) -> float:
    return (math.fsum(np.abs(x) ** p) * h) ** (1.0 / p)


def _conj(p: float) -> float:
    return p / (p - 1.0)


def pair_tables(lead: np.ndarray, w1, w2, q0, q, p1, p2, h, r0=None):
    """(inner, outer) tables whose nested product is the pair constant.

    (|Q|/|Q'|)^{1/q0} splits as |Q|^{1/q0} |Q'|^{-1/q0}, so the constant
    is max over Q ⊆ Q' of inner[Q] * outer[Q'].
    """
    lengths = interval_lengths(len(lead), h)
    c1, c2 = _conj(p1), _conj(p2)
    inner = lengths ** (1.0 / q0) * interval_avg(lead, q, h) ** (1.0 / q)
    outer = (
        lengths ** (-1.0 / q0)
        * interval_avg(1.0 / w1, c1, h) ** (1.0 / c1)
        * interval_avg(1.0 / w2, c2, h) ** (1.0 / c2)
    )
    if r0 is not None:
        outer = outer * lengths ** (1.0 / r0)
    return inner, outer


def pair_constant_1d(lead, w1, w2, q0, q, p1, p2, h, r0=None) -> float:
    """Exact iida (lead = w1 w2) or two-weight (lead = v) constant, all pairs."""
    return nested_max(*pair_tables(lead, w1, w2, q0, q, p1, p2, h, r0))


def pair_constant_on_pairs(tables, lo, hi, inner_idx, outer_idx) -> float:
    """The same constant restricted to an explicit list of (inner, outer) pairs."""
    inner, outer = tables
    vals = inner[lo[inner_idx], hi[inner_idx]] * outer[lo[outer_idx], hi[outer_idx]]
    return float(np.max(vals))


def multiple_apq_1d(w1, w2, p1, p2, q, h) -> float:
    vals = interval_avg(w1 * w2, q, h) ** (1.0 / q)
    for p, w in ((p1, w1), (p2, w2)):
        if p == 1.0:
            vals = vals / interval_minima(w)
        else:
            c = _conj(p)
            vals = vals * interval_avg(1.0 / w, c, h) ** (1.0 / c)
    return float(np.nanmax(vals))


def ap_1d(w, p, h) -> float:
    avg = interval_avg(w, 1.0, h)
    if p == 1.0:
        return float(np.nanmax(avg / interval_minima(w)))
    c = _conj(p)
    return float(np.nanmax(avg * interval_avg(1.0 / w, c - 1.0, h) ** (p - 1.0)))


def apq_1d(w, p, q, h) -> float:
    c = _conj(p)
    vals = interval_avg(w, q, h) ** (1.0 / q) * interval_avg(1.0 / w, c, h) ** (1.0 / c)
    return float(np.nanmax(vals))


def reverse_holder_1d(w, eps, h) -> float:
    e = 1.0 + eps
    return float(np.nanmax(interval_avg(w, e, h) ** (1.0 / e) / interval_avg(w, 1.0, h)))


def window3_sums(x: np.ndarray, h: float) -> np.ndarray:
    """int over 3I ∩ box of x for every interval I (3I has I in its middle)."""
    n = len(x)
    table = interval_sums(x, h)
    a = np.arange(n + 1)
    width = a[None, :] - a[:, None]
    lo = np.clip(a[:, None] - width, 0, n)
    hi = np.clip(a[None, :] + width, 0, n)
    ok = width > 0
    out = np.full((n + 1, n + 1), np.nan)
    out[ok] = table[lo[ok], hi[ok]]
    return out


def m3q_1d(f, g, r, s, h) -> np.ndarray:
    """m_{3I}(|f|^r, |g|^s) per interval, normalized by the full |3I|."""
    meas3 = 3.0 * interval_lengths(len(f), h)
    fi = window3_sums(np.abs(f) ** r, h)
    gi = window3_sums(np.abs(g) ** s, h)
    return (fi / meas3) ** (1.0 / r) * (gi / meas3) ** (1.0 / s)


def weighted_bilinear_maximal_1d(f, g, nu, alpha, r, s, q, h) -> np.ndarray:
    lengths = interval_lengths(len(f), h)
    vals = lengths ** alpha * m3q_1d(f, g, r, s, h) * interval_avg(nu, q, h) ** (1.0 / q)
    return sweep_max_1d(vals)


def multi_maximal_1d(f1, f2, alpha, r1, r2, h) -> np.ndarray:
    lengths = interval_lengths(len(f1), h)
    vals = (
        lengths ** alpha
        * interval_avg(f1, r1, h) ** (1.0 / r1)
        * interval_avg(f2, r2, h) ** (1.0 / r2)
    )
    return sweep_max_1d(vals)


def pointwise_ratio(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """max lhs/rhs over cells with rhs > 0; inf if lhs > 0 where rhs vanishes."""
    pos = rhs > 0
    if np.any(~pos & (lhs > 1e-15)):
        return math.inf
    return float(np.max(lhs[pos] / rhs[pos])) if pos.any() else 0.0


def dyadic_blocks(lo0: tuple, w0: int, dim: int) -> list[tuple[tuple, int]]:
    """All dyadic sub-blocks (corner cell, width) of a root block."""
    out = []
    frontier = [(tuple(lo0), w0)]
    while frontier:
        out.extend(frontier)
        nxt = []
        for lo, w in frontier:
            if w == 1:
                continue
            half = w // 2
            offsets = [(0,), (half,)] if dim == 1 else [
                (0, 0), (0, half), (half, 0), (half, half)
            ]
            nxt.extend((tuple(a + o for a, o in zip(lo, off)), half) for off in offsets)
        frontier = nxt
    return out


def block_m3q(f, g, lo, w, r, s, h) -> float:
    """m_{3Q}(|f|^r, |g|^s) for a cell block, integrating over 3Q ∩ box."""
    n = f.shape[0]
    sl = tuple(slice(max(0, a - w), min(n, a + 2 * w)) for a in lo)
    vol = h ** f.ndim
    meas3 = (3.0 * w * h) ** f.ndim
    fi = float(np.sum(np.abs(f[sl]) ** r)) * vol
    gi = float(np.sum(np.abs(g[sl]) ** s)) * vol
    return (fi / meas3) ** (1.0 / r) * (gi / meas3) ** (1.0 / s)


def local_part_ratio_1d(f, g, alpha, h, root_lo, root_w) -> float:
    """Local kernel sum over sparse cube sum on the root's cells (r = s = 2)."""
    n = len(f)
    masses = kernel_masses_1d(n, h, alpha)
    d = np.arange(-(n - 1), n)
    local = bilinear_1d(f, g, np.where(np.abs(d) * h <= root_w * h + 1e-12, masses, 0.0))
    sparse = np.zeros(n)
    for (lo,), w in dyadic_blocks((root_lo,), root_w, 1):
        sparse[lo : lo + w] += (w * h) ** alpha * block_m3q(f, g, (lo,), w, 2.0, 2.0, h)
    sl = slice(root_lo, root_lo + root_w)
    return pointwise_ratio(local[sl], sparse[sl])


# ---------------------------------------------------------------------------
# Stopping-time selection (1D or 2D)
# ---------------------------------------------------------------------------


def stopping_time(f, g, r, s, h, root_lo, root_w, a) -> dict:
    """Selected blocks per level plus difference-set sizes, from the definition."""
    dim = f.ndim
    blocks = dyadic_blocks(root_lo, root_w, dim)
    m = {b: block_m3q(f, g, b[0], b[1], r, s, h) for b in blocks}
    max_m = max(m.values())
    k_cap = 0
    while a ** (k_cap + 1) < max_m:
        k_cap += 1
    if max_m > a:
        k_cap = max(k_cap, 1)
    levels = {}
    near_tie = False
    for k in range(1, k_cap + 1):
        thr = a ** k
        chosen = []
        frontier = [blocks[0]]
        while frontier:
            nxt = []
            for lo, w in frontier:
                val = m[(lo, w)]
                near_tie |= abs(val - thr) <= 1e-9 * thr
                if val > thr:
                    chosen.append((lo, w))
                elif w > 1:
                    half = w // 2
                    offsets = [(0,), (half,)] if dim == 1 else [
                        (0, 0), (0, half), (half, 0), (half, half)
                    ]
                    nxt.extend(
                        (tuple(x + o for x, o in zip(lo, off)), half) for off in offsets
                    )
            frontier = nxt
        if chosen:
            levels[k] = sorted(chosen)

    def cells(lo, w):
        ranges = [range(x, x + w) for x in lo]
        if dim == 1:
            return {(i,) for i in ranges[0]}
        return {(i, j) for i in ranges[0] for j in ranges[1]}

    union = {k: set().union(*(cells(*b) for b in bs)) for k, bs in levels.items()}
    e_counts = {
        k: [len(cells(*b) - union.get(k + 1, set())) for b in bs] for k, bs in levels.items()
    }
    e0 = len(cells(*blocks[0]) - union.get(1, set()))
    return {
        "levels": levels,
        "m": {b: m[b] for bs in levels.values() for b in bs},
        "e_counts": e_counts,
        "e0": e0,
        "near_tie": near_tie,
    }


# ---------------------------------------------------------------------------
# 2D cube families: per-cube overlap vectors over the cell lattice
# ---------------------------------------------------------------------------


class CubeCover2D:
    """For each cube: cells it overlaps (with overlap lengths) and cells it covers.

    "Covers" means the cell midpoint lies in the half-open cube, which is
    where a maximal function over the family takes the cube's value.
    """

    def __init__(self, half_width: float, n: int, cubes):
        h = 2.0 * half_width / n
        edges = -half_width + h * np.arange(n + 1)
        mids = -half_width + h * (np.arange(n) + 0.5)
        self.n = n
        self.h = h
        self.measure = np.array([c.side ** 2 for c in cubes])
        self.touch = []
        self.weights = []
        self.cover = []
        for c in cubes:
            t_axes, w_axes, c_axes = [], [], []
            for lo in c.corner:
                hi = lo + c.side
                ov = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
                idx = np.nonzero(ov > 1e-12 * h)[0]
                t_axes.append(slice(int(idx[0]), int(idx[-1]) + 1))
                w_axes.append(ov[idx[0] : idx[-1] + 1])
                inside = np.nonzero((mids >= lo) & (mids < hi))[0]
                c_axes.append(
                    slice(int(inside[0]), int(inside[-1]) + 1) if len(inside) else slice(0, 0)
                )
            self.touch.append(tuple(t_axes))
            self.weights.append(tuple(w_axes))
            self.cover.append(tuple(c_axes))

    def integrals(self, x: np.ndarray) -> np.ndarray:
        """int_Q x for every cube (x a per-cell array, step function)."""
        return np.array(
            [wx @ x[t] @ wy for t, (wx, wy) in zip(self.touch, self.weights)]
        )

    def averages(self, x: np.ndarray) -> np.ndarray:
        return self.integrals(x) / self.measure

    def minima(self, x: np.ndarray) -> np.ndarray:
        return np.array([float(x[t].min()) for t in self.touch])

    def sweep_max(self, vals: np.ndarray) -> np.ndarray:
        out = np.full((self.n, self.n), -np.inf)
        for v, cov in zip(vals, self.cover):
            view = out[cov]
            np.maximum(view, v, out=view)
        out[~np.isfinite(out)] = 0.0
        return out


def maximal_2d(cover: CubeCover2D, f: np.ndarray) -> np.ndarray:
    return cover.sweep_max(cover.averages(np.abs(f)))


def morrey_2d(cover: CubeCover2D, f: np.ndarray, p0: float, q: float) -> float:
    avg = cover.averages(np.abs(f) ** q)
    return float(np.max(cover.measure ** (1.0 / p0) * avg ** (1.0 / q)))


def ap_2d(cover: CubeCover2D, w: np.ndarray, p: float) -> float:
    avg = cover.averages(w)
    if p == 1.0:
        return float(np.max(avg / cover.minima(w)))
    c = _conj(p)
    return float(np.max(avg * cover.averages(w ** (1.0 - c)) ** (p - 1.0)))


def bilinear_2d_at(f, g, table, cell) -> float:
    """Exact (fsum) bilinear kernel sum at one cell, read from the kernel table."""
    n = f.shape[0]
    axes = []
    for x in cell:
        d = np.arange(max(x - (n - 1), -x), min(x, n - 1 - x) + 1)
        axes.append(d)
    d0, d1 = axes
    i, j = cell
    terms = (
        f[np.ix_(i - d0, j - d1)]
        * g[np.ix_(i + d0, j + d1)]
        * table[np.ix_(d0 + n - 1, d1 + n - 1)]
    )
    return math.fsum(terms.reshape(-1))


def kernel_total_2d(n: int, h: float, alpha: float) -> float:
    """int of |y|^(alpha-2) over [-(n-1/2)h, (n-1/2)h]^2, by polar symmetry.

    Eight triangles theta in [0, pi/4], radius up to R sec(theta), give
    (8 R^alpha / alpha) int_0^{pi/4} sec^alpha; the angular integral is
    smooth, so composite Simpson on 4000 panels is exact to ~1e-15.
    """
    big_r = (n - 0.5) * h
    theta = np.linspace(0.0, 0.25 * math.pi, 4001)
    y = np.cos(theta) ** (-alpha)
    step = theta[1] - theta[0]
    simpson = step / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
    return 8.0 * big_r ** alpha / alpha * simpson


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """Equal within `rel` relative error; infinities must match exactly."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
