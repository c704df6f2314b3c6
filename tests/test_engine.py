"""The cube-window engine against per-slice and per-cube oracles."""

import numpy as np
import pytest
from conftest import enumerate_nested_pairs
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bifrac import Cube, GridFunction, GridSpec, all_intervals
from bifrac.families import default_family, family_from_cubes, nested_pairs
from bifrac.lattice import CellBoxes, box_power_integral, overlap_integrals
from bifrac.operators import _averages, _m3q, maximal, weighted_bilinear_maximal


@st.composite
def grid_and_boxes(draw):
    """A random array and random boxes, some leaving the grid before clipping."""
    dim = draw(st.sampled_from((1, 2)))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(dim))
    arr = draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6, allow_nan=False)))
    k = draw(st.integers(1, 10))
    lo = np.array(
        [[draw(st.integers(-3, n + 1)) for n in shape] for _ in range(k)], dtype=np.int64
    )
    ext = np.array(
        [[draw(st.integers(0, n + 3)) for n in shape] for _ in range(k)], dtype=np.int64
    )
    # repeat the first box so that boxes sharing a corner are exercised
    lo = np.concatenate([lo, lo[:1]])
    hi = lo + np.concatenate([ext, ext[:1]])
    bound = np.array(shape)
    return arr, np.clip(lo, 0, bound), np.clip(hi, 0, bound)


def _slices(lo, hi):
    return tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))


@given(grid_and_boxes())
def test_sums_equal_slice_sums(case):
    arr, lo, hi = case
    got = CellBoxes(arr.shape, lo, hi).sums(arr)
    want = np.array([np.sum(arr[_slices(a, b)]) for a, b in zip(lo, hi)])
    assert np.array_equal(got, want)


@given(grid_and_boxes())
def test_minima_equal_slice_minima(case):
    arr, lo, hi = case
    got = CellBoxes(arr.shape, lo, hi).minima(arr)
    for k, (a, b) in enumerate(zip(lo, hi)):
        window = arr[_slices(a, b)]
        assert got[k] == (window.min() if window.size else np.inf)


def _pairwise_sum(row: list[float], block: int, lanes: int) -> float:
    """A model of numpy's pairwise_sum over a contiguous row, in Python floats."""
    n = len(row)
    if n < lanes:
        res = 0.0
        for x in row:
            res += x
        return res
    if n > block:
        n2 = n // 2 // lanes * lanes
        return _pairwise_sum(row[:n2], block, lanes) + _pairwise_sum(row[n2:], block, lanes)
    acc = row[:lanes]
    for i in range(lanes, n - n % lanes, lanes):
        acc = [a + x for a, x in zip(acc, row[i : i + lanes])]
    while len(acc) > 1:
        acc = [acc[j] + acc[j + 1] for j in range(0, len(acc), 2)]
    res = acc[0]
    for x in row[n - n % lanes :]:
        res += x
    return res


def test_numpy_pairwise_summation_order():
    # The 1D window-sum table of CellBoxes rebuilds np.sum's summation tree; this
    # vector tells that tree apart from a 64-value block or 4 accumulators.
    row = np.random.default_rng(6).standard_normal(200) * 10.0 ** (np.arange(200) % 17 - 8)
    cells = row.tolist()
    assumed = 0.0 + _pairwise_sum(cells, 128, 8)
    assert assumed != 0.0 + _pairwise_sum(cells, 64, 8)
    assert assumed != 0.0 + _pairwise_sum(cells, 128, 4)
    assert np.sum(row) == assumed, (
        "np.sum no longer adds a contiguous float64 row as numpy's pairwise_sum "
        "(blocks of up to 128 values in 8 accumulators, split in halves rounded to "
        "multiples of 8); the 1D window-sum table in lattice.CellBoxes assumes that order"
    )


def _every_window(n):
    lo, hi = np.triu_indices(n + 1)
    return lo[:, None], hi[:, None]


def _mixed_row(n, seed):
    """Normal values over 17 decades, with scattered -0.0 and a run of them."""
    rng = np.random.default_rng(seed)
    row = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    row[rng.random(n) < 0.1] = -0.0
    row[20:40] = -0.0
    return row


def test_1d_sums_of_every_window_equal_slice_sums_bitwise():
    # N = 300 crosses numpy's 128-value block and two split levels (129..248, 249..300)
    row = _mixed_row(300, 0)
    lo, hi = _every_window(300)
    got = CellBoxes(row.shape, lo, hi).sums(row)
    want = np.array([np.sum(row[a:b]) for a, b in zip(lo[:, 0], hi[:, 0])])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_1d_minima_of_every_window_equal_slice_minima():
    row = _mixed_row(300, 1)
    rng = np.random.default_rng(300)
    for value in (np.nan, np.inf, -np.inf):
        row[rng.choice(300, 6, replace=False)] = value
    lo, hi = _every_window(300)
    got = CellBoxes(row.shape, lo, hi).minima(row)
    want = np.array([row[a:b].min() if b > a else np.inf for a, b in zip(lo[:, 0], hi[:, 0])])
    assert np.array_equal(got, want, equal_nan=True)


def test_1d_sums_at_n1024_spot_check():
    # four split levels; the whole row is one of the windows
    row = _mixed_row(1024, 2)
    ends = np.sort(np.random.default_rng(1024).integers(0, 1025, (3000, 2)), axis=1)
    lo, hi = np.vstack([ends[:, :1], [[0]]]), np.vstack([ends[:, 1:], [[1024]]])
    got = CellBoxes(row.shape, lo, hi).sums(row)
    want = np.array([np.sum(row[a:b]) for a, b in zip(lo[:, 0], hi[:, 0])])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _sweep_by_loop(shape, lo, hi, values):
    """Per cell, np.maximum over the boxes holding it, box by box."""
    want = np.full(shape, -np.inf)
    for cell in np.ndindex(shape):
        for k in range(len(lo)):
            if all(lo[k, ax] <= cell[ax] < hi[k, ax] for ax in range(len(shape))):
                want[cell] = np.maximum(want[cell], values[k])
    return want


@given(grid_and_boxes(), st.data())
def test_sweep_equals_cell_by_box_loop(case, data):
    arr, lo, hi = case
    # empty boxes too: a zero extent, or clipped away entirely
    k = data.draw(st.integers(0, len(lo) - 1))
    lo, hi = np.concatenate([lo, lo[k : k + 1]]), np.concatenate([hi, lo[k : k + 1]])
    choices = (-2.0, 0.0, 0.5, 3.0, np.inf, -np.inf, np.nan)
    values = np.array([data.draw(st.sampled_from(choices)) for _ in range(len(lo))])
    with np.errstate(invalid="ignore"):
        got = CellBoxes(arr.shape, lo, hi).sweep(values)
    assert np.array_equal(got, _sweep_by_loop(arr.shape, lo, hi, values), equal_nan=True)


def test_sweep_of_clipped_non_square_cover_boxes_2d():
    # shifted cubes sticking out of the box: their clipped cover boxes are not square
    spec = GridSpec(2, 1.0, 8)
    cubes = [
        Cube((-1.3, -0.2), 0.9),
        Cube((0.55, -1.1), 1.0),
        Cube((0.8, 0.8), 0.7),
        Cube((-0.6, 0.3), 1.2),
        Cube((-1.1, 0.65), 0.5),
        Cube((0.0, -0.5), 0.5),
    ]
    fam = family_from_cubes(spec, cubes)
    ext = fam.cover.ext
    assert np.any((ext.min(axis=1) > 0) & (ext[:, 0] != ext[:, 1]))
    values = np.array([1.0, 4.0, 2.5, 3.0, np.nan, 0.5])
    with np.errstate(invalid="ignore"):
        got = fam.cover.sweep(values)
    want = _sweep_by_loop(spec.shape, fam.cover.lo, fam.cover.lo + ext, values)
    assert np.array_equal(got, want, equal_nan=True)
    # and the cover boxes hold exactly the cells whose midpoints each cube contains
    mids = spec.midpoints()
    for k, Q in enumerate(cubes):
        only = np.where(np.arange(len(cubes)) == k, 1.0, -np.inf)
        covered = [[Q.contains_point((x, y)) for y in mids] for x in mids]
        assert np.array_equal(fam.cover.sweep(only) == 1.0, covered)


@settings(max_examples=60)
@given(st.sampled_from((1, 2)), st.sampled_from((1, 2, 4, 8, 16)), st.booleans(), st.data())
def test_inner_max_equals_max_over_listed_pairs(dim, n, subset, data):
    spec = GridSpec(dim, 1.0, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    family = default_family(spec)
    if subset:
        keep = rng.integers(0, family.size, rng.integers(0, family.size + 1))
        family = family_from_cubes(spec, [family.cube(int(k)) for k in keep])
    vals = rng.uniform(0.0, 1.0, family.size)
    vals[rng.random(family.size) < 0.1] = np.inf
    vals[rng.random(family.size) < 0.1] = -np.inf
    inner, outer = enumerate_nested_pairs(family)
    want = np.full(family.size, -np.inf)
    np.maximum.at(want, outer, vals[inner])
    assert np.array_equal(nested_pairs(family).inner_max(vals), want)


def _max_over_containing_intervals(family, values, cells, nonfinite_to_zero=True):
    """Per cell, the max of values over the intervals holding it (-inf if none);
    0 if non-finite, unless nonfinite_to_zero is False."""
    lo, hi = family.lo[:, 0], family.hi[:, 0]
    holds = (lo[None, :] <= cells[:, None]) & (cells[:, None] < hi[None, :])
    out = np.max(np.where(holds, values[None, :], -np.inf), axis=1)
    return np.where(np.isfinite(out), out, 0.0) if nonfinite_to_zero else out


def _values_with_nonfinite(size, seed):
    """Uniform values with a few +inf, many -inf and two NaN."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size)
    picks = rng.choice(size, 4 + size // 4 + 2, replace=False)
    values[picks[:4]] = np.inf
    values[picks[4:-2]] = -np.inf
    values[picks[-2:]] = np.nan
    return values


def test_1d_sweep_of_every_interval_at_n64_equals_max_over_containing_intervals():
    fam = all_intervals(GridSpec(1, 4.0, 64))
    cells = np.arange(64)
    for seed in range(4):
        values = _values_with_nonfinite(fam.size, seed)
        want = _max_over_containing_intervals(fam, values, cells, nonfinite_to_zero=False)
        with np.errstate(invalid="ignore"):
            got = fam.cover.sweep(values)
        assert np.array_equal(got, want, equal_nan=True)
        assert not np.all(np.isnan(want)) and np.any(np.isinf(want))


def test_1d_inner_max_of_every_interval_at_n64_equals_max_over_listed_pairs():
    fam = all_intervals(GridSpec(1, 4.0, 64))
    inner, outer = enumerate_nested_pairs(fam)
    for seed in range(4):
        values = _values_with_nonfinite(fam.size, seed)
        values[np.isnan(values)] = np.inf
        want = np.full(fam.size, -np.inf)
        np.maximum.at(want, outer, values[inner])
        assert np.array_equal(nested_pairs(fam).inner_max(values), want)


def test_maximal_sweeps_at_n512_match_max_over_containing_intervals():
    spec = GridSpec(1, 4.0, 512)
    fam = all_intervals(spec)
    rng = np.random.default_rng(512)
    f, g = (GridFunction(spec, rng.uniform(-2.0, 2.0, 512)) for _ in range(2))
    w1, w2 = (GridFunction(spec, rng.uniform(0.2, 3.0, 512)) for _ in range(2))
    cells = np.sort(rng.choice(512, 16, replace=False))
    cells[:2] = (0, 511)
    want = _max_over_containing_intervals(fam, _averages(f, fam, 1.0), cells)
    assert np.array_equal(maximal(f, fam).samples[cells], want)
    alpha, r, s, q = 0.5, 2.0, 2.0, 3.0
    nu = GridFunction(spec, w1.samples * w2.samples)
    m3q = _m3q(f, g, r, s, fam.windows3, fam.side_powers(1, 3.0))
    values = fam.side_powers(alpha) * m3q * _averages(nu, fam, q)
    want = _max_over_containing_intervals(fam, values, cells)
    got = weighted_bilinear_maximal(f, g, w1, w2, alpha, r, s, q, fam).samples[cells]
    assert np.array_equal(got, want)


@given(
    st.sampled_from((1, 2)),
    st.sampled_from((4, 8, 16)),
    st.lists(st.tuples(st.floats(-2.5, 2.0), st.floats(-2.5, 2.0), st.floats(0.05, 4.0)), min_size=1, max_size=8),
    st.floats(0.5, 3.0),
)
def test_shifted_integrals_match_box_power_integral(dim, n, cubes, p):
    spec = GridSpec(dim, 2.0, n)
    f = GridFunction(spec, np.random.default_rng(n).uniform(-2.0, 2.0, spec.shape))
    corners = np.array([c[:dim] for c in cubes])
    sides = np.array([c[2] for c in cubes])
    got = overlap_integrals(spec, np.abs(f.samples) ** p, corners, sides)
    for k in range(len(cubes)):
        want = box_power_integral(f, tuple(corners[k]), sides[k], p)
        assert got[k] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_family_cover_and_touch_boxes_2d():
    # cover: the cells whose midpoints a cube contains; touch: the cells it overlaps
    spec = GridSpec(2, 2.0, 8)
    fam = default_family(spec)
    assert len(fam.shifted) > 0
    mids = spec.midpoints()
    edges = -spec.half_width + spec.h * np.arange(spec.cells_per_axis + 1)
    for k, Q in enumerate(fam.cubes):
        only = np.where(np.arange(fam.size) == k, 1.0, -np.inf)
        covered = [[Q.contains_point((x, y)) for y in mids] for x in mids]
        a, b = (
            (edges[1:] > c + 1e-9 * spec.h) & (edges[:-1] < c + Q.side - 1e-9 * spec.h)
            for c in Q.corner
        )
        assert np.array_equal(fam.cover.sweep(only) == 1.0, covered)
        assert np.array_equal(fam.touch.sweep(only) == 1.0, np.outer(a, b))
