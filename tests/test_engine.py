"""The cube-window engine against per-slice and per-cube oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bifrac import GridFunction, GridSpec
from bifrac.families import default_family
from bifrac.lattice import CellBoxes, box_power_integral, overlap_integrals

DETERMINISTIC = settings(derandomize=True, deadline=None)


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


@DETERMINISTIC
@given(grid_and_boxes())
def test_sums_equal_slice_sums(case):
    arr, lo, hi = case
    got = CellBoxes(arr.shape, lo, hi).sums(arr)
    want = np.array([np.sum(arr[_slices(a, b)]) for a, b in zip(lo, hi)])
    assert np.array_equal(got, want)


@DETERMINISTIC
@given(grid_and_boxes())
def test_minima_equal_slice_minima(case):
    arr, lo, hi = case
    got = CellBoxes(arr.shape, lo, hi).minima(arr)
    for k, (a, b) in enumerate(zip(lo, hi)):
        window = arr[_slices(a, b)]
        assert got[k] == (window.min() if window.size else np.inf)


@DETERMINISTIC
@given(grid_and_boxes(), st.data())
def test_sweep_equals_cell_by_box_loop(case, data):
    arr, lo, hi = case
    values = np.array(
        [data.draw(st.sampled_from((-2.0, 0.0, 0.5, 3.0, np.inf))) for _ in range(len(lo))]
    )
    got = CellBoxes(arr.shape, lo, hi).sweep(values)
    want = np.full(arr.shape, -np.inf)
    for cell in np.ndindex(arr.shape):
        for k in range(len(lo)):
            if all(lo[k, ax] <= cell[ax] < hi[k, ax] for ax in range(arr.ndim)):
                want[cell] = max(want[cell], values[k])
    assert np.array_equal(got, want)


@DETERMINISTIC
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
