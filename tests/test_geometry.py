import math
from itertools import product

import numpy as np
import pytest
from conftest import grid_cube, grid_index, locate_shifted_dyadic_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac import (
    Cube,
    DyadicGrid,
    NotInGrid,
    locate_shifted_cubes,
    locate_shifted_dyadic,
)
from bifrac.harness import SplitMix64

THIRD = 1.0 / 3.0


class TestCube:
    def test_measure(self):
        q = Cube((0.0, 0.0), 3.0)
        assert q.measure == 9.0

    def test_rejects_flat(self):
        with pytest.raises(ValueError):
            Cube((0.0,), 0.0)

    @pytest.mark.parametrize("side", [-1.0, math.inf, math.nan])
    def test_rejects_a_side_that_is_not_positive_and_finite(self, side):
        with pytest.raises(ValueError, match="positive and finite"):
            Cube((0.0,), side)


def _overlap(p, q):
    """Measure of p ∩ q; edges within 1e-12 of the smaller side count as shared."""
    out = 1.0
    for a, b in zip(p.corner, q.corner):
        width = min(a + p.side, b + q.side) - max(a, b)
        out *= width if width > 1e-12 * min(p.side, q.side) else 0.0
    return out


def level_cubes(grid, level, box):
    """The level-`level` cubes of grid that meet box, from conftest.grid_cube over an index range."""
    side = 2.0 ** (-level)
    ranges = [
        range(math.floor(c / side - s) - 1, math.ceil((c + box.side) / side - s) + 2)
        for c, s in zip(box.corner, grid.level_shift(level))
    ]
    cubes = (grid_cube(grid, level, idx) for idx in product(*ranges))
    return [q for q in cubes if _overlap(q, box) > 0.0]


def children(grid, Q):
    """The next-level cubes of grid at the centers of Q's 2^n quadrants."""
    level, _ = grid.member_index(Q)
    points = (tuple(c + o * Q.side for c, o in zip(Q.corner, offs)) for offs in product((0.25, 0.75), repeat=Q.dim))
    return [grid_cube(grid, level + 1, grid_index(grid, level + 1, x)) for x in points]


def parent(grid, Q):
    """The previous-level cube of grid at Q's center."""
    level, _ = grid.member_index(Q)
    center = tuple(c + 0.5 * Q.side for c in Q.corner)
    return grid_cube(grid, level - 1, grid_index(grid, level - 1, center))


class TestGridCubes:
    def test_standard_level0(self):
        assert level_cubes(DyadicGrid((0.0,)), 0, Cube((0.0,), 1.0)) == [Cube((0.0,), 1.0)]

    def test_standard_level1(self):
        got = level_cubes(DyadicGrid((0.0,)), 1, Cube((0.0,), 1.0))
        assert got == [Cube((0.0,), 0.5), Cube((0.5,), 0.5)]

    def test_shifted_level0(self):
        got = level_cubes(DyadicGrid((THIRD,)), 0, Cube((0.0,), 1.0))
        corners = [q.corner[0] for q in got]
        assert corners == pytest.approx([-2.0 / 3.0, 1.0 / 3.0])

    def test_partition_of_box(self):
        box = Cube((-1.0, -1.0), 2.0)
        for shift in ((0.0, 0.0), (THIRD, 0.0), (THIRD, THIRD)):
            for level in (0, 1, 2):
                cubes = level_cubes(DyadicGrid(shift), level, box)
                # cover: total intersected area equals the box area
                area = sum(_overlap(q, box) for q in cubes)
                assert area == pytest.approx(box.measure, rel=1e-12)
                # pairwise disjoint
                for i in range(len(cubes)):
                    for j in range(i + 1, len(cubes)):
                        assert _overlap(cubes[i], cubes[j]) == 0.0

    def test_nesting_inclusion_or_disjoint(self):
        grid = DyadicGrid((THIRD,))
        box = Cube((0.0,), 1.0)
        big = level_cubes(grid, 1, box)
        small = level_cubes(grid, 3, box)
        for q in small:
            for p in big:
                inter = _overlap(q, p)
                assert inter == 0.0 or inter == pytest.approx(q.side, rel=1e-9)


class TestLocateShiftedDyadic:
    def test_already_dyadic(self):
        t, qt = locate_shifted_dyadic(Cube((0.0,), 1.0))
        assert t == (0.0,)
        assert qt == Cube((0.0,), 1.0)

    def test_aligned_quarter(self):
        t, qt = locate_shifted_dyadic(Cube((0.25,), 0.25))
        assert t == (0.0,)
        assert qt == Cube((0.25,), 0.25)

    def test_straddling_interval(self):
        q = Cube((-0.1,), 1.0)
        t, qt = locate_shifted_dyadic(q)
        assert qt.contains_cube(q, tol=1e-12)
        assert qt.side <= 6.0 * q.side + 1e-12
        # brute force: no smaller witness exists over both grids
        best = qt.side
        for level in range(-4, 6):
            side = 2.0 ** (-level)
            if side < q.side or side > 6 * q.side:
                continue
            for shift in ((0.0,), (THIRD,)):
                grid = DyadicGrid(shift)
                cand = grid_cube(grid, level, grid_index(grid, level, q.corner))
                if cand.contains_cube(q, tol=1e-12):
                    assert cand.side >= best - 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_random_cubes_one_third_trick(self, dim):
        rng = SplitMix64(99)
        for _ in range(300 if dim == 1 else 60):
            side = rng.uniform(0.01, 1.5)
            corner = tuple(rng.uniform(-2.0, 2.0) for _ in range(dim))
            q = Cube(corner, side)
            _, qt = locate_shifted_dyadic(q)
            assert qt.contains_cube(q, tol=1e-9 * max(1.0, side))
            assert qt.side <= 6.0 * side * (1 + 1e-9)


@st.composite
def _cube_batch(draw):
    """A dimension and a list of cubes: random ones, and dyadic-exact ones
    (corners j 2^-k or (j ± 1/3) 2^-k, sides 2^-k or 2^-k / 3) where the
    levels and the shifts tie."""
    dim = draw(st.sampled_from((1, 2)))
    random_cube = st.builds(
        lambda side, corner: Cube(tuple(c * (8.0 - side) - 4.0 for c in corner), side),
        st.floats(0.01, 3.0),
        st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim),
    )
    exact_cube = st.builds(
        lambda k, js, offs, third: Cube(
            tuple((j + o) * 2.0**-k for j, o in zip(js, offs)), 2.0**-k / (3.0 if third else 1.0)
        ),
        st.integers(-2, 6),
        st.lists(st.integers(-40, 40), min_size=dim, max_size=dim),
        st.lists(st.sampled_from((0.0, THIRD, -THIRD)), min_size=dim, max_size=dim),
        st.booleans(),
    )
    return dim, draw(st.lists(st.one_of(random_cube, exact_cube), min_size=1, max_size=40))


@settings(max_examples=150)
@given(_cube_batch())
def test_batched_locator_equals_the_per_cube_search(batch):
    dim, cubes = batch
    shifts, corners, sides = locate_shifted_cubes(
        np.array([Q.corner for Q in cubes]).reshape(-1, dim), [Q.side for Q in cubes]
    )
    for i, Q in enumerate(cubes):
        want_shift, want = locate_shifted_dyadic_oracle(Q)
        got = (tuple(shifts[i].tolist()), tuple(corners[i].tolist()), float(sides[i]))
        assert repr(got) == repr((want_shift, want.corner, want.side)), Q
        assert repr(locate_shifted_dyadic(Q)) == repr((want_shift, want)), Q


def test_cube_serialize_roundtrip():
    q = Cube((0.5, -1.25), 0.75)
    parts = q.serialize().split()
    assert [float(p) for p in parts] == [0.5, -1.25, 0.75]


class TestChildrenParent:
    def test_standard_children(self):
        kids = children(DyadicGrid((0.0,)), Cube((0.0,), 1.0))
        assert kids == [Cube((0.0,), 0.5), Cube((0.5,), 0.5)]

    def test_standard_parent(self):
        assert parent(DyadicGrid((0.0,)), Cube((0.0,), 0.5)) == Cube((0.0,), 1.0)

    def test_not_in_grid(self):
        grid = DyadicGrid((0.0,))
        for Q in (Cube((0.1,), 1.0), Cube((0.0,), 0.7), Cube((0.0, 0.0), 1.0)):
            with pytest.raises(NotInGrid):
                grid.member_index(Q)
            assert Q not in grid
        assert Cube((0.5,), 0.5) in grid

    @pytest.mark.parametrize("shift", [(0.0,), (THIRD,)])
    def test_children_tile_parent(self, shift):
        # the shift alternates sign with the level, so a cube's two halves are grid cubes
        grid = DyadicGrid(shift)
        for level in (-1, 0, 1, 2):
            up = grid_cube(grid, level, (3,))
            kids = children(grid, up)
            assert [k.corner[0] for k in kids] == pytest.approx([up.corner[0], up.corner[0] + up.side / 2])
            assert sum(k.side for k in kids) == pytest.approx(up.side, rel=1e-12)
            for k in kids:
                assert grid.member_index(k)[0] == level + 1
                assert up.contains_cube(k, tol=1e-12 * up.side)
                assert parent(grid, k) == up

    def test_shifted_parent_membership(self):
        # level-1 cubes of the shifted grid sit inside level-0 cubes
        grid = DyadicGrid((THIRD,))
        for q in level_cubes(grid, 1, Cube((0.0,), 1.0)):
            up = parent(grid, q)
            level, idx = grid.member_index(up)
            assert level == 0 and grid_cube(grid, 0, idx) == up
            assert up.contains_cube(q, tol=1e-12)

    def test_children_2d(self):
        grid = DyadicGrid((THIRD, 0.0))
        up = grid_cube(grid, 0, (1, 2))
        kids = children(grid, up)
        assert len(set(kids)) == 4
        assert sum(k.measure for k in kids) == pytest.approx(up.measure, rel=1e-12)
        assert all(up.contains_cube(k, tol=1e-12) and parent(grid, k) == up for k in kids)


@pytest.mark.parametrize("corner", [math.inf, -math.inf, math.nan, 1e300], ids=["inf", "-inf", "nan", "past-the-cells"])
@pytest.mark.parametrize("shift", [0.0, THIRD])
def test_a_corner_off_the_float_range_of_the_grid_is_not_in_it(corner, shift):
    # inf and 1e300 / 2^-60 overflowed round() (OverflowError), nan made it a ValueError
    grid, Q = DyadicGrid((shift, 0.0)), Cube((corner, 0.0), 2.0 ** -60)
    with pytest.raises(NotInGrid, match="off the level-60 grid"):
        grid.member_index(Q)
    assert Q not in grid
