import numpy as np
import pytest
from conftest import locate_shifted_dyadic_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac import (
    Cube,
    DyadicGrid,
    LevelTooCoarse,
    NotInGrid,
    dilate,
    dyadic_children,
    dyadic_parent,
    grid_cubes,
    locate_shifted_cubes,
    locate_shifted_dyadic,
)
from bifrac.harness import SplitMix64

THIRD = 1.0 / 3.0


class TestCube:
    def test_measure_and_center(self):
        q = Cube((0.0, 0.0), 3.0)
        assert q.measure == 9.0
        assert q.center == (1.5, 1.5)

    def test_rejects_flat(self):
        with pytest.raises(ValueError):
            Cube((0.0,), 0.0)

    def test_half_open_membership(self):
        q = Cube((0.0,), 1.0)
        assert q.contains_point((0.0,))
        assert not q.contains_point((1.0,))


class TestDilate:
    def test_interval(self):
        assert dilate(Cube((0.0,), 1.0), 3.0) == Cube((-1.0,), 3.0)

    def test_square_measure(self):
        q = dilate(Cube((0.0, 0.0), 1.0), 3.0)
        assert q == Cube((-1.0, -1.0), 3.0)
        assert q.measure == pytest.approx(9.0)

    def test_identity(self):
        q = Cube((0.25,), 0.5)
        assert dilate(q, 1.0) == q

    def test_containment(self):
        q = Cube((0.125,), 0.25)
        assert dilate(q, 3.0).contains_cube(q)


class TestGridCubes:
    def test_standard_level0(self):
        got = grid_cubes(DyadicGrid((0.0,)), 0, Cube((0.0,), 1.0))
        assert got == [Cube((0.0,), 1.0)]

    def test_standard_level1(self):
        got = grid_cubes(DyadicGrid((0.0,)), 1, Cube((0.0,), 1.0))
        assert got == [Cube((0.0,), 0.5), Cube((0.5,), 0.5)]

    def test_shifted_level0(self):
        got = grid_cubes(DyadicGrid((THIRD,)), 0, Cube((0.0,), 1.0))
        corners = [q.corner[0] for q in got]
        assert corners == pytest.approx([-2.0 / 3.0, 1.0 / 3.0])

    def test_partition_of_box(self):
        box = Cube((-1.0, -1.0), 2.0)
        for shift in ((0.0, 0.0), (THIRD, 0.0), (THIRD, THIRD)):
            for level in (0, 1, 2):
                cubes = grid_cubes(DyadicGrid(shift), level, box)
                # cover: total intersected area equals the box area
                area = 0.0
                for q in cubes:
                    w = 1.0
                    for ax in range(2):
                        lo = max(q.corner[ax], box.corner[ax])
                        hi = min(q.corner[ax] + q.side, box.corner[ax] + box.side)
                        w *= max(hi - lo, 0.0)
                    area += w
                assert area == pytest.approx(box.measure, rel=1e-12)
                # pairwise disjoint
                for i in range(len(cubes)):
                    for j in range(i + 1, len(cubes)):
                        assert not cubes[i].intersects(cubes[j])

    def test_too_coarse(self):
        with pytest.raises(LevelTooCoarse):
            grid_cubes(DyadicGrid((0.0,)), -3, Cube((0.0,), 1.0))

    def test_nesting_inclusion_or_disjoint(self):
        grid = DyadicGrid((THIRD,))
        box = Cube((0.0,), 1.0)
        big = grid_cubes(grid, 1, box)
        small = grid_cubes(grid, 3, box)
        for q in small:
            for p in big:
                if q.intersects(p):
                    inter_lo = max(q.corner[0], p.corner[0])
                    inter_hi = min(q.corner[0] + q.side, p.corner[0] + p.side)
                    assert inter_hi - inter_lo == pytest.approx(q.side, rel=1e-9)


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
                idx = grid.locate_index(level, q.corner)
                cand = grid.cube(level, idx)
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


class TestChildrenParent:
    def test_standard_children(self):
        kids = dyadic_children(Cube((0.0,), 1.0), DyadicGrid((0.0,)))
        assert kids == [Cube((0.0,), 0.5), Cube((0.5,), 0.5)]

    def test_standard_parent(self):
        assert dyadic_parent(Cube((0.0,), 0.5), DyadicGrid((0.0,))) == Cube((0.0,), 1.0)

    def test_not_in_grid(self):
        with pytest.raises(NotInGrid):
            dyadic_children(Cube((0.1,), 1.0), DyadicGrid((0.0,)))
        with pytest.raises(NotInGrid):
            dyadic_children(Cube((0.0,), 0.7), DyadicGrid((0.0,)))

    @pytest.mark.parametrize("shift", [(0.0,), (THIRD,)])
    def test_children_tile_parent(self, shift):
        grid = DyadicGrid(shift)
        for level in (-1, 0, 1, 2):
            parent = grid.cube(level, (3,))
            kids = dyadic_children(parent, grid)
            assert len(kids) == 2
            total = sum(k.side for k in kids)
            assert total == pytest.approx(parent.side, rel=1e-12)
            for k in kids:
                assert parent.contains_cube(k, tol=1e-12 * parent.side)
                assert dyadic_parent(k, grid) == parent

    def test_shifted_parent_membership(self):
        # level-1 cubes of the shifted grid sit inside level-0 cubes
        grid = DyadicGrid((THIRD,))
        for q in grid_cubes(grid, 1, Cube((0.0,), 1.0)):
            parent = dyadic_parent(q, grid)
            _, idx = grid.member_index(parent)
            assert grid.cube(0, idx) == parent
            assert parent.contains_cube(q, tol=1e-12)

    def test_children_2d(self):
        grid = DyadicGrid((THIRD, 0.0))
        parent = grid.cube(0, (1, 2))
        kids = dyadic_children(parent, grid)
        assert len(kids) == 4
        assert sum(k.measure for k in kids) == pytest.approx(parent.measure, rel=1e-12)


def test_cube_serialize_roundtrip():
    q = Cube((0.5, -1.25), 0.75)
    parts = q.serialize().split()
    assert [float(p) for p in parts] == [0.5, -1.25, 0.75]
