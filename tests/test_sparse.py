"""Stopping-time decomposition against a full-enumeration oracle."""

from unittest import mock

import numpy as np
import pytest
from conftest import root_m3q_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac import (
    AverageOverflow,
    Cube,
    DegenerateCube,
    DyadicGrid,
    GridFunction,
    GridSpec,
    NonNegativityViolation,
    NotInGrid,
    OutOfBox,
    cz_decompose,
    harness,
    sparse,
    sparse_bound,
)
from bifrac.families import subcube_family
from bifrac.harness import HARNESS_GRID, HARNESS_Q0, HARNESS_SPEC, check_sparse_invariants, corpus


def oracle_blocks(spec, q0):
    """All dyadic subcubes of q0 down to single cells: (corner_idx, width)."""
    h = spec.h
    lo = tuple(int(round((c + spec.half_width) / h)) for c in q0.corner)
    w = int(round(q0.side / h))
    out = []
    queue = [(lo, w)]
    while queue:
        cur, width = queue.pop(0)
        out.append((cur, width))
        if width > 1:
            half = width // 2
            from itertools import product

            for offs in product((0, half), repeat=spec.dim):
                queue.append((tuple(a + o for a, o in zip(cur, offs)), half))
    return out


def oracle_m3q(f, g, corner_idx, width, r, s):
    """Direct evaluation of the tripled-cube bilinear average."""
    spec = f.spec
    n = spec.cells_per_axis
    h = spec.h
    lo = [i - width for i in corner_idx]
    hi = [i + 2 * width for i in corner_idx]
    sl = tuple(slice(max(0, a), min(n, b)) for a, b in zip(lo, hi))
    meas3 = (3.0 * width * h) ** spec.dim
    fi = np.sum(np.abs(f.samples[sl]) ** r) * h ** spec.dim
    gi = np.sum(np.abs(g.samples[sl]) ** s) * h ** spec.dim
    return (fi / meas3) ** (1.0 / r) * (gi / meas3) ** (1.0 / s)


def oracle_selected(f, g, q0, r, s, a, level):
    """Maximal cubes with m > a^level, by exhaustive top-down search."""
    spec = f.spec
    blocks = oracle_blocks(spec, q0)
    mvals = {b: oracle_m3q(f, g, b[0], b[1], r, s) for b in blocks}
    thr = a ** level
    chosen = []

    def contained(inner, outer):
        (li, wi), (lo_, wo) = inner, outer
        return all(o <= i and i + wi <= o + wo for i, o in zip(li, lo_))

    for b in sorted(blocks, key=lambda b: -b[1]):
        if mvals[b] > thr and not any(contained(b, c) for c in chosen):
            chosen.append(b)
    return set(chosen)


def family_selected_list(fam, level, spec):
    """The selected cubes of one level as (corner_idx, width), in family order."""
    h = spec.h
    return [
        (tuple(int(round((c + spec.half_width) / h)) for c in sc.cube.corner), int(round(sc.cube.side / h)))
        for sc in fam.levels.get(level, ())
    ]


def family_selected_set(fam, level, spec):
    return set(family_selected_list(fam, level, spec))


def oracle_cells(spec, block):
    """Flat indices of the cells of a block (corner_idx, width)."""
    lo, width = block
    cells = np.indices((width,) * spec.dim).reshape(spec.dim, -1) + np.array(lo)[:, None]
    return set(np.ravel_multi_index(tuple(cells), spec.shape).tolist())


# 1D and 2D (N <= 16) grids on the box [-2, 2)^n
STOPPING_GRIDS = [(1, 8), (1, 64), (2, 4), (2, 8), (2, 16)]


def spike_data(spec, q0, r, s, seed, guarded):
    """Nonnegative f, g on spec: a background with zeros and one concentration
    site per function (the same cell or a neighbour), then f scaled.

    guarded: as the harness's concentration guard does, so that m_{3Q} <=
    0.9 * 2^(2n+1) on every dyadic subcube of q0 whose triple is more than
    half of q0; the stopping-time measure bounds then hold, but on these
    grids no cube is selected past level 1.  Otherwise: m_{3Q0} = 0.9 a
    (default a), which reaches level 2 on these grids, where those bounds
    can fail.
    """
    rng = np.random.default_rng(seed)
    n = spec.dim
    blocks = oracle_blocks(spec, q0)
    (root_lo, root_w), site = blocks[0], rng.integers(0, blocks[0][1], n)
    arrays = []
    for _ in range(2):
        arr = np.where(rng.random(spec.shape) < 0.3, 0.0, rng.uniform(0.0, 1e-3, spec.shape))
        cell = np.clip(np.array(root_lo) + site + rng.integers(-1, 2, n), 0, spec.cells_per_axis - 1)
        arr[tuple(cell)] = 10.0 ** rng.uniform(0.5, 3.0)
        arrays.append(arr)
    f, g = (GridFunction(spec, arr, nonnegative=True) for arr in arrays)
    target = 0.9 * 2.0 ** (2 * n + 1)
    if not guarded:
        return f * (target / oracle_m3q(f, g, root_lo, root_w, r, s)), g
    safe_side = (q0.measure / (2.0 * 3.0**n)) ** (1.0 / n)
    big = [b for b in blocks if b[1] * spec.h > safe_side * (1 + 1e-9)]
    worst = max([0.0] + [oracle_m3q(f, g, lo, w, r, s) for lo, w in big])
    return (f * (target / worst) if worst > target else f), g


@pytest.mark.parametrize("dim, n", STOPPING_GRIDS)
@settings(max_examples=12)
@given(
    side=st.sampled_from((1.0, 2.0)),
    a_scale=st.sampled_from((1.0, 4.0)),
    rs=st.sampled_from(((2.0, 2.0), (3.0, 1.5))),
    guarded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_levels_and_difference_sets_equal_the_oracle(dim, n, side, a_scale, rs, guarded, seed):
    # roots of two levels, with the default a and a larger one
    spec = GridSpec(dim, 2.0, n)
    q0, grid = Cube((0.0,) * dim, side), DyadicGrid((0.0,) * dim)
    r, s = rs
    f, g = spike_data(spec, q0, r, s, seed, guarded)
    a = 2.0 ** (2 * dim + 1) * a_scale
    fam = cz_decompose(f, g, r, s, q0, grid, a=None if a_scale == 1.0 else a)
    assert fam.base_constant == a
    if guarded:
        assert not check_sparse_invariants(fam)
    chosen = {}
    for level in range(1, max(fam.levels, default=0) + 2):
        chosen[level] = oracle_selected(f, g, q0, r, s, a, level)
        assert family_selected_set(fam, level, spec) == chosen[level]
    assert list(fam.levels) == [k for k, blocks in chosen.items() if blocks]

    def d(level):
        return set().union(*(oracle_cells(spec, b) for b in chosen.get(level, ())))

    root = (tuple(int(round((c + 2.0) / spec.h)) for c in q0.corner), int(round(side / spec.h)))
    assert fam.root_cells.tolist() == sorted(oracle_cells(spec, root))
    assert fam.e0_cells.tolist() == sorted(oracle_cells(spec, root) - d(1))
    assert fam.root_cells.dtype == fam.e0_cells.dtype == np.int64
    for level, scs in fam.levels.items():
        for sc, block in zip(scs, family_selected_list(fam, level, spec)):
            assert sc.cells.tolist() == sorted(oracle_cells(spec, block))
            assert sc.e_cells.tolist() == sorted(oracle_cells(spec, block) - d(level + 1))
            assert sc.cells.dtype == sc.e_cells.dtype == np.int64


@pytest.mark.parametrize(
    "dim, n, spike, top",
    [(1, 256, 40.0, 2), (1, 1024, 40.0, 3), (2, 64, 200.0, 2), (2, 128, 1000.0, 2)],
)
def test_guarded_single_cell_spikes_select_past_level_one_and_keep_the_invariants(dim, n, spike, top):
    """check_sparse_invariants on decompositions where some E_{k,j} has
    D_{k+1} non-empty, which the harness corpora never build.

    Each level asks m_{3Q} to grow by a = 2^(2n+1).  For a point mass m
    grows like side^-n as the cube shrinks, so consecutive levels sit a
    side factor a^(1/n) apart: 8 in 1D, and 5.7 in 2D, which is 8 on
    dyadic sides.  The concentration guard caps m at 0.9 a on the blocks
    of side l0/4 and up, so level 2 needs a side of l0/64 in 1D and l0/32
    in 2D: under one cell of the harness roots, 32 cells a side in 1D and
    16 in 2D.  The roots here are 128 and 512 cells a side in 1D, 32 and 64
    in 2D.
    """
    spec = GridSpec(dim, 4.0 if dim == 1 else 2.0, n)
    q0, grid = Cube((0.0,) * dim, spec.half_width), DyadicGrid((0.0,) * dim)
    arr = np.full(spec.shape, 0.05)
    arr[(n // 2 + n // 5, n // 2 + n // 7)[:dim]] = spike
    factor = harness._concentration_guard(*(GridFunction(spec, arr, nonnegative=True),) * 2, q0)
    f = GridFunction(spec, arr * factor, nonnegative=True)
    fam = cz_decompose(f, f, 2.0, 2.0, q0, grid)
    assert max(fam.levels, default=0) == top and list(fam.levels) == list(range(1, top + 1))
    assert check_sparse_invariants(fam) == []


def stopping_outputs(f, g, r, s, q0, grid):
    """Everything that reads m_{3Q} over a root's dyadic tree: the
    decomposition, the sparse bound and the harness's concentration guard."""
    return (
        cz_decompose(f, g, r, s, q0, grid),
        sparse_bound(f, g, 0.5 * f.spec.dim, r, s, q0, grid),
        harness._concentration_guard(f, g, q0),
    )


@pytest.mark.parametrize("dim, n", STOPPING_GRIDS)
@settings(max_examples=8)
@given(
    side=st.sampled_from((1.0, 2.0)),
    place=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    rs=st.sampled_from(((2.0, 2.0), (3.0, 1.5))),
    guarded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_cached_tree_equals_the_per_call_build(dim, n, side, place, rs, guarded, seed):
    # roots at the origin (place 0 on every axis) and off it; the tree of a
    # root is built by its first example and reused by the later ones
    spec, grid, count = GridSpec(dim, 2.0, n), DyadicGrid((0.0,) * dim), round(4.0 / side)
    q0 = Cube(tuple(side * ((k % count + count // 2) % count - count // 2) for k in place[:dim]), side)
    r, s = rs
    f, g = spike_data(spec, q0, r, s, seed, guarded)
    got = stopping_outputs(f, g, r, s, q0, grid)
    with (
        mock.patch.object(sparse, "_root_m3q", root_m3q_oracle),
        mock.patch.object(harness, "_root_m3q", root_m3q_oracle),
    ):
        want = stopping_outputs(f, g, r, s, q0, grid)
    args = (spec, f.samples, g.samples, r, s, q0)
    (tree, m), (tree0, m0) = sparse._root_m3q(*args), root_m3q_oracle(*args)
    assert m.dtype == m0.dtype and (m == m0).all()
    for key in ("corners", "sides", "lo", "hi"):
        a, b = getattr(tree, key), getattr(tree0, key)
        assert a.dtype == b.dtype and (a == b).all()
    (fam, bound, factor), (fam0, bound0, factor0) = got, want
    assert list(fam.levels) == list(fam0.levels) and fam.root == fam0.root and fam.root_m == fam0.root_m
    for sc_list, sc0_list in zip(fam.levels.values(), fam0.levels.values()):
        assert [sc.cube for sc in sc_list] == [sc.cube for sc in sc0_list]
        for sc, sc0 in zip(sc_list, sc0_list):
            assert type(sc.m_value) is float and sc.m_value == sc0.m_value
            for a, b in ((sc.cells, sc0.cells), (sc.e_cells, sc0.e_cells)):
                assert a.dtype == b.dtype and a.tolist() == b.tolist()
    for a, b in ((fam.e0_cells, fam0.e0_cells), (fam.root_cells, fam0.root_cells), (bound.samples, bound0.samples)):
        assert a.dtype == b.dtype and (a == b).all()
    assert type(factor) is float and factor == factor0


def test_the_tree_is_a_read_only_family_one_per_root():
    spec = GridSpec(2, 2.0, 8)
    tree = subcube_family(spec, Cube((0.0, 0.0), 2.0))
    assert subcube_family(spec, Cube((0.0, 0.0), 2.0)) is tree
    assert tree.name == "dyadic" and tree.cube(0) == Cube((0.0, 0.0), 2.0)
    # breadth first, down to single cells: 1 + 4 + 16 cubes of 4, 2 and 1 cells
    assert (tree.hi - tree.lo)[:, 0].tolist() == [4] + [2] * 4 + [1] * 16
    assert tree.lo[1:5].tolist() == [[4, 4], [4, 6], [6, 4], [6, 6]]
    # its box sets are the engine's, read-only too (test_engine.py)
    for arr in (tree.corners, tree.sides, tree.lo, tree.hi, tree.side_powers(2, 3.0)):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    for corner in ((-2.0, 0.0), (0.0, -2.0)):
        other = subcube_family(spec, Cube(corner, 2.0))
        assert other is not tree and (other.lo != tree.lo).any() and (other.sides == tree.sides).all()
    assert subcube_family(spec, Cube((0.0, 0.0), 1.0)).size < tree.size


class TestCzDecompose:
    def test_flat_selects_nothing(self):
        f = GridFunction.indicator(HARNESS_SPEC, HARNESS_Q0)
        fam = cz_decompose(f, f, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
        assert not fam.levels
        assert len(fam.e0_cells) == len(fam.root_cells)

    def test_needs_nonnegative(self):
        arr = np.zeros(HARNESS_SPEC.shape)
        arr[3] = -1.0
        f = GridFunction(HARNESS_SPEC, arr)
        g = GridFunction.constant(HARNESS_SPEC, 1.0)
        with pytest.raises(NonNegativityViolation):
            cz_decompose(f, g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)

    def test_root_must_be_in_grid(self):
        f = GridFunction.constant(HARNESS_SPEC, 1.0)
        # a side that is no power of two, and a corner off the grid
        for root in (Cube((0.25,), 1.5), Cube((0.125,), 1.0)):
            with pytest.raises(NotInGrid):
                cz_decompose(f, f, 2.0, 2.0, root, HARNESS_GRID)

    def test_base_constant_floor(self):
        f = GridFunction.constant(HARNESS_SPEC, 1.0)
        with pytest.raises(ValueError):
            cz_decompose(f, f, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID, a=3.0)

    def test_single_spike_matches_oracle(self):
        spec = GridSpec(1, 4.0, 256)
        q0 = Cube((0.0,), 4.0)
        grid = DyadicGrid((0.0,))
        arr = np.zeros(256)
        arr[160] = 20.0
        f = GridFunction(spec, arr, nonnegative=True)
        fam = cz_decompose(f, f, 2.0, 2.0, q0, grid)
        assert max(fam.levels, default=0) >= 2
        for level in fam.levels:
            assert family_selected_set(fam, level, spec) == oracle_selected(
                f, f, q0, 2.0, 2.0, 8.0, level
            )
        assert not check_sparse_invariants(fam)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matches_oracle(self, seed):
        items = corpus(seed, "spikes", count=1) + corpus(seed, "random-steps", count=1)
        for item in items:
            fam = cz_decompose(item.f, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
            assert not check_sparse_invariants(fam)
            levels = set(fam.levels)
            for level in levels:
                assert family_selected_set(fam, level, HARNESS_SPEC) == oracle_selected(
                    item.f, item.g, HARNESS_Q0, 2.0, 2.0, 8.0, level
                )
            # no phantom levels
            k = max(fam.levels, default=0) + 1
            assert not oracle_selected(item.f, item.g, HARNESS_Q0, 2.0, 2.0, 8.0, k)

    def test_scaling_monotonicity(self):
        # enlarging f can only grow the selected union at each level
        item = corpus(11, "spikes", count=1)[0]
        base = cz_decompose(item.f, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
        bigger = cz_decompose(
            item.f * 1.7, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID
        )
        for k in base.levels:
            small = set(base.level_cells(k).tolist())
            large = set(bigger.level_cells(k).tolist())
            assert small <= large


def _spike_families(heights=(20.0, 200.0, 2000.0)):
    """Decompositions of one spike at cell 160 of 256 on [-4, 4), root [0, 4): 2, 4 and 6 levels."""
    spec = GridSpec(1, 4.0, 256)
    for height in heights:
        arr = np.zeros(256)
        arr[160] = height
        f = GridFunction(spec, arr, nonnegative=True)
        yield cz_decompose(f, f, 2.0, 2.0, Cube((0.0,), 4.0), DyadicGrid((0.0,)))


class TestLevelUnionMeasure:
    # |Q_{k,j} ∩ D_{k+1}| read off the cell sets: the cells of Q_{k,j} outside E_{k,j}

    def test_no_next_level_gives_zero(self):
        # at the top level no cube of D_{k+1} exists, so E_{k,j} is all of Q_{k,j}
        items = corpus(4, "spikes", count=2)
        fams = [cz_decompose(i.f, i.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID) for i in items] + list(_spike_families())
        for fam in fams:
            assert fam.levels
            assert len(fam.level_cells(max(fam.levels, default=0) + 1)) == 0
            for sc in fam.levels[max(fam.levels, default=0)]:
                assert sc.e_count == sc.cell_count
                assert np.array_equal(sc.e_cells, sc.cells)

    def test_level_absent(self):
        # a level with no selected cube reads an empty cell set
        f = GridFunction.indicator(HARNESS_SPEC, HARNESS_Q0)
        flat = cz_decompose(f, f, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
        arr = np.zeros(64)
        arr[40] = 20.0
        f = GridFunction(HARNESS_SPEC, arr, nonnegative=True)
        spiky = cz_decompose(f, f, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
        assert not flat.levels and max(spiky.levels, default=0) >= 1
        for fam, k in ((flat, 1), (spiky, 0), (spiky, -1), (spiky, max(spiky.levels, default=0) + 1)):
            assert k not in fam.levels
            cells = fam.level_cells(k)
            assert cells.dtype == np.int64 and len(cells) == 0

    def test_nested_ancestors(self):
        # E_{k,j} = Q_{k,j} \ D_{k+1}, with D_{k+1} the union of the level-(k+1) cubes
        for fam in _spike_families():
            assert max(fam.levels, default=0) >= 2
            for k, scs in fam.levels.items():
                nxt = fam.level_cells(k + 1)
                for sc in scs:
                    assert np.array_equal(sc.e_cells, np.setdiff1d(sc.cells, nxt))
                    inter = len(np.intersect1d(sc.cells, nxt)) * fam.cell_measure
                    assert inter == (sc.cell_count - sc.e_count) * fam.cell_measure

    def test_half_measure_bound(self):
        # |Q_{k,j} ∩ D_{k+1}| = |Q_{k,j}| - |E_{k,j}| <= |Q_{k,j}| / 2, from the cell sets
        for seed in range(8):
            for item in corpus(seed, "spikes", count=2):
                fam = cz_decompose(item.f, item.g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)
                for scs in fam.levels.values():
                    for sc in scs:
                        inter = (sc.cell_count - sc.e_count) * fam.cell_measure
                        assert inter <= sc.cube.measure / 2.0 + 1e-15


class TestSparseErrors:
    def test_conjugate_mismatch(self):
        f = GridFunction.constant(HARNESS_SPEC, 1.0)
        from bifrac import ConjugateMismatch

        with pytest.raises(ConjugateMismatch):
            cz_decompose(f, f, 2.0, 2.5, HARNESS_Q0, HARNESS_GRID)

    def test_an_average_past_the_float_range_is_named(self):
        # one cell at 1e200: its square overflows, so m_3Q of the cubes around it reads +inf
        arr = np.zeros(64)
        arr[10] = 1e200
        f = GridFunction(HARNESS_SPEC, arr, nonnegative=True)
        with pytest.raises(AverageOverflow, match=r"r = 2\.0, s = 2\.0 .* root cube 0\.0 4\.0"):
            cz_decompose(f, f, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)

    def test_a_sparse_bound_average_past_the_float_range_is_named(self):
        # the same message as cz_decompose: both read m_3Q from the root plan
        f = GridFunction.constant(HARNESS_SPEC, 1e200)
        with pytest.raises(AverageOverflow, match=r"^m_3Q\(\|f\|\^r, \|g\|\^s\) with r = 2\.0, s = 2\.0 .* root cube 0\.0 4\.0$"):
            sparse_bound(f, f, 0.5, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)

    def test_a_level_threshold_past_the_float_range_selects_nothing(self):
        # m_3Q reaches about 1e248 and a = 1e200, so a^2 is past the float range
        arr = np.zeros(64)
        arr[10] = 1e125
        f = GridFunction(HARNESS_SPEC, arr, nonnegative=True)
        fam = cz_decompose(f, f, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID, a=1e200)
        assert sorted(fam.levels) == [1]
        assert all(sc.m_value > 1e200 for sc in fam.levels[1])

    def test_spec_mismatch(self):
        from bifrac import SpecMismatch

        f = GridFunction.constant(HARNESS_SPEC, 1.0)
        g = GridFunction.constant(GridSpec(1, 4.0, 32), 1.0)
        with pytest.raises(SpecMismatch):
            cz_decompose(f, g, 2.0, 2.0, HARNESS_Q0, HARNESS_GRID)


def test_invariants_at_coarser_lattice():
    # same invariants hold on the 32-cell lattice
    spec = GridSpec(1, 4.0, 32)
    q0 = Cube((0.0,), 4.0)
    grid = DyadicGrid((0.0,))
    count = 0
    for seed in range(5):
        for kind in ("spikes", "random-steps"):
            for item in corpus(seed, kind, spec=spec, count=2):
                fam = cz_decompose(item.f, item.g, 2.0, 2.0, q0, grid)
                assert not check_sparse_invariants(fam), item.item_id
                count += 1
    assert count == 20


@pytest.mark.parametrize(
    "spec, root, error",
    [
        # grid cubes, h = 1/8: out of the box on the right, on the left, and half a cell wide
        (GridSpec(1, 4.0, 64), Cube((4.0,), 4.0), OutOfBox),
        (GridSpec(1, 4.0, 64), Cube((-8.0,), 4.0), OutOfBox),
        (GridSpec(1, 4.0, 64), Cube((0.0,), 0.0625), DegenerateCube),
        (GridSpec(2, 2.0, 32), Cube((0.0, 2.0), 2.0), OutOfBox),
        (GridSpec(2, 2.0, 32), Cube((0.0, 0.0), 0.0625), DegenerateCube),
    ],
)
def test_a_root_is_checked_as_any_cube_is(spec, root, error):
    # a root leaving the box raises OutOfBox, as lattice._cell_slices does for any cube,
    # and a root below one cell DegenerateCube, in every reader of the root
    grid = DyadicGrid((0.0,) * spec.dim)
    f = GridFunction.constant(spec, 1.0)
    with pytest.raises(error):
        subcube_family(spec, root)
    with pytest.raises(error):
        cz_decompose(f, f, 2.0, 2.0, root, grid)
    with pytest.raises(error):
        sparse_bound(f, f, 0.5, 2.0, 2.0, root, grid)
