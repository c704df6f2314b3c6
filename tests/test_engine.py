"""The cube-window engine against per-slice and per-cube oracles."""

import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from conftest import (
    _cube_power_integral,
    contains_point,
    digit_blocks_oracle,
    digit_sums_oracle,
    enumerate_nested_pairs,
    family_from_cubes,
    grid_cube,
    nested_pair_count_oracle,
    power_table_oracle,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bifrac import (
    Cube,
    DyadicGrid,
    EmptyCubeFamily,
    GridFunction,
    GridSpec,
    MorreyParams,
    WeightVector,
    all_intervals,
    ap_constant,
    iida_constant,
    morrey_norm,
)
from bifrac.families import (
    _po2_squares,
    _shifted_grid_cubes,
    default_family,
    nested_pairs,
    subcube_family,
)
from bifrac.harness import HARNESS_Q0, STRUCTURAL_ALPHA, TAGS, ExponentProfile, catalog_profiles
from bifrac.lattice import CellBoxes, cell_overlaps, integrate_overlaps
from bifrac.operators import _averages, _m3q, maximal, weighted_bilinear_maximal


@st.composite
def grid_and_boxes(draw, nonfinite=False, dims=(1, 2), po2=False):
    """A random array and random boxes, some leaving the grid before clipping;
    with nonfinite, the array may hold NaN and +-inf too; with po2, about
    half the extents are powers of two, whose two corner blocks on an axis
    coincide, and the boxes stay on the grid, so clipping keeps them."""
    dim = draw(st.sampled_from(dims))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(dim))
    elements = st.floats(-1e6, 1e6, allow_nan=False)
    if nonfinite:
        elements = elements | st.sampled_from((np.nan, np.inf, -np.inf))
    arr = draw(arrays(np.float64, shape, elements=elements))
    k = draw(st.integers(1, 10))
    if po2:
        ext = np.array(
            [[draw(st.sampled_from([1 << j for j in range(n.bit_length())]) | st.integers(0, n)) for n in shape] for _ in range(k)],
            dtype=np.int64,
        )
        lo = np.array([[draw(st.integers(0, n - e)) for n, e in zip(shape, row)] for row in ext.tolist()], dtype=np.int64)
    else:
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


U = 2.0**-53  # the unit roundoff of float64


def _check_2d_sums(arr, lo, hi):
    """The 2D window sums against digit_sums_oracle, bit for bit but for the
    sign of a NaN; against math.fsum within a bound derived from their
    summation tree; non-finite exactly where np.sum is; and +0.0 over a box
    of zeros.  When two NaNs meet, the sign of a Python float sum depends on
    which operand the interpreter passes first, and that changes with its
    specialisation state (a sys.setprofile hook flips it), so the oracle
    cannot pin that sign; the CellBoxes docstring exempts it as well."""
    got = CellBoxes(arr.shape, lo, hi).sums(arr)
    want = digit_sums_oracle(arr, lo, hi)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])
    slices = [arr[_slices(a, b)].ravel().tolist() for a, b in zip(lo, hi)]
    with np.errstate(invalid="ignore"):
        plain = np.array([np.sum(cells) for cells in slices])
    assert np.array_equal(np.isnan(got), np.isnan(plain)) and np.array_equal(got[np.isinf(plain)], plain[np.isinf(plain)])
    for value, cells, blocks in zip(got, slices, digit_blocks_oracle(lo, hi)):
        if all(map(math.isfinite, cells)):
            # A cell passes through at most d additions: its block's k_0 + k_1
            # in the table, then one per block added after it (the 0.0 start
            # and the + 0.0 are exact), so the sum is within gamma_d sum|x| of
            # the exact one (Higham, Accuracy and Stability, 4.2), gamma_d =
            # d u / (1 - d u); fsum, correctly rounded, adds u |sum x|.
            d = max((sum(levels) for _, levels in blocks), default=0) + len(blocks)
            bound = (d * U / (1 - d * U) + U) * math.fsum(map(abs, cells))
            assert math.isfinite(value) and abs(value - math.fsum(cells)) <= bound
    k = int(np.argmax((hi - lo).prod(axis=1)))  # the largest box, set to -0.0
    zeroed = arr.copy()
    zeroed[_slices(lo[k], hi[k])] = -0.0
    value = CellBoxes(arr.shape, lo, hi).sums(zeroed)[k]
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


@given(grid_and_boxes())
def test_sums_equal_slice_sums(case):
    # 1D: np.sum's bits; 2D: the disjoint power-of-two blocks of each box
    arr, lo, hi = case
    if arr.ndim == 2:
        _check_2d_sums(arr, lo, hi)
        return
    got = CellBoxes(arr.shape, lo, hi).sums(arr)
    want = np.array([np.sum(arr[_slices(a, b)]) for a, b in zip(lo, hi)])
    assert np.array_equal(got, want)


@given(grid_and_boxes(nonfinite=True, dims=(2,)))
def test_2d_sums_with_nan_and_inf_cells_are_the_disjoint_blocks(case):
    with np.errstate(invalid="ignore"):
        _check_2d_sums(*case)


def test_2d_sums_of_every_box_at_n16_are_the_disjoint_blocks():
    # every box of a 16 x 13 grid (extents 1 ... 16 and 1 ... 13, up to 4 x 4 digit blocks)
    rng = np.random.default_rng(16)
    arr = rng.standard_normal((16, 13)) * 10.0 ** rng.integers(-8, 9, (16, 13))
    (a0, b0), (a1, b1) = (np.triu_indices(n + 1) for n in arr.shape)
    i, j = (g.ravel() for g in np.meshgrid(np.arange(len(a0)), np.arange(len(a1)), indexing="ij"))
    _check_2d_sums(arr, np.column_stack((a0[i], a1[j])), np.column_stack((b0[i], b1[j])))


@given(grid_and_boxes(nonfinite=True))
def test_minima_equal_slice_minima(case):
    arr, lo, hi = case
    got = CellBoxes(arr.shape, lo, hi).minima(arr)
    want = [arr[_slices(a, b)].min() if np.all(b > a) else np.inf for a, b in zip(lo, hi)]
    assert np.array_equal(got, want, equal_nan=True)


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


def _scalar_pows(values: list[float], expo: float) -> np.ndarray:
    out = []
    for v in values:
        try:
            out.append(v ** expo)
        except OverflowError:
            out.append(np.inf)
    return np.array(out)


def test_numpy_float_power_is_scalar_pow():
    # Values over the whole float range, subnormals and specials included, to
    # every power the package takes: 1/p for the catalog exponents, alpha, the
    # dimensions and the exponents of the _scalar_pow property test.
    rng = np.random.default_rng(12)
    values = np.concatenate((
        rng.random(4000) * 10.0 ** rng.integers(-323, 309, 4000),
        rng.random(500) * 2.0 ** -1022,
        [0.0, -0.0, 5e-324, 2.0 ** -1022, 1.0, np.finfo(float).max, np.inf, -np.inf, np.nan],
    ))
    exponents = {1.0, 2.0, 1.0 / 3.0, 0.3125, STRUCTURAL_ALPHA}
    for tag in TAGS:
        for profile in catalog_profiles(tag):
            fields = (getattr(profile, key) for key in ExponentProfile.__dataclass_fields__)
            exponents.update(1.0 / v for v in fields if isinstance(v, float))
            exponents.add(profile.alpha)
    for expo in sorted(exponents):
        want = _scalar_pows(values.tolist(), expo)
        with np.errstate(all="ignore"):
            got = np.float_power(values, expo)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and np.array_equal(
            got.view(np.int64)[~nan], want.view(np.int64)[~nan]
        ), (
            f"np.float_power(x, {expo!r}) no longer equals scalar x ** {expo!r} bit for bit; "
            "lattice._scalar_pow (cube averages' roots, side powers, |Q|) assumes it calls "
            "the C library's pow per element"
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


def _spot_check_windows(n):
    """3000 random windows plus [0, b) for every b <= n: every length once,
    the whole row among them, and more cells than the window table's
    (n + 1)^2 entries, so sums reads the table."""
    ends = np.sort(np.random.default_rng(n).integers(0, n + 1, (3000, 2)), axis=1)
    prefix = np.arange(n + 1)[:, None]
    return np.vstack([ends[:, :1], 0 * prefix]), np.vstack([ends[:, 1:], prefix])


def test_1d_sums_at_n1024_spot_check():
    # four split levels of the window table
    row = _mixed_row(1024, 2)
    lo, hi = _spot_check_windows(1024)
    boxes = CellBoxes(row.shape, lo, hi)
    assert boxes.by_length is None
    got = boxes.sums(row)
    want = np.array([np.sum(row[a:b]) for a, b in zip(lo[:, 0], hi[:, 0])])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


_SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.0**-1030, np.inf, -np.inf, np.nan, 1.7e308, -1.7e308]


@st.composite
def hostile_rows(draw, n):
    """n cells of mixed magnitude with -0.0, subnormals, +-inf, NaN and values
    whose sums overflow scattered in at a drawn density, and a run of -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low, high = draw(st.sampled_from([(-8, 9), (-320, 300)]))
    row = rng.standard_normal(n) * 10.0 ** rng.integers(low, high, n)
    hit = rng.random(n) < draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
    row[hit] = rng.choice(_SPECIALS, int(hit.sum()))
    start = int(rng.integers(0, n))
    row[start : start + int(rng.integers(0, n))] = -0.0
    return row


def _check_1d_sums(boxes, row):
    """CellBoxes.sums against np.sum(row[lo:hi]) + 0.0 per box, bit for bit
    (the sign of zeros included), on the route the boxes' geometry picks: per
    length while they hold fewer cells than the window table's (N + 1) x
    (top + 1) entries, which bounds the plan's size.  NaN sits where np.sum
    has it; the per-length route also keeps its sign and payload, where the
    table's adds may meet two NaNs in the other order."""
    n, cells = row.shape[0], int(boxes.ext.sum())
    table = (n + 1) * (boxes.top + 1)
    assert (boxes.by_length is not None) == (cells < table)
    if boxes.by_length is not None:
        assert sum(len(k) + at.size for k, at in boxes.by_length) <= boxes.count + cells < boxes.count + table
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array([np.sum(row[a : a + e]) + 0.0 for a, e in zip(boxes.lo[:, 0].tolist(), boxes.ext[:, 0].tolist())])
        got = boxes.sums(row)
    nan = np.isnan(want) if boxes.by_length is None else np.zeros(len(want), dtype=bool)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


@lru_cache(maxsize=16)
def _route_boxes(name, n):
    spec = GridSpec(1, 4.0, n)
    if name == "root-windows":  # the 3Q windows of the harness root's dyadic blocks
        return subcube_family(spec, HARNESS_Q0).windows3
    if name == "spot-check":
        return CellBoxes(spec.shape, *_spot_check_windows(n))
    family = default_family(spec)
    return family.boxes if name == "family-boxes" else family.windows3


@pytest.mark.parametrize(
    "name, n, grouped",
    [("root-windows", n, True) for n in (16, 64, 128, 1024)]
    + [(name, n, False) for name in ("family-boxes", "family-windows3") for n in (16, 64, 128)]
    + [("spot-check", 1024, False)],
)
@given(data=st.data())
@settings(max_examples=20)
def test_1d_sums_on_both_routes_equal_slice_sums_bitwise(name, n, grouped, data):
    boxes = _route_boxes(name, n)
    assert (boxes.by_length is not None) == grouped
    _check_1d_sums(boxes, data.draw(hostile_rows(n)))


@given(data=st.data())
@settings(max_examples=150)
def test_1d_sums_of_random_box_sets_equal_slice_sums_bitwise(data):
    # sparse sets take the per-length route; many boxes on a short row take the table
    n = data.draw(st.integers(1, 16) | st.integers(1, 300))
    k = data.draw(st.integers(0, 60))
    lo = np.array(data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k)), dtype=np.int64)
    ext = np.array([data.draw(st.integers(0, n - a)) for a in lo.tolist()], dtype=np.int64)
    boxes = CellBoxes((n,), lo[:, None], (lo + ext)[:, None])
    _check_1d_sums(boxes, data.draw(hostile_rows(n)))


def _check_stacked_sums(boxes, stack):
    """CellBoxes.sums of a stack (k, N...) against one call per row, bit for
    bit.  NaN sits where the row's call has it; the per-length route also
    keeps its sign and payload, where the tables (the 1D window table past
    one 128-value block, the 2D power-of-two table) may add two NaNs in the
    other order."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = boxes.sums(stack)
        want = np.array([boxes.sums(row) for row in stack]).reshape(len(stack), boxes.count)
    table = len(boxes.shape) == 2 or boxes.by_length is None
    nan = np.isnan(want) if table else np.zeros(want.shape, dtype=bool)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


@pytest.mark.parametrize(
    "name, n",
    [("root-windows", 64), ("root-windows", 1024), ("family-boxes", 64), ("family-windows3", 128), ("spot-check", 1024)],
)
@given(k=st.integers(1, 5), data=st.data())
@settings(max_examples=10)
def test_stacked_1d_sums_equal_a_call_per_row(name, n, k, data):
    # the root windows take the per-length route, mostly one box per length;
    # the rest read the window table, the spot check past its split levels
    _check_stacked_sums(_route_boxes(name, n), np.stack([data.draw(hostile_rows(n)) for _ in range(k)]))


@given(case=grid_and_boxes(nonfinite=True), k=st.integers(1, 5), data=st.data())
def test_stacked_sums_of_random_box_sets_equal_a_call_per_row(case, k, data):
    # the 2D digit route and, on short rows with few boxes, both 1D routes
    arr, lo, hi = case
    rows = [data.draw(hostile_rows(arr.size)).reshape(arr.shape) for _ in range(k - 1)]
    _check_stacked_sums(CellBoxes(arr.shape, lo, hi), np.stack([arr] + rows))


@pytest.mark.parametrize("n", [8, 16])
@given(k=st.integers(1, 5), data=st.data())
@settings(max_examples=10)
def test_stacked_2d_family_sums_equal_a_call_per_row(n, k, data):
    family = default_family(GridSpec(2, 2.0, n))
    stack = np.stack([data.draw(hostile_rows(n * n)).reshape(n, n) for _ in range(k)])
    for boxes in (family.boxes, family.windows3):
        _check_stacked_sums(boxes, stack)


def _sweep_by_loop(shape, lo, hi, values):
    """Per cell, np.maximum over the boxes holding it, box by box."""
    want = np.full(shape, -np.inf)
    for cell in np.ndindex(shape):
        for k in range(len(lo)):
            if all(lo[k, ax] <= cell[ax] < hi[k, ax] for ax in range(len(shape))):
                want[cell] = np.maximum(want[cell], values[k])
    return want


def _engine_arrays(boxes: CellBoxes) -> list[np.ndarray]:
    """The box arrays and every array plan that boxes has built."""
    plans = vars(boxes)
    arrays = [boxes.lo, boxes.ext, boxes.blocks] + ([boxes.digits] if "digits" in plans else [])
    arrays += [a for plan in plans.get("by_length") or () for a in plan]
    arrays += list(plans.get("_scatter", ()))
    return arrays + [a for plan in plans.get("_sides", ()) for a in (*plan[:3], plan[3].lo, plan[3].ext)]


@pytest.mark.parametrize("spec", [GridSpec(1, 4.0, 64), GridSpec(2, 2.0, 8)], ids=str)
def test_the_engine_arrays_and_plans_of_cached_families_are_read_only(spec):
    # a caller's default family and a root's cached dyadic tree share their box
    # sets with every later reader, so a write to one would reach them all
    family, tree = default_family(spec), subcube_family(spec, Cube((0.0,) * spec.dim, spec.half_width))
    sets = (family.boxes, family.cover, family.touch, family.windows3, tree.boxes, tree.windows3)
    for boxes in sets:  # build every plan that the operators and constants read
        boxes.sums(np.ones(spec.shape)), boxes.minima(np.ones(spec.shape)), boxes.sweep(np.ones(boxes.count))
    family.boxes.pair_count(), tree.boxes.pair_count()
    built = {key for boxes in sets for key in vars(boxes)}
    assert {"blocks", "_steps", "_scatter"} <= built
    assert {"by_length"} <= built if spec.dim == 1 else {"digits", "_sides"} <= built
    assert spec.dim == 2 or any(vars(boxes)["by_length"] is not None for boxes in sets)
    for boxes in sets:
        for arr in _engine_arrays(boxes):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        # the build steps are tuples of tuples of immutable index items
        steps = vars(boxes).get("_steps", ())
        assert isinstance(steps, tuple) and all(isinstance(step, tuple) and len(step) == 3 for step in steps)
        for index in (index for step in steps for index in step):
            assert isinstance(index, tuple) and index[0] is Ellipsis
            assert all(isinstance(item, (int, slice)) for item in index[1:])
    # the engine freezes views of its own: the caller's array stays writable
    lo = np.array([[0], [2]])
    CellBoxes((8,), lo, lo + 2)
    lo[0] = 1


def _check_table_reads(boxes, stack, ufunc, fill):
    """boxes._table of a stack against power_table_oracle per row, bit for
    bit at every position that `digits` or `blocks` reads (a NaN where the
    oracle has one, its sign aside), and the slot past the table holding
    fill; a read position past the blocks that fit would miss the oracle."""
    size = math.prod(boxes.table_shape)
    at = np.unique(np.concatenate((boxes.digits.ravel(), boxes.blocks.ravel())))
    at = at[at < size]
    where = np.unravel_index(at, boxes.table_shape)
    dim = len(boxes.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        got = boxes._table(stack, ufunc, fill)
        assert got.shape == stack.shape[:-dim] + (size + 1,) and np.all(got[..., -1] == fill)
        for flat, row in zip(got.reshape(-1, size + 1), stack.reshape((-1,) + boxes.shape)):
            layers = power_table_oracle(row, boxes.table_shape[:dim], ufunc)
            want = np.array([layers[tuple(p[:dim])][tuple(p[dim:])] for p in zip(*(w.tolist() for w in where))])
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(flat[at]), nan)
            assert np.array_equal(flat[at][~nan].view(np.int64), want[~nan].view(np.int64))


@settings(max_examples=80)
@given(
    grid_and_boxes(nonfinite=True) | grid_and_boxes(nonfinite=True, po2=True),
    st.integers(1, 3),
    st.sampled_from(((np.add, 0.0), (np.minimum, np.inf))),
    st.data(),
)
def test_the_cached_plan_table_equals_a_fresh_build_at_every_read_position(case, k, op, data):
    # stacks of one to three rows of hostile cells (+-inf, NaN, +-0.0,
    # subnormals, 1e+-300), twice over the same box set: the cached steps
    # serve every call and stack size, and the table's uninitialised slots
    # are never read
    arr, lo, hi = case
    boxes = CellBoxes(arr.shape, lo, hi)
    rows = [data.draw(hostile_rows(arr.size)).reshape(arr.shape) for _ in range(k - 1)]
    for stack in (np.stack([arr] + rows), arr):
        _check_table_reads(boxes, stack, *op)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
def test_the_cached_plan_tables_of_the_default_family_equal_a_fresh_build(dim, n):
    family = default_family(GridSpec(dim, 2.0, n))
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((3,) + family.spec.shape) * 10.0 ** rng.integers(-300, 300, (3,) + family.spec.shape)
    stack.reshape(3, -1)[:, :5] = [np.inf, -np.inf, np.nan, -0.0, 5e-324]
    for boxes in (family.boxes, family.cover, family.touch, family.windows3):
        for op in ((np.add, 0.0), (np.minimum, np.inf)):
            _check_table_reads(boxes, stack, *op)
            _check_table_reads(boxes, stack[1], *op)


def test_2d_containment_refuses_a_non_square_box_by_name():
    # the clipped 3Q windows of a root's dyadic tree, on which containment
    # used to raise numpy's bare "invalid entry in coordinates array"
    windows = subcube_family(GridSpec(2, 2.0, 8), Cube((0.0, 0.0), 2.0)).windows3
    named = r"^2D containment needs square boxes; box \d+ at cell \[\d+, \d+\] is \d+ x \d+ cells$"
    with pytest.raises(ValueError, match=named):
        windows.pair_count()
    with pytest.raises(ValueError, match=named):
        windows.inner_max(np.zeros(windows.count))
    # a wide box among squares, which containment used to count by its first
    # side; empty boxes of any shape are not checked
    lo = np.array([[0, 0], [1, 1], [5, 5], [2, 0], [3, 3]])
    boxes = CellBoxes((8, 8), lo, lo + np.array([[4, 4], [2, 2], [0, 3], [1, 3], [3, 1]]))
    with pytest.raises(ValueError, match=r"box 3 at cell \[2, 0\] is 1 x 3 cells$"):
        boxes.pair_count()
    squares = CellBoxes((8, 8), lo[:3], lo[:3] + np.array([[4, 4], [2, 2], [0, 3]]))
    assert squares.pair_count() == 3


@given(grid_and_boxes(nonfinite=True) | grid_and_boxes(nonfinite=True, po2=True), st.data())
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
        covered = [[contains_point(Q, (x, y)) for y in mids] for x in mids]
        assert np.array_equal(fam.cover.sweep(only) == 1.0, covered)


@pytest.fixture(scope="module")
def family_2d_n32():
    """The default 2D family at N = 32: all 7,590 cubes, none subsampled."""
    return default_family(GridSpec(2, 2.0, 32))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_the_2d_default_family_is_every_square_and_shifted_grid_cube_once(n):
    # built here cube by cube: the power-of-two lattice squares, and the
    # in-box cubes of the four shifted dyadic grids at sides 2L ... h, each
    # grid's cubes listed by conftest.grid_cube over an index range past the box
    spec = GridSpec(2, 2.0, n)
    half, h = spec.half_width, spec.h
    want = set()
    for k in range(n.bit_length()):
        s = 1 << k
        for i, j in product(range(n - s + 1), repeat=2):
            want.add((round(-half + i * h, 9), round(-half + j * h, 9), round(s * h, 9)))
    for shift in product((0.0, 1.0 / 3.0), repeat=2):
        grid = DyadicGrid(shift)
        for level in range(-2, n.bit_length() - 2):  # sides 4 = 2L down to 4 / n = h
            m = math.ceil(half / 2.0 ** -level) + 1
            for index in product(range(-m, m + 1), repeat=2):
                Q = grid_cube(grid, level, index)
                if spec.box_cube.contains_cube(Q, tol=1e-9):
                    want.add((*(round(c, 9) for c in Q.corner), round(Q.side, 9)))
    family = default_family(spec)
    listed = [(*c, s) for c, s in zip(family.corners.tolist(), family.sides.tolist())]
    keys = [tuple(round(v, 9) for v in cube) for cube in listed]
    assert len(set(keys)) == len(keys)  # each cube once
    assert set(keys) == want
    assert listed == sorted(listed)  # (corner, side) order
    if n == 32:
        assert family.size == 7590


@pytest.mark.parametrize("half_width", [0.7, 1.0, 2.0, 3.3, 4.0])
@pytest.mark.parametrize("n", [2, 8, 32, 64])
def test_the_2d_default_family_keeps_the_cubes_np_unique_keeps(n, half_width):
    # the dedupe by np.unique's first index per row rounded to 12 decimals,
    # then the (corner, side) order: the same cubes, the same bits
    spec = GridSpec(2, half_width, n)
    squares, shifted = _po2_squares(spec), _shifted_grid_cubes(spec)
    corners = np.concatenate([squares[0], shifted[0]])
    sides = np.concatenate([squares[1], shifted[1]])
    keep = np.unique(np.round(np.column_stack([corners, sides]), 12), axis=0, return_index=True)[1]
    order = keep[np.lexsort((sides[keep], *corners[keep].T[::-1]))]
    family = default_family(spec)
    assert np.array_equal(family.corners.view(np.int64), corners[order].view(np.int64))
    assert np.array_equal(family.sides.view(np.int64), sides[order].view(np.int64))


def _brute_force_maxima(f, w, family, p0, q):
    """maximal(f), ap_constant(w, 1), ap_constant(w, 2) and the Morrey norm
    (p0, q) of f as maxima over family.cubes, one overlap integral of |f|^p
    per cube and power; the A_1 minimum runs over the cells a cube overlaps."""
    spec = family.spec
    edges = -spec.half_width + spec.h * np.arange(spec.cells_per_axis + 1)
    mids = list(product(spec.midpoints(), repeat=spec.dim))
    grid = np.full(len(mids), -np.inf)
    ap1 = ap2 = morrey = -np.inf
    for Q in family.cubes:
        cases = ((w, 1.0), (w, -1.0), (f, 1.0), (f, q))
        w1, w_dual, f1, fq = (_cube_power_integral(g.abs_pow(1.0), p, Q) / Q.measure for g, p in cases)
        inside = [np.minimum(edges[1:], c + Q.side) - np.maximum(edges[:-1], c) > 1e-9 * spec.h for c in Q.corner]
        ap1 = max(ap1, w1 / w.samples[np.ix_(*inside)].min())
        ap2 = max(ap2, w1 * w_dual)
        morrey = max(morrey, Q.measure ** (1.0 / p0) * fq ** (1.0 / q))
        covered = np.array([contains_point(Q, x) for x in mids])
        grid[covered] = np.maximum(grid[covered], f1)
    return np.where(np.isneginf(grid), 0.0, grid).reshape(spec.shape), ap1, ap2, morrey


@settings(max_examples=24)
@given(
    st.sampled_from([(1, 1), (1, 4), (1, 16), (2, 1), (2, 2), (2, 4), (2, 8)]),
    st.sampled_from((0.5, 2.0, 3.0)),
    st.integers(0, 2**32 - 1),
)
def test_family_maxima_equal_a_brute_force_max_over_the_listed_cubes(shape, half_width, seed):
    # the batched sums, minima and sweeps run over every cube the family
    # lists; the per-cube overlap integrals round differently from them
    dim, n = shape
    spec = GridSpec(dim, half_width, n)
    family = default_family(spec)
    rng = np.random.default_rng(seed)
    f = rng.uniform(-2.0, 2.0, spec.shape)
    f[rng.random(spec.shape) < 0.3] = 0.0
    f, w = GridFunction(spec, f), GridFunction(spec, rng.uniform(0.2, 5.0, spec.shape))
    p0, q = 3.0, 1.5
    grid, ap1, ap2, norm = _brute_force_maxima(f, w, family, p0, q)
    np.testing.assert_allclose(maximal(f, family).samples, grid, rtol=1e-12, atol=0.0)
    assert ap_constant(w, 1.0, family).value == pytest.approx(ap1, rel=1e-12)
    assert ap_constant(w, 2.0, family).value == pytest.approx(ap2, rel=1e-12)
    assert morrey_norm(f, MorreyParams(p0, q), family) == pytest.approx(norm, rel=1e-12)


def _with_nonfinite(values, rng, share=0.01):
    """A copy with about `share` each of +inf, -inf and NaN entries."""
    values = values.copy()
    for bad in (np.inf, -np.inf, np.nan):
        values[rng.random(values.shape) < share] = bad
    return values


@settings(max_examples=2)
@given(st.integers(0, 2**32 - 1))
def test_2d_family_minima_and_cover_sweep_equal_per_box_loops(family_2d_n32, seed):
    rng = np.random.default_rng(seed)
    arr = _with_nonfinite(rng.standard_normal((32, 32)), rng)
    fam = family_2d_n32
    for boxes in (fam.touch, fam.boxes, fam.cover):
        want = np.full(boxes.count, np.inf)
        for k, ((a0, a1), (e0, e1)) in enumerate(zip(boxes.lo.tolist(), boxes.ext.tolist())):
            if e0 and e1:
                want[k] = arr[a0 : a0 + e0, a1 : a1 + e1].min()
        assert np.array_equal(boxes.minima(arr), want, equal_nan=True)
    values = _with_nonfinite(rng.standard_normal(fam.size), rng)
    want = np.full((32, 32), -np.inf)
    with np.errstate(invalid="ignore"):
        for k, ((a0, a1), (e0, e1)) in enumerate(zip(fam.cover.lo.tolist(), fam.cover.ext.tolist())):
            cells = want[a0 : a0 + e0, a1 : a1 + e1]
            np.maximum(cells, values[k], out=cells)
        assert np.array_equal(fam.cover.sweep(values), want, equal_nan=True)


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
    vals[rng.random(family.size) < 0.02] = np.nan
    inner, outer = enumerate_nested_pairs(family)
    want = np.full(family.size, -np.inf)
    with np.errstate(invalid="ignore"):
        np.maximum.at(want, outer, vals[inner])
        assert np.array_equal(family.boxes.inner_max(vals), want, equal_nan=True)


@settings(max_examples=40)
@given(st.sampled_from((1, 2)), st.sampled_from((1, 2, 4, 8, 16, 32, 64)), st.data())
def test_pair_count_equals_the_listed_pairs_on_subfamilies_with_repeats(dim, n, data):
    # the engine's count against every listed pair, on random draws with
    # repeated cubes and a few off-lattice ones, which are not members; in 2D
    # the draw adds lattice squares of any side, and the default family's
    # shifted cubes are off-lattice too
    spec = GridSpec(dim, 4.0, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    family = default_family(spec)
    cubes = [family.cube(int(k)) for k in rng.integers(0, family.size, rng.integers(0, 600 // dim))]
    cubes += [Cube((c + spec.h / 3,) * dim, spec.h) for c in rng.uniform(-4.0, 3.0, rng.integers(0, 3))]
    if dim == 2:
        for side in rng.integers(1, n + 1, rng.integers(0, 60)).tolist():
            cubes.append(Cube(tuple(spec.edge(rng.integers(0, n - side + 1, 2))), side * spec.h))
        cubes = [cubes[k] for k in rng.integers(0, len(cubes), len(cubes))]  # and repeat some
    family = family_from_cubes(spec, cubes)
    inner, _ = enumerate_nested_pairs(family)
    assert nested_pairs(family).size == len(inner)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128])
def test_2d_pair_count_of_the_default_family_equals_the_per_width_count(n):
    family = default_family(GridSpec(2, 2.0, n))
    assert nested_pairs(family).size == nested_pair_count_oracle(family)


@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_1d_pair_count_of_every_interval_equals_the_per_width_count(n):
    # s' <= s <= e <= e' picks four of the N cells with repeats: C(N + 3, 4)
    family = default_family(GridSpec(1, 4.0, n))
    assert nested_pairs(family).size == nested_pair_count_oracle(family) == math.comb(n + 3, 4)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_family_without_aligned_members_has_no_pairs(dim):
    spec = GridSpec(dim, 1.0, 8)
    for cubes in ([], [Cube((0.1,) * dim, 0.3), Cube((-0.55,) * dim, 0.25)]):
        family = family_from_cubes(spec, cubes)
        assert not family.aligned.any()
        pairs = nested_pairs(family)
        assert pairs.size == 0
        one = GridFunction.constant(spec, 1.0)
        with pytest.raises(EmptyCubeFamily, match="^nested pair family is empty$"):
            iida_constant(WeightVector(one, one), 4.0, 2.0, 2.0, 2.0, pairs)


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
        assert np.array_equal(fam.boxes.inner_max(values), want)


@pytest.mark.parametrize("n", [1, 2, 8, 64, 128])
def test_1d_inner_max_equals_a_brute_force_containment_max(n):
    # raw boxes: every interval up to N = 8, a random draw beyond, with
    # repeats, empty boxes (hi <= lo) and +-inf values
    rng = np.random.default_rng(n)
    if n <= 8:
        lo, hi = np.array([(a, b) for a in range(n + 1) for b in range(n + 1)]).T
    else:
        lo, hi = rng.integers(0, n + 1, (2, 1500))
        lo[:40], hi[:40] = lo[40:80], hi[40:80]
    values = rng.uniform(-1.0, 1.0, len(lo))
    values[rng.random(len(lo)) < 0.05] = np.inf
    values[rng.random(len(lo)) < 0.05] = -np.inf
    boxes = CellBoxes((n,), lo[:, None], hi[:, None])
    nonempty = hi > lo
    inside = nonempty[None, :] & (lo[:, None] <= lo[None, :]) & (hi[None, :] <= hi[:, None])
    want = np.where(nonempty, np.max(np.where(inside, values[None, :], -np.inf), axis=1), -np.inf)
    assert np.array_equal(boxes.inner_max(values), want)


def test_maximal_sweeps_at_n512_match_max_over_containing_intervals():
    spec = GridSpec(1, 4.0, 512)
    fam = all_intervals(spec)
    rng = np.random.default_rng(512)
    f, g = (GridFunction(spec, rng.uniform(-2.0, 2.0, 512)) for _ in range(2))
    w1, w2 = (GridFunction(spec, rng.uniform(0.2, 3.0, 512)) for _ in range(2))
    cells = np.sort(rng.choice(512, 16, replace=False))
    cells[:2] = (0, 511)
    want = _max_over_containing_intervals(fam, _averages(fam, (f.samples,), (1.0,))[0], cells)
    assert np.array_equal(maximal(f, fam).samples[cells], want)
    alpha, r, s, q = 0.5, 2.0, 2.0, 3.0
    nu = GridFunction(spec, w1.samples * w2.samples)
    m3q = _m3q(fam, f.samples, g.samples, r, s)
    values = fam.side_powers(alpha) * m3q * _averages(fam, (nu.samples,), (q,))[0]
    want = _max_over_containing_intervals(fam, values, cells)
    got = weighted_bilinear_maximal(f, g, w1, w2, alpha, r, s, q, fam).samples[cells]
    assert np.array_equal(got, want)


def _max_over_containing_cubes(family, values):
    """Per cell, the max of values over the cubes holding its midpoint, as
    conftest.contains_point (c <= x < c + side per axis); 0 if non-finite."""
    mids = family.spec.midpoints()[:, None]
    start, stop = family.corners, family.corners + family.sides[:, None]
    rows, cols = ((start[:, ax] <= mids) & (mids < stop[:, ax]) for ax in range(2))
    out = np.array([np.max(np.where(row & cols, values, -np.inf), axis=1) for row in rows])
    return np.where(np.isfinite(out), out, 0.0)


def test_2d_maximal_sweeps_at_n32_match_max_over_containing_cubes(family_2d_n32):
    fam = family_2d_n32
    spec = fam.spec
    rng = np.random.default_rng(32)
    f, g = (GridFunction(spec, rng.uniform(-2.0, 2.0, spec.shape)) for _ in range(2))
    w1, w2 = (GridFunction(spec, rng.uniform(0.2, 3.0, spec.shape)) for _ in range(2))
    nu = GridFunction(spec, w1.samples * w2.samples)
    alpha, r, s, q = 0.5, 2.0, 2.0, 3.0
    want = _max_over_containing_cubes(fam, _averages(fam, (f.samples,), (1.0,))[0])
    assert np.array_equal(maximal(f, fam).samples, want)
    m3q = _m3q(fam, f.samples, g.samples, r, s)
    values = fam.side_powers(alpha) * m3q * _averages(fam, (nu.samples,), (q,))[0]
    want = _max_over_containing_cubes(fam, values)
    got = weighted_bilinear_maximal(f, g, w1, w2, alpha, r, s, q, fam).samples
    assert np.array_equal(got, want)


@given(
    st.sampled_from((1, 2)),
    st.sampled_from((4, 8, 16)),
    st.lists(st.tuples(st.floats(-2.5, 2.0), st.floats(-2.5, 2.0), st.floats(0.05, 4.0)), min_size=1, max_size=8),
    st.floats(0.5, 3.0),
)
def test_shifted_integrals_match_the_one_cube_integral(dim, n, cubes, p):
    spec = GridSpec(dim, 2.0, n)
    f = GridFunction(spec, np.random.default_rng(n).uniform(-2.0, 2.0, spec.shape))
    corners = np.array([c[:dim] for c in cubes])
    sides = np.array([c[2] for c in cubes])
    got = integrate_overlaps(np.abs(f.samples) ** p, cell_overlaps(spec, corners, sides))
    for k in range(len(cubes)):
        want = _cube_power_integral(f.abs_pow(1.0), p, Cube(tuple(corners[k]), sides[k]))
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
        covered = [[contains_point(Q, (x, y)) for y in mids] for x in mids]
        a, b = (
            (edges[1:] > c + 1e-9 * spec.h) & (edges[:-1] < c + Q.side - 1e-9 * spec.h)
            for c in Q.corner
        )
        assert np.array_equal(fam.cover.sweep(only) == 1.0, covered)
        assert np.array_equal(fam.touch.sweep(only) == 1.0, np.outer(a, b))


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
@pytest.mark.parametrize("half_width", [1.0, 2.3, 4.0])
def test_family_measures_and_side_powers_equal_the_per_cube_scalar_pow(dim, n, half_width):
    fam = default_family(GridSpec(dim, half_width, n))
    want = np.array([fam.cube(k).measure for k in range(fam.size)])
    assert np.array_equal(fam.measures.view(np.int64), want.view(np.int64))
    sides = fam.sides.tolist()
    for expo, scale in ((dim, 1.0), (dim, 3.0), (0.25, 1.0), (1.0 / 3.0, 1.0), (0.3125, 3.0)):
        want = np.array([(scale * side) ** expo for side in sides])
        assert np.array_equal(fam.side_powers(expo, scale).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("dim", [1, 2])
def test_an_empty_family_has_no_window_sums_or_minima(dim):
    spec = GridSpec(dim, 1.0, 4)
    fam = family_from_cubes(spec, [])
    ones = np.ones(spec.shape)
    for boxes in (fam.boxes, fam.touch):
        assert boxes.sums(ones).shape == (0,)
        assert boxes.minima(ones).shape == (0,)
    assert fam.integrals(ones).shape == (0,)
    assert np.array_equal(fam.cover.sweep(np.zeros(0)), np.full(spec.shape, -np.inf))
    assert fam.boxes.inner_max(np.zeros(0)).shape == (0,)
