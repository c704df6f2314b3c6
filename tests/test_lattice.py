import math
import os
import tempfile

import numpy as np
import pytest
from conftest import cell_bounds_oracle, cell_slices_oracle, family_from_cubes, root_block_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac import (
    ConjugateMismatch,
    Cube,
    DegenerateCube,
    DyadicGrid,
    GridFunction,
    GridSpec,
    InputUnreadable,
    NonAlignedCube,
    NonNegativityViolation,
    OutOfBox,
    SpecMismatch,
    read_grid_file,
    sparse_bound,
    weighted_bilinear_maximal,
    write_grid_file,
)
from bifrac.errors import BifracError
from bifrac.families import _root_block, _with_cell_bounds
from bifrac.lattice import CellBoxes, _cell_slices, _scalar_pow, check_conjugate
from bifrac.operators import _averages, _m3q


class TestGridSpec:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GridSpec(1, 1.0, 24)

    def test_dimension_range(self):
        with pytest.raises(ValueError):
            GridSpec(3, 1.0, 8)

    @pytest.mark.parametrize("half_width", [math.nan, math.inf, -math.inf])
    def test_half_width_finite(self, half_width):
        with pytest.raises(ValueError):
            GridSpec(1, half_width, 8)

    def test_cell_geometry(self, spec32):
        assert spec32.h == pytest.approx(1.0 / 16.0)
        assert spec32.cell_count == 32
        assert spec32.box_cube == Cube((-1.0,), 2.0)


class TestGridFunction:
    def test_rejects_nonfinite(self, spec32):
        arr = np.zeros(32)
        arr[3] = np.inf
        with pytest.raises(ValueError):
            GridFunction(spec32, arr)

    def test_arithmetic_spec_mismatch(self, spec32):
        f = GridFunction.constant(spec32, 1.0)
        g = GridFunction.constant(GridSpec(1, 2.0, 32), 1.0)
        with pytest.raises(SpecMismatch):
            f + g

    def test_nonnegative_flag_checked(self, spec32):
        arr = np.zeros(32)
        arr[5] = -1.0
        with pytest.raises(NonNegativityViolation):
            GridFunction(spec32, arr, nonnegative=True)

    def test_immutable_samples(self, spec32):
        f = GridFunction.constant(spec32, 2.0)
        with pytest.raises(ValueError):
            f.samples[0] = 1.0

    def test_values_at_outside_box(self, spec32):
        f = GridFunction.constant(spec32, 3.0)
        # outside, then the half-open box's left edge (inside) and right edge (outside)
        assert f.values_at(np.array([[5.0], [-1.0], [1.0]])).tolist() == [0.0, 3.0, 0.0]


def _integral(f, Q):
    """\\int_Q f by CubeFamily.integrals on the one-cube family of Q."""
    return float(family_from_cubes(f.spec, [Q]).integrals(f.samples)[0])


def _average(f, Q, p):
    """((1/|Q|) \\int_Q |f|^p)^(1/p), the cube average the maximal operators read."""
    return float(_averages(family_from_cubes(f.spec, [Q]), (f.samples,), (p,))[0][0])


def _m3q_of(f, g, Q, r, s):
    """m_{3Q}(|f|^r, |g|^s) over Q's 3Q window, as weighted_bilinear_maximal reads it."""
    fam = family_from_cubes(f.spec, [Q])
    return float(_m3q(fam, f.samples, g.samples, r, s)[0])


class TestIntegrate:
    def test_constant_over_box(self, spec32):
        f = GridFunction.constant(spec32, 1.0)
        assert _integral(f, Cube((-1.0,), 2.0)) == pytest.approx(2.0, abs=1e-15)

    def test_indicator_mass(self, spec32):
        f = GridFunction.indicator(spec32, Cube((0.0,), 1.0))
        assert _integral(f, Cube((-1.0,), 2.0)) == pytest.approx(1.0, abs=1e-15)

    def test_midpoint_linear_exact(self):
        # f(x) = x sampled at midpoints over 16 cells of [0, 1): sums telescope
        spec = GridSpec(1, 1.0, 32)
        mids = spec.midpoints()
        arr = np.where(mids >= 0.0, mids, 0.0)
        f = GridFunction(spec, arr)
        assert _integral(f, Cube((0.0,), 1.0)) == pytest.approx(0.5, abs=1e-15)

    def test_non_aligned_cube_takes_partial_cells(self, spec32):
        # _cell_slices refuses a corner off the lattice; the family integrates
        # such a cube over its partial cells
        f = GridFunction.constant(spec32, 1.0)
        Q = Cube((0.01,), 0.5)
        with pytest.raises(NonAlignedCube):
            _cell_slices(spec32, Q)
        assert not family_from_cubes(spec32, [Q]).aligned[0]
        assert _integral(f, Q) == pytest.approx(0.5, rel=1e-12)

    def test_out_of_box_cube_is_clipped(self, spec32):
        # _cell_slices refuses a cube sticking out of the box; the family
        # integral counts only its part inside the box
        f = GridFunction.constant(spec32, 1.0)
        Q = Cube((0.5,), 1.0)
        with pytest.raises(OutOfBox):
            _cell_slices(spec32, Q)
        assert _integral(f, Q) == pytest.approx(0.5, rel=1e-12)

    def test_additive_over_partition(self, spec32, rng):
        f = GridFunction(spec32, rng.normal(size=32))
        whole = _integral(f, Cube((-1.0,), 1.0))
        parts = _integral(f, Cube((-1.0,), 0.5)) + _integral(f, Cube((-0.5,), 0.5))
        assert whole == pytest.approx(parts, rel=1e-14)


class TestCubeAverage:
    def test_constant(self, spec32):
        f = GridFunction.constant(spec32, -3.0)
        for p in (0.5, 1.0, 2.0, 3.7):
            assert _average(f, Cube((-0.5,), 1.0), p) == pytest.approx(3.0)

    def test_indicator_measure_ratio(self, spec32):
        f = GridFunction.indicator(spec32, Cube((0.0,), 1.0))
        q = Cube((-1.0,), 2.0)
        assert _average(f, q, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert _average(f, q, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_sub_cell_cube_reads_its_cell(self, spec32):
        # a cube below one cell (off the lattice) averages the one cell it lies in
        arr = np.zeros(32)
        arr[17] = 5.0
        f = GridFunction(spec32, arr)
        inside = Cube((spec32.edge(17) + spec32.h / 4,), spec32.h / 4)
        outside = Cube((spec32.edge(18) + spec32.h / 4,), spec32.h / 4)
        assert _average(f, inside, 2.0) == pytest.approx(5.0, rel=1e-12)
        assert _average(f, outside, 2.0) == 0.0

    def test_monotone_in_f(self, spec32, rng):
        a = rng.uniform(0.0, 1.0, 32)
        b = a + rng.uniform(0.0, 1.0, 32)
        fa = GridFunction(spec32, a)
        fb = GridFunction(spec32, b)
        q = Cube((-0.25,), 0.75)
        assert _average(fa, q, 2.0) <= _average(fb, q, 2.0) + 1e-15

    def test_power_identity(self, spec32, rng):
        # cube-level power scaling: avg(|f|^l, p/l)^(1/l) == avg(f, p)
        f = GridFunction(spec32, rng.uniform(0.1, 2.0, 32))
        q = Cube((-0.5,), 1.5)
        p, ell = 3.0, 2.0
        lhs = _average(f.abs_pow(ell), q, p / ell) ** (1.0 / ell)
        rhs = _average(f, q, p)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBilinearAverage:
    def test_ones(self, spec32):
        # 3Q inside the box: both averages are 1
        one = GridFunction.constant(spec32, 1.0)
        for q in (Cube((-0.25,), 0.5), Cube((0.0,), 0.125)):
            assert _m3q_of(one, one, q, 2.0, 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_shared_indicator(self, spec32):
        # f = 1_Q fills a third of 3Q: (1/3)^(1/2) (1/3)^(1/2)
        q = Cube((0.0,), 0.25)
        f = GridFunction.indicator(spec32, q)
        assert _m3q_of(f, f, q, 2.0, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_disjoint_indicators(self):
        # 3Q = [0, 1.5): f fills 1 of it, g 0.5
        spec = GridSpec(1, 2.0, 32)
        f = GridFunction.indicator(spec, Cube((0.0,), 1.0))
        g = GridFunction.indicator(spec, Cube((1.0,), 1.0))
        got = _m3q_of(f, g, Cube((0.5,), 0.5), 2.0, 2.0)
        assert got == pytest.approx(math.sqrt(2.0) / 3.0, rel=1e-14)

    def test_conjugate_mismatch(self, spec32):
        one = GridFunction.constant(spec32, 1.0)
        for r, s in ((2.0, 2.1), (1.0, math.inf), (0.5, -1.0)):
            with pytest.raises(ConjugateMismatch):
                check_conjugate(r, s)
        check_conjugate(3.0, 1.5)
        with pytest.raises(ConjugateMismatch):
            weighted_bilinear_maximal(one, one, one, one, 0.5, 2.0, 2.1, 1.0)
        with pytest.raises(ConjugateMismatch):
            sparse_bound(one, one, 0.5, 2.0, 2.1, Cube((0.0,), 1.0), DyadicGrid((0.0,)))

    def test_clipped_outside_box(self, spec32):
        # 3Q = [0, 1.5) sticks out of the box: integration clips, the measure stays full
        one = GridFunction.constant(spec32, 1.0)
        got = _m3q_of(one, one, Cube((0.5,), 0.5), 2.0, 2.0)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-14)


@settings(max_examples=40)
@given(
    data=st.lists(st.floats(0.05, 3.0), min_size=32, max_size=32),
    other=st.lists(st.floats(0.05, 3.0), min_size=32, max_size=32),
    r=st.floats(1.2, 4.0),
)
def test_holder_on_grid(data, other, r):
    # avg(|fg|) <= avg(|f|^r)^(1/r) avg(|g|^s)^(1/s)
    spec = GridSpec(1, 1.0, 32)
    s = r / (r - 1.0)
    f = GridFunction(spec, np.array(data))
    g = GridFunction(spec, np.array(other))
    q = Cube((-1.0,), 2.0)
    lhs = _average(f * g, q, 1.0)
    rhs = _average(f, q, r) * _average(g, q, s)
    assert lhs <= rhs * (1 + 1e-12)


class TestTripledWindows:
    # CellBoxes.tripled: the cell box of 3Q, clipped to the grid
    def test_interval(self):
        boxes = CellBoxes.tripled((32,), np.array([[10]]), np.array([4]))
        assert boxes.lo.tolist() == [[6]] and boxes.ext.tolist() == [[12]]

    def test_square_measure(self):
        boxes = CellBoxes.tripled((8, 8), np.array([[3, 2]]), np.array([2]))
        assert boxes.lo.tolist() == [[1, 0]] and boxes.ext.tolist() == [[6, 6]]
        assert int(boxes.ext.prod()) == 9 * 2 ** 2

    def test_containment(self, rng):
        n = 64
        width = rng.integers(1, 17, size=50)
        lo = rng.integers(0, n - width + 1)[:, None]
        boxes = CellBoxes.tripled((n,), lo, width)
        assert (boxes.lo <= lo).all()
        assert (boxes.lo + boxes.ext >= lo + width[:, None]).all()

    def test_clipped_at_the_box_edge(self):
        boxes = CellBoxes.tripled((16,), np.array([[0], [12]]), np.array([4, 4]))
        assert boxes.lo.tolist() == [[0], [8]] and boxes.ext.tolist() == [[8], [8]]


class TestGridFileIO:
    def test_roundtrip(self, tmp_path, spec32, rng):
        f = GridFunction(spec32, rng.normal(size=32))
        path = tmp_path / "f.grid"
        write_grid_file(path, f)
        back = read_grid_file(path)
        assert back.spec == spec32
        assert np.array_equal(back.samples, f.samples)

    def test_roundtrip_2d(self, tmp_path, spec2d, rng):
        f = GridFunction(spec2d, rng.normal(size=(8, 8)))
        path = tmp_path / "f2.grid"
        write_grid_file(path, f)
        back = read_grid_file(path)
        assert np.array_equal(back.samples, f.samples)

    def test_rejects_bad_n(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("1 1.0 24\n" + " ".join(["0"] * 24) + "\n")
        with pytest.raises(InputUnreadable):
            read_grid_file(path)

    def test_rejects_short_body(self, tmp_path):
        path = tmp_path / "short.grid"
        path.write_text("1 1.0 8\n0 0 0\n")
        with pytest.raises(InputUnreadable):
            read_grid_file(path)

    @pytest.mark.parametrize(
        "text",
        ["1 nan 4\n0 0 0 0\n", "1 1.0 4\n0 nan 0 0\n", "3 1.0 2\n" + "0 " * 8 + "\n"],
        ids=["nan-half-width", "nan-sample", "dim-3"],
    )
    def test_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "bad.grid"
        path.write_text(text)
        with pytest.raises(InputUnreadable):
            read_grid_file(path)


@st.composite
def grid_functions(draw):
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((1, 2, 4, 8)))
    half_width = draw(st.floats(min_value=1e-300, max_value=1e300))
    spec = GridSpec(dim, half_width, n)
    samples = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n**dim, max_size=n**dim))
    return GridFunction(spec, np.array(samples).reshape(spec.shape))


def _grid_file_text(f):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.grid")
        write_grid_file(path, f)
        with open(path, encoding="ascii") as fh:
            return fh.read()


def _read_grid_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.grid")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return read_grid_file(path)


@settings(max_examples=60)
@given(grid_functions())
def test_grid_file_roundtrip_is_bit_exact(f):
    back = _read_grid_text(_grid_file_text(f))
    assert back.spec == f.spec
    assert back.samples.tobytes() == f.samples.tobytes()


BAD_HEADERS = ("", "1 1.0", "1 1.0 8 2", "x 1.0 8", "1 one 8", "1 1.0 8.0", "3 1.0 8", "0 1.0 8",
               "1 1.0 6", "1 1.0 0", "1 -1.0 8", "1 0.0 8", "1 nan 8", "1 inf 8")


@settings(max_examples=60)
@given(grid_functions(), st.data())
def test_malformed_grid_file_raises_input_unreadable(f, data):
    header, body = _grid_file_text(f).split("\n", 1)
    tokens = body.split()
    fault = data.draw(st.sampled_from(("truncated", "sample", "header")))
    if fault == "truncated":
        tokens = tokens[: data.draw(st.integers(0, len(tokens) - 1))]
    elif fault == "sample":
        k = data.draw(st.integers(0, len(tokens) - 1))
        tokens[k] = data.draw(st.sampled_from(("abc", "1.0.0", "--1", "1e", "0x10", "nan", "inf", "-inf")))
    else:
        header = data.draw(st.sampled_from(BAD_HEADERS))
    with pytest.raises(InputUnreadable):
        _read_grid_text(header + "\n" + " ".join(tokens) + "\n")


# +0.0 and -0.0, subnormals, the largest decade, +-inf and NaN, next to ordinary values
POW_SPECIALS = (0.0, -0.0, 5e-324, 2.5e-310, 1e308, np.inf, -np.inf, np.nan, 1.0, 0.1, 3.0)


@settings(max_examples=300)
@given(
    st.lists(st.one_of(st.sampled_from(POW_SPECIALS), st.floats(0.0, 1e308)), min_size=1, max_size=8),
    st.lists(st.integers(0, 7), max_size=60),
    st.sampled_from((1.0, 0.5, 1.0 / 3.0, 0.3125, 1.25, 2.0, 3.0, 0.0, -0.5, -1.0, -1.0 / 3.0, -2.0, -3.0)),
)
def test_scalar_pow_equals_python_pow_bit_for_bit(pool, picks, expo):
    # many repeats of a few values; 3.0 and -3.0 are odd integers, so -0.0 and
    # -inf keep their sign; zeros and subnormals meet negative powers
    values = np.array(pool + [pool[i % len(pool)] for i in picks])
    want, raised = [], set()
    for v in values.tolist():
        try:
            want.append(v ** expo)
        except (OverflowError, ZeroDivisionError) as exc:
            raised.add(type(exc))
    if raised:  # where scalar pow raises, so does _scalar_pow; a zero to a negative power first
        with pytest.raises(ZeroDivisionError if ZeroDivisionError in raised else OverflowError):
            _scalar_pow(values, expo)
        return
    want = np.array(want)
    got = _scalar_pow(values, expo)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


def test_scalar_pow_of_a_negative_value_is_real_only_at_integer_powers():
    values = np.array([4.0, -2.0, -0.5])
    assert np.array_equal(_scalar_pow(values, 3.0), np.array([v ** 3.0 for v in values.tolist()]))
    assert np.array_equal(_scalar_pow(values, -2.0), np.array([v ** -2.0 for v in values.tolist()]))
    assert isinstance((-2.0) ** 0.5, complex)  # scalar pow has no float result here
    with pytest.raises(ValueError, match="negative"):
        _scalar_pow(values, 0.5)


# Lattices whose half cells are exact (L = 4, 2, 1) and some whose are not.
_MAP_SPECS = [
    GridSpec(1, 4.0, 64),
    GridSpec(1, 0.7, 16),
    GridSpec(1, 3.3, 8),
    GridSpec(2, 2.0, 16),
    GridSpec(2, 0.7, 8),
    GridSpec(2, 1.0, 4),
]


@st.composite
def _cells(draw, low: int, high: int, below: bool = False) -> float:
    """A position in cell units: a whole number in [low, high], one nudged
    within 2e-9 relative of it, a half cell past it, any value, or (with
    `below`) a positive value below one cell."""
    i = draw(st.integers(low, high))
    kind = draw(st.sampled_from(["whole", "near", "half", "any"] + ["below"] * below))
    if kind == "whole":
        return float(i)
    if kind == "near":
        return i + draw(st.floats(-2e-9, 2e-9)) * max(1.0, abs(i))
    if kind == "half":
        return i + 0.5
    if kind == "any":
        return draw(st.floats(low - 0.5, high + 0.5))
    return draw(st.floats(1e-6, 0.75))


@st.composite
def _map_cubes(draw, spec: GridSpec) -> Cube:
    """A cube whose corner cells lie in or out of the box, and whose side is
    near a whole number of cells or below one cell."""
    n = spec.cells_per_axis
    corner = tuple(spec.edge(draw(_cells(-n, 2 * n))) for _ in range(spec.dim))
    width = draw(_cells(1, n + 2, below=True))
    return Cube(corner, width * spec.h)


def _outcome(fn, *args):
    """fn's result, or the kind of bifrac error it raises."""
    try:
        return fn(*args)
    except BifracError as exc:
        return type(exc)


@settings(max_examples=400)
@given(data=st.data())
def test_the_coordinate_map_equals_the_per_module_formulas(data):
    spec = data.draw(st.sampled_from(_MAP_SPECS))
    cubes = data.draw(st.lists(_map_cubes(spec), min_size=1, max_size=6))
    for Q in cubes:
        for x in Q.corner:
            assert spec.edge_index(x) == int(round((x + spec.half_width) / spec.h))
            assert type(spec.edge_index(x)) is int
        for clip in (False, True):
            assert _outcome(_cell_slices, spec, Q, clip) == _outcome(cell_slices_oracle, spec, Q, clip)
        # a root is checked as any cube is: where the parent formula named
        # every failure NonAlignedCube, leaving the box and rounding to no
        # cells now raise their own kinds
        new, old, any_cube = (_outcome(fn, spec, Q) for fn in (_root_block, root_block_oracle, cell_slices_oracle))
        if any_cube in (OutOfBox, DegenerateCube):
            assert (new, old) == (any_cube, NonAlignedCube)
        else:
            assert new == old
    corners = np.array([Q.corner for Q in cubes])
    sides = np.array([Q.side for Q in cubes])
    family = _with_cell_bounds(spec, corners, sides, "drawn")
    lo, hi = cell_bounds_oracle(spec, corners, sides)
    np.testing.assert_array_equal(family.lo, lo)
    np.testing.assert_array_equal(family.hi, hi)
    # 3Q windows from the corners and sides rounded to whole cells, aligned or not
    rounded = np.rint((corners + spec.half_width) / spec.h).astype(np.int64)
    want = CellBoxes.tripled(spec.shape, rounded, np.rint(sides / spec.h).astype(np.int64))
    np.testing.assert_array_equal(family.windows3.lo, want.lo)
    np.testing.assert_array_equal(family.windows3.ext, want.ext)


def test_the_coordinate_map_reads_far_and_non_finite_coordinates_off_the_lattice():
    spec = GridSpec(2, 1.0, 8)
    corners = np.array([[1e300, 0.0], [-1e300, 0.0], [math.nan, 0.0], [0.0, math.inf], [0.0, 0.0]])
    lo, width, side_ok, corner_ok = spec.lattice_cubes(corners, np.array([0.25, 0.25, 0.25, 0.25, math.nan]))
    assert lo[:4].tolist() == [[2 ** 53, 4], [-(2 ** 53), 4], [-(2 ** 53), 4], [4, -(2 ** 53)]]
    assert corner_ok.tolist() == [[True, True], [True, True], [False, True], [True, False], [True, True]]
    assert side_ok.tolist() == [True] * 4 + [False] and width[-1] == -(2 ** 53)
    with pytest.raises(OutOfBox):
        _cell_slices(spec, Cube((1e300, 0.0), 0.25))
    assert _cell_slices(spec, Cube((1e300, 0.0), 0.25), clip=True) == (slice(0, 0), slice(4, 5))
    for clip in (False, True):
        with pytest.raises(NonAlignedCube):
            _cell_slices(spec, Cube((math.nan, 0.0), 0.25), clip)
